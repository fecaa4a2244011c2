// Cluster control plane (DESIGN.md §15): controller election and
// re-election, broker-death detection, partition-leader failover from the
// ISR, ISR shrink on follower death, assignment mirroring, and committed
// offsets surviving a leader kill via ISR replication.
#include "kafka/controller.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "kafka/cluster.h"
#include "kafka/consumer.h"

namespace kafkadirect {
namespace kafka {
namespace {

class ControllerTest : public ::testing::Test {
 public:
  void Boot(int num_brokers, bool control_plane = true) {
    fabric_ = std::make_unique<net::Fabric>(sim_, cost_);
    tcpnet_ = std::make_unique<tcpnet::Network>(sim_, *fabric_);
    BrokerConfig cfg;
    cfg.control_plane = control_plane;
    cluster_ = std::make_unique<Cluster>(sim_, *fabric_, *tcpnet_, cfg,
                                         num_brokers);
    KD_CHECK_OK(cluster_->Start());
    cluster_->StartControlPlane();
  }

  ControlPlane* Cp(int id) { return cluster_->broker(id)->control_plane(); }

  int CountControllers() {
    int n = 0;
    for (int i = 0; i < static_cast<int>(cluster_->num_brokers()); i++) {
      if (!cluster_->IsBrokerAlive(i)) continue;
      if (Cp(i) != nullptr && Cp(i)->is_controller()) n++;
    }
    return n;
  }

  ~ControllerTest() override {
    if (cluster_ != nullptr) cluster_->Shutdown();
    sim_.RunFor(Seconds(1));  // drain control-plane coroutines
  }

  sim::Simulator sim_;
  CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<tcpnet::Network> tcpnet_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ControllerTest, OffByDefault) {
  Boot(2, /*control_plane=*/false);
  EXPECT_EQ(cluster_->broker(0)->control_plane(), nullptr);
  EXPECT_EQ(cluster_->broker(1)->control_plane(), nullptr);
  sim_.RunFor(Millis(50));
  EXPECT_EQ(cluster_->ControllerBroker(), nullptr);
}

TEST_F(ControllerTest, LowestIdWinsInitialElection) {
  Boot(3);
  sim_.RunFor(Millis(50));
  EXPECT_TRUE(Cp(0)->is_controller());
  EXPECT_FALSE(Cp(1)->is_controller());
  EXPECT_FALSE(Cp(2)->is_controller());
  EXPECT_EQ(CountControllers(), 1);
  EXPECT_GE(Cp(0)->term(), 1);
  // The winner's heartbeats told everyone who the controller is.
  EXPECT_EQ(Cp(1)->known_controller(), 0);
  EXPECT_EQ(Cp(2)->known_controller(), 0);
  EXPECT_EQ(cluster_->ControllerBroker(), cluster_->broker(0));
}

TEST_F(ControllerTest, ReelectionAfterControllerDeath) {
  Boot(3);
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(Cp(0)->is_controller());
  int64_t old_term = Cp(0)->term();
  cluster_->KillBroker(0);
  sim_.RunFor(Millis(100));
  // The lowest surviving id takes over under a strictly higher term.
  EXPECT_TRUE(Cp(1)->is_controller());
  EXPECT_GT(Cp(1)->term(), old_term);
  EXPECT_EQ(Cp(2)->known_controller(), 1);
  EXPECT_EQ(CountControllers(), 1);
  EXPECT_EQ(cluster_->ControllerBroker(), cluster_->broker(1));
}

TEST_F(ControllerTest, DeadLeaderFailsOverToIsrMember) {
  Boot(3);
  // One partition, fully replicated: leader 0, followers 1 and 2.
  KD_CHECK_OK(cluster_->CreateTopic("t", 1, 3));
  TopicPartitionId tp{"t", 0};
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(Cp(0)->is_controller());
  cluster_->KillBroker(0);
  sim_.RunFor(Millis(150));

  // Empty logs tie on LEO; the lowest alive ISR id (1) wins.
  ASSERT_TRUE(Cp(1)->is_controller());
  const auto& assignments = Cp(1)->assignments();
  auto it = assignments.find(tp);
  ASSERT_NE(it, assignments.end());
  EXPECT_EQ(it->second.leader, 1);
  EXPECT_EQ(it->second.epoch, 1);  // leader move bumped the epoch
  // The dead broker left the ISR.
  for (int32_t member : it->second.isr) EXPECT_NE(member, 0);

  // Every alive broker mirrors the move, both in partition state and in
  // client-facing metadata.
  for (int id : {1, 2}) {
    PartitionState* ps = cluster_->broker(id)->GetPartition(tp);
    ASSERT_NE(ps, nullptr);
    EXPECT_EQ(ps->leader_id, 1) << "broker " << id;
    EXPECT_EQ(ps->leader_epoch, 1) << "broker " << id;
    EXPECT_EQ(ps->is_leader, id == 1) << "broker " << id;
    EXPECT_EQ(cluster_->broker(id)->MetadataLeaderOf(tp), 1);
  }
  EXPECT_EQ(cluster_->LeaderOf(tp), cluster_->broker(1));
  EXPECT_GE(
      fabric_->obs().metrics.GetCounter("kd.cp.leader_moves")->value(), 1u);
}

TEST_F(ControllerTest, DeadFollowerShrinksIsrWithoutLeaderMove) {
  Boot(3);
  KD_CHECK_OK(cluster_->CreateTopic("t", 1, 3));
  TopicPartitionId tp{"t", 0};
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(Cp(0)->is_controller());
  cluster_->KillBroker(2);  // follower of t.0, not the controller
  sim_.RunFor(Millis(150));

  const auto& assignments = Cp(0)->assignments();
  auto it = assignments.find(tp);
  ASSERT_NE(it, assignments.end());
  // Leadership (and the epoch) did not move; only the ISR shrank.
  EXPECT_EQ(it->second.leader, 0);
  EXPECT_EQ(it->second.epoch, 0);
  EXPECT_EQ(it->second.isr, (std::vector<int32_t>{0, 1}));
  EXPECT_GE(fabric_->obs().metrics.GetCounter("kd.cp.isr_shrinks")->value(),
            1u);

  // The freshness guard keeps the dead follower out: with zero lag on an
  // idle partition it would otherwise look caught-up to the ISR manager.
  sim_.RunFor(Millis(200));
  it = Cp(0)->assignments().find(tp);
  ASSERT_NE(it, Cp(0)->assignments().end());
  EXPECT_EQ(it->second.isr, (std::vector<int32_t>{0, 1}));
}

TEST_F(ControllerTest, SingleControllerAfterCascadingDeaths) {
  Boot(4);
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(Cp(0)->is_controller());
  cluster_->KillBroker(0);
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(Cp(1)->is_controller());
  int64_t term_after_first = Cp(1)->term();
  cluster_->KillBroker(1);
  sim_.RunFor(Millis(150));
  EXPECT_TRUE(Cp(2)->is_controller());
  EXPECT_GT(Cp(2)->term(), term_after_first);
  EXPECT_EQ(Cp(3)->known_controller(), 2);
  EXPECT_EQ(CountControllers(), 1);
  EXPECT_GE(
      fabric_->obs().metrics.GetCounter("kd.cp.broker_deaths")->value(), 2u);
}


// A consumer group's committed offsets: one topic "t" and a client node to
// commit from. The group is only the key of the commit; there is no
// membership.
class GroupTest : public ControllerTest {
 public:
  void Boot(int num_brokers, int partitions, int rf) {
    ControllerTest::Boot(num_brokers);
    KD_CHECK_OK(cluster_->CreateTopic("t", partitions, rf));
    client_node_ = fabric_->AddNode("client");
    sim_.RunFor(Millis(30));  // let the controller election settle
  }

  net::NodeId client_node_ = 0;
};

sim::Co<void> CommitAt(sim::Simulator* sim, tcpnet::Network* tcp,
                       net::NodeId node, net::NodeId leader,
                       TopicPartitionId tp, int64_t offset, bool* done) {
  TcpConsumer committer(*sim, *tcp, node);
  KD_CHECK_OK(co_await committer.Connect(leader));
  KD_CHECK_OK(co_await committer.CommitOffset(tp, "g", offset));
  *done = true;
}

sim::Co<void> FetchCommitted(sim::Simulator* sim, tcpnet::Network* tcp,
                             net::NodeId node, net::NodeId leader,
                             TopicPartitionId tp, int64_t* out, bool* done) {
  TcpConsumer consumer(*sim, *tcp, node);
  KD_CHECK_OK(co_await consumer.Connect(leader));
  auto off = co_await consumer.FetchCommittedOffset(tp, "g");
  KD_CHECK(off.ok());
  *out = off.value();
  *done = true;
}

TEST_F(GroupTest, CommittedOffsetSurvivesLeaderKill) {
  Boot(3, 1, 3);
  TopicPartitionId tp{"t", 0};
  ASSERT_EQ(cluster_->LeaderOf(tp), cluster_->broker(0));
  bool committed = false;
  sim::Spawn(sim_, CommitAt(&sim_, tcpnet_.get(), client_node_,
                            cluster_->broker(0)->node(), tp, 42,
                            &committed));
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(committed);
  // The leader forwarded the commit to every ISR follower.
  EXPECT_EQ(cluster_->broker(1)->GetPartition(tp)->committed_offsets["g"],
            42);
  EXPECT_EQ(cluster_->broker(2)->GetPartition(tp)->committed_offsets["g"],
            42);

  cluster_->KillBroker(0);
  sim_.RunFor(Millis(150));
  Broker* new_leader = cluster_->LeaderOf(tp);
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader, cluster_->broker(0));
  // A consumer asking the NEW leader resumes from the offset committed at
  // the old one.
  int64_t resumed = -1;
  bool fetched = false;
  sim::Spawn(sim_, FetchCommitted(&sim_, tcpnet_.get(), client_node_,
                                  new_leader->node(), tp, &resumed,
                                  &fetched));
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(fetched);
  EXPECT_EQ(resumed, 42);
}

}  // namespace
}  // namespace kafka
}  // namespace kafkadirect
