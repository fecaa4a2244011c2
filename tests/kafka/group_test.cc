// Consumer groups (DESIGN.md §15): join/sync/heartbeat/rebalance
// generations, deterministic round-robin assignment, member expiry, and
// committed offsets surviving a leader kill via ISR replication.
#include "kafka/group.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "kafka/cluster.h"
#include "kafka/consumer.h"
#include "kafka/controller.h"

namespace kafkadirect {
namespace kafka {
namespace {

class GroupTest : public ::testing::Test {
 public:
  void Boot(int num_brokers, int partitions, int rf) {
    fabric_ = std::make_unique<net::Fabric>(sim_, cost_);
    tcpnet_ = std::make_unique<tcpnet::Network>(sim_, *fabric_);
    BrokerConfig cfg;
    cfg.control_plane = true;
    cluster_ = std::make_unique<Cluster>(sim_, *fabric_, *tcpnet_, cfg,
                                         num_brokers);
    KD_CHECK_OK(cluster_->Start());
    KD_CHECK_OK(cluster_->CreateTopic("t", partitions, rf));
    cluster_->StartControlPlane();
    client_node_ = fabric_->AddNode("client");
    sim_.RunFor(Millis(30));  // let the controller election settle
  }

  GroupMember::Resolver CoordinatorResolver() {
    return [this]() -> uint64_t {
      Broker* c = cluster_->ControllerBroker();
      return c == nullptr ? GroupMember::kNoCoordinator : c->node();
    };
  }

  std::unique_ptr<GroupMember> MakeMember(const std::string& name) {
    GroupMember::Config cfg;
    cfg.group = "g";
    cfg.member = name;
    cfg.topic = "t";
    return std::make_unique<GroupMember>(sim_, *tcpnet_, client_node_,
                                         CoordinatorResolver(), cfg);
  }

  ~GroupTest() override {
    if (cluster_ != nullptr) cluster_->Shutdown();
    sim_.RunFor(Seconds(1));
  }

  sim::Simulator sim_;
  CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<tcpnet::Network> tcpnet_;
  std::unique_ptr<Cluster> cluster_;
  net::NodeId client_node_ = 0;
};

TEST_F(GroupTest, SingleMemberGetsAllPartitions) {
  Boot(1, 4, 1);
  auto m = MakeMember("a");
  m->Start();
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(m->stable());
  EXPECT_GE(m->generation(), 1);
  EXPECT_EQ(m->assignment(), (std::vector<int32_t>{0, 1, 2, 3}));
  m->Stop();
  sim_.RunFor(Millis(50));
  EXPECT_TRUE(m->stopped());
}

TEST_F(GroupTest, TwoMembersSplitRoundRobinByName) {
  Boot(1, 4, 1);
  auto a = MakeMember("a");
  auto b = MakeMember("b");
  a->Start();
  b->Start();
  sim_.RunFor(Millis(200));
  ASSERT_TRUE(a->stable());
  ASSERT_TRUE(b->stable());
  EXPECT_EQ(a->generation(), b->generation());
  // Round-robin over members sorted by name: p -> names[p % 2].
  EXPECT_EQ(a->assignment(), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(b->assignment(), (std::vector<int32_t>{1, 3}));
  a->Stop();
  b->Stop();
  sim_.RunFor(Millis(50));  // drain the membership loops
}

TEST_F(GroupTest, LeaveTriggersRebalanceToSurvivor) {
  Boot(1, 4, 1);
  auto a = MakeMember("a");
  auto b = MakeMember("b");
  a->Start();
  b->Start();
  sim_.RunFor(Millis(200));
  ASSERT_TRUE(a->stable());
  int64_t gen = a->generation();
  b->Stop();  // graceful leave
  sim_.RunFor(Millis(200));
  EXPECT_TRUE(a->stable());
  EXPECT_GT(a->generation(), gen);
  EXPECT_EQ(a->assignment(), (std::vector<int32_t>{0, 1, 2, 3}));
  a->Stop();
  sim_.RunFor(Millis(50));
}

// Joins as `member`, syncs once, then goes silent forever: the coordinator
// must expel it after the session timeout.
sim::Co<void> JoinThenGoSilent(tcpnet::Network* tcp, net::NodeId node,
                               net::NodeId coord, std::string member,
                               bool* synced) {
  auto conn_or = co_await tcp->Connect(node, coord, kKafkaPort);
  KD_CHECK(conn_or.ok());
  net::MessageStreamPtr conn = conn_or.value();
  JoinGroupRequest jreq;
  jreq.group = "g";
  jreq.member = member;
  jreq.topic = "t";
  KD_CHECK_OK(co_await conn->Send(Encode(jreq), false));
  auto jframe = co_await conn->Recv();
  KD_CHECK(jframe.ok());
  JoinGroupResponse jresp;
  KD_CHECK_OK(Decode(Slice(jframe.value()), &jresp));
  KD_CHECK(jresp.error == ErrorCode::kNone);
  SyncGroupRequest sreq;
  sreq.group = "g";
  sreq.member = member;
  sreq.generation = jresp.generation;
  KD_CHECK_OK(co_await conn->Send(Encode(sreq), false));
  auto sframe = co_await conn->Recv();
  KD_CHECK(sframe.ok());
  *synced = true;
}

TEST_F(GroupTest, SilentMemberExpiresAndGroupRebalances) {
  Boot(1, 4, 1);
  auto a = MakeMember("a");
  a->Start();
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(a->stable());
  bool synced = false;
  sim::Spawn(sim_, JoinThenGoSilent(tcpnet_.get(), client_node_,
                                    cluster_->broker(0)->node(), "z",
                                    &synced));
  sim_.RunFor(Millis(10));  // within the 20 ms session timeout
  ASSERT_TRUE(synced);
  // Both members shared the generation that formed after z's join.
  GroupCoordinator& coord =
      cluster_->broker(0)->control_plane()->groups();
  EXPECT_EQ(coord.num_members("g"), 2u);
  // z never heartbeats: one session timeout later it is expelled and the
  // survivor owns everything again.
  sim_.RunFor(Millis(200));
  EXPECT_EQ(coord.num_members("g"), 1u);
  EXPECT_TRUE(a->stable());
  EXPECT_EQ(a->assignment(), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_GE(
      fabric_->obs().metrics.GetCounter("kd.cp.group.expirations")->value(),
      1u);
  a->Stop();
  sim_.RunFor(Millis(50));
}

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
  // A rebalanced consumer asking the NEW leader resumes from the offset
  // committed at the old one.
  int64_t resumed = -1;
  bool fetched = false;
  sim::Spawn(sim_, FetchCommitted(&sim_, tcpnet_.get(), client_node_,
                                  new_leader->node(), tp, &resumed,
                                  &fetched));
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(fetched);
  EXPECT_EQ(resumed, 42);
}

TEST_F(GroupTest, MemberSurvivesCoordinatorMove) {
  Boot(3, 4, 3);
  auto a = MakeMember("a");
  a->Start();
  sim_.RunFor(Millis(100));
  ASSERT_TRUE(a->stable());
  uint64_t rebalances_before = a->rebalances();
  // Kill the controller: the coordinator moves with it and the member must
  // re-resolve, rejoin, and land stable on the new coordinator.
  cluster_->KillBroker(0);
  sim_.RunFor(Millis(300));
  EXPECT_TRUE(a->stable());
  EXPECT_GT(a->rebalances(), rebalances_before);
  EXPECT_EQ(a->assignment(), (std::vector<int32_t>{0, 1, 2, 3}));
  a->Stop();
  sim_.RunFor(Millis(50));
}

}  // namespace
}  // namespace kafka
}  // namespace kafkadirect
