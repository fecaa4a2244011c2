// Broker edge cases: malformed frames, oversized records, acks=0 (fire and
// forget), unknown topics, follower HWM propagation timing.
#include <gtest/gtest.h>

#include "common/units.h"
#include "kafka/cluster.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"

namespace kafkadirect {
namespace kafka {
namespace {

class BrokerEdgeTest : public ::testing::Test {
 public:
  void Boot(int brokers, int rf) {
    fabric_ = std::make_unique<net::Fabric>(sim_, cost_);
    tcpnet_ = std::make_unique<tcpnet::Network>(sim_, *fabric_);
    BrokerConfig cfg;
    cfg.segment_capacity = 4 * kMiB;
    cluster_ = std::make_unique<Cluster>(sim_, *fabric_, *tcpnet_, cfg,
                                         brokers);
    KD_CHECK_OK(cluster_->Start());
    KD_CHECK_OK(cluster_->CreateTopic("t", 1, rf));
    client_node_ = fabric_->AddNode("client");
  }

  void RunToFlag(const bool* done) {
    sim_.RunUntilDone([done]() { return *done; }, Seconds(120));
    ASSERT_TRUE(*done);
  }

  sim::Simulator sim_;
  CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<tcpnet::Network> tcpnet_;
  std::unique_ptr<Cluster> cluster_;
  net::NodeId client_node_ = 0;
};

TEST_F(BrokerEdgeTest, GarbageFrameGetsErrorResponseNotCrash) {
  Boot(1, 1);
  bool done = false;
  auto run = [](BrokerEdgeTest* t, bool* done) -> sim::Co<void> {
    auto conn = (co_await t->tcpnet_->Connect(
                     t->client_node_, t->cluster_->broker(0)->node(),
                     kKafkaPort))
                    .value();
    std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
    KD_CHECK((co_await conn->Send(garbage, false)).ok());
    auto reply = co_await conn->Recv();
    KD_CHECK(reply.ok());  // an error response, not a dropped connection
    *done = true;
  };
  sim::Spawn(sim_, run(this, &done));
  RunToFlag(&done);
}

TEST_F(BrokerEdgeTest, TruncatedProduceRejected) {
  Boot(1, 1);
  bool rejected = false, done = false;
  auto run = [](BrokerEdgeTest* t, bool* rejected, bool* done)
      -> sim::Co<void> {
    auto conn = (co_await t->tcpnet_->Connect(
                     t->client_node_, t->cluster_->broker(0)->node(),
                     kKafkaPort))
                    .value();
    ProduceRequest req;
    req.tp = {"t", 0};
    req.batch = BuildSingleRecordBatch(0, 0, Slice("k", 1), Slice("v", 1));
    auto frame = Encode(req);
    frame.resize(frame.size() - 10);  // truncate mid-batch
    KD_CHECK((co_await conn->Send(frame, false)).ok());
    auto reply = co_await conn->Recv();
    KD_CHECK(reply.ok());
    ProduceResponse resp;
    KD_CHECK(Decode(Slice(reply.value()), &resp).ok());
    *rejected = resp.error != ErrorCode::kNone;
    *done = true;
  };
  sim::Spawn(sim_, run(this, &rejected, &done));
  RunToFlag(&done);
  EXPECT_TRUE(rejected);
  EXPECT_EQ(cluster_->broker(0)->GetPartition({"t", 0})->log.log_end_offset(),
            0);
}

TEST_F(BrokerEdgeTest, AcksZeroIsFireAndForget) {
  Boot(1, 1);
  bool done = false;
  TcpProducer producer(sim_, *tcpnet_, client_node_,
                       ProducerConfig{.acks = 0, .max_inflight = 4});
  auto run = [](BrokerEdgeTest* t, TcpProducer* p, bool* done)
      -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->cluster_->broker(0)->node())).ok());
    TopicPartitionId tp{"t", 0};
    for (int i = 0; i < 10; i++) {
      KD_CHECK((co_await p->ProduceAsync(tp, Slice("k", 1),
                                         Slice("v", 1))).ok());
    }
    co_await sim::Delay(t->sim_, Millis(5));  // no acks to wait for
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, &done));
  RunToFlag(&done);
  EXPECT_EQ(producer.acked_records(), 10u);  // counted at send
  EXPECT_EQ(cluster_->broker(0)->GetPartition({"t", 0})->log.log_end_offset(),
            10);
}

TEST_F(BrokerEdgeTest, UnknownTopicProduceAndFetchFail) {
  Boot(1, 1);
  bool produce_failed = false, fetch_failed = false, done = false;
  auto run = [](BrokerEdgeTest* t, bool* pf, bool* ff, bool* done)
      -> sim::Co<void> {
    TcpProducer producer(t->sim_, *t->tcpnet_, t->client_node_,
                         ProducerConfig{});
    KD_CHECK((co_await producer.Connect(t->cluster_->broker(0)->node())).ok());
    TopicPartitionId nope{"nope", 0};
    auto off = co_await producer.Produce(nope, Slice("k", 1),
                                         Slice("v", 1));
    *pf = !off.ok();
    TcpConsumer consumer(t->sim_, *t->tcpnet_, t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->cluster_->broker(0)->node())).ok());
    auto records = co_await consumer.Poll(nope);
    *ff = !records.ok();
    *done = true;
  };
  sim::Spawn(sim_, run(this, &produce_failed, &fetch_failed, &done));
  RunToFlag(&done);
  EXPECT_TRUE(produce_failed);
  EXPECT_TRUE(fetch_failed);
}

TEST_F(BrokerEdgeTest, FetchBeyondLogEndRejected) {
  Boot(1, 1);
  bool failed = false, done = false;
  auto run = [](BrokerEdgeTest* t, bool* failed, bool* done)
      -> sim::Co<void> {
    TcpConsumer consumer(t->sim_, *t->tcpnet_, t->client_node_);
    KD_CHECK((co_await consumer.Connect(t->cluster_->broker(0)->node())).ok());
    consumer.Seek(1000);  // way past the (empty) log
    TopicPartitionId tp{"t", 0};
    auto records = co_await consumer.Poll(tp);
    *failed = !records.ok();
    *done = true;
  };
  sim::Spawn(sim_, run(this, &failed, &done));
  RunToFlag(&done);
  EXPECT_TRUE(failed);
}

TEST_F(BrokerEdgeTest, FollowerHwmCatchesUpToLeader) {
  Boot(2, 2);
  bool done = false;
  TcpProducer producer(sim_, *tcpnet_, client_node_,
                       ProducerConfig{.acks = -1});
  auto run = [](BrokerEdgeTest* t, TcpProducer* p, bool* done)
      -> sim::Co<void> {
    TopicPartitionId tp{"t", 0};
    Broker* leader = t->cluster_->LeaderOf(tp);
    KD_CHECK((co_await p->Connect(leader->node())).ok());
    for (int i = 0; i < 10; i++) {
      KD_CHECK((co_await p->Produce(tp, Slice("k", 1),
                                    Slice("v", 1))).ok());
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, &done));
  RunToFlag(&done);
  // The follower learns the HWM from fetch responses; the final update
  // rides the next (long-polled) fetch, up to kReplicaFetchMaxWait
  // (500 ms) later — the same lag real Kafka followers have.
  PartitionState* follower = cluster_->broker(1)->GetPartition({"t", 0});
  EXPECT_EQ(follower->log.log_end_offset(), 10);
  EXPECT_GE(follower->log.high_watermark(), 9);
  sim_.RunFor(Millis(600));
  EXPECT_EQ(follower->log.high_watermark(), 10);
}

TEST_F(BrokerEdgeTest, PurgatoryDeadlineIsFixedAtArrival) {
  Boot(1, 1);
  const TopicPartitionId tp{"t", 0};
  Broker* leader = cluster_->LeaderOf(tp);
  // One more replica gates the HWM. The test plays it: a follower that
  // catches up by one batch every 20 s of virtual time.
  const int32_t follower = 7;
  leader->GetPartition(tp)->follower_leo[follower] = 0;
  TcpProducer first(sim_, *tcpnet_, client_node_, ProducerConfig{.acks = -1});
  TcpProducer second(sim_, *tcpnet_, client_node_,
                     ProducerConfig{.acks = -1});
  struct Outcome {
    bool done = false;
    bool ok = false;
    std::string error;
    sim::TimeNs at = 0;
  };
  Outcome a;
  Outcome b;
  auto produce = [](BrokerEdgeTest* t, Broker* leader, TcpProducer* p,
                    sim::TimeNs start, Outcome* out) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(leader->node())).ok());
    co_await sim::Delay(t->sim_, start - t->sim_.Now());
    const TopicPartitionId tp{"t", 0};
    auto r = co_await p->Produce(tp, Slice("k", 1), Slice("v", 1));
    out->ok = r.ok();
    if (!r.ok()) out->error = r.status().ToString();
    out->at = t->sim_.Now();
    out->done = true;
  };
  bool follower_done = false;
  auto slow_follower = [](BrokerEdgeTest* t, Broker* leader, int32_t id,
                          bool* done) -> sim::Co<void> {
    auto conn = (co_await t->tcpnet_->Connect(t->client_node_, leader->node(),
                                              kKafkaPort))
                    .value();
    for (int64_t leo = 1; leo <= 2; leo++) {
      co_await sim::Delay(t->sim_, Seconds(20) * leo - t->sim_.Now());
      FetchRequest fetch;
      fetch.tp = {"t", 0};
      fetch.offset = leo;
      fetch.is_replica = true;
      fetch.replica_id = id;
      KD_CHECK((co_await conn->Send(Encode(fetch), false)).ok());
      KD_CHECK((co_await conn->Recv()).ok());
    }
    *done = true;
  };
  // Offsets 0 and 1, both produced long before the first catch-up.
  sim::Spawn(sim_, produce(this, leader, &first, Millis(1), &a));
  sim::Spawn(sim_, produce(this, leader, &second, Millis(2), &b));
  sim::Spawn(sim_, slow_follower(this, leader, follower, &follower_done));
  sim_.RunUntilDone([&]() { return a.done && b.done && follower_done; },
                    Seconds(120));
  ASSERT_TRUE(a.done && b.done && follower_done);
  // Offset 0 commits at the first catch-up.
  EXPECT_TRUE(a.ok) << a.error;
  EXPECT_GE(a.at, Seconds(20));
  EXPECT_LT(a.at, Seconds(21));
  // Offset 1 saw the HWM move at 20 s, but its deadline stayed 30 s after
  // arrival: it times out before the 40 s catch-up would commit it.
  EXPECT_FALSE(b.ok);
  EXPECT_NE(b.error.find(ErrorCodeName(ErrorCode::kTimedOut)),
            std::string::npos)
      << b.error;
  EXPECT_GE(b.at, Millis(2) + kProducePurgatoryTimeout);
  EXPECT_LT(b.at, Seconds(31));
  // Drain the parked connection readers so the test leaks no frame.
  cluster_->Shutdown();
  sim_.RunFor(Seconds(2));
}

TEST_F(BrokerEdgeTest, WorkerUtilizationTracksLoad) {
  Boot(1, 1);
  bool done = false;
  TcpProducer producer(sim_, *tcpnet_, client_node_,
                       ProducerConfig{.max_inflight = 8});
  auto run = [](BrokerEdgeTest* t, TcpProducer* p, bool* done)
      -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->cluster_->broker(0)->node())).ok());
    TopicPartitionId tp{"t", 0};
    std::string v(4096, 'u');
    for (int i = 0; i < 200; i++) {
      KD_CHECK((co_await p->ProduceAsync(tp, Slice("k", 1),
                                         Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, &done));
  RunToFlag(&done);
  double util = cluster_->broker(0)->WorkerUtilization();
  EXPECT_GT(util, 0.0);
  EXPECT_LT(util, 1.0);
}

}  // namespace
}  // namespace kafka
}  // namespace kafkadirect
