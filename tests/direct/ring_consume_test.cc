// Ring-buffer consume protocol (DESIGN.md §12): the broker pushes
// committed bytes into a consumer-registered ring and publishes a tail
// pointer every 16 KiB; the consumer drains locally and writes its consumed
// count back one-sidedly. End-to-end: record fidelity, zero RDMA Reads,
// amortized notifications, live tailing, and the broker's rdma_consume gate.
#include <gtest/gtest.h>

#include <cstring>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::OwnedRecord;
using kafka::TopicPartitionId;

class RingConsumeTest : public KdClusterTest {
 protected:
  void BootRing(bool rdma_consume = true) {
    kafka::BrokerConfig cfg;
    cfg.rdma_produce = true;
    cfg.rdma_consume = rdma_consume;
    BootWithConfig(cfg, 1, 1, 1);
  }

  // Produces `n` records through the RDMA produce path, each tagged with
  // its index so delivery order and content are checkable.
  void Preload(const TopicPartitionId& tp, int n, size_t size) {
    bool done = false;
    auto run = [](KdClusterTest* t, TopicPartitionId tp, int n, size_t size,
                  bool* done) -> sim::Co<void> {
      RdmaProducer producer(t->sim_, *t->fabric_, *t->tcpnet_,
                            t->client_node_,
                            RdmaProducerConfig{.exclusive = true,
                                               .max_inflight = 16});
      KD_CHECK((co_await producer.Connect(t->Leader(tp), tp)).ok());
      std::string filler(size, 'd');
      for (int i = 0; i < n; i++) {
        std::string payload = "record-" + std::to_string(i) + "-" + filler;
        KD_CHECK(
            (co_await producer.ProduceAsync(Slice("k", 1), Slice(payload)))
                .ok());
      }
      KD_CHECK((co_await producer.Flush()).ok());
      producer.Close();
      *done = true;
    };
    sim::Spawn(sim_, run(this, tp, n, size, &done));
    RunToFlag(&done);
  }

  uint64_t Notifications() {
    const obs::Counter* c =
        fabric_->obs().metrics.FindCounter("kd.direct.notifications");
    return c == nullptr ? 0 : c->value();
  }

  uint64_t RingPushedBytes() {
    const obs::Counter* c =
        fabric_->obs().metrics.FindCounter("kd.direct.ring.pushed_bytes");
    return c == nullptr ? 0 : c->value();
  }

  // Boots a broker with `rdma_consume` as given, preloads a backlog of
  // `kBacklog` records, and ring-subscribes to it. Returns the subscribe
  // status; on success also polls until the backlog is drained.
  static constexpr int kBacklog = 30;
  Status RingSubscribeToBacklog(bool rdma_consume, int* drained) {
    BootRing(rdma_consume);
    TopicPartitionId tp{"t", 0};
    Preload(tp, kBacklog, 200);
    RdmaConsumer consumer(sim_, *fabric_, *tcpnet_, client_node_,
                          RdmaConsumerConfig{.ring_consume = true,
                                             .ring_capacity = 64 * kKiB});
    Status subscribed;
    bool done = false;
    auto run = [](KdClusterTest* t, RdmaConsumer* consumer,
                  TopicPartitionId tp, Status* subscribed, int* drained,
                  bool* done) -> sim::Co<void> {
      KD_CHECK((co_await consumer->Connect(t->Leader(tp))).ok());
      *subscribed = co_await consumer->Subscribe(tp, 0);
      while (subscribed->ok() && *drained < kBacklog) {
        auto records = co_await consumer->Poll(tp);
        KD_CHECK(records.ok()) << records.status().ToString();
        *drained += static_cast<int>(records.value().size());
      }
      *done = true;
    };
    sim::Spawn(sim_, run(this, &consumer, tp, &subscribed, drained, &done));
    RunToFlag(&done);
    // Give a wrongly started pusher time to move the backlog.
    sim_.RunFor(Millis(10));
    return subscribed;
  }
};

TEST_F(RingConsumeTest, DrainsBacklogWithoutReadsAndFewNotifications) {
  BootRing();
  TopicPartitionId tp{"t", 0};
  constexpr int kRecords = 120;
  Preload(tp, kRecords, 256);
  uint64_t notify_before = Notifications();

  RdmaConsumer consumer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaConsumerConfig{.ring_consume = true,
                                           .ring_capacity = 256 * kKiB,
                                           .head_update_bytes = 4 * kKiB});
  std::vector<OwnedRecord> got;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaConsumer* consumer,
                TopicPartitionId tp, std::vector<OwnedRecord>* got,
                bool* done) -> sim::Co<void> {
    KD_CHECK((co_await consumer->Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer->Subscribe(tp, 0)).ok());
    while (got->size() < kRecords) {
      auto records = co_await consumer->Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      for (auto& r : records.value()) got->push_back(std::move(r));
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, &consumer, tp, &got, &done));
  RunToFlag(&done);

  ASSERT_EQ(got.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; i++) {
    EXPECT_EQ(got[i].offset, i);
    EXPECT_TRUE(got[i].value.rfind("record-" + std::to_string(i) + "-", 0) ==
                0)
        << got[i].value;
  }

  // The whole point of the protocol: no RDMA Reads (neither data nor
  // metadata-slot polls) and far fewer notifications than records.
  EXPECT_EQ(consumer.rdma_reads_issued(), 0u);
  EXPECT_EQ(consumer.metadata_reads(), 0u);
  uint64_t notifications = Notifications() - notify_before;
  EXPECT_GE(notifications, 1u);
  EXPECT_LT(notifications * 10, static_cast<uint64_t>(kRecords));
  // Every committed log byte travelled through the ring exactly once
  // (fetched_bytes counts key+value payload, so it is strictly inside the
  // framed wire bytes), and the consumer reclaimed space with one-sided
  // head write-backs.
  EXPECT_EQ(RingPushedBytes(), Leader(tp)->GetPartition(tp)->log.head().size());
  EXPECT_GT(RingPushedBytes(), consumer.fetched_bytes());
  EXPECT_GE(consumer.ring_head_writes(), 1u);
}

TEST_F(RingConsumeTest, TailsLiveProductionAfterDrainingBacklog) {
  BootRing();
  TopicPartitionId tp{"t", 0};
  Preload(tp, 40, 128);

  RdmaConsumer consumer(sim_, *fabric_, *tcpnet_, client_node_,
                        RdmaConsumerConfig{.ring_consume = true,
                                           .ring_capacity = 64 * kKiB});
  int drained = 0;
  bool subscribed = false;
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaConsumer* consumer,
                TopicPartitionId tp, int* drained, bool* subscribed,
                bool* done) -> sim::Co<void> {
    KD_CHECK((co_await consumer->Connect(t->Leader(tp))).ok());
    KD_CHECK((co_await consumer->Subscribe(tp, 0)).ok());
    *subscribed = true;
    // Drain the backlog plus everything produced behind our back; stop at
    // the full 80 records.
    while (*drained < 80) {
      auto records = co_await consumer->Poll(tp);
      KD_CHECK(records.ok()) << records.status().ToString();
      *drained += static_cast<int>(records.value().size());
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, &consumer, tp, &drained, &subscribed, &done));
  RunToFlag(&subscribed);

  // Produce a second wave while the consumer is parked on an empty ring:
  // the pusher must wake on the HWM advance and stream the new records.
  Preload(tp, 40, 128);
  RunToFlag(&done);
  EXPECT_EQ(drained, 80);
  EXPECT_EQ(consumer.rdma_reads_issued(), 0u);
}

// The broker serves a ring subscribe exactly when rdma_consume is on; the
// consumer's ring_consume is the only ring switch.
TEST_F(RingConsumeTest, RingSubscribeRefusedWithoutRdmaConsume) {
  int drained = 0;
  Status st = RingSubscribeToBacklog(/*rdma_consume=*/false, &drained);
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied) << st.ToString();
  EXPECT_NE(st.message().find(
                kafka::ErrorCodeName(kafka::ErrorCode::kRdmaAccessDenied)),
            std::string::npos)
      << st.ToString();
  // No RingPushLoop ran: not one backlog byte was pushed.
  EXPECT_EQ(drained, 0);
  EXPECT_EQ(RingPushedBytes(), 0u);
}

TEST_F(RingConsumeTest, RdmaConsumeAloneServesRingSubscribe) {
  int drained = 0;
  Status st = RingSubscribeToBacklog(/*rdma_consume=*/true, &drained);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(drained, kBacklog);
  TopicPartitionId tp{"t", 0};
  EXPECT_EQ(RingPushedBytes(),
            Leader(tp)->GetPartition(tp)->log.head().size());
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
