// Receiver-driven replication flow control (DESIGN.md §12): a follower
// that drains slower than the leader posts must pace the leader's credit
// window below its posted receive pool. With the paper's fixed
// grant-per-commit scheme and an oversized window, the leader overruns the
// follower's receives and the RNR teardown kills the replication QP; with
// receiver-paced credits the same workload drains completely with zero
// RNR events.
#include <gtest/gtest.h>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::TopicPartitionId;

class FlowControlTest : public KdClusterTest {
 protected:
  // A follower whose CQ poller (the loop that re-posts consumed
  // receives) is much slower than the leader's replication posting rate.
  // Receives are consumed at one per replication_post_ns and re-posted at
  // one per poll_iteration_ns, so the gap widens until either the credit
  // window or the receive pool is exhausted — whichever is smaller.
  void SlowFollowerCosts() {
    cost_.cpu.poll_iteration_ns = 25000;     // slow drain: 25 us/CQE
    cost_.kafka.replication_post_ns = 7000;  // fast post: 7 us/write
  }

  kafka::BrokerConfig ReplicationConfig() {
    kafka::BrokerConfig cfg;
    cfg.rdma_produce = false;  // TCP produce keeps the leader unthrottled
    cfg.rdma_replicate = true;
    cfg.replication_max_batch_bytes = 1;  // no merging: 1 record = 1 write
    cfg.push_replication_credits = 2048;  // >> follower's 256 recv pool
    return cfg;
  }

  // Produces `n` small records with acks=1 (leader-only ack), so the
  // producer never waits for replication and the push path runs as fast
  // as its flow control allows.
  void ProduceUnreplicated(const TopicPartitionId& tp, int n) {
    bool done = false;
    auto run = [](KdClusterTest* t, TopicPartitionId tp, int n,
                  bool* done) -> sim::Co<void> {
      kafka::TcpProducer producer(
          t->sim_, *t->tcpnet_, t->client_node_,
          kafka::ProducerConfig{.acks = 1, .max_inflight = 32});
      KD_CHECK_OK(co_await producer.Connect(t->Leader(tp)->node()));
      for (int i = 0; i < n; i++) {
        KD_CHECK_OK(
            co_await producer.ProduceAsync(tp, Slice("k", 1), Slice("v", 1)));
      }
      KD_CHECK_OK(co_await producer.Flush());
      producer.Close();
      *done = true;
    };
    sim::Spawn(sim_, run(this, tp, n, &done));
    RunToFlag(&done);
  }

  uint64_t RnrEvents() {
    return fabric_->obs().metrics.GetCounter("kd.rdma.rnr_events")->value();
  }

  int64_t FollowerLeo(const TopicPartitionId& tp) {
    kafka::Broker* follower = cluster_->broker(0) == Leader(tp)
                                  ? cluster_->broker(1)
                                  : cluster_->broker(0);
    return follower->GetPartition(tp)->log.log_end_offset();
  }
};

constexpr int kRecords = 800;

TEST_F(FlowControlTest, FixedCreditsOverrunSlowFollowerRecvPool) {
  SlowFollowerCosts();
  BootWithConfig(ReplicationConfig(), 2, 1, 2);
  TopicPartitionId tp{"t", 0};
  ProduceUnreplicated(tp, kRecords);
  sim_.RunFor(Millis(200));  // let replication run into the wall

  // The oversized fixed window let the leader post far past the
  // follower's receive pool: receiver-not-ready fired and tore the
  // replication QP down, stranding the follower mid-log.
  EXPECT_GT(RnrEvents(), 0u);
  EXPECT_LT(FollowerLeo(tp), kRecords);
}

TEST_F(FlowControlTest, PacedCreditsSustainSlowFollowerWithoutRnr) {
  SlowFollowerCosts();
  kafka::BrokerConfig cfg = ReplicationConfig();
  cfg.receiver_paced_credits = true;
  BootWithConfig(cfg, 2, 1, 2);
  TopicPartitionId tp{"t", 0};
  ProduceUnreplicated(tp, kRecords);

  // Same workload, same costs: the receiver-paced window (capped below
  // the receive pool and resized to the observed drain rate) lets the
  // slow follower absorb the full log with zero RNR events.
  kafka::Broker* follower = cluster_->broker(0) == Leader(tp)
                                ? cluster_->broker(1)
                                : cluster_->broker(0);
  sim_.RunUntilDone(
      [&]() {
        return follower->GetPartition(tp)->log.log_end_offset() >= kRecords;
      },
      Seconds(120));
  EXPECT_EQ(FollowerLeo(tp), kRecords);
  EXPECT_EQ(RnrEvents(), 0u);
}

TEST_F(FlowControlTest, PacedCreditFlushTimerStopsAtShutdown) {
  kafka::BrokerConfig cfg = ReplicationConfig();
  cfg.receiver_paced_credits = true;
  BootWithConfig(cfg, 2, 1, 2);
  TopicPartitionId tp{"t", 0};
  ProduceUnreplicated(tp, 50);
  sim_.RunFor(Millis(5));
  ASSERT_EQ(FollowerLeo(tp), 50);
  // The idle credit-flush timer keeps the queue alive while serving.
  const uint64_t before = sim_.events_processed();
  sim_.RunFor(Millis(1));
  EXPECT_GT(sim_.events_processed(), before);

  // After shutdown the timer fires at most once more (one 200 us flush
  // interval) and exits instead of ticking through the teardown drain.
  cluster_->Shutdown();
  sim_.RunFor(Millis(1));
  EXPECT_TRUE(sim_.Idle());
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
