// Cross-layer metric invariants (ISSUE 3 satellite): the observability
// counters must agree with what the datapaths actually did — bytes in ==
// bytes out, TCP pays copies, RDMA produce does not.
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "harness/harness.h"

namespace kafkadirect {
namespace harness {
namespace {

uint64_t CounterValue(TestCluster& cluster, const std::string& name) {
  const obs::Counter* c = cluster.fabric().obs().metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(ObsInvariantsTest, TcpProduceConsumeConservesBytes) {
  DeploymentConfig deploy;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.preload_records = 50;
  options.record_size = 512;
  auto result = RunConsumeWorkload(cluster, SystemKind::kKafka, options);
  ASSERT_EQ(result.records, 50u);

  // Every byte the broker appended came back out through fetches.
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t fetched =
      CounterValue(cluster, "kd.broker.0.fetch.bytes_returned");
  EXPECT_GT(produced, 50u * 512u);
  EXPECT_EQ(produced, fetched);

  // The TCP path pays kernel copies on both produce and fetch.
  EXPECT_GT(CounterValue(cluster, "kd.tcp.copied_bytes"), produced);
  EXPECT_GT(CounterValue(cluster, "kd.tcp.syscalls"), 100u);
  // TCP-ingested batches are copied into the log exactly once.
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"),
            produced);
}

TEST(ObsInvariantsTest, RdmaProduceIsZeroCopy) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 30;
  options.record_size = 1024;
  options.max_inflight = 4;
  auto result =
      RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 30u);
  ASSERT_EQ(result.errors, 0u);

  // One-sided writes land in the TP file without any broker-side copy.
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t zero_copy =
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes");
  EXPECT_GT(zero_copy, 30u * 1024u);
  EXPECT_EQ(zero_copy, produced);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"), 0u);

  // The verbs layer saw the writes and the control-message acks.
  EXPECT_GE(CounterValue(cluster, "kd.rdma.ops.write"), 30u);
  EXPECT_GT(CounterValue(cluster, "kd.direct.ctrl_msgs"), 0u);
  EXPECT_GT(CounterValue(cluster, "kd.rdma.bytes_posted"), zero_copy);
}

TEST(ObsInvariantsTest, SrqAccountingAndZeroCopyHoldWithSrqEnabled) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.use_srq = true;
  deploy.broker.cq_poll_batch = 8;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 30;
  options.record_size = 1024;
  options.max_inflight = 4;
  auto result =
      RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 30u);
  ASSERT_EQ(result.errors, 0u);

  // SRQ accounting: posted - consumed == live depth, both in the SRQ's
  // own view and in the process-wide metric instruments.
  uint64_t posted = CounterValue(cluster, "kd.rdma.srq.posted");
  uint64_t consumed = CounterValue(cluster, "kd.rdma.srq.consumed");
  const obs::Gauge* depth_gauge =
      cluster.fabric().obs().metrics.FindGauge("kd.rdma.srq.depth");
  ASSERT_NE(depth_gauge, nullptr);
  EXPECT_GT(posted, 0u);
  EXPECT_GT(consumed, 0u);  // the workload ran through the SRQ
  EXPECT_EQ(posted - consumed,
            static_cast<uint64_t>(depth_gauge->value()));
  rdma::SharedReceiveQueue* srq = cluster.Broker(0)->srq();
  ASSERT_NE(srq, nullptr);
  EXPECT_EQ(srq->posted() - srq->consumed(), srq->depth());
  EXPECT_EQ(posted - consumed, srq->depth());  // single broker: one SRQ

  // The zero-copy invariants are unchanged by the SRQ datapath.
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t zero_copy =
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes");
  EXPECT_GT(zero_copy, 30u * 1024u);
  EXPECT_EQ(zero_copy, produced);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"), 0u);

  // The batched poll path recorded its drain sizes.
  const obs::LogLinearHistogram* batches =
      cluster.fabric().obs().metrics.FindHistogram("kd.rdma.cq.poll_batch");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->count(), 0u);
}

TEST(ObsInvariantsTest, AckedProduceImpliesHwmAtLogEnd) {
  DeploymentConfig deploy;
  deploy.num_brokers = 3;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 20;
  options.record_size = 256;
  options.replication_factor = 3;
  options.acks = -1;
  auto result = RunProduceWorkload(cluster, SystemKind::kKafka, options);
  ASSERT_EQ(result.records, 20u);
  ASSERT_EQ(result.errors, 0u);

  // acks=all responses only fire once the HWM covers the batch, so after
  // the last ack the leader's HWM must equal its log end, and follower
  // progress (ISR updates) must have been recorded.
  int32_t leader = 0;
  uint64_t hwm_updates = 0;
  uint64_t isr_updates = 0;
  for (int b = 0; b < 3; b++) {
    std::string prefix = "kd.broker." + std::to_string(b) + ".";
    hwm_updates += CounterValue(cluster, prefix + "hwm.updates");
    uint64_t isr = CounterValue(cluster, prefix + "isr.updates");
    if (isr > 0) leader = b;
    isr_updates += isr;
  }
  EXPECT_GT(hwm_updates, 0u);
  EXPECT_GT(isr_updates, 0u);
  (void)leader;

  // Queue instrumentation saw the requests.
  const obs::LogLinearHistogram* wait =
      cluster.fabric().obs().metrics.FindHistogram(
          "kd.broker.0.request_queue.wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count(), 0u);
}

// --- Datapath protocols (§4.2.2 notification, DESIGN.md §12 upgrades):
// the byte-conservation invariants must hold under every protocol
// combination, and the notification counters must agree with the knob. ---

uint64_t NotifyCounts(SystemKind kind, kd::NotifyMode mode,
                      size_t record_size, uint64_t* write_imm,
                      uint64_t* write_send) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 100;
  options.record_size = record_size;
  options.max_inflight = 4;
  options.notify_mode = mode;
  auto result = RunProduceWorkload(cluster, kind, options);
  KD_CHECK(result.errors == 0);
  *write_imm = CounterValue(cluster, "kd.direct.notify.write_imm");
  *write_send = CounterValue(cluster, "kd.direct.notify.write_send");
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  uint64_t zero_copy =
      CounterValue(cluster, "kd.direct.rdma_produce.zero_copy_bytes");
  KD_CHECK(produced == zero_copy);  // conservation holds in every mode
  return result.records;
}

TEST(ObsInvariantsTest, NotificationModeCountersMatchTheKnob) {
  uint64_t imm = 0, send = 0;
  // WriteWithImm (the paper's pick): the immediate carries every notice.
  uint64_t n = NotifyCounts(SystemKind::kKdExclusive,
                            kd::NotifyMode::kWriteImm, 256, &imm, &send);
  EXPECT_EQ(imm, n);
  EXPECT_EQ(send, 0u);
  // Write+Send: every record notifies via the separate Send.
  n = NotifyCounts(SystemKind::kKdExclusive, kd::NotifyMode::kWriteSend, 256,
                   &imm, &send);
  EXPECT_EQ(send, n);
  EXPECT_EQ(imm, 0u);
}

TEST(ObsInvariantsTest, RingConsumeConservesBytesWithZeroReads) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.preload_records = 80;
  options.record_size = 512;
  options.ring_consume = true;
  auto result =
      RunConsumeWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 80u);

  // Every appended byte crossed the fabric through the ring exactly once,
  // and the consumer never issued an RDMA Read (neither data fetches nor
  // metadata-slot polls).
  EXPECT_EQ(CounterValue(cluster, "kd.direct.ring.pushed_bytes"),
            CounterValue(cluster, "kd.broker.0.produce.bytes"));
  EXPECT_EQ(CounterValue(cluster, "kd.rdma.ops.read"), 0u);
}

TEST(ObsInvariantsTest, AllProtocolUpgradesComposeCleanly) {
  // Both upgrades in one rf=2 deployment: receiver-paced credits on the
  // push-replication path feeding the follower, ring consume draining the
  // leader.
  DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_replicate = true;
  deploy.broker.rdma_consume = true;
  deploy.broker.receiver_paced_credits = true;
  TestCluster cluster(deploy);
  ConsumeOptions options;
  options.replication_factor = 2;
  options.preload_records = 150;
  options.record_size = 1024;
  options.ring_consume = true;
  auto result =
      RunConsumeWorkload(cluster, SystemKind::kKdExclusive, options);
  ASSERT_EQ(result.records, 150u);

  // Every byte the leader appended reached the follower through push
  // replication, and reached the consumer through the ring exactly once,
  // without a single RDMA Read.
  uint64_t leader_bytes = CounterValue(cluster, "kd.broker.0.produce.bytes");
  EXPECT_GT(leader_bytes, 150u * 1024u);
  EXPECT_EQ(cluster.Broker(0)->stats().bytes_appended, leader_bytes);
  EXPECT_EQ(cluster.Broker(1)->stats().bytes_appended, leader_bytes);
  EXPECT_GT(cluster.Broker(1)->stats().replication_writes, 0u);
  EXPECT_EQ(CounterValue(cluster, "kd.direct.ring.pushed_bytes"),
            leader_bytes);
  EXPECT_EQ(CounterValue(cluster, "kd.rdma.ops.read"), 0u);
  EXPECT_EQ(CounterValue(cluster, "kd.rdma.rnr_events"), 0u);
}

// --- Standard watchers ticking live against a real deployment ---

obs::Monitor& ArmMonitor(TestCluster& cluster, sim::TimeNs period_ns) {
  obs::Observability& ob = cluster.fabric().obs();
  obs::InstallStandardWatchers(ob.monitor);
  ob.monitor.StartTicking(cluster.sim(), ob.metrics, period_ns);
  return ob.monitor;
}

std::string Violations(const obs::Monitor& mon) {
  std::string out;
  for (const auto& v : mon.violations()) {
    out += v.watcher + ": " + v.detail + "\n";
  }
  return out;
}

TEST(ObsInvariantsTest, HwmMonotonicWithOneBrokerLeadingTwoPartitions) {
  DeploymentConfig deploy;  // one broker leads every partition
  TestCluster cluster(deploy);
  obs::Monitor& mon = ArmMonitor(cluster, 1000);
  ProduceOptions options;
  options.partitions = 2;
  options.producers = 3;  // partition 0 gets two producers, partition 1 one
  options.records_per_producer = 30;
  options.record_size = 256;
  options.max_inflight = 2;
  auto result = RunProduceWorkload(cluster, SystemKind::kKafka, options);
  ASSERT_EQ(result.records, 90u);
  ASSERT_EQ(result.errors, 0u);
  EXPECT_GT(mon.checks_run(), 100u);
  EXPECT_EQ(mon.CheckNow(cluster.fabric().obs().metrics, cluster.sim().Now()),
            0);
  EXPECT_TRUE(mon.violations().empty()) << Violations(mon);

  // Each partition carries its own HWM gauge, at different heights.
  std::map<std::string, int64_t> hwms;
  cluster.fabric().obs().metrics.ForEachGauge(
      [&](const std::string& name, const obs::Gauge& g) {
        if (name.find(".hwm.offset") != std::string::npos) {
          hwms[name] = g.value();
        }
      });
  ASSERT_EQ(hwms.size(), 2u);
  EXPECT_EQ(hwms.begin()->second, 60) << hwms.begin()->first;
  EXPECT_EQ(hwms.rbegin()->second, 30) << hwms.rbegin()->first;
  EXPECT_EQ(hwms.begin()->first.rfind("kd.broker.0.", 0), 0u);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.hwm.updates"), 90u);
}

TEST(ObsInvariantsTest, ByteConservationHoldsInsideTheCopyDelay) {
  DeploymentConfig deploy;
  TestCluster cluster(deploy);
  const sim::TimeNs period = 500;
  ProduceOptions options;
  options.records_per_producer = 40;
  options.record_size = 4096;
  // Every TCP batch spends several tick periods in the broker's copy into
  // the file, so ticks land between copy start and append.
  ASSERT_GT(cluster.cost().kafka.produce_copy_ns_per_byte *
                static_cast<double>(options.record_size),
            4.0 * period);
  obs::Monitor& mon = ArmMonitor(cluster, period);
  auto result = RunProduceWorkload(cluster, SystemKind::kKafka, options);
  ASSERT_EQ(result.records, 40u);
  ASSERT_EQ(result.errors, 0u);
  EXPECT_TRUE(mon.violations().empty()) << Violations(mon);
  uint64_t produced = CounterValue(cluster, "kd.broker.0.produce.bytes");
  EXPECT_GT(produced, 40u * 4096u);
  EXPECT_EQ(CounterValue(cluster, "kd.broker.0.produce.copied_bytes"),
            produced);
}

TEST(ObsInvariantsTest, MetricsJsonSnapshotIsWritable) {
  DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  TestCluster cluster(deploy);
  ProduceOptions options;
  options.records_per_producer = 5;
  (void)RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  std::ostringstream os;
  cluster.fabric().obs().metrics.WriteJson(os);
  std::string json = os.str();
  // Per-QP verbs counters and the TCP copied-bytes counter are present
  // (the fig10 --metrics_json acceptance criterion).
  EXPECT_NE(json.find("\"kd.rdma.qp."), std::string::npos);
  EXPECT_NE(json.find("\"kd.tcp.copied_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"kd.broker.0.api.produce.latency_ns\""),
            std::string::npos);
}

}  // namespace
}  // namespace harness
}  // namespace kafkadirect
