#include "obs/monitor.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace obs {
namespace {

Monitor::Predicate GaugeBelow(const std::string& name, int64_t limit) {
  return [name, limit](const MetricsRegistry& m, std::string* detail) {
    const Gauge* g = m.FindGauge(name);
    if (g == nullptr || g->value() < limit) return true;
    *detail = name + " over limit";
    return false;
  };
}

TEST(MonitorTest, PassingWatcherNeverFires) {
  MetricsRegistry reg;
  Monitor mon;
  mon.AddWatcher("always_ok",
                 [](const MetricsRegistry&, std::string*) { return true; });
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  EXPECT_EQ(mon.CheckNow(reg, 2), 0);
  EXPECT_TRUE(mon.violations().empty());
  EXPECT_EQ(mon.checks_run(), 2u);
}

TEST(MonitorTest, ViolationCarriesDetailAndTimestamp) {
  MetricsRegistry reg;
  reg.GetGauge("kd.test.depth")->Set(10);
  Monitor mon;
  mon.AddWatcher("depth_bound", GaugeBelow("kd.test.depth", 5));
  EXPECT_EQ(mon.CheckNow(reg, 1234), 1);
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].watcher, "depth_bound");
  EXPECT_EQ(mon.violations()[0].detail, "kd.test.depth over limit");
  EXPECT_EQ(mon.violations()[0].at_ns, 1234);
}

TEST(MonitorTest, ViolationsLatchOncePerWatcher) {
  MetricsRegistry reg;
  reg.GetGauge("kd.test.depth")->Set(10);
  Monitor mon;
  mon.AddWatcher("depth_bound", GaugeBelow("kd.test.depth", 5));
  EXPECT_EQ(mon.CheckNow(reg, 1), 1);
  // Still violated, but already reported: no repeat.
  EXPECT_EQ(mon.CheckNow(reg, 2), 0);
  EXPECT_EQ(mon.violations().size(), 1u);
}

TEST(MonitorTest, ViolationHookRunsOncePerViolation) {
  MetricsRegistry reg;
  reg.GetGauge("kd.test.depth")->Set(10);
  Monitor mon;
  mon.AddWatcher("depth_bound", GaugeBelow("kd.test.depth", 5));
  int hook_calls = 0;
  std::string seen;
  mon.set_violation_hook([&](const Monitor::Violation& v) {
    hook_calls++;
    seen = v.watcher;
  });
  mon.CheckNow(reg, 1);
  mon.CheckNow(reg, 2);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(seen, "depth_bound");
}

TEST(MonitorTest, TickingChecksAtVirtualTimePeriod) {
  MetricsRegistry reg;
  sim::Simulator sim;
  Monitor mon;
  mon.AddWatcher("depth_bound", GaugeBelow("kd.test.depth", 5));
  mon.StartTicking(sim, reg, 1000);
  // The gauge crosses the limit mid-run; the monitor must catch it on the
  // next tick, not at teardown.
  sim.Schedule(3500, [&] { reg.GetGauge("kd.test.depth")->Set(10); });
  sim.RunUntil(10000);
  mon.StopTicking();
  sim.RunUntil(20000);  // disarmed: no further checks scheduled
  ASSERT_EQ(mon.violations().size(), 1u);
  // Fired at the first tick after the fault, i.e. t=4000.
  EXPECT_EQ(mon.violations()[0].at_ns, 4000);
  EXPECT_GE(mon.checks_run(), 10u);
}

TEST(MonitorTest, StrictModeAborts) {
  MetricsRegistry reg;
  reg.GetGauge("kd.test.depth")->Set(10);
  Monitor mon;
  mon.set_strict(true);
  EXPECT_TRUE(mon.strict());
  mon.AddWatcher("depth_bound", GaugeBelow("kd.test.depth", 5));
  EXPECT_DEATH(mon.CheckNow(reg, 1), "");
}

// --- standard watcher set -------------------------------------------------

TEST(StandardWatchersTest, PassVacuouslyOnEmptyRegistry) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  EXPECT_EQ(mon.num_watchers(), 8u);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
}

TEST(StandardWatchersTest, SignaledLePosted) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetCounter("kd.rdma.wrs_posted")->Increment(10);
  reg.GetCounter("kd.rdma.wrs_signaled")->Increment(10);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  reg.GetCounter("kd.rdma.wrs_signaled")->Increment(1);
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher, "rdma.signaled_le_posted");
}

TEST(StandardWatchersTest, ByteConservation) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetCounter("kd.broker.0.produce.bytes")->Increment(1000);
  reg.GetCounter("kd.broker.1.produce.bytes")->Increment(500);
  reg.GetCounter("kd.broker.0.produce.copied_bytes")->Increment(500);
  reg.GetCounter("kd.direct.rdma_produce.zero_copy_bytes")->Increment(1000);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  // Bytes vanish: produced grows without a matching copied/zero-copy path.
  reg.GetCounter("kd.broker.0.produce.bytes")->Increment(64);
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher, "kafka.byte_conservation");
}

TEST(StandardWatchersTest, CreditWindow) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetGauge("kd.direct.repl.credit_cap")->Set(192);
  reg.GetGauge("kd.direct.repl.credits_outstanding")->Set(192);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  // Over-grant: outstanding exceeds the cap (high-water catches it even if
  // the gauge later sinks back under the limit).
  reg.GetGauge("kd.direct.repl.credits_outstanding")->Set(200);
  reg.GetGauge("kd.direct.repl.credits_outstanding")->Set(100);
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher, "direct.credit_window");
}

TEST(StandardWatchersTest, HwmMonotonic) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetGauge("kd.broker.0.t.0.hwm.offset")->Set(10);
  reg.GetGauge("kd.broker.0.t.0.hwm.offset")->Set(20);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  reg.GetGauge("kd.broker.0.t.0.hwm.offset")->Set(15);  // moved backwards
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher, "kafka.hwm_monotonic");
  EXPECT_NE(mon.violations()[0].detail.find("hwm.offset"),
            std::string::npos);
}

TEST(StandardWatchersTest, SrqBounded) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetGauge("kd.rdma.srq.capacity")->Set(256);
  reg.GetGauge("kd.rdma.srq.depth")->Set(256);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  reg.GetGauge("kd.rdma.srq.depth")->Set(257);
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher, "rdma.srq_bounded");
}

TEST(StandardWatchersTest, AdmissionBounded) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetGauge("kd.broker.admission.capacity")->Set(1024);
  reg.GetGauge("kd.broker.admission.active")->Set(1024);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  // Over-admission: more live streams than the broker advertised. The
  // high-water mark catches a transient breach even after a close.
  reg.GetGauge("kd.broker.admission.active")->Set(1025);
  reg.GetGauge("kd.broker.admission.active")->Set(512);
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher, "broker.admission_bounded");
}

TEST(StandardWatchersTest, SingleLeaderPerPartition) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetGauge("kd.broker.0.leader.t.0")->Set(1);
  reg.GetGauge("kd.broker.1.leader.t.0")->Set(0);
  reg.GetGauge("kd.broker.1.leader.t.1")->Set(1);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  // Zero leaders is legal while an election converges.
  reg.GetGauge("kd.broker.0.leader.t.0")->Set(0);
  EXPECT_EQ(mon.CheckNow(reg, 2), 0);
  // Split-brain: two brokers both claim t.0.
  reg.GetGauge("kd.broker.0.leader.t.0")->Set(1);
  reg.GetGauge("kd.broker.1.leader.t.0")->Set(1);
  EXPECT_EQ(mon.CheckNow(reg, 3), 1);
  EXPECT_EQ(mon.violations()[0].watcher,
            "cluster.single_leader_per_partition");
  EXPECT_NE(mon.violations()[0].detail.find("t.0"), std::string::npos);
}

TEST(StandardWatchersTest, GroupOffsetsMonotonicAcrossGenerations) {
  MetricsRegistry reg;
  Monitor mon;
  InstallStandardWatchers(mon);
  reg.GetGauge("kd.group.g1.t.0.committed.offset")->Set(100);
  reg.GetGauge("kd.group.g1.t.0.committed.offset")->Set(250);
  EXPECT_EQ(mon.CheckNow(reg, 1), 0);
  // A resumed consumer commits below the group's earlier offset.
  reg.GetGauge("kd.group.g1.t.0.committed.offset")->Set(200);
  EXPECT_EQ(mon.CheckNow(reg, 2), 1);
  EXPECT_EQ(mon.violations()[0].watcher,
            "group.offsets_monotonic_across_generations");
}

}  // namespace
}  // namespace obs
}  // namespace kafkadirect
