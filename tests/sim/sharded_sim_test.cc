// ShardedSimulator tests (DESIGN.md §11):
//   - a one-shard engine run reproduces the golden fingerprint constants
//     bit-identically;
//   - a cross-shard workload reproduces golden fingerprints across seeds
//     and the same fingerprint on repeated runs;
//   - lookahead clamping, Stop, RunUntil, and stats/obs export sanity.
#include "sim/sharded.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fingerprint_workload.h"
#include "obs/metrics.h"
#include "obs/shard_metrics.h"

namespace kafkadirect {
namespace sim {
namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// ---------------------------------------------------------------------------
// Golden fingerprint on one shard
// ---------------------------------------------------------------------------

FingerprintResult RunGoldenOnEngine() {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 1, .lookahead_ns = 250});
  FingerprintWorkload w{engine.shard(0)};
  SeedFingerprintRoots(w);
  engine.Run();
  return FingerprintResult{w.hash, engine.events_processed(),
                           engine.shard(0).Now()};
}

TEST(ShardedSimulatorTest, OneShardMergedReproducesGoldenFingerprint) {
  const FingerprintResult r = RunGoldenOnEngine();
  EXPECT_EQ(r.fingerprint, 0xC6C2C9E9913801F5ull);
  EXPECT_EQ(r.events, 2110u);
  EXPECT_EQ(r.end_time, 1113);
}

// ---------------------------------------------------------------------------
// Cross-shard fingerprint across repeated runs
// ---------------------------------------------------------------------------

// Per-shard workload state: each shard folds its own FNV hash and consumes
// its own RNG, so the combined (shard-ordered) fingerprint is
// well-defined.
struct ShardState {
  Simulator* sim = nullptr;
  Random rng{0};
  uint64_t hash = kFnvBasis;

  void Mix(uint64_t v) {
    hash ^= v;
    hash *= kFnvPrime;
  }
};

void CrossFire(ShardState* st, uint32_t num_shards, uint32_t s, uint64_t id,
               int depth) {
  ShardState& me = st[s];
  me.Mix(id * 2654435761ull);
  me.Mix(static_cast<uint64_t>(me.sim->Now()));
  if (depth >= 4) return;
  const int kids = static_cast<int>(me.rng.Uniform(3));
  for (int k = 0; k < kids; k++) {
    const uint64_t child = id * 4 + static_cast<uint64_t>(k) + 1;
    if (num_shards > 1 && me.rng.OneIn(4)) {
      const uint32_t dst = static_cast<uint32_t>(
          (s + 1 + me.rng.Uniform(num_shards - 1)) % num_shards);
      const TimeNs delay = static_cast<TimeNs>(100 + me.rng.Uniform(200));
      me.sim->ScheduleCross(dst, delay,
                            [st, num_shards, dst, child, depth] {
                              CrossFire(st, num_shards, dst, child,
                                        depth + 1);
                            });
    } else {
      const TimeNs delay = static_cast<TimeNs>(me.rng.Uniform(50));
      me.sim->Schedule(delay, [st, num_shards, s, child, depth] {
        CrossFire(st, num_shards, s, child, depth + 1);
      });
    }
  }
}

struct ShardedResult {
  uint64_t fingerprint = kFnvBasis;
  uint64_t events = 0;
  uint64_t cross = 0;
};

ShardedResult RunShardedWorkload(uint32_t shards, uint64_t seed) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = shards, .lookahead_ns = 100});
  std::vector<ShardState> st(shards);
  for (uint32_t s = 0; s < shards; s++) {
    st[s].sim = &engine.shard(s);
    st[s].rng = Random(seed * 997 + s);
  }
  Random root_rng(seed);
  for (uint32_t s = 0; s < shards; s++) {
    for (uint64_t i = 0; i < 24; i++) {
      const TimeNs at = static_cast<TimeNs>(root_rng.Uniform(500));
      const uint64_t id = (static_cast<uint64_t>(s) << 32) | (i * 131);
      ShardState* data = st.data();
      engine.shard(s).ScheduleAt(at, [data, shards, s, id] {
        CrossFire(data, shards, s, id, 0);
      });
    }
  }
  engine.Run();
  EXPECT_TRUE(engine.Idle());
  ShardedResult r;
  for (uint32_t s = 0; s < shards; s++) {
    r.fingerprint ^= st[s].hash;
    r.fingerprint *= kFnvPrime;
    r.cross += engine.shard_stats(s).cross_sent;
  }
  r.events = engine.events_processed();
  return r;
}

// Golden constants for the 8-shard cross-traffic workload: the inbox drain
// order (dst_time, src, seq) fixes every schedule, so any change to how
// cross-shard events are buffered or merged shows up here.
TEST(ShardedSimulatorTest, CrossShardScheduleMatchesGolden) {
  struct Golden {
    uint64_t seed, fingerprint, events, cross;
  };
  for (const Golden& g : {Golden{11, 0x248B2E878AC206E0ull, 1037, 208},
                          Golden{42, 0x1B672B710748BD3Dull, 921, 163},
                          Golden{1337, 0x755D478CD06757B2ull, 1030, 198}}) {
    const ShardedResult r = RunShardedWorkload(8, g.seed);
    EXPECT_EQ(r.fingerprint, g.fingerprint) << "seed " << g.seed;
    EXPECT_EQ(r.events, g.events) << "seed " << g.seed;
    EXPECT_EQ(r.cross, g.cross) << "seed " << g.seed;
  }
}

TEST(ShardedSimulatorTest, MergedRunsAreBitIdenticalAcrossRepeats) {
  const ShardedResult a = RunShardedWorkload(4, 7);
  const ShardedResult b = RunShardedWorkload(4, 7);
  EXPECT_GT(a.cross, 0u) << "workload never crossed shards";
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
}

// ---------------------------------------------------------------------------
// Lookahead clamping, Stop, RunUntil, accessors
// ---------------------------------------------------------------------------

TEST(ShardedSimulatorTest, CrossSendsBelowLookaheadAreClampedAndCounted) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 2, .lookahead_ns = 100});
  TimeNs fired_at = -1;
  engine.shard(0).ScheduleCross(1, 1, [&engine, &fired_at] {
    fired_at = engine.shard(1).Now();
  });
  engine.Run();
  EXPECT_EQ(fired_at, 100);  // delay 1 raised to the lookahead window
  EXPECT_EQ(engine.shard_stats(0).lookahead_clamps, 1u);
}

TEST(ShardedSimulatorTest, SameShardCrossSendIsAPlainSchedule) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 2, .lookahead_ns = 100});
  TimeNs fired_at = -1;
  engine.shard(0).ScheduleCross(0, 5, [&engine, &fired_at] {
    fired_at = engine.shard(0).Now();
  });
  engine.Run();
  EXPECT_EQ(fired_at, 5);  // no clamp: same-shard delivery needs no window
  EXPECT_EQ(engine.shard_stats(0).lookahead_clamps, 0u);
  EXPECT_EQ(engine.shard_stats(0).cross_sent, 0u);
}

TEST(ShardedSimulatorTest, StoppingOneShardStopsTheEngine) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 2, .lookahead_ns = 100});
  int late_events = 0;
  engine.shard(0).Schedule(10, [&engine] { engine.shard(0).Stop(); });
  // Far beyond the stop: must never run.
  engine.shard(1).Schedule(100000, [&late_events] { late_events++; });
  engine.Run();
  EXPECT_EQ(late_events, 0);
  EXPECT_FALSE(engine.Idle());
}

TEST(ShardedSimulatorTest, RunUntilExecutesInclusiveBoundAndAdvancesClocks) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 2, .lookahead_ns = 100});
  int ran = 0;
  for (TimeNs t = 100; t <= 1000; t += 100) {
    engine.shard(static_cast<uint32_t>(t / 100) % 2)
        .ScheduleAt(t, [&ran] { ran++; });
  }
  engine.RunUntil(500);
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(engine.Now(), 500);
  EXPECT_EQ(engine.shard(0).Now(), 500);
  EXPECT_EQ(engine.shard(1).Now(), 500);
  engine.Run();
  EXPECT_EQ(ran, 10);
}

TEST(ShardedSimulatorTest, RunUntilDoneStopsAtPredicate) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 2, .lookahead_ns = 100});
  int count = 0;
  for (TimeNs t = 10; t <= 100; t += 10) {
    engine.shard(0).ScheduleAt(t, [&count] { count++; });
  }
  engine.RunUntilDone([&count] { return count >= 3; }, 1000000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(engine.Idle());
  engine.Run();
  EXPECT_EQ(count, 10);
}

TEST(ShardedSimulatorTest, ConfigClampsAndAccessors) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 4, .lookahead_ns = 250});
  EXPECT_EQ(engine.num_shards(), 4u);
  EXPECT_EQ(engine.lookahead(), 250);
  EXPECT_TRUE(engine.Idle());
  EXPECT_EQ(engine.events_processed(), 0u);

  ShardedSimulator clamped(
      ShardedConfig{.num_shards = 0, .lookahead_ns = 0});
  EXPECT_EQ(clamped.num_shards(), 1u);
  EXPECT_EQ(clamped.lookahead(), 1);
}

TEST(ShardedSimulatorTest, EngineBackPointersAreWired) {
  ShardedSimulator engine(ShardedConfig{.num_shards = 3});
  for (uint32_t s = 0; s < 3; s++) {
    EXPECT_EQ(engine.shard(s).engine(), &engine);
    EXPECT_EQ(engine.shard(s).shard_id(), s);
  }
  Simulator standalone;
  EXPECT_EQ(standalone.engine(), nullptr);
}

TEST(ShardedSimulatorTest, ShardStatsExportToMetricsRegistry) {
  ShardedSimulator engine(
      ShardedConfig{.num_shards = 2, .lookahead_ns = 100});
  engine.shard(0).ScheduleCross(1, 200, [] {});
  engine.shard(0).Schedule(1, [] {});
  engine.Run();
  obs::MetricsRegistry metrics;
  obs::ExportShardStats(metrics, engine);
  ASSERT_NE(metrics.FindGauge("sim.engine.num_shards"), nullptr);
  EXPECT_EQ(metrics.FindGauge("sim.engine.num_shards")->value(), 2);
  EXPECT_EQ(metrics.FindGauge("sim.engine.events")->value(), 2);
  ASSERT_NE(metrics.FindGauge("sim.shard1.events"), nullptr);
  EXPECT_EQ(metrics.FindGauge("sim.shard1.events")->value(), 1);
  EXPECT_EQ(metrics.FindGauge("sim.engine.epochs")->value(),
            static_cast<int64_t>(engine.epochs()));
  EXPECT_EQ(metrics.FindGauge("sim.shard1.epochs_active")->value(), 1);
  // Re-export after another run overwrites (gauges, not counters).
  engine.shard(0).Schedule(1, [] {});
  engine.Run();
  obs::ExportShardStats(metrics, engine);
  EXPECT_EQ(metrics.FindGauge("sim.engine.events")->value(), 3);
}

}  // namespace
}  // namespace sim
}  // namespace kafkadirect
