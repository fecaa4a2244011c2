// Seeded property test of cancellable timers (Simulator::ScheduleTimer /
// Cancel) against a reference model: a std::multimap keyed by
// (time, seq) that holds exactly the events that should still fire.
//
// Each seed mixes, from outside and from inside running events:
//   - schedules at delays inside the 1,024 ns wheel window (with many
//     equal-time ties), just past it and far into the overflow heap;
//   - cancels of pending timers and of stale handles (already fired or
//     already cancelled), whose Cancel must return false;
//   - bursts that cancel most of a batch of overflow timers, which forces
//     heap compaction, and bursts of equal-time events cancelled at the
//     head, middle and tail of their bucket and then appended to;
//   - partial runs (RunUntil) and a final drain (Run).
// After every step the simulator must agree with the model on pop order,
// Now(), pending_events() and events_processed().
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace sim {
namespace {

class TimerModelRun {
 public:
  explicit TimerModelRun(uint64_t seed) : rng_(seed) {}

  void Execute() {
    for (int step = 0; step < 3000; step++) {
      const uint64_t op = rng_.Uniform(100);
      if (op < 45) {
        Schedule(RandomDelay());
      } else if (op < 75) {
        CancelRandom();
      } else if (op < 78) {
        CancelBurst();
      } else if (op < 82) {
        TieBurst();
      } else {
        const TimeNs until = sim_.Now() + RandomDelay();
        sim_.RunUntil(until);
        ASSERT_EQ(sim_.Now(), until);
      }
      if (HasFatalFailure()) return;
      CheckCounts();
    }
    const TimeNs now_before = sim_.Now();
    const uint64_t fired_before = fired_;
    sim_.Run();
    ASSERT_TRUE(model_.empty());
    EXPECT_TRUE(sim_.Idle());
    // Run() ends on the last live event: no cancelled timer advances the
    // clock past it.
    EXPECT_EQ(sim_.Now(), fired_ > fired_before ? last_fired_ : now_before);
    CheckCounts();
    EXPECT_GT(cancelled_, 0u);
    EXPECT_GT(stale_cancels_, 0u);
  }

 private:
  using Key = std::pair<TimeNs, uint64_t>;  // (time, seq)

  TimeNs RandomDelay() {
    switch (rng_.Uniform(5)) {
      case 0: return static_cast<TimeNs>(rng_.Uniform(4));      // ties
      case 1: return static_cast<TimeNs>(rng_.Uniform(1024));   // wheel
      case 2: return static_cast<TimeNs>(rng_.Range(1000, 3000));  // edge
      case 3: return static_cast<TimeNs>(rng_.Range(3000, 200000));
      default: return static_cast<TimeNs>(rng_.Range(1, 5000000));
    }
  }

  int Schedule(TimeNs delay) {
    const int id = static_cast<int>(keys_.size());
    const Key key{sim_.Now() + delay, next_seq_++};
    keys_.push_back(key);
    model_.emplace(key, id);
    handles_.push_back(sim_.ScheduleTimer(delay, [this, id]() { Fire(id); }));
    return id;
  }

  /// Cancels a random handle ever issued; most are stale by now.
  void CancelRandom() {
    if (keys_.empty()) return;
    CancelId(static_cast<int>(rng_.Uniform(keys_.size())));
  }

  void CancelId(int id) {
    auto it = model_.find(keys_[id]);
    const bool pending = it != model_.end();
    ASSERT_EQ(sim_.Cancel(handles_[id]), pending) << "id " << id;
    if (pending) {
      model_.erase(it);
      cancelled_++;
    } else {
      stale_cancels_++;
    }
  }

  /// Schedules a batch of overflow timers and cancels most of them, so
  /// tombstones outnumber live heap entries and the heap is rebuilt.
  void CancelBurst() {
    std::vector<int> ids;
    for (int i = 0; i < 64; i++) {
      ids.push_back(Schedule(static_cast<TimeNs>(rng_.Range(2000, 900000))));
    }
    for (int id : ids) {
      if (!rng_.OneIn(8)) CancelId(id);
      if (HasFatalFailure()) return;
    }
  }

  /// Several events at one instant, some of them cancelled (the bucket
  /// tail always), then more appended at that instant: unlinks at the
  /// head, middle and tail of a wheel bucket must leave it appendable.
  void TieBurst() {
    const TimeNs delay = static_cast<TimeNs>(rng_.Uniform(1024));
    std::vector<int> ids;
    for (int i = 0; i < 6; i++) ids.push_back(Schedule(delay));
    CancelId(ids.back());
    for (int id : ids) {
      if (HasFatalFailure()) return;
      if (rng_.OneIn(3)) CancelId(id);
    }
    for (int i = 0; i < 3; i++) Schedule(delay);
  }

  void Fire(int id) {
    ASSERT_FALSE(model_.empty()) << "event " << id << " fired twice";
    // Pop order: the event that runs is the model's (time, seq) minimum.
    ASSERT_EQ(model_.begin()->second, id);
    ASSERT_EQ(sim_.Now(), keys_[id].first);
    model_.erase(model_.begin());
    fired_++;
    last_fired_ = sim_.Now();
    // Reentrancy: schedule and cancel from inside a running event.
    if (rng_.OneIn(3)) Schedule(RandomDelay());
    if (rng_.OneIn(3)) CancelRandom();
    if (rng_.OneIn(16)) TieBurst();
    // Cancelling the running event's own handle is a no-op.
    ASSERT_FALSE(sim_.Cancel(handles_[id]));
  }

  void CheckCounts() {
    ASSERT_EQ(sim_.pending_events(), model_.size());
    ASSERT_EQ(sim_.events_processed(), fired_);
    ASSERT_EQ(sim_.Idle(), model_.empty());
    ASSERT_GE(sim_.pending_events_high_water(), model_.size());
  }

  static bool HasFatalFailure() {
    return ::testing::Test::HasFatalFailure();
  }

  Random rng_;
  Simulator sim_;
  std::multimap<Key, int> model_;
  std::vector<Key> keys_;  // per id
  std::vector<Simulator::TimerHandle> handles_;
  uint64_t next_seq_ = 0;
  uint64_t fired_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t stale_cancels_ = 0;
  TimeNs last_fired_ = 0;
};

TEST(TimerCancelPropertyTest, MatchesReferenceModelAcrossSeeds) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 42ull, 1337ull, 90210ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    TimerModelRun run(seed);
    run.Execute();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(TimerCancelPropertyTest, CancelledEventsNeverRunOrMoveTheClock) {
  Simulator sim;
  int ran = 0;
  const auto near = sim.ScheduleTimer(10, [&]() { ran++; });
  const auto far = sim.ScheduleTimer(1000000, [&]() { ran++; });
  sim.Schedule(20, [&]() { ran++; });
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.Cancel(near));
  EXPECT_TRUE(sim.Cancel(far));
  EXPECT_FALSE(sim.Cancel(far));
  EXPECT_FALSE(sim.Cancel(Simulator::TimerHandle{}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.pending_events_high_water(), 3u);
  sim.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_TRUE(sim.Idle());
}

}  // namespace
}  // namespace sim
}  // namespace kafkadirect
