#include "sim/awaitable.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/task.h"

namespace kafkadirect {
namespace sim {
namespace {

Co<void> WaitAndRecord(Event& ev, std::vector<TimeNs>* times,
                       Simulator& sim) {
  co_await ev.Wait();
  times->push_back(sim.Now());
}

TEST(EventTest, SetWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  std::vector<TimeNs> times;
  for (int i = 0; i < 3; i++) Spawn(sim, WaitAndRecord(ev, &times, sim));
  sim.Schedule(100, [&]() { ev.Set(); });
  sim.Run();
  ASSERT_EQ(times.size(), 3u);
  for (TimeNs t : times) EXPECT_EQ(t, 100);
}

TEST(EventTest, WaitOnSetEventReturnsImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.Set();
  std::vector<TimeNs> times;
  Spawn(sim, WaitAndRecord(ev, &times, sim));
  sim.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 0);
}

Co<void> TimedWait(Event& ev, TimeNs timeout, bool* fired, TimeNs* when,
                   Simulator& sim) {
  *fired = co_await ev.WaitFor(timeout);
  *when = sim.Now();
}

TEST(EventTest, WaitForTimesOut) {
  Simulator sim;
  Event ev(sim);
  bool fired = true;
  TimeNs when = 0;
  Spawn(sim, TimedWait(ev, 500, &fired, &when, sim));
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(when, 500);
}

TEST(EventTest, WaitForFiresBeforeTimeout) {
  Simulator sim;
  Event ev(sim);
  bool fired = false;
  TimeNs when = 0;
  Spawn(sim, TimedWait(ev, 500, &fired, &when, sim));
  sim.Schedule(100, [&]() { ev.Set(); });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(when, 100);
}

TEST(EventTest, SetAfterTimeoutDoesNotDoubleResume) {
  Simulator sim;
  Event ev(sim);
  bool fired = false;
  TimeNs when = 0;
  Spawn(sim, TimedWait(ev, 100, &fired, &when, sim));
  sim.Schedule(500, [&]() { ev.Set(); });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(when, 100);
}

TEST(EventTest, WokenWaitCancelsItsTimeout) {
  Simulator sim;
  Event ev(sim);
  bool fired = false;
  TimeNs when = 0;
  Spawn(sim, TimedWait(ev, Seconds(30), &fired, &when, sim));
  sim.Schedule(100, [&]() { ev.Set(); });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(when, 100);
  // The 30 s timeout went with the wakeup: nothing is left to run.
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventTest, PulseCancelsEveryWokenTimeout) {
  Simulator sim;
  Event ev(sim);
  bool fired[3] = {};
  TimeNs when[3] = {};
  for (int i = 0; i < 3; i++) {
    Spawn(sim, TimedWait(ev, 1000000 * (i + 1), &fired[i], &when[i], sim));
  }
  sim.Schedule(50, [&]() { ev.Pulse(); });
  sim.Run();
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(fired[i]);
    EXPECT_EQ(when[i], 50);
  }
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_TRUE(sim.Idle());
}

Co<void> PulseLoop(Event& ev, int* wakes, int n) {
  for (int i = 0; i < n; i++) {
    co_await ev.Wait();
    (*wakes)++;
  }
}

TEST(EventTest, PulseWakesWithoutLatching) {
  Simulator sim;
  Event ev(sim);
  int wakes = 0;
  Spawn(sim, PulseLoop(ev, &wakes, 3));
  sim.Schedule(10, [&]() { ev.Pulse(); });
  sim.Schedule(20, [&]() { ev.Pulse(); });
  sim.Schedule(30, [&]() { ev.Pulse(); });
  sim.Run();
  EXPECT_EQ(wakes, 3);
  EXPECT_FALSE(ev.is_set());
}

TEST(EventTest, ResetReArms) {
  Simulator sim;
  Event ev(sim);
  ev.Set();
  EXPECT_TRUE(ev.is_set());
  ev.Reset();
  EXPECT_FALSE(ev.is_set());
  bool fired = false;
  TimeNs when = 0;
  Spawn(sim, TimedWait(ev, 50, &fired, &when, sim));
  sim.Run();
  EXPECT_FALSE(fired);  // stayed un-set after the reset
}

TEST(DelayTest, YieldRunsAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  auto yielder = [](Simulator& sim, std::vector<int>* order) -> Co<void> {
    order->push_back(1);
    co_await Yield(sim);
    order->push_back(3);
  };
  Spawn(sim, yielder(sim, &order));
  sim.Schedule(0, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilDoneStopsAtPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; i++) {
    sim.Schedule(i * 10, [&count]() { count++; });
  }
  sim.RunUntilDone([&]() { return count == 4; }, 10000);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.Now(), 40);
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilDoneRespectsDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; i++) {
    sim.Schedule(i * 10, [&count]() { count++; });
  }
  sim.RunUntilDone([]() { return false; }, 35);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace sim
}  // namespace kafkadirect
