// Awaitable building blocks: Delay and Event (one-shot/resettable signal
// with optional timeout).
//
// Wakeup discipline: every resumption goes through the simulator's event
// queue (never a direct resume from the signaling context). This keeps
// execution order deterministic and bounds native stack depth.
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace kafkadirect {
namespace sim {

/// co_await Delay(sim, ns) — suspends for `ns` of virtual time.
class Delay {
 public:
  Delay(Simulator& sim, TimeNs ns) : sim_(sim), ns_(ns) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.Schedule(ns_, [h]() { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  TimeNs ns_;
};

/// co_await Yield(sim) — reschedules at the current time, letting other
/// ready events run first.
inline Delay Yield(Simulator& sim) { return Delay(sim, 0); }

/// A broadcast signal. Waiters block until Set() is called; WaitFor adds a
/// timeout. Set wakes all current waiters and cancels their timeouts, so a
/// woken wait leaves no timer behind. Reset() re-arms the event.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}

  bool is_set() const { return set_; }

  void Set() {
    if (set_) return;
    set_ = true;
    FireAll();
  }

  void Reset() { set_ = false; }

  /// Wakes current waiters without latching the set state (condition
  /// variable style notify; waiters must re-check their predicate).
  void Pulse() { FireAll(); }

  /// co_await event.Wait() — returns immediately if already set.
  auto Wait() { return Waiter(this, -1); }

  /// co_await event.WaitFor(ns) — true if the event fired, false on timeout.
  auto WaitFor(TimeNs timeout) { return Waiter(this, timeout); }

 private:
  struct Node {
    std::coroutine_handle<> h;
    bool done = false;   // resume already scheduled
    bool result = false; // true = signaled, false = timed out
    Simulator::TimerHandle timeout;  // WaitFor's timer, if any
  };

  class Waiter {
   public:
    Waiter(Event* ev, TimeNs timeout) : ev_(ev), timeout_(timeout) {}

    bool await_ready() const noexcept { return ev_->set_; }
    void await_suspend(std::coroutine_handle<> h) {
      node_ = std::make_shared<Node>();
      node_->h = h;
      if (ev_->waiters_.size() >= 16) {
        // Drop nodes left behind by timed-out waits.
        std::erase_if(ev_->waiters_,
                      [](const std::shared_ptr<Node>& n) { return n->done; });
      }
      ev_->waiters_.push_back(node_);
      if (timeout_ >= 0) {
        auto node = node_;
        Simulator& sim = ev_->sim_;
        node_->timeout = sim.ScheduleTimer(timeout_, [node, &sim]() {
          node->done = true;
          node->result = false;
          sim.Schedule(0, [node]() { node->h.resume(); });
        });
      }
    }
    bool await_resume() const noexcept {
      return node_ == nullptr ? true : node_->result;
    }

   private:
    Event* ev_;
    TimeNs timeout_;
    std::shared_ptr<Node> node_;
  };

  void FireAll() {
    std::vector<std::shared_ptr<Node>> waiters;
    waiters.swap(waiters_);
    for (auto& node : waiters) {
      if (node->done) continue;
      node->done = true;
      node->result = true;
      sim_.Cancel(node->timeout);
      sim_.Schedule(0, [node]() { node->h.resume(); });
    }
  }

  Simulator& sim_;
  bool set_ = false;
  std::vector<std::shared_ptr<Node>> waiters_;
};

}  // namespace sim
}  // namespace kafkadirect
