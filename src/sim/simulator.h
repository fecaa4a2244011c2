// Deterministic discrete-event simulator with a virtual nanosecond clock.
//
// All concurrency in this codebase (broker threads, client dispatchers, RNIC
// engines) is expressed as coroutines scheduled on one Simulator instance.
// Events at equal timestamps fire in schedule order (FIFO by sequence
// number), which makes every run bit-reproducible.
//
// The hot path is allocation-free and mostly comparison-free. Callables are
// stored in an InlineFunction (small-buffer optimised, 48 bytes inline)
// parked in a stable slot arena. Events within the next kWheelSize
// nanoseconds go into a timing wheel: one bucket per nanosecond, each an
// intrusive FIFO list threaded through the slot arena, with an occupancy
// bitmap scanned by count-trailing-zeros to find the next event in O(1).
// Events beyond the window land in an overflow 4-ary min-heap of 24-byte
// POD keys and are decanted into the wheel — in (time, seq) order — only
// when the wheel is completely empty.
//
// Pop order equals the global (time, seq) minimum at every step: wheel
// buckets each hold exactly one timestamp and are appended in seq order
// (overflow refills happen before any later-scheduled push can target the
// window), and (time, seq) is a strict total order. The pop sequence is
// therefore exactly what the original std::priority_queue implementation
// produced.
//
// Timers are cancellable (ScheduleTimer/Cancel). A handle names its arena
// slot plus the slot's generation, which advances whenever the event runs
// or is cancelled, so a stale handle is a no-op. Cancelling a wheel event
// unlinks it from its bucket; cancelling an overflow event leaves a
// tombstone in the heap (the callable is destroyed at once). Tombstones
// are dropped when they reach the heap top, and the heap is rebuilt when
// they make up over half of it. Cancellation never renumbers a seq, so the
// surviving events keep their exact (time, seq) order, and a cancelled
// event is invisible: it never runs, never advances Now() and never counts
// towards Idle(), pending_events() or events_processed().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"

namespace kafkadirect {
namespace sim {

/// Virtual time in nanoseconds since simulation start.
using TimeNs = int64_t;

class ShardedSimulator;

class Simulator {
 public:
  /// `register_log_clock` is false for shards owned by a ShardedSimulator
  /// (a single global log-clock slot cannot follow N shards; the engine
  /// registers shard 0 only).
  explicit Simulator(bool register_log_clock = true)
      : log_clock_registered_(register_log_clock) {
    std::memset(bucket_head_, 0xFF, sizeof(bucket_head_));  // all kNil
    overflow_.reserve(kInitialEventCapacity);
    slots_.reserve(kInitialEventCapacity);
    free_slots_.reserve(kInitialEventCapacity);
    // KD_LOG lines carry this simulator's virtual timestamp while it lives.
    if (log_clock_registered_) {
      SetLogClock(
          [](const void* ctx) {
            return static_cast<const Simulator*>(ctx)->Now();
          },
          this);
    }
  }
  ~Simulator() {
    if (log_clock_registered_) ClearLogClock(this);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeNs Now() const { return now_; }

  /// Runs `fn` after `delay` nanoseconds of virtual time (>= 0).
  void Schedule(TimeNs delay, InlineFunction fn) {
    ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Runs `fn` at absolute virtual time `time` (clamped to now).
  void ScheduleAt(TimeNs time, InlineFunction fn) {
    (void)Insert(time, std::move(fn));
  }

  /// Names one scheduled timer for Cancel(). A default handle names none.
  struct TimerHandle {
    TimeNs time = 0;           // firing time (selects wheel or heap)
    uint32_t slot = UINT32_MAX;
    uint32_t generation = 0;
  };

  /// Schedule() that can be taken back: runs `fn` after `delay` ns unless
  /// Cancel() gets the returned handle first.
  TimerHandle ScheduleTimer(TimeNs delay, InlineFunction fn) {
    const TimeNs time = now_ + (delay < 0 ? 0 : delay);
    const uint32_t slot = Insert(time, std::move(fn));
    return TimerHandle{time, slot, slots_[slot].generation};
  }

  /// Removes the timer `h` names and destroys its callable. Returns false,
  /// doing nothing, when the timer already ran or was cancelled. A handle
  /// goes stale after 2^32 reuses of its slot, so cancel only a timer
  /// whose lifetime you own, as Event does.
  bool Cancel(const TimerHandle& h);

  /// Processes events until the queue is empty or Stop() is called.
  void Run();

  /// Processes events with timestamps <= `time`; leaves Now() == `time`
  /// if the queue drained earlier.
  void RunUntil(TimeNs time);

  /// RunUntil(Now() + duration).
  void RunFor(TimeNs duration) { RunUntil(now_ + duration); }

  /// Processes events until `done()` returns true (checked before each
  /// event, the first included), the queue drains, or `deadline` passes.
  /// The standard driver for workloads with background activity (replica
  /// fetchers, pollers) that never lets the event queue drain on its own.
  void RunUntilDone(const std::function<bool()>& done, TimeNs deadline);

  /// Makes Run()/RunUntil() return after the current event completes.
  /// Inside a ShardedSimulator, stopping one shard stops the whole engine
  /// before its next event.
  void Stop() { stopped_ = true; }

  /// True after Stop() until the next Run*/engine pass clears it.
  bool stopped() const { return stopped_; }

  /// True if no events are pending.
  bool Idle() const { return pending_ == 0; }

  /// Total events processed (for tests and sanity limits).
  uint64_t events_processed() const { return events_processed_; }

  /// Events scheduled and neither run nor cancelled yet.
  size_t pending_events() const { return pending_; }

  /// Highest pending_events() ever reached.
  size_t pending_events_high_water() const { return pending_high_water_; }

  // --- Sharded-engine interface (sim/sharded.h, DESIGN.md §11) ----------
  // These exist so a ShardedSimulator can drive many Simulator instances
  // as shards without touching the single-threaded hot path above.

  /// Sentinel returned by NextEventTime() when no event is pending.
  static constexpr TimeNs kNoEventTime = INT64_MAX;

  /// Timestamp of the earliest pending event, or kNoEventTime when idle.
  TimeNs NextEventTime() const { return Idle() ? kNoEventTime : PeekTime(); }

  /// Pops and runs the earliest event if its timestamp is < `horizon` and
  /// the simulator is neither idle nor stopped. Returns whether an event
  /// ran. This is one iteration of Run() with an exclusive time bound —
  /// the epoch-execution primitive of the sharded engine.
  bool ExecuteNextBefore(TimeNs horizon);

  /// Advances the clock without running events (epoch/RunUntil closure).
  /// Callers must ensure no pending event is earlier than `time`.
  void AdvanceTo(TimeNs time) {
    if (time > now_) now_ = time;
  }

  /// Owning engine and shard index; engine() is nullptr for a standalone
  /// simulator and shard_id() is then 0.
  ShardedSimulator* engine() const { return engine_; }
  uint32_t shard_id() const { return shard_id_; }

  /// Schedules `fn` on shard `dst_shard` of the owning engine, `delay` ns
  /// after this shard's Now(). Remote deliveries travel through the
  /// engine's inboxes and the delay is raised to the engine lookahead;
  /// dst_shard == shard_id() degenerates to a plain Schedule(). Requires
  /// an owning engine.
  void ScheduleCross(uint32_t dst_shard, TimeNs delay, InlineFunction fn);

 private:
  friend class ShardedSimulator;
  // Wheel window width in nanoseconds (one bucket each). Covers the vast
  // majority of scheduling distances (packet hops, CPU costs, zero-delay
  // coroutine resumptions); longer timers take the overflow heap.
  static constexpr size_t kWheelSize = 1024;
  static constexpr size_t kBitmapWords = kWheelSize / 64;
  static constexpr uint32_t kNil = UINT32_MAX;
  // Slot::next of a cancelled overflow event whose heap entry is still in
  // the heap (a tombstone). The slot is released when the entry leaves.
  static constexpr uint32_t kDead = UINT32_MAX - 1;
  // Enough for the steady-state event population of the largest fig*
  // experiments, so the arena and overflow heap never regrow mid-run.
  static constexpr size_t kInitialEventCapacity = 1024;

  /// Arena cell: the parked callable, the intrusive bucket-list link and
  /// the generation TimerHandles are checked against.
  struct Slot {
    InlineFunction fn;
    uint32_t next = kNil;
    uint32_t generation = 0;
  };

  /// Overflow heap key: trivially copyable, so sifts are plain word moves.
  struct Entry {
    TimeNs time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  /// Strict total order: seq breaks every timestamp tie.
  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static constexpr size_t kHeapArity = 4;

  uint32_t AcquireSlot(InlineFunction fn) {
    if (free_slots_.empty()) {
      const uint32_t slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(fn), kNil, 0});
      return slot;
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
    slots_[slot].next = kNil;
    return slot;
  }

  /// Moves the popped event's callable out of the arena and recycles the
  /// slot. The returned InlineFunction must be invoked by the caller (the
  /// arena may regrow while the event runs, so it cannot run in place).
  InlineFunction TakeFn(uint32_t slot) {
    InlineFunction fn = std::move(slots_[slot].fn);
    slots_[slot].generation++;
    free_slots_.push_back(slot);
    pending_--;
    return fn;
  }

  /// Parks `fn` at `time` (clamped to now) and returns its slot.
  uint32_t Insert(TimeNs time, InlineFunction fn);

  void AppendToBucket(size_t index, uint32_t slot) {
    if (bucket_head_[index] == kNil) {
      bucket_head_[index] = slot;
      bitmap_[index >> 6] |= 1ull << (index & 63);
    } else {
      slots_[bucket_tail_[index]].next = slot;
    }
    bucket_tail_[index] = slot;
    wheel_count_++;
  }

  /// First occupied bucket at index >= `from`. Requires wheel_count_ > 0.
  size_t FindBucket(size_t from) const {
    size_t w = from >> 6;
    uint64_t word = bitmap_[w] & (~0ull << (from & 63));
    while (word == 0) word = bitmap_[++w];
    return (w << 6) + static_cast<size_t>(__builtin_ctzll(word));
  }

  void SiftUp(size_t i) {
    const Entry v = overflow_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / kHeapArity;
      if (!Earlier(v, overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = v;
  }

  /// Places `v` at heap index `i` and sifts it down to its level.
  void SiftDown(size_t i, const Entry v) {
    const size_t n = overflow_.size();
    for (;;) {
      const size_t first = kHeapArity * i + 1;
      if (first >= n) break;
      const size_t last = std::min(first + kHeapArity, n);
      size_t m = first;
      for (size_t c = first + 1; c < last; c++) {
        if (Earlier(overflow_[c], overflow_[m])) m = c;
      }
      if (!Earlier(overflow_[m], v)) break;
      overflow_[i] = overflow_[m];
      i = m;
    }
    overflow_[i] = v;
  }

  /// Removes and returns the overflow minimum, then re-sifts the displaced
  /// back element down from the root.
  Entry PopOverflowTop() {
    const Entry top = overflow_.front();
    const Entry v = overflow_.back();
    overflow_.pop_back();
    if (!overflow_.empty()) SiftDown(0, v);
    return top;
  }

  bool IsTombstone(const Entry& e) const {
    return slots_[e.slot].next == kDead;
  }

  /// Returns a tombstone's slot to the free list once its entry is gone.
  void ReleaseTombstone(uint32_t slot) {
    slots_[slot].next = kNil;
    free_slots_.push_back(slot);
    overflow_dead_--;
  }

  /// Pops tombstones off the heap top, so the top is always live.
  void DropDeadTop() {
    while (!overflow_.empty() && IsTombstone(overflow_.front())) {
      ReleaseTombstone(PopOverflowTop().slot);
    }
  }

  /// Rebuilds the heap without its tombstones.
  void Compact();

  /// Re-anchors the window at the overflow minimum and decants every
  /// overflow event inside it, in (time, seq) order. Requires an empty
  /// wheel and a non-empty overflow heap.
  void Refill();

  /// Earliest pending timestamp. Requires !Idle(). A tombstone never
  /// stays on the heap top, so a non-empty heap's top is live.
  TimeNs PeekTime() const {
    if (wheel_count_ != 0) {
      return wheel_base_ + static_cast<TimeNs>(FindBucket(cursor_));
    }
    return overflow_.front().time;
  }

  /// Removes the earliest event; returns its (time, slot). Requires
  /// !Idle().
  std::pair<TimeNs, uint32_t> PopNext() {
    if (wheel_count_ == 0) Refill();
    const size_t i = FindBucket(cursor_);
    cursor_ = i;
    const uint32_t slot = bucket_head_[i];
    const uint32_t next = slots_[slot].next;
    bucket_head_[i] = next;
    if (next == kNil) bitmap_[i >> 6] &= ~(1ull << (i & 63));
    wheel_count_--;
    return {wheel_base_ + static_cast<TimeNs>(i), slot};
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  size_t pending_ = 0;  // live events: the wheel plus live heap entries
  size_t pending_high_water_ = 0;
  bool stopped_ = false;
  bool log_clock_registered_ = true;

  // Set by ShardedSimulator on construction when this simulator is a shard.
  ShardedSimulator* engine_ = nullptr;
  uint32_t shard_id_ = 0;

  // Timing wheel over [wheel_base_, wheel_base_ + kWheelSize). Buckets are
  // singly-linked FIFO lists through slots_; bitmap_ tracks occupancy.
  // Invariant whenever user code runs: wheel_base_ <= now_, so new events
  // (clamped to now_) never land below cursor_.
  TimeNs wheel_base_ = 0;
  size_t cursor_ = 0;
  size_t wheel_count_ = 0;
  uint64_t bitmap_[kBitmapWords] = {};
  uint32_t bucket_head_[kWheelSize];
  uint32_t bucket_tail_[kWheelSize];

  std::vector<Entry> overflow_;          // 4-ary min-heap, (time, seq)
  size_t overflow_dead_ = 0;             // tombstones in overflow_
  std::vector<Slot> slots_;              // parked callables
  std::vector<uint32_t> free_slots_;     // LIFO: reuse the warmest slot
};

}  // namespace sim
}  // namespace kafkadirect
