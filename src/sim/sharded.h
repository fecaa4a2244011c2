// ShardedSimulator: a single-threaded engine over N event-queue shards
// (DESIGN.md §11).
//
// The engine owns one Simulator per shard, each keeping its own timing
// wheel and slot arena, and executes the union of their schedules on the
// calling thread in global (time, shard) order — the merged schedule.
// Shards advance in epochs: every epoch covers the virtual-time window
// [T, T + lookahead), where T is the earliest pending event and the
// lookahead equals the minimum cross-shard link latency. Events sent
// between shards (Simulator::ScheduleCross) are buffered in per-
// destination inboxes and delivered at the epoch boundary, merged in a
// fixed (arrival time, source shard, source sequence) order; the
// lookahead clamp guarantees none of them is due inside the epoch that
// sent it.
//
// For a single shard the merged order is exactly the classic
// single-threaded Simulator order, which is what pins the engine to the
// golden fingerprint test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace sim {

struct ShardedConfig {
  /// Event-queue domains; shard 0 is the default domain.
  uint32_t num_shards = 1;
  /// Epoch window: must be <= the minimum cross-shard delivery latency
  /// (net::LinkModel::propagation_ns for fabric-connected domains).
  /// Cross-shard delays below this are clamped up and counted.
  TimeNs lookahead_ns = 250;
};

/// Per-shard engine counters (exported to obs via obs/shard_metrics.h).
struct ShardStats {
  uint64_t events = 0;            // events executed on this shard
  uint64_t epochs_active = 0;     // epochs in which the shard ran >=1 event
  uint64_t cross_sent = 0;        // inbox events sent from this shard
  uint64_t cross_received = 0;    // inbox events delivered to this shard
  uint64_t mailbox_max_depth = 0; // max inbox backlog seen at a drain
  uint64_t lookahead_clamps = 0;  // cross sends with delay < lookahead
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedConfig config);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  uint32_t num_shards() const { return num_shards_; }
  TimeNs lookahead() const { return lookahead_; }

  /// The shard's event queue; model entities bound to shard i schedule
  /// here exactly as on a standalone Simulator.
  Simulator& shard(uint32_t i) {
    KD_DCHECK(i < num_shards_);
    return *shards_[i];
  }

  /// The merged virtual clock. Valid between runs.
  TimeNs Now() const { return merged_now_; }

  /// Runs until every shard is idle and all inboxes drained (or Stop).
  void Run();

  /// Runs events with timestamps <= `time`; shard clocks end at `time`
  /// when not stopped early.
  void RunUntil(TimeNs time);

  /// Processes events in merged order until `done()` returns true
  /// (checked before each event), the engine drains, Stop() is called,
  /// or the next event is past `deadline`. Mirrors
  /// Simulator::RunUntilDone so harness drivers can swap in the engine
  /// without behavioral change.
  void RunUntilDone(const std::function<bool()>& done, TimeNs deadline);

  /// Makes the current run return before the next event.
  void Stop() { stop_ = true; }

  bool Idle() const;

  /// Sum of events executed across all shards.
  uint64_t events_processed() const;

  /// Events pending on the shards and in the inboxes.
  size_t pending_events() const;

  /// Sum of the shards' pending-event high-water marks: exact for one
  /// shard, an upper bound for more.
  size_t pending_events_high_water() const;

  /// Epochs started over the engine's lifetime.
  uint64_t epochs() const { return epochs_; }

  /// Snapshot of one shard's counters (events filled from the shard).
  ShardStats shard_stats(uint32_t i) const;

  /// Internal: inbox send from shard `src` to shard `dst`, `delay` ns
  /// after src's Now(). Called via Simulator::ScheduleCross.
  void CrossSend(uint32_t src, uint32_t dst, TimeNs delay, InlineFunction fn);

 private:
  /// Inbox payload. `seq` is the source shard's monotone cross-send
  /// counter: together with (dst_time, src) it makes the drain merge — and
  /// therefore the whole schedule — a fixed total order.
  struct CrossEvent {
    TimeNs dst_time;
    uint32_t src;
    uint64_t seq;
    InlineFunction fn;
  };

  /// Moves every pending inbox event bound for `dst` into its event
  /// queue, merged by (dst_time, src, seq).
  void DrainInbox(uint32_t dst);

  void RunMerged(TimeNs limit, const std::function<bool()>* done,
                 TimeNs deadline);

  uint32_t num_shards_;
  TimeNs lookahead_;

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::vector<CrossEvent>> inboxes_;  // per dst shard
  std::vector<ShardStats> stats_;

  // True while a Run* is executing events; routes CrossSend through the
  // inboxes instead of direct scheduling (setup-phase sends).
  bool running_ = false;
  bool stop_ = false;
  uint64_t epochs_ = 0;
  TimeNs merged_now_ = 0;
};

}  // namespace sim
}  // namespace kafkadirect
