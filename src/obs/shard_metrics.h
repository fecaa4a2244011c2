// Exports the sharded simulator's engine and per-shard counters into a
// MetricsRegistry (DESIGN.md §11): epochs run, pending events, cross-shard
// inbox traffic and depth. Gauges, not counters, so a re-export after
// another run overwrites instead of double-counting.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "sim/sharded.h"

namespace kafkadirect {
namespace obs {

inline void ExportShardStats(MetricsRegistry& metrics,
                             const sim::ShardedSimulator& engine) {
  metrics.GetGauge("sim.engine.num_shards")
      ->Set(static_cast<int64_t>(engine.num_shards()));
  metrics.GetGauge("sim.engine.lookahead_ns")
      ->Set(static_cast<int64_t>(engine.lookahead()));
  metrics.GetGauge("sim.engine.epochs")
      ->Set(static_cast<int64_t>(engine.epochs()));
  metrics.GetGauge("sim.engine.events")
      ->Set(static_cast<int64_t>(engine.events_processed()));
  // Setting the engine's high-water mark first makes it the gauge's own
  // high_water; the value left behind is the current pending count.
  Gauge* pending = metrics.GetGauge("sim.engine.pending_events");
  pending->Set(static_cast<int64_t>(engine.pending_events_high_water()));
  pending->Set(static_cast<int64_t>(engine.pending_events()));
  for (uint32_t s = 0; s < engine.num_shards(); s++) {
    const sim::ShardStats st = engine.shard_stats(s);
    const std::string p = "sim.shard" + std::to_string(s) + ".";
    metrics.GetGauge(p + "events")->Set(static_cast<int64_t>(st.events));
    metrics.GetGauge(p + "epochs_active")
        ->Set(static_cast<int64_t>(st.epochs_active));
    metrics.GetGauge(p + "cross_sent")
        ->Set(static_cast<int64_t>(st.cross_sent));
    metrics.GetGauge(p + "cross_received")
        ->Set(static_cast<int64_t>(st.cross_received));
    metrics.GetGauge(p + "mailbox_max_depth")
        ->Set(static_cast<int64_t>(st.mailbox_max_depth));
    metrics.GetGauge(p + "lookahead_clamps")
        ->Set(static_cast<int64_t>(st.lookahead_clamps));
  }
}

}  // namespace obs
}  // namespace kafkadirect
