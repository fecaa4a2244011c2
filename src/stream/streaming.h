// Streaming workload from §5.4: an IoT traffic sensor publishes JSON events
// (cars counted + average speed per road lane) into Kafka topics; an event
// processing engine (standing in for the paper's Spark consumer) polls the
// topics and records the delay between event generation and event read —
// the metric Fig. 21 plots.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "sim/task.h"

namespace kafkadirect {
namespace stream {

/// One IoT traffic-sensor observation.
struct TrafficEvent {
  int32_t lane = 0;
  int32_t car_count = 0;
  double avg_speed_kmh = 0.0;
  int64_t generated_at_ns = 0;
};

/// Serializes the event as JSON (the paper's on-wire format).
std::string ToJson(const TrafficEvent& event);

/// Parses an event produced by ToJson. Strict: returns an error on any
/// malformed field.
StatusOr<TrafficEvent> FromJson(const std::string& json);

enum class PublishPattern {
  kConstantRate,   // fixed messages/second (400/s in the paper)
  kPeriodicBurst,  // constant base rate + a large burst every 10 s
};

struct SensorConfig {
  PublishPattern pattern = PublishPattern::kConstantRate;
  double base_rate_per_sec = 400.0;
  /// Burst: every `burst_period` an extra `burst_size` events are emitted.
  sim::TimeNs burst_period_ns = 10ll * 1000 * 1000 * 1000;
  int burst_size = 2000;
  uint64_t seed = 42;
};

/// Drives a produce callback according to the configured pattern for
/// `duration_ns`. The callback receives the JSON payload and the lane
/// (used to pick the topic: the paper publishes into two topics).
sim::Co<void> RunSensor(
    sim::Simulator& sim, SensorConfig config, sim::TimeNs duration_ns,
    std::function<sim::Co<Status>(int lane, std::string json)> publish);

/// Aggregated per-lane statistics maintained by the engine.
struct LaneStats {
  int64_t events = 0;
  int64_t total_cars = 0;
  double speed_sum = 0.0;

  double MeanSpeed() const { return events == 0 ? 0.0 : speed_sum / events; }
};

/// The event-processing side: parses events, aggregates per lane, and
/// records the generation-to-read delay for each event.
class EventEngine {
 public:
  /// Ingests one raw event payload read from a topic at virtual time `now`.
  Status Ingest(const std::string& json, sim::TimeNs now);

  const Histogram& delays() const { return delays_; }
  Histogram& delays() { return delays_; }
  const LaneStats& lane(int i) const { return lanes_[i & 1]; }
  int64_t events_processed() const { return processed_; }

  /// Time-bucketed mean delays for plotting Fig. 21's time series.
  struct Bucket {
    sim::TimeNs start = 0;
    double mean_delay_us = 0.0;
    int64_t count = 0;
  };
  const std::vector<Bucket>& timeline() const { return timeline_; }
  void set_bucket_width(sim::TimeNs w) { bucket_width_ = w; }

 private:
  Histogram delays_;
  LaneStats lanes_[2];
  int64_t processed_ = 0;
  sim::TimeNs bucket_width_ = 10ll * 1000 * 1000 * 1000;  // 10 s
  std::vector<Bucket> timeline_;
};

}  // namespace stream
}  // namespace kafkadirect
