#include "stream/streaming.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/awaitable.h"

namespace kafkadirect {
namespace stream {

std::string ToJson(const TrafficEvent& event) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"lane\":%d,\"cars\":%d,\"avg_speed\":%.2f,\"ts\":%lld}",
                event.lane, event.car_count, event.avg_speed_kmh,
                static_cast<long long>(event.generated_at_ns));
  return buf;
}

namespace {
// Minimal strict scanner for the fixed JSON schema above.
Status ScanField(const std::string& json, const char* key, double* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return Status::Corruption(std::string("missing field: ") + key);
  }
  pos += needle.size();
  char* end = nullptr;
  *out = std::strtod(json.c_str() + pos, &end);
  if (end == json.c_str() + pos) {
    return Status::Corruption(std::string("bad value for field: ") + key);
  }
  return Status::OK();
}
}  // namespace

StatusOr<TrafficEvent> FromJson(const std::string& json) {
  TrafficEvent event;
  double lane, cars, speed, ts;
  KD_RETURN_IF_ERROR(ScanField(json, "lane", &lane));
  KD_RETURN_IF_ERROR(ScanField(json, "cars", &cars));
  KD_RETURN_IF_ERROR(ScanField(json, "avg_speed", &speed));
  KD_RETURN_IF_ERROR(ScanField(json, "ts", &ts));
  event.lane = static_cast<int32_t>(lane);
  event.car_count = static_cast<int32_t>(cars);
  event.avg_speed_kmh = speed;
  event.generated_at_ns = static_cast<int64_t>(ts);
  return event;
}

sim::Co<void> RunSensor(
    sim::Simulator& sim, SensorConfig config, sim::TimeNs duration_ns,
    std::function<sim::Co<Status>(int lane, std::string json)> publish) {
  Random rng(config.seed);
  sim::TimeNs end = sim.Now() + duration_ns;
  sim::TimeNs interval =
      static_cast<sim::TimeNs>(1e9 / config.base_rate_per_sec);
  sim::TimeNs next_burst = sim.Now() + config.burst_period_ns;
  auto emit = [&](int lane) -> sim::Co<Status> {
    TrafficEvent event;
    event.lane = lane;
    event.car_count = static_cast<int32_t>(rng.Range(0, 12));
    event.avg_speed_kmh = 30.0 + rng.NextDouble() * 90.0;
    event.generated_at_ns = sim.Now();
    co_return co_await publish(lane, ToJson(event));
  };
  int lane = 0;
  while (sim.Now() < end) {
    lane ^= 1;  // alternate between the two topics
    Status st = co_await emit(lane);
    if (!st.ok()) co_return;
    if (config.pattern == PublishPattern::kPeriodicBurst &&
        sim.Now() >= next_burst) {
      next_burst += config.burst_period_ns;
      for (int i = 0; i < config.burst_size && sim.Now() < end; i++) {
        lane ^= 1;
        Status burst_st = co_await emit(lane);
        if (!burst_st.ok()) co_return;
      }
    }
    co_await sim::Delay(sim, interval);
  }
}

Status EventEngine::Ingest(const std::string& json, sim::TimeNs now) {
  KD_ASSIGN_OR_RETURN(TrafficEvent event, FromJson(json));
  int64_t delay = now - event.generated_at_ns;
  delays_.Add(delay);
  LaneStats& lane = lanes_[event.lane & 1];
  lane.events++;
  lane.total_cars += event.car_count;
  lane.speed_sum += event.avg_speed_kmh;
  processed_++;
  if (timeline_.empty() ||
      now >= timeline_.back().start + bucket_width_) {
    timeline_.push_back(Bucket{(now / bucket_width_) * bucket_width_, 0, 0});
  }
  Bucket& bucket = timeline_.back();
  bucket.mean_delay_us =
      (bucket.mean_delay_us * bucket.count + delay / 1000.0) /
      (bucket.count + 1);
  bucket.count++;
  return Status::OK();
}

}  // namespace stream
}  // namespace kafkadirect
