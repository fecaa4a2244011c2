#include "stream/streaming.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace stream {
namespace {

TEST(TrafficEventTest, JsonRoundTrip) {
  TrafficEvent event;
  event.lane = 1;
  event.car_count = 7;
  event.avg_speed_kmh = 88.25;
  event.generated_at_ns = 123456789;
  auto parsed = FromJson(ToJson(event));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->lane, 1);
  EXPECT_EQ(parsed->car_count, 7);
  EXPECT_NEAR(parsed->avg_speed_kmh, 88.25, 0.01);
  EXPECT_EQ(parsed->generated_at_ns, 123456789);
}

TEST(TrafficEventTest, MalformedJsonRejected) {
  EXPECT_FALSE(FromJson("{}").ok());
  EXPECT_FALSE(FromJson("{\"lane\":1}").ok());
  EXPECT_FALSE(FromJson("{\"lane\":x,\"cars\":1,\"avg_speed\":2,\"ts\":3}")
                   .ok());
  EXPECT_FALSE(FromJson("garbage").ok());
}

TEST(SensorTest, ConstantRateEmitsAtConfiguredRate) {
  sim::Simulator sim;
  SensorConfig config;
  config.pattern = PublishPattern::kConstantRate;
  config.base_rate_per_sec = 400;
  int emitted = 0;
  auto publish = [&emitted](int, std::string) -> sim::Co<Status> {
    emitted++;
    co_return Status::OK();
  };
  sim::Spawn(sim, RunSensor(sim, config, Seconds(10), publish));
  sim.Run();
  EXPECT_GE(emitted, 3900);
  EXPECT_LE(emitted, 4100);
}

TEST(SensorTest, BurstPatternEmitsExtraEvents) {
  sim::Simulator sim;
  SensorConfig config;
  config.pattern = PublishPattern::kPeriodicBurst;
  config.base_rate_per_sec = 400;
  config.burst_size = 1000;
  config.burst_period_ns = Seconds(10);
  int emitted = 0;
  auto publish = [&emitted](int, std::string) -> sim::Co<Status> {
    emitted++;
    co_return Status::OK();
  };
  sim::Spawn(sim, RunSensor(sim, config, Seconds(25), publish));
  sim.Run();
  // 25 s at 400/s = 10000 base + 2 bursts of 1000.
  EXPECT_GE(emitted, 11800);
  EXPECT_LE(emitted, 12300);
}

TEST(SensorTest, AlternatesLanes) {
  sim::Simulator sim;
  SensorConfig config;
  int lane_counts[2] = {0, 0};
  auto publish = [&lane_counts](int lane, std::string) -> sim::Co<Status> {
    lane_counts[lane & 1]++;
    co_return Status::OK();
  };
  sim::Spawn(sim, RunSensor(sim, config, Seconds(5), publish));
  sim.Run();
  EXPECT_NEAR(lane_counts[0], lane_counts[1], 2);
}

TEST(EventEngineTest, TracksDelaysAndAggregates) {
  EventEngine engine;
  for (int i = 0; i < 100; i++) {
    TrafficEvent event;
    event.lane = i % 2;
    event.car_count = 3;
    event.avg_speed_kmh = 60.0;
    event.generated_at_ns = i * 1000;
    // Read 500 us after generation.
    ASSERT_TRUE(engine.Ingest(ToJson(event),
                              event.generated_at_ns + Micros(500))
                    .ok());
  }
  EXPECT_EQ(engine.events_processed(), 100);
  EXPECT_EQ(engine.delays().Median(), Micros(500));
  EXPECT_EQ(engine.lane(0).events, 50);
  EXPECT_EQ(engine.lane(1).events, 50);
  EXPECT_EQ(engine.lane(0).total_cars, 150);
  EXPECT_NEAR(engine.lane(0).MeanSpeed(), 60.0, 0.01);
}

TEST(EventEngineTest, RejectsMalformedEvents) {
  EventEngine engine;
  EXPECT_FALSE(engine.Ingest("not json", 0).ok());
  EXPECT_EQ(engine.events_processed(), 0);
}

TEST(EventEngineTest, TimelineBucketsDelays) {
  EventEngine engine;
  engine.set_bucket_width(Seconds(1));
  for (int s = 0; s < 5; s++) {
    for (int i = 0; i < 10; i++) {
      TrafficEvent event;
      event.generated_at_ns = Seconds(s) + i * Millis(10);
      ASSERT_TRUE(engine.Ingest(ToJson(event),
                                event.generated_at_ns + Millis(s + 1))
                      .ok());
    }
  }
  ASSERT_EQ(engine.timeline().size(), 5u);
  for (int s = 0; s < 5; s++) {
    EXPECT_EQ(engine.timeline()[s].count, 10);
    EXPECT_NEAR(engine.timeline()[s].mean_delay_us, (s + 1) * 1000.0, 1.0);
  }
}

}  // namespace
}  // namespace stream
}  // namespace kafkadirect
