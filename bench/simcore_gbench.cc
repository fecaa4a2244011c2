// google-benchmark suite for the HOST-side performance of the simulation
// substrate itself (wall-clock, not virtual time): event-loop dispatch
// rate, coroutine switch cost, CRC32C throughput, record codec throughput.
// All paper figures are measured in virtual time by the fig*/tbl_*/abl_*
// binaries; this binary exists to keep the simulator fast enough that those
// runs stay cheap.
#include <benchmark/benchmark.h>

#include "common/buffer_pool.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "kafka/record.h"
#include "obs/flight_recorder.h"
#include "sim/awaitable.h"
#include "sim/channel.h"
#include "sim/sharded.h"
#include "sim/task.h"

namespace kafkadirect {
namespace {

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1024; i++) {
      sim.Schedule(i, []() {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorDispatch);

// --------------------------------------------------------------------------
// Sharded engine (DESIGN.md §11): per-shard actor populations that mostly
// self-reschedule at nanosecond distances (wheel-local traffic) and
// periodically hop to the next shard through the lookahead inboxes —
// the shape of a multi-broker deployment with fabric traffic between
// broker domains.
// --------------------------------------------------------------------------

struct BenchShardState {
  sim::Simulator* sim = nullptr;
  Random rng{0};
};

void ShardedStep(BenchShardState* st, uint32_t shards, uint32_t s,
                 uint64_t actor, int left) {
  BenchShardState& me = st[s];
  if (left <= 0) return;
  const uint64_t r = me.rng.Next();
  if (shards > 1 && left % 32 == 0) {
    const uint32_t dst = static_cast<uint32_t>((s + 1) % shards);
    me.sim->ScheduleCross(dst, 250 + static_cast<sim::TimeNs>(r % 64),
                          [st, shards, dst, actor, left] {
                            ShardedStep(st, shards, dst, actor, left - 1);
                          });
  } else {
    me.sim->Schedule(static_cast<sim::TimeNs>(r % 4),
                     [st, shards, s, actor, left] {
                       ShardedStep(st, shards, s, actor, left - 1);
                     });
  }
}

uint64_t RunShardedEngine(uint32_t shards) {
  sim::ShardedSimulator engine(
      sim::ShardedConfig{.num_shards = shards, .lookahead_ns = 250});
  std::vector<BenchShardState> st(shards);
  for (uint32_t s = 0; s < shards; s++) {
    st[s].sim = &engine.shard(s);
    st[s].rng = Random(1000 + s);
  }
  BenchShardState* data = st.data();
  constexpr uint64_t kActorsPerShard = 64;
  constexpr int kStepsPerActor = 200;
  for (uint32_t s = 0; s < shards; s++) {
    for (uint64_t a = 0; a < kActorsPerShard; a++) {
      engine.shard(s).ScheduleAt(static_cast<sim::TimeNs>(a % 16),
                                 [data, shards, s, a] {
                                   ShardedStep(data, shards, s, a,
                                               kStepsPerActor);
                                 });
    }
  }
  engine.Run();
  return engine.events_processed();
}

void BM_ShardedMerged(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  uint64_t events = 0;
  for (auto _ : state) {
    events += RunShardedEngine(shards);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_ShardedMerged)->Arg(8);

// --------------------------------------------------------------------------
// Flight recorder (DESIGN.md §13): the always-on ring must cost a handful
// of stores per event. Record alone prices the hot path (back-to-back,
// denser than any real workload); the Dispatch variant prices it in
// context at the datapath's instrumentation density — one flight event per
// 8 simulator events (a verb post spawns fabric hops, completion and
// notification events, so the datapath records well under 1-in-8) —
// against BM_SimulatorDispatchFlight/every:0, the identical loop with
// recording disabled (the <=3% overhead budget). Rebuild with
// -DKD_NO_FLIGHT_RECORDER=ON to compare against the compiled-out binary.
// --------------------------------------------------------------------------

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder flight;
  flight.set_enabled(state.range(0) != 0);
  int64_t ts = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; i++) {
      flight.Record(0, ts++, obs::FlightEventType::kVerbPosted,
                    static_cast<uint32_t>(i), 2, 4096);
    }
    benchmark::DoNotOptimize(&flight);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FlightRecorderRecord)->ArgName("enabled")->Arg(1)->Arg(0);

void BM_SimulatorDispatchFlight(benchmark::State& state) {
  obs::FlightRecorder flight;
  const uint32_t every = static_cast<uint32_t>(state.range(0));
  flight.set_enabled(every != 0);
  for (auto _ : state) {
    sim::Simulator sim;
    for (uint32_t i = 0; i < 1024; i++) {
      const bool record = every != 0 && i % every == 0;
      sim.Schedule(i, [&flight, &sim, record]() {
        if (record) {
          flight.Record(0, sim.Now(), obs::FlightEventType::kVerbPosted, 1,
                        2, 4096);
        }
      });
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorDispatchFlight)->ArgName("every")->Arg(8)->Arg(0);

sim::Co<void> PingPong(sim::Simulator& sim, sim::Channel<int>& a,
                       sim::Channel<int>& b, int n) {
  for (int i = 0; i < n; i++) {
    a.Push(i);
    (void)co_await b.Pop();
  }
}

sim::Co<void> Echo(sim::Channel<int>& a, sim::Channel<int>& b, int n) {
  for (int i = 0; i < n; i++) {
    auto v = co_await a.Pop();
    b.Push(*v);
  }
}

void BM_CoroutineChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel<int> a(sim), b(sim);
    sim::Spawn(sim, PingPong(sim, a, b, 512));
    sim::Spawn(sim, Echo(a, b, 512));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 512 * 2);
}
BENCHMARK(BM_CoroutineChannelPingPong);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0), 0x5C);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c::Extend(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(256)->Arg(4096)->Arg(65536);

// The slice-by-8 reference, for an apples-to-apples view of the SIMD
// dispatch win within a single run.
void BM_Crc32cPortable(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0), 0x5C);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c::ExtendPortable(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(4096)->Arg(65536);

// Steady-state frame recycling on the broker produce path: acquire a
// frame, fill it, release it. After warmup every acquire is a free-list
// hit.
void BM_BufferPool(benchmark::State& state) {
  BufferPool pool;
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<uint8_t> buf = pool.Acquire(n);
    benchmark::DoNotOptimize(buf.data());
    pool.Release(std::move(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPool)->Arg(1024)->Arg(16384);

void BM_RecordBatchBuildParse(benchmark::State& state) {
  std::string value(state.range(0), 'v');
  for (auto _ : state) {
    auto bytes = kafka::BuildSingleRecordBatch(42, 1000, Slice("key", 3),
                                               Slice(value));
    auto view = kafka::RecordBatchView::Parse(Slice(bytes));
    benchmark::DoNotOptimize(view.ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecordBatchBuildParse)->Arg(128)->Arg(4096)->Arg(32768);

}  // namespace
}  // namespace kafkadirect

BENCHMARK_MAIN();
