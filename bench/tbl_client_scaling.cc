// Client-scaling table (ISSUE 4): broker-side receive-buffer footprint and
// simulator work as the producer count grows, with and without the shared
// receive queue. With per-QP receive pools the broker's ctrl-recv memory
// grows linearly in the number of connected clients; with the SRQ it is a
// single arena sized for aggregate inbound rate — constant across the
// sweep (asserted at 4096 clients). Shared-mode producers are used so any
// number of clients can target one partition.
//
// Million-client sweep (DESIGN.md §14): the second table multiplexes
// logical client streams over a handful of transport QPs (qp_mux +
// connection_cache + metadata_arena + admission_control all on). 16
// endpoint QPs carry batches of 1024 streams each — open, produce a
// sample, close — so any number of logical clients flows through a
// bounded set of live connections and arena slots. Asserted at the end:
// the broker's ctrl-recv arena AND the per-client metadata peak are
// O(active streams), independent of the logical client count (16 K up to
// 1 M), no admission rejections, and a bounded p99 produce ack delay.
//
// Flags: --json=<path> writes the rows as JSON (the committed
// BENCH_client_scaling.baseline.json was produced this way and is gated
// by tools/bench_compare.py in tier-1).
#include <chrono>
#include <cstring>
#include <fstream>

#include "bench/endpoint_map.h"
#include "direct/mux_producer.h"
#include "harness/harness.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace bench {
namespace {

constexpr int kRecordsPerClient = 4;
constexpr int kRecordSize = 256;

struct Point {
  int clients = 0;
  bool srq = false;
  uint64_t ctrl_recv_buf_bytes = 0;
  uint64_t events = 0;
  uint64_t records = 0;
  double host_ns_per_op = 0;
};

sim::Co<void> Client(harness::TestCluster* cluster,
                     kafka::TopicPartitionId tp, int* connected,
                     sim::Event* go, int* done) {
  net::NodeId node = cluster->AddClientNode("p");
  kd::RdmaProducer producer(
      cluster->sim(), cluster->fabric(), cluster->tcp(), node,
      kd::RdmaProducerConfig{.exclusive = false, .max_inflight = 2});
  KD_CHECK_OK(co_await producer.Connect(cluster->Leader(tp), tp));
  (*connected)++;
  co_await go->Wait();
  std::string v(kRecordSize, 's');
  for (int i = 0; i < kRecordsPerClient; i++) {
    KD_CHECK_OK(co_await producer.ProduceAsync(Slice("k", 1), Slice(v)));
  }
  KD_CHECK_OK(co_await producer.Flush());
  (*done)++;
}

Point RunPoint(int clients, bool use_srq) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.use_srq = use_srq;
  deploy.broker.cq_poll_batch = use_srq ? 16 : 1;
  harness::TestCluster cluster(deploy);
  static int topic_id = 0;
  std::string topic = "scale-" + std::to_string(topic_id++);
  KD_CHECK_OK(cluster.CreateTopic(topic, 1, 1));
  kafka::TopicPartitionId tp{topic, 0};

  auto start = std::chrono::steady_clock::now();
  int connected = 0;
  int done = 0;
  sim::Event go(cluster.sim());
  for (int c = 0; c < clients; c++) {
    sim::Spawn(cluster.sim(), Client(&cluster, tp, &connected, &go, &done));
  }
  // Snapshot the broker's receive-buffer footprint while every client is
  // connected (per-QP pools are released again as QPs die).
  cluster.RunUntilCount(&connected, clients);
  uint64_t ctrl_bytes = cluster.Leader(tp)->ctrl_recv_buf_bytes();
  go.Set();
  cluster.RunUntilCount(&done, clients);
  auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  Point p;
  p.clients = clients;
  p.srq = use_srq;
  p.ctrl_recv_buf_bytes = ctrl_bytes;
  p.events = cluster.engine().events_processed();
  p.records = static_cast<uint64_t>(clients) * kRecordsPerClient;
  p.host_ns_per_op =
      static_cast<double>(elapsed) / static_cast<double>(p.records);
  return p;
}

// --- million-client mux sweep (§14) ----------------------------------------

constexpr int kMuxEndpoints = 16;      // transport QPs carrying all streams
constexpr uint32_t kMuxBatch = 1024;   // streams live per endpoint at a time
constexpr int kMuxSamplesPerBatch = 4; // produces per open batch

struct MuxPoint {
  int logical_clients = 0;
  uint64_t ctrl_recv_buf_bytes = 0;
  uint64_t meta_peak_bytes = 0;
  uint64_t live_qps = 0;
  uint64_t streams_opened = 0;
  uint64_t records = 0;
  uint64_t rejected = 0;
  uint64_t events = 0;
  double p99_ack_us = 0;
  double host_ms_total = 0;
};

// Each endpoint holds the exclusive produce grant on its own partition;
// the logical streams multiplexed over it share that file.
sim::Co<void> MuxEndpoint(harness::TestCluster* cluster,
                          kafka::TopicPartitionId tp, uint32_t base_start,
                          uint32_t stream_count, int* connected,
                          sim::Event* go, int* done, Histogram* latencies,
                          uint64_t* records) {
  net::NodeId node = cluster->AddClientNode("mux-ep");
  kd::MuxProducer endpoint(cluster->sim(), cluster->fabric(), cluster->tcp(),
                           node, kd::MuxProducerConfig{.max_inflight = 8});
  KD_CHECK_OK(co_await endpoint.Connect(cluster->Leader(tp), tp));
  (*connected)++;
  co_await go->Wait();
  std::string v(kRecordSize, 'm');
  // Stream ids churn through the admission window in batches: every
  // logical client exists, but only kMuxBatch per endpoint are live at
  // once — the whole point of the §14 connection layer.
  for (uint32_t off = 0; off < stream_count; off += kMuxBatch) {
    uint32_t n = std::min(kMuxBatch, stream_count - off);
    uint32_t base = base_start + off;
    auto open_or = co_await endpoint.OpenStreams(base, n);
    KD_CHECK_OK(open_or.status());
    KD_CHECK(open_or.value().admitted == n)
        << "admission rejected " << (n - open_or.value().admitted)
        << " of " << n << " streams at base " << base;
    for (int s = 0; s < kMuxSamplesPerBatch; s++) {
      uint32_t stream =
          base + static_cast<uint32_t>(s) * (n / kMuxSamplesPerBatch);
      auto offset_or = co_await endpoint.Produce(stream, Slice("k", 1),
                                                 Slice(v));
      KD_CHECK_OK(offset_or.status());
      (*records)++;
    }
    KD_CHECK_OK(co_await endpoint.Flush());
    KD_CHECK_OK(co_await endpoint.CloseStreams(base, n));
  }
  for (int64_t sample : endpoint.latencies().samples()) {
    latencies->Add(sample);
  }
  endpoint.Close();
  (*done)++;
}

MuxPoint RunMuxPoint(int logical_clients) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.use_srq = true;
  deploy.broker.cq_poll_batch = 16;
  deploy.broker.qp_mux = true;
  deploy.broker.connection_cache = true;
  deploy.broker.connection_cache_capacity = kMuxEndpoints * 2;
  deploy.broker.metadata_arena = true;
  deploy.broker.metadata_arena_slots = 2 * kMuxEndpoints * kMuxBatch;
  deploy.broker.admission_control = true;
  deploy.broker.admission_max_streams = 2 * kMuxEndpoints * kMuxBatch;
  harness::TestCluster cluster(deploy);
  static int topic_id = 0;
  std::string topic = "mux-scale-" + std::to_string(topic_id++);
  KD_CHECK_OK(cluster.CreateTopic(topic, kMuxEndpoints, 1));
  kafka::TopicPartitionId tp{topic, 0};

  auto start = std::chrono::steady_clock::now();
  int connected = 0;
  int done = 0;
  uint64_t records = 0;
  Histogram latencies;
  sim::Event go(cluster.sim());
  uint32_t per_endpoint =
      static_cast<uint32_t>(logical_clients / kMuxEndpoints);
  for (int e = 0; e < kMuxEndpoints; e++) {
    // The static endpoint→partition map (bench/endpoint_map.h) routes
    // endpoint e to its own partition and a contiguous stream id range.
    EndpointRoute route =
        RouteForEndpoint(topic, e, kMuxEndpoints, per_endpoint);
    sim::Spawn(cluster.sim(),
               MuxEndpoint(&cluster, route.tp, route.stream_base,
                           per_endpoint, &connected, &go, &done, &latencies,
                           &records));
  }
  cluster.RunUntilCount(&connected, kMuxEndpoints);
  uint64_t ctrl_bytes = cluster.Leader(tp)->ctrl_recv_buf_bytes();
  uint64_t live_qps = cluster.Leader(tp)->live_rdma_qps();
  go.Set();
  cluster.RunUntilCount(&done, kMuxEndpoints);
  auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  const obs::MetricsRegistry& metrics = cluster.fabric().obs().metrics;
  const obs::Counter* rejected =
      metrics.FindCounter("kd.broker.admission.rejected");
  const obs::Counter* opened =
      metrics.FindCounter("kd.rdma.mux.streams_opened");
  MuxPoint p;
  p.logical_clients = logical_clients;
  p.ctrl_recv_buf_bytes = ctrl_bytes;
  p.meta_peak_bytes = cluster.Leader(tp)->mux_meta_peak_bytes();
  p.live_qps = live_qps;
  p.streams_opened = opened == nullptr ? 0 : opened->value();
  p.records = records;
  p.rejected = rejected == nullptr ? 0 : rejected->value();
  p.events = cluster.engine().events_processed();
  p.p99_ack_us = latencies.Percentile(99.0) / 1000.0;
  p.host_ms_total = static_cast<double>(elapsed) / 1e6;
  return p;
}

void Run(const std::string& json_path) {
  harness::PrintFigureHeader(
      "Client scaling", "broker ctrl-recv bytes vs producer count",
      {"clients", "srq", "ctrl_recv_KiB", "sim_events", "host_ns_per_op"});
  std::vector<Point> points;
  for (int clients : {8, 64, 256, 1024, 4096}) {
    for (bool use_srq : {false, true}) {
      Point p = RunPoint(clients, use_srq);
      points.push_back(p);
      harness::PrintRow(
          {std::to_string(p.clients), p.srq ? "on" : "off",
           harness::Cell(p.ctrl_recv_buf_bytes / 1024.0, 1),
           std::to_string(p.events), harness::Cell(p.host_ns_per_op, 0)});
    }
  }

  // The acceptance criterion: with the SRQ the broker's ctrl-recv memory
  // is a function of the arena size, not the client count.
  uint64_t srq_small = 0, srq_large = 0, raw_small = 0, raw_large = 0;
  for (const Point& p : points) {
    if (p.srq && p.clients == 8) srq_small = p.ctrl_recv_buf_bytes;
    if (p.srq && p.clients == 4096) srq_large = p.ctrl_recv_buf_bytes;
    if (!p.srq && p.clients == 8) raw_small = p.ctrl_recv_buf_bytes;
    if (!p.srq && p.clients == 4096) raw_large = p.ctrl_recv_buf_bytes;
  }
  KD_CHECK(srq_large == srq_small)
      << "SRQ ctrl-recv bytes must be independent of client count: "
      << srq_small << " @8 vs " << srq_large << " @4096";
  std::printf(
      "\nper-QP pools grow %.0fx from 8 to 4096 clients; the SRQ arena "
      "stays at %.1f KiB.\n",
      static_cast<double>(raw_large) /
          static_cast<double>(raw_small == 0 ? 1 : raw_small),
      srq_large / 1024.0);

  // --- §14 mux sweep: 16 K to 1 M logical clients over 16 endpoint QPs ---
  harness::PrintFigureHeader(
      "Client scaling (mux)",
      "logical clients over " + std::to_string(kMuxEndpoints) +
          " multiplexed QPs",
      {"clients", "ctrl_recv_KiB", "meta_peak_KiB", "live_qps", "records",
       "p99_ack_us", "host_ms"});
  std::vector<MuxPoint> mux_points;
  for (int clients : {16384, 65536, 262144, 1048576}) {
    MuxPoint p = RunMuxPoint(clients);
    mux_points.push_back(p);
    harness::PrintRow({std::to_string(p.logical_clients),
                       harness::Cell(p.ctrl_recv_buf_bytes / 1024.0, 1),
                       harness::Cell(p.meta_peak_bytes / 1024.0, 1),
                       std::to_string(p.live_qps), std::to_string(p.records),
                       harness::Cell(p.p99_ack_us, 1),
                       harness::Cell(p.host_ms_total, 0)});
  }

  // Acceptance criteria (ISSUE: million-client architecture): broker
  // memory is O(active streams), NOT O(logical clients), and produce acks
  // stay bounded all the way to 1 M.
  const MuxPoint& first = mux_points.front();
  for (const MuxPoint& p : mux_points) {
    KD_CHECK(p.ctrl_recv_buf_bytes == first.ctrl_recv_buf_bytes)
        << "mux ctrl-recv bytes must be independent of logical clients: "
        << first.ctrl_recv_buf_bytes << " @" << first.logical_clients
        << " vs " << p.ctrl_recv_buf_bytes << " @" << p.logical_clients;
    KD_CHECK(p.meta_peak_bytes == first.meta_peak_bytes)
        << "per-client metadata peak must be O(active), got "
        << first.meta_peak_bytes << " @" << first.logical_clients << " vs "
        << p.meta_peak_bytes << " @" << p.logical_clients;
    KD_CHECK(p.meta_peak_bytes <=
             static_cast<uint64_t>(2 * kMuxEndpoints * kMuxBatch) *
                 rdma::QpMux::kSlotBytes)
        << "metadata arena peak exceeds the active-stream bound";
    KD_CHECK(p.live_qps <= static_cast<uint64_t>(2 * kMuxEndpoints))
        << "live QPs must stay O(endpoints): " << p.live_qps;
    KD_CHECK(p.rejected == 0)
        << "admission rejected " << p.rejected << " opens despite the "
        << "sweep staying under capacity";
    KD_CHECK(p.p99_ack_us < 10000.0)
        << "p99 produce ack " << p.p99_ack_us << "us exceeds 10ms at "
        << p.logical_clients << " clients";
    KD_CHECK(p.streams_opened >= static_cast<uint64_t>(p.logical_clients))
        << "not every logical client opened a stream: " << p.streams_opened
        << "/" << p.logical_clients;
  }
  std::printf(
      "\n%d logical clients rode %d transport QPs: ctrl-recv constant at "
      "%.1f KiB, metadata peak constant at %.1f KiB.\n",
      mux_points.back().logical_clients, kMuxEndpoints,
      mux_points.back().ctrl_recv_buf_bytes / 1024.0,
      mux_points.back().meta_peak_bytes / 1024.0);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < points.size(); i++) {
      const Point& p = points[i];
      out << "    {\"name\": \"client_scaling/" << p.clients << "/srq_"
          << (p.srq ? "on" : "off")
          << "\", \"clients\": " << p.clients
          << ", \"srq\": " << (p.srq ? "true" : "false")
          << ", \"ctrl_recv_buf_bytes\": " << p.ctrl_recv_buf_bytes
          << ", \"sim_events\": " << p.events
          << ", \"records\": " << p.records
          << ", \"host_ns_per_op\": " << p.host_ns_per_op << "},\n";
    }
    for (size_t i = 0; i < mux_points.size(); i++) {
      const MuxPoint& p = mux_points[i];
      out << "    {\"name\": \"client_scaling_mux/" << p.logical_clients
          << "\", \"logical_clients\": " << p.logical_clients
          << ", \"ctrl_recv_buf_bytes\": " << p.ctrl_recv_buf_bytes
          << ", \"meta_peak_bytes\": " << p.meta_peak_bytes
          << ", \"live_qps\": " << p.live_qps
          << ", \"streams_opened\": " << p.streams_opened
          << ", \"records\": " << p.records
          << ", \"rejected\": " << p.rejected
          << ", \"sim_events\": " << p.events
          << ", \"p99_ack_us\": " << p.p99_ack_us
          << ", \"host_ms_total\": " << p.host_ms_total << "}"
          << (i + 1 < mux_points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  kafkadirect::harness::InitObsFromArgs(argc, argv);
  std::string json_path;
  const std::string kJson = "--json=";
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind(kJson, 0) == 0) json_path = arg.substr(kJson.size());
  }
  kafkadirect::bench::Run(json_path);
  return 0;
}
