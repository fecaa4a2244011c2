// Ablation: next-generation RDMA datapath protocols (DESIGN.md §12).
// Each knob is measured against the paper-exact baseline on the same
// deterministic workload:
//   1. selective signaling  — CQEs consumed per produced record
//   2. notification policy  — WriteWithImm vs Write+Send vs adaptive
//   3. ring-buffer consume  — RDMA Reads and notifications per record
//   4. receiver-paced credits — control messages per replicated record
//   5. everything composed  — the upgrades must not fight each other
// All metrics are virtual-time or event counts, so every run on every
// host produces identical numbers; the committed
// BENCH_datapath_protocols.baseline.json is gated by equality by
// tools/bench_compare.py in tools/run_tier1.sh.
//
// Flags: --json=<path> writes the rows as JSON.
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.h"

namespace kafkadirect {
namespace bench {
namespace {

using harness::Cell;
using harness::SystemKind;

struct Row {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  double Get(const std::string& key) const {
    for (const auto& [k, v] : metrics) {
      if (k == key) return v;
    }
    return 0;
  }
};

uint64_t Counter(harness::TestCluster& cluster, const std::string& name) {
  const obs::Counter* c = cluster.fabric().obs().metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

// --- 1. Selective signaling -----------------------------------------------

Row SignalingPoint(int interval) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  harness::TestCluster cluster(deploy);
  // Charge a real per-CQE cost so thinning the CQE stream is visible in
  // virtual time, not just in the counters.
  cluster.cost().rdma.cqe_ns = 250;
  harness::ProduceOptions options;
  options.records_per_producer = 400;
  options.record_size = 1024;
  options.max_inflight = 16;
  options.signal_interval = interval;
  auto result =
      harness::RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  KD_CHECK(result.records == 400 && result.errors == 0);
  double n = static_cast<double>(result.records);
  return Row{
      "signaling/interval_" + std::to_string(interval),
      {{"cqes_per_record", Counter(cluster, "kd.rdma.cqes") / n},
       {"signaled_per_record", Counter(cluster, "kd.rdma.wrs_signaled") / n},
       {"mib_per_sec", result.mib_per_sec},
       {"elapsed_us", result.elapsed_ns / 1000.0}}};
}

// --- 2. Notification policy ------------------------------------------------

Row NotifyPoint(kd::NotifyMode mode, const char* label, size_t record_size) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  harness::TestCluster cluster(deploy);
  harness::ProduceOptions options;
  options.records_per_producer = 200;
  options.record_size = record_size;
  options.max_inflight = 1;  // latency mode
  options.notify_mode = mode;
  auto result =
      harness::RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  KD_CHECK(result.records == 200 && result.errors == 0);
  double n = static_cast<double>(result.records);
  return Row{
      std::string("notify/") + label + "/" + std::to_string(record_size) +
          "B",
      {{"latency_us_p50", result.LatencyUsMedian()},
       {"write_imm_per_record",
        Counter(cluster, "kd.direct.notify.write_imm") / n},
       {"write_send_per_record",
        Counter(cluster, "kd.direct.notify.write_send") / n}}};
}

// --- 3. Ring-buffer consume ------------------------------------------------

Row ConsumePoint(bool ring) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  deploy.broker.rdma_ring_consume = ring;
  harness::TestCluster cluster(deploy);
  harness::ConsumeOptions options;
  options.preload_records = 400;
  options.record_size = 1024;
  options.ring_consume = ring;
  auto result =
      harness::RunConsumeWorkload(cluster, SystemKind::kKdExclusive, options);
  KD_CHECK(result.records == 400);
  double n = static_cast<double>(result.records);
  return Row{
      std::string("consume/") + (ring ? "ring" : "read"),
      {{"reads_per_record", Counter(cluster, "kd.rdma.ops.read") / n},
       {"notifications_per_record",
        Counter(cluster, "kd.direct.notifications") / n},
       {"mib_per_sec", result.mib_per_sec},
       {"elapsed_us", result.elapsed_ns / 1000.0}}};
}

// --- 4. Replication flow control -------------------------------------------

Row CreditsPoint(bool paced) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_replicate = true;
  deploy.broker.receiver_paced_credits = paced;
  harness::TestCluster cluster(deploy);
  harness::ProduceOptions options;
  options.records_per_producer = 300;
  options.record_size = 4 * kKiB;
  options.max_inflight = 16;
  options.acks = -1;
  options.replication_factor = 2;
  auto result =
      harness::RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  KD_CHECK(result.records == 300 && result.errors == 0);
  double n = static_cast<double>(result.records);
  return Row{
      std::string("credits/") + (paced ? "paced" : "fixed"),
      {{"ctrl_msgs_per_record", Counter(cluster, "kd.direct.ctrl_msgs") / n},
       {"rnr_events", static_cast<double>(
                          Counter(cluster, "kd.rdma.rnr_events"))},
       {"mib_per_sec", result.mib_per_sec},
       {"elapsed_us", result.elapsed_ns / 1000.0}}};
}

// --- 5. Composition ---------------------------------------------------------

Row CompositionPoint(bool upgrades) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = 2;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_replicate = true;
  deploy.broker.receiver_paced_credits = upgrades;
  harness::TestCluster cluster(deploy);
  cluster.cost().rdma.cqe_ns = 250;
  harness::ProduceOptions options;
  options.records_per_producer = 300;
  options.record_size = 1024;
  options.max_inflight = 16;
  options.acks = -1;
  options.replication_factor = 2;
  if (upgrades) {
    options.signal_interval = 8;
    options.notify_mode = kd::NotifyMode::kAdaptive;
  }
  auto result =
      harness::RunProduceWorkload(cluster, SystemKind::kKdExclusive, options);
  KD_CHECK(result.records == 300 && result.errors == 0);
  double n = static_cast<double>(result.records);
  return Row{
      std::string("composed/") + (upgrades ? "all_on" : "all_off"),
      {{"cqes_per_record", Counter(cluster, "kd.rdma.cqes") / n},
       {"ctrl_msgs_per_record", Counter(cluster, "kd.direct.ctrl_msgs") / n},
       {"rnr_events", static_cast<double>(
                          Counter(cluster, "kd.rdma.rnr_events"))},
       {"mib_per_sec", result.mib_per_sec},
       {"elapsed_us", result.elapsed_ns / 1000.0}}};
}

void PrintRows(const std::vector<Row>& rows,
               const std::vector<std::string>& keys) {
  for (const Row& row : rows) {
    // Pad the name past PrintRow's 14-char cell so long point names do
    // not run into the first metric column.
    std::string name = row.name;
    if (name.size() < 24) name.resize(24, ' ');
    std::vector<std::string> cells = {name};
    for (const std::string& key : keys) cells.push_back(Cell(row.Get(key), 3));
    harness::PrintRow(cells);
  }
}

void Run(const std::string& json_path) {
  std::vector<Row> all;

  harness::PrintFigureHeader(
      "Ablation: selective signaling (DESIGN.md S12)",
      "1 KiB pipelined produce, cqe_ns=250",
      {"point", "cqes/rec", "signaled/rec", "MiB/s", "elapsed_us"});
  std::vector<Row> sig;
  for (int interval : {1, 4, 16}) sig.push_back(SignalingPoint(interval));
  PrintRows(sig, {"cqes_per_record", "signaled_per_record", "mib_per_sec",
                  "elapsed_us"});
  KD_CHECK(sig[2].Get("signaled_per_record") * 4 <
           sig[0].Get("signaled_per_record"))
      << "selective signaling must thin the signaled-WR stream";
  all.insert(all.end(), sig.begin(), sig.end());

  harness::PrintFigureHeader(
      "Ablation: notification policy", "sync produce latency",
      {"point", "p50_us", "imm/rec", "send/rec"});
  std::vector<Row> notify;
  for (size_t size : {size_t{64}, size_t{8192}}) {
    notify.push_back(NotifyPoint(kd::NotifyMode::kWriteImm, "imm", size));
    notify.push_back(NotifyPoint(kd::NotifyMode::kWriteSend, "send", size));
    notify.push_back(
        NotifyPoint(kd::NotifyMode::kAdaptive, "adaptive", size));
  }
  PrintRows(notify, {"latency_us_p50", "write_imm_per_record",
                     "write_send_per_record"});
  all.insert(all.end(), notify.begin(), notify.end());

  harness::PrintFigureHeader(
      "Ablation: ring-buffer consume", "1 KiB record-at-a-time consume",
      {"point", "reads/rec", "notif/rec", "MiB/s", "elapsed_us"});
  std::vector<Row> consume = {ConsumePoint(false), ConsumePoint(true)};
  PrintRows(consume, {"reads_per_record", "notifications_per_record",
                      "mib_per_sec", "elapsed_us"});
  KD_CHECK(consume[1].Get("reads_per_record") == 0)
      << "ring consume must not issue RDMA Reads";
  all.insert(all.end(), consume.begin(), consume.end());

  harness::PrintFigureHeader(
      "Ablation: replication flow control",
      "4 KiB produce, acks=all, 2-way push replication",
      {"point", "ctrl/rec", "rnr", "MiB/s", "elapsed_us"});
  std::vector<Row> credits = {CreditsPoint(false), CreditsPoint(true)};
  PrintRows(credits, {"ctrl_msgs_per_record", "rnr_events", "mib_per_sec",
                      "elapsed_us"});
  KD_CHECK(credits[1].Get("ctrl_msgs_per_record") <
           credits[0].Get("ctrl_msgs_per_record"))
      << "paced credits must batch the grant stream";
  all.insert(all.end(), credits.begin(), credits.end());

  harness::PrintFigureHeader(
      "Ablation: composition", "1 KiB produce, acks=all, rf=2, cqe_ns=250",
      {"point", "cqes/rec", "ctrl/rec", "rnr", "MiB/s", "elapsed_us"});
  std::vector<Row> composed = {CompositionPoint(false),
                               CompositionPoint(true)};
  PrintRows(composed, {"cqes_per_record", "ctrl_msgs_per_record",
                       "rnr_events", "mib_per_sec", "elapsed_us"});
  KD_CHECK(composed[1].Get("cqes_per_record") <
           composed[0].Get("cqes_per_record"));
  all.insert(all.end(), composed.begin(), composed.end());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < all.size(); i++) {
      out << "    {\"name\": \"" << all[i].name << "\"";
      for (const auto& [key, value] : all[i].metrics) {
        out << ", \"" << key << "\": " << value;
      }
      out << "}" << (i + 1 < all.size() ? "," : "") << "\n";
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
