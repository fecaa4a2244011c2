// Ablation: next-generation RDMA datapath protocols (DESIGN.md §12).
// Each knob is measured against the paper-exact baseline on the same
// deterministic workload:
//   1. notification policy  — WriteWithImm vs Write+Send
//   2. ring-buffer consume  — RDMA Reads and notifications per record
//   3. receiver-paced credits — control messages per replicated record
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

// --- 1. Notification policy ------------------------------------------------

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

// --- 2. Ring-buffer consume ------------------------------------------------

Row ConsumePoint(bool ring) {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
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

// --- 3. Replication flow control -------------------------------------------

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
      "Ablation: notification policy", "sync produce latency",
      {"point", "p50_us", "imm/rec", "send/rec"});
  std::vector<Row> notify;
  for (size_t size : {size_t{64}, size_t{8192}}) {
    notify.push_back(NotifyPoint(kd::NotifyMode::kWriteImm, "imm", size));
    notify.push_back(NotifyPoint(kd::NotifyMode::kWriteSend, "send", size));
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
