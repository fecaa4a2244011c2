// kdbench: one benchmark for KafkaDirect, in virtual and host time.
//
//   kdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>] [--iterations <k>]
//
// Runs the named workload (workload.cc) on fresh harness::TestCluster
// deployments, one measured iteration after another until --seconds of
// host time have passed, checks every delivered record, and prints a
// context block, every metric by name with its unit, and as the last line
// one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations and reports the per-layer metrics. Exit status is
// 0 only when every record of every iteration was delivered exactly once
// and intact and the live invariant monitor stayed quiet.
// See README.md in this directory.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "workload.h"

#ifndef KDBENCH_GIT
#define KDBENCH_GIT "unknown"
#endif
#ifndef KDBENCH_BUILD_TYPE
#define KDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KDBENCH_COMPILER
#define KDBENCH_COMPILER "unknown"
#endif

namespace kafkadirect {
namespace kdbench {
namespace {

/// Monitor tick period (virtual ns) of every deployment.
constexpr const char* kMonitorPeriod = "--monitor_period=1000000";
/// Measured iterations per run at least, whatever --seconds says.
constexpr int kMinIterations = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  int iterations = 0;  // > 0: exactly this many measured iterations
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "kdbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: kdbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--iterations <k>]\n"
               "workloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--iterations") {
      a.iterations = std::atoi(v.c_str());
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be > 0");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99 (so p99 needs >= 1000 samples).
double TailPercentile(size_t n) {
  if (n >= 1000) return 99.0;
  if (n <= 20) return 50.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

double PercentileUs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

/// A named value with its unit and sample count (0 = not a sample
/// statistic).
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
  double percentile = 0;
};
using Metrics = std::map<std::string, Metric>;

/// The virtual-time end-to-end metrics of one iteration. Deterministic for
/// a seed: every iteration of a run, traced or not, must give the same.
Metrics VirtualMetrics(const IterationResult& r) {
  Metrics m;
  double dp = TailPercentile(r.delivery_ns.size());
  double ap = TailPercentile(r.ack_ns.size());
  m["delivery_p50_us"] = {PercentileUs(r.delivery_ns, 50), "us",
                          r.delivery_ns.size(), 50};
  m["delivery_p99_us"] = {PercentileUs(r.delivery_ns, dp), "us",
                          r.delivery_ns.size(), dp};
  m["produce_ack_p50_us"] = {PercentileUs(r.ack_ns, 50), "us",
                             r.ack_ns.size(), 50};
  m["produce_ack_p99_us"] = {PercentileUs(r.ack_ns, ap), "us",
                             r.ack_ns.size(), ap};
  double secs = static_cast<double>(r.phase_ns) / 1e9;
  m["goodput_mib_s"] = {
      secs > 0 ? static_cast<double>(r.acked_bytes) / (1 << 20) / secs : 0,
      "MiB/s", 0, 0};
  m["failed_ratio"] = {
      r.attempted == 0 ? 0
                       : static_cast<double>(r.failures()) /
                             static_cast<double>(r.attempted),
      "ratio", 0, 0};
  return m;
}

std::string Digest(const Metrics& m) {
  std::string s;
  char buf[96];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name.c_str(), metric.value);
    s += buf;
  }
  return s;
}

double PeakRssMiB() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintMetric(const std::string& name, const Metric& m) {
  if (m.samples > 0) {
    std::printf("metric %-36s %14.4f %-9s (p%.4g of n=%zu)\n", name.c_str(),
                m.value, m.unit.c_str(), m.percentile, m.samples);
  } else {
    std::printf("metric %-36s %14.4f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
}

[[noreturn]] void FailRun(const Args& a, const IterationResult& r,
                          uint64_t attempted, uint64_t failed) {
  std::printf("FAILED: %s (produce=%llu refused=%llu lost=%llu dup=%llu "
              "corrupt=%llu reorder=%llu parse=%llu)\n",
              r.error.c_str(),
              static_cast<unsigned long long>(r.failed_produce),
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.duplicated),
              static_cast<unsigned long long>(r.corrupted),
              static_cast<unsigned long long>(r.reordered),
              static_cast<unsigned long long>(r.parse_failures));
  std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {}}\n",
              static_cast<unsigned long long>(attempted + r.attempted),
              static_cast<unsigned long long>(failed + r.failures()));
  std::fprintf(stderr, "kdbench: %s failed on seed %llu: %s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               r.error.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

void PrintContext(const Args& a) {
  std::printf("# kdbench context\n");
  std::printf("#   workload   %s\n", a.workload.c_str());
  std::printf("#   seed       %llu\n",
              static_cast<unsigned long long>(a.seed));
  std::printf("#   trace      %d\n", a.trace ? 1 : 0);
  std::printf("#   commit     %s\n", KDBENCH_GIT);
  std::printf("#   nproc      %u\n", std::thread::hardware_concurrency());
  std::printf("#   compiler   %s\n", KDBENCH_COMPILER);
  std::printf("#   build      %s\n", KDBENCH_BUILD_TYPE);
  std::printf("#   crc32c     %s\n", crc32c::BackendName());
  std::printf("#   engine     sharded-deterministic, 1 shard, 1 thread\n");
  std::printf("#   monitor    %s, standard watchers, flight recorder on; "
              "a violation fails the run\n",
              kMonitorPeriod);
  std::printf("#   compare only against runs from the same host and the "
              "same commit pair\n");
  if (std::string(KDBENCH_BUILD_TYPE) != "Release") {
    std::printf("# WARNING: %s build, not Release: host-time numbers are "
                "meaningless\n",
                KDBENCH_BUILD_TYPE);
    std::fprintf(stderr,
                 "kdbench: WARNING: %s build, not Release: host-time "
                 "numbers are meaningless\n",
                 KDBENCH_BUILD_TYPE);
  }
}

/// Open loop: the fixed rate ladder. A rung meets the SLO when every record
/// arrived intact, delivery p99 is within the limit and the backlog did not
/// grow. Reuses the nominal iteration for the nominal rung.
double RunLadder(const WorkloadSpec& spec, uint64_t seed,
                 const IterationResult& nominal, const Args& a) {
  std::printf("ladder (delivery p99 limit %.0f us; backlog may grow by at "
              "most 5%% of a rung's records)\n",
              static_cast<double>(spec.slo_p99_ns) / 1000.0);
  double best = 0;
  for (double rate : spec.ladder) {
    IterationResult r;
    if (rate == spec.nominal_rate) {
      r = nominal;
    } else {
      SpanLog off(false);
      r = RunIteration(spec, seed, rate, spec.ladder_records, &off);
      if (!r.ok) FailRun(a, r, 0, 0);
    }
    double p = TailPercentile(r.delivery_ns.size());
    double p99 = PercentileUs(r.delivery_ns, p);
    // A backlog that grows by more than 5% of the rung's records over the
    // second half of generation means the offered rate outran the system.
    int64_t slack = static_cast<int64_t>(r.attempted) / 20;
    bool pass = r.failures() == 0 &&
                p99 <= static_cast<double>(spec.slo_p99_ns) / 1000.0 &&
                r.backlog_growth <= slack;
    if (pass) best = std::max(best, rate);
    std::printf("  rung %10.0f rec/s  delivery_p%.4g=%12.1f us (n=%zu)  "
                "backlog_growth=%lld  %s\n",
                rate, p, p99, r.delivery_ns.size(),
                static_cast<long long>(r.backlog_growth),
                pass ? "meets SLO" : "misses SLO");
  }
  return best;
}

int Main(int argc, char** argv) {
  const int64_t process_start = HostNowNs();
  Args a = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) Usage("unknown workload " + a.workload);

  // Every deployment arms the live invariant monitor with the standard
  // watchers; RunIteration turns a violation into a failed run.
  char prog[] = "kdbench";
  std::string period = kMonitorPeriod;
  char* obs_argv[] = {prog, period.data()};
  harness::InitObsFromArgs(2, obs_argv);

  PrintContext(a);
  std::fflush(stdout);

  // --- measured iterations -------------------------------------------------
  std::vector<IterationResult> plain, traced;
  SpanLog last_spans(false);
  std::string digest;
  uint64_t attempted = 0, failed = 0;
  const int64_t loop_start = HostNowNs();
  auto elapsed = [&] {
    return static_cast<double>(HostNowNs() - loop_start) / 1e9;
  };
  for (int i = 0;; i++) {
    bool tracing = a.trace && i % 2 == 1;
    int done = static_cast<int>(plain.size() + traced.size());
    if (a.iterations > 0 ? done >= a.iterations
                         : (done >= kMinIterations &&
                            (!a.trace || traced.size() >= 2) &&
                            elapsed() >= a.seconds)) {
      break;
    }
    SpanLog spans(tracing);
    IterationResult r = RunIteration(*spec, a.seed, spec->nominal_rate,
                                     spec->records, &spans);
    if (!r.ok) FailRun(a, r, attempted, failed);
    attempted += r.attempted;
    failed += r.failures();
    std::string d = Digest(VirtualMetrics(r));
    if (digest.empty()) digest = d;
    if (d != digest) {
      r.ok = false;
      r.error = std::string("virtual-time metrics differ between iterations "
                            "of one seed") +
                (tracing ? " (traced vs untraced)" : "") + ": " + digest +
                " vs " + d;
      FailRun(a, r, attempted, failed);
    }
    std::printf("iteration %d%s: setup %.4f s, measured %.4f s, %llu "
                "records, %llu sim events, %llu known monitor false "
                "positives\n",
                i, tracing ? " (traced)" : "", r.setup_s, r.measured_s,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.monitor_false_positives));
    std::fflush(stdout);
    if (tracing) {
      traced.push_back(std::move(r));
      last_spans = std::move(spans);
    } else {
      plain.push_back(std::move(r));
    }
  }

  const IterationResult& first = plain.front();
  Metrics e2e = VirtualMetrics(first);
  std::vector<double> setup, rps, rps_traced;
  for (const IterationResult& r : plain) {
    setup.push_back(r.setup_s);
    rps.push_back(static_cast<double>(r.attempted) / r.measured_s);
  }
  for (const IterationResult& r : traced) {
    rps_traced.push_back(static_cast<double>(r.attempted) / r.measured_s);
  }
  e2e["setup_s"] = {Median(setup), "s", 0, 0};
  e2e["host_records_per_s"] = {Median(rps), "records/s", 0, 0};
  std::printf("virtual-digest %s\n", digest.c_str());

  if (!spec->ladder.empty() && !a.trace) {
    e2e["max_rate_under_slo_rps"] = {RunLadder(*spec, a.seed, first, a),
                                     "records/s", 0, 0};
  }
  e2e["peak_rss_mb"] = {PeakRssMiB(), "MiB", 0, 0};
  std::printf("process wall time %.3f s (first due record of the first "
              "iteration at %.3f s)\n",
              static_cast<double>(HostNowNs() - process_start) / 1e9,
              static_cast<double>(loop_start - process_start) / 1e9 +
                  first.setup_s);

  // --- per-layer metrics (traced run) --------------------------------------
  Metrics layer;
  if (a.trace) {
    std::map<std::string, std::vector<double>> by_name;
    for (const IterationResult& r : traced) {
      std::map<std::string, double> l = r.layer;
      l["sim.host_ns_per_event"] =
          r.sim_events == 0 ? 0 : r.measured_s * 1e9 / r.sim_events;
      l["stream.ingest_host_ns_per_event"] =
          r.ingest_calls == 0 ? 0 : r.ingest_s * 1e9 / r.ingest_calls;
      l["kafka.create_topic_s"] = r.create_topic_s;
      l["direct.connect_host_s"] = r.connect_s;
      l["harness.cluster_host_s"] = r.cluster_s;
      for (const auto& [name, v] : l) by_name[name].push_back(v);
    }
    for (const auto& [name, values] : by_name) {
      std::string unit = "count";
      if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
        unit = "us";
      } else if (name.size() > 2 &&
                 name.compare(name.size() - 2, 2, "_s") == 0) {
        unit = "s";
      } else if (name.find("ratio") != std::string::npos) {
        unit = "ratio";
      } else if (name.find("_ns_") != std::string::npos) {
        unit = "ns";
      } else if (name.find("bytes") != std::string::npos) {
        unit = "bytes";
      }
      layer[name] = {Median(values), unit, 0, 0};
    }
    layer["obs.trace_overhead_ratio"] = {
        Median(rps) > 0 ? Median(rps_traced) / Median(rps) : 0, "ratio", 0,
        0};
    layer["obs.spans_recorded"] = {static_cast<double>(last_spans.size()),
                                   "count", 0, 0};

    uint64_t mismatches = 0;
    auto self = last_spans.SelfTimes(&mismatches);
    std::printf("spans of the last traced iteration (virtual us; host us)\n");
    std::printf("  %-12s %9s %14s %14s %14s\n", "span", "count", "total",
                "self", "host");
    for (const auto& [name, st] : self) {
      std::printf("  %-12s %9llu %14.1f %14.1f %14.1f\n", name.c_str(),
                  static_cast<unsigned long long>(st.count),
                  st.virt_ns / 1000.0, st.self_ns / 1000.0,
                  st.host_ns / 1000.0);
    }
    std::string path =
        a.out + "/kdbench_spans_" + a.workload + ".jsonl";
    if (!last_spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "kdbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
    if (mismatches != 0) {
      IterationResult bad = traced.back();
      bad.ok = false;
      bad.error = "span self time + child time != duration";
      FailRun(a, bad, attempted, failed);
    }
  }

  // --- report ----------------------------------------------------------------
  const Metrics& shown = a.trace ? layer : e2e;
  std::printf("%s metrics (%zu iterations untraced, %zu traced)\n",
              a.trace ? "per-layer" : "end-to-end", plain.size(),
              traced.size());
  for (const auto& [name, m] : shown) PrintMetric(name, m);

  // The JSON line carries the metrics BENCHMARK.json declares. Left in the
  // text above: failed_ratio (0 on any passing run), the ladder result (a
  // rung, the same for every seed) and host_records_per_s (too noisy on a
  // shared host to carry a bound; README.md).
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first_metric = true;
  char buf[256];
  for (const auto& [name, m] : shown) {
    if (name == "failed_ratio" || name == "max_rate_under_slo_rps" ||
        name == "host_records_per_s") {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  first_metric ? "" : ", ", name.c_str(), m.value,
                  m.unit.c_str());
    json += buf;
    first_metric = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace kdbench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  return kafkadirect::kdbench::Main(argc, argv);
}
