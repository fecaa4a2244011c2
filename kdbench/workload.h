// kdbench workloads: what each one deploys, the inputs it generates from
// the seed, and one measured iteration over a fresh harness::TestCluster.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "spans.h"

namespace kafkadirect {
namespace kdbench {

using sim::TimeNs;

enum class ProducerKind {
  kRdmaExclusive,  // kd::RdmaProducer, exclusive WriteWithImm produce
  kRdmaShared,     // kd::RdmaProducer, shared FAA produce
  kTcp,            // kafka::TcpProducer (unmodified Kafka)
  kMux,            // logical streams over kd::MuxProducer endpoints
};
enum class ReaderKind { kRdma, kTcp };

struct ReaderSpec {
  ReaderKind kind = ReaderKind::kRdma;
  bool catch_up = false;  // subscribes at offset 0, behind a preloaded log
  bool ingest = false;    // hands every value to stream::EventEngine
};

struct WorkloadSpec {
  std::string name;
  bool open_loop = true;
  int brokers = 1;
  int partitions = 1;
  int rf = 1;
  kafka::BrokerConfig broker;
  ProducerKind producer_kind = ProducerKind::kRdmaExclusive;
  /// Producer clients. For kMux: logical streams, spread evenly over
  /// `mux_endpoints` endpoints (one endpoint per partition).
  int producers = 1;
  int mux_endpoints = 0;
  /// Concurrent Produce calls per producer client (its in-flight window;
  /// each stands for one application thread blocked on its ack).
  int window = 1;
  /// Records per measured iteration (at the nominal rate when open loop).
  int records = 1000;
  double nominal_rate = 0;       // records/s offered, whole workload
  std::vector<double> ladder;    // open loop: fixed rate rungs (records/s)
  int ladder_records = 0;        // records per non-nominal rung
  TimeNs slo_p99_ns = 0;         // delivery p99 limit of every rung
  /// Value sizes drawn uniformly per record; empty = IoT JSON events.
  std::vector<uint32_t> sizes;
  int preload = 0;               // records written before the phase
  std::vector<ReaderSpec> readers;
  TimeNs reader_backoff_ns = 0;  // RDMA reader sleep after an empty poll
  TimeNs tcp_max_wait_ns = 0;    // TCP reader long-poll wait
  uint32_t fetch_size = 2048;    // RDMA reader bytes per Read
};

/// The named workloads; unknown name = nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Everything one iteration measured. Virtual times are ns.
struct IterationResult {
  bool ok = true;
  std::string error;  // first failure, human readable
  uint64_t attempted = 0;  // records timed in the measured phase
  // Failure counts by kind (failed_ratio's numerator is their sum).
  uint64_t failed_produce = 0, refused = 0, lost = 0, duplicated = 0,
           corrupted = 0, reordered = 0, parse_failures = 0;

  // Virtual time.
  std::vector<int64_t> delivery_ns;  // per timed (record, reader) pair
  std::vector<int64_t> ack_ns;       // per timed record: due -> ack
  std::vector<int64_t> lag_ns;       // per timed record: due -> call entry
  std::vector<int64_t> produce_call_ns;  // Produce call duration
  uint64_t acked_bytes = 0;
  TimeNs phase_ns = 0;               // first due -> last ack/delivery
  int64_t backlog_growth = 0;        // records, generation mid -> end

  // Host time (seconds).
  double setup_s = 0, measured_s = 0, cluster_s = 0, create_topic_s = 0,
         connect_s = 0, ingest_s = 0;
  uint64_t ingest_calls = 0;
  uint64_t sim_events = 0;  // simulator events of the measured phase

  // Per-layer counts read at the workload-end barrier.
  std::map<std::string, double> layer;
  /// Trips of the two standard watchers known to misfire (see README.md).
  uint64_t monitor_false_positives = 0;

  uint64_t failures() const {
    return failed_produce + refused + lost + duplicated + corrupted +
           reordered + parse_failures;
  }
};

/// Runs one iteration of `spec` at `rate` (ignored for closed loops) with
/// `records` records and inputs drawn from `seed`. Spans go to `spans`
/// (a disabled log records nothing).
IterationResult RunIteration(const WorkloadSpec& spec, uint64_t seed,
                             double rate, int records, SpanLog* spans);

}  // namespace kdbench
}  // namespace kafkadirect
