// Benchmark/example harness: one-call deployment of a simulated cluster and
// reusable workload drivers for the three systems the paper compares —
// unmodified Kafka (TCP), OSU Kafka (two-sided RDMA), and KafkaDirect
// (one-sided RDMA, exclusive or shared produce).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "direct/kd_broker.h"
#include "direct/rdma_consumer.h"
#include "direct/rdma_producer.h"
#include "kafka/cluster.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"
#include "osu/osu_transport.h"
#include "sim/sharded.h"

namespace kafkadirect {
namespace harness {

/// Which system a workload runs against (the lines in the paper's plots).
enum class SystemKind {
  kKafka,        // unmodified Kafka over (simulated) kernel TCP / IPoIB
  kOsuKafka,     // Kafka protocol over two-sided RDMA Send/Recv
  kKdExclusive,  // KafkaDirect, exclusive RDMA produce
  kKdShared,     // KafkaDirect, shared (FAA) RDMA produce
};

const char* SystemName(SystemKind kind);

struct DeploymentConfig {
  int num_brokers = 1;
  kafka::BrokerConfig broker;
  /// Extra latitude for deterministic runs.
  uint64_t seed = 1;
  /// Record spans even without --trace_json (used by tests; the tracer
  /// must be enabled before brokers/QPs are created so tracks exist).
  bool enable_tracing = false;
};

/// Observability outputs requested on the command line. When `trace_json`
/// is set, every TestCluster constructed afterwards records spans; on
/// cluster teardown the files are (over)written, so after a bench the
/// files hold the last deployment's metrics/trace/SLO report/flight dump.
struct ObsOptions {
  std::string metrics_json;  // --metrics_json=<path>
  std::string trace_json;    // --trace_json=<path>
  std::string slo_json;      // --slo_json=<path>: per-tenant SLO report
  std::string flight_dump;   // --flight_dump=<path>: flight-recorder trace
  /// --monitor_period=<ns>: tick the live invariant monitor at this
  /// virtual-time period (0 = monitor only checked at teardown when
  /// --strict is set, otherwise off).
  sim::TimeNs monitor_period_ns = 0;
  /// --strict: an invariant violation aborts the process (after dumping
  /// the flight recorder).
  bool strict = false;
};

/// Parses --metrics_json= / --trace_json= / --slo_json= / --flight_dump= /
/// --monitor_period= / --strict into the process-wide options.
/// Unrecognized arguments are ignored (benches keep their own flags).
void InitObsFromArgs(int argc, char** argv);
const ObsOptions& obs_options();

/// A fully wired simulated deployment: fabric + TCP stack + brokers (all
/// KafkaDirectBroker so every datapath is available) + an OSU listener per
/// broker.
class TestCluster {
 public:
  explicit TestCluster(DeploymentConfig config);
  ~TestCluster();

  Status CreateTopic(const std::string& topic, int partitions, int rf) {
    return cluster_->CreateTopic(topic, partitions, rf);
  }

  kd::KafkaDirectBroker* Leader(const kafka::TopicPartitionId& tp) {
    return static_cast<kd::KafkaDirectBroker*>(cluster_->LeaderOf(tp));
  }
  kd::KafkaDirectBroker* Broker(int id) {
    return static_cast<kd::KafkaDirectBroker*>(cluster_->broker(id));
  }
  osu::OsuListener* OsuListenerOf(const kafka::TopicPartitionId& tp) {
    return osu_listeners_[Leader(tp)->id()].get();
  }

  /// Fabric node + RNIC for one more client machine.
  net::NodeId AddClientNode(const std::string& name);
  rdma::Rnic& ClientRnic(net::NodeId node);

  /// Runs the simulation until `*flag` (bounded by `deadline`).
  void RunToFlag(const bool* flag, sim::TimeNs deadline = Seconds(3600));
  void RunUntilCount(const int* counter, int target,
                     sim::TimeNs deadline = Seconds(3600));

  /// The default event-queue domain (shard 0) — the simulator every
  /// deployment entity schedules on, exactly as before the engine existed.
  sim::Simulator& sim() { return engine_.shard(0); }
  /// The one-shard engine driving the deployment.
  sim::ShardedSimulator& engine() { return engine_; }
  CostModel& cost() { return cost_; }  // mutate BEFORE constructing clients
  net::Fabric& fabric() { return *fabric_; }
  tcpnet::Network& tcp() { return *tcpnet_; }
  kafka::Cluster& cluster() { return *cluster_; }

 private:
  DeploymentConfig config_;
  sim::ShardedSimulator engine_;
  CostModel cost_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<tcpnet::Network> tcpnet_;
  std::unique_ptr<kafka::Cluster> cluster_;
  std::vector<std::shared_ptr<osu::OsuListener>> osu_listeners_;
  std::map<net::NodeId, std::unique_ptr<rdma::Rnic>> client_rnics_;
};

// ---------------------------------------------------------------------------
// Produce workloads (Figs. 10-17)
// ---------------------------------------------------------------------------

struct ProduceOptions {
  std::string topic = "bench";
  int partitions = 1;
  int producers = 1;          // one client per producer
  int records_per_producer = 200;
  size_t record_size = 1024;
  int max_inflight = 1;       // 1 = latency mode (sync round trips)
  int16_t acks = -1;
  int replication_factor = 1;
  /// Notification method of the RDMA producers (§4.2.2); the default is
  /// the paper's. Ignored by the TCP/OSU systems.
  kd::NotifyMode notify_mode = kd::NotifyMode::kWriteImm;
};

struct WorkloadResult {
  Histogram latency;          // per-request client-observed round trips (ns)
  double mib_per_sec = 0.0;   // payload goodput
  uint64_t records = 0;
  uint64_t errors = 0;
  sim::TimeNs elapsed_ns = 0;

  double LatencyUsMedian() const { return latency.Median() / 1000.0; }
};

/// Creates the topic, runs the produce workload for `kind`, and returns the
/// measured latency distribution and goodput. Producer i targets partition
/// i % partitions.
WorkloadResult RunProduceWorkload(TestCluster& cluster, SystemKind kind,
                                  const ProduceOptions& options);

// ---------------------------------------------------------------------------
// Consume workloads (Figs. 18-20 and the empty-fetch table)
// ---------------------------------------------------------------------------

struct ConsumeOptions {
  std::string topic = "bench";
  int replication_factor = 1;
  int preload_records = 2000;
  size_t record_size = 1024;
  /// Fetch at most this many records per poll (1 reproduces the paper's
  /// "broker replies with one record for each fetch request").
  int records_per_poll = 1;
  /// Ring-buffer consume protocol (DESIGN.md §12) for the RDMA consumer;
  /// requires the deployment to enable broker.rdma_consume. Ignored by
  /// the TCP/OSU systems.
  bool ring_consume = false;
};

/// Preloads the topic (via the RDMA produce path for speed) and measures
/// record-at-a-time consumption for `kind` (kKdExclusive/kKdShared both map
/// to the RDMA consumer).
WorkloadResult RunConsumeWorkload(TestCluster& cluster, SystemKind kind,
                                  const ConsumeOptions& options);

/// Latency of checking for new records when none exist: a TCP empty fetch
/// vs a single RDMA metadata-slot read (§5.3).
WorkloadResult RunEmptyFetchLatency(TestCluster& cluster, SystemKind kind,
                                    int iterations = 200);

/// How many empty fetch checks per second one broker sustains when flooded
/// by `clients` consumers (§5.3's 53 K/s vs 8300 K/s table).
double RunEmptyFetchThroughput(TestCluster& cluster, SystemKind kind,
                               int clients, sim::TimeNs duration);

// ---------------------------------------------------------------------------
// End-to-end multi-tenant workload (SLO audit)
// ---------------------------------------------------------------------------

struct EndToEndOptions {
  std::string topic = "slo";
  /// One producer per tenant; tenant id = producer index + 1 (0 is the
  /// untagged/preload id), stamped into every batch as producer_id.
  int producers = 4;
  int records_per_producer = 100;
  size_t record_size = 1024;
  int max_inflight = 4;
  int replication_factor = 1;
};

/// Concurrent produce + consume on one partition: `producers` tenants
/// produce while a single consumer drains until it has seen every record.
/// Delivery delays land in the cluster's obs().slo tracker per tenant
/// (reported via --slo_json). The returned latency histogram holds the
/// consumer-observed delivery delays across all tenants.
WorkloadResult RunEndToEndWorkload(TestCluster& cluster, SystemKind kind,
                                   const EndToEndOptions& options);

// ---------------------------------------------------------------------------
// Table output
// ---------------------------------------------------------------------------

/// Prints "== Figure N: title ==" plus an aligned header row.
void PrintFigureHeader(const std::string& figure, const std::string& title,
                       const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string Cell(double v, int precision = 1);

/// The record-size sweep most figures share (axis labels match the paper).
std::vector<size_t> PaperRecordSizes(size_t lo, size_t hi);

}  // namespace harness
}  // namespace kafkadirect
