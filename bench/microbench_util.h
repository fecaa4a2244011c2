// Shared scaffolding for the raw-verbs microbenchmarks (Figs. 6-8): two
// machines on the fabric, a registered target file on the "broker" side,
// matching the paper's C/C++ prototypes that establish the RDMA upper
// bounds before any Kafka logic is involved.
#pragma once

#include <memory>
#include <vector>

#include "common/byte_order.h"
#include "common/demand_zero_buffer.h"
#include "common/histogram.h"
#include "common/units.h"
#include "direct/control.h"
#include "harness/harness.h"
#include "rdma/queue_pair.h"
#include "rdma/rnic.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace bench {

/// One client endpoint wired to the server node.
struct MicroClient {
  std::shared_ptr<rdma::CompletionQueue> cq;
  std::shared_ptr<rdma::QueuePair> qp;
  std::vector<uint8_t> payload;
  Histogram latency;
  uint64_t completed = 0;
};

/// Two-node verbs rig with one remote buffer (write/read/atomic access).
class MicroRig {
 public:
  explicit MicroRig(uint64_t buffer_size = 64 * kMiB)
      : fabric_(sim_, cost_),
        server_node_(fabric_.AddNode("server")),
        server_nic_(sim_, fabric_, server_node_),
        buffer_(buffer_size) {
    if (!harness::obs_options().trace_json.empty()) {
      fabric_.obs().tracer.Enable();
    }
    mr_ = server_nic_
              .RegisterMemory(buffer_.data(), buffer_.size(),
                              rdma::kAccessRemoteWrite |
                                  rdma::kAccessRemoteRead |
                                  rdma::kAccessRemoteAtomic)
              .value();
    atomic_word_.resize(8, 0);
    atomic_mr_ = server_nic_
                     .RegisterMemory(atomic_word_.data(), 8,
                                     rdma::kAccessRemoteAtomic)
                     .value();
  }

  /// Creates a client on its own node, pre-posting recvs on the server QP.
  /// A server-side drainer keeps the receive queue replenished.
  MicroClient AddClient(size_t payload_size, int server_recvs = 1000) {
    auto node = fabric_.AddNode("client-" + std::to_string(clients_.size()));
    clients_.push_back(std::make_unique<rdma::Rnic>(sim_, fabric_, node));
    rdma::Rnic& nic = *clients_.back();
    MicroClient client;
    client.cq = nic.CreateCq(1 << 16);
    client.qp = nic.CreateQp(client.cq, client.cq);
    auto server_cq = server_nic_.CreateCq(1 << 16);
    server_cqs_.push_back(server_cq);
    auto server_qp = server_nic_.CreateQp(server_cq, server_cq);
    server_qps_.push_back(server_qp);
    KD_CHECK_OK(rdma::Connect(client.qp, server_qp));
    // Receive buffers sized for metadata Sends (Fig. 7 uses up to 512 B).
    auto recv_pool = std::make_shared<std::vector<std::vector<uint8_t>>>();
    for (int i = 0; i < server_recvs; i++) {
      recv_pool->emplace_back(1024);
      KD_CHECK_OK(server_qp->PostRecv(i, recv_pool->back().data(), 1024));
    }
    sim::Spawn(sim_, ServerDrainer(server_cq, server_qp, recv_pool));
    client.payload.assign(payload_size, 0xAB);
    return client;
  }

  /// Consumes server-side completions and re-posts the receives.
  static sim::Co<void> ServerDrainer(
      std::shared_ptr<rdma::CompletionQueue> cq,
      std::shared_ptr<rdma::QueuePair> qp,
      std::shared_ptr<std::vector<std::vector<uint8_t>>> recv_pool) {
    while (true) {
      auto wc = co_await cq->Next();
      if (!wc.has_value() || !wc->ok()) co_return;
      (void)qp->PostRecv(wc->wr_id, (*recv_pool)[wc->wr_id].data(),
                         static_cast<uint32_t>((*recv_pool)[wc->wr_id].size()));
    }
  }

  ~MicroRig() {
    // Mirror TestCluster: dump the requested observability files so the
    // raw-verbs microbenches honor the full obs flag set. --slo_json is an
    // empty skeleton here (no Kafka delivery on a raw-verbs rig) but the
    // flag is honored; --flight_dump carries the QP verb-post events.
    const harness::ObsOptions& opts = harness::obs_options();
    if (!opts.metrics_json.empty()) {
      (void)fabric_.obs().metrics.WriteJsonFile(opts.metrics_json);
    }
    if (!opts.trace_json.empty()) {
      (void)fabric_.obs().tracer.WriteChromeTraceFile(opts.trace_json);
    }
    if (!opts.slo_json.empty()) {
      (void)fabric_.obs().slo.WriteJsonFile(opts.slo_json);
    }
    if (!opts.flight_dump.empty()) {
      (void)fabric_.obs().flight.WriteChromeTraceFile(opts.flight_dump);
    }
  }

  sim::Simulator& sim() { return sim_; }
  const CostModel& cost() const { return cost_; }
  uint64_t buffer_size() const { return buffer_.size(); }
  uint64_t buffer_addr() const { return mr_->addr(); }
  uint32_t buffer_rkey() const { return mr_->rkey(); }
  uint64_t atomic_addr() const { return atomic_mr_->addr(); }
  uint32_t atomic_rkey() const { return atomic_mr_->rkey(); }
  uint8_t* atomic_word() { return atomic_word_.data(); }

  /// Drains N completions, then sets the flag.
  static sim::Co<void> Drain(MicroClient* client, uint64_t n, int* done) {
    for (uint64_t i = 0; i < n; i++) {
      auto wc = co_await client->cq->Next();
      KD_CHECK(wc.has_value() && wc->ok())
          << (wc.has_value() ? rdma::WcStatusName(wc->status) : "cq dead");
      client->completed++;
    }
    (*done)++;
  }

 private:
  sim::Simulator sim_;
  CostModel cost_;
  net::Fabric fabric_;
  net::NodeId server_node_;
  rdma::Rnic server_nic_;
  DemandZeroBuffer buffer_;  // the registered target file
  rdma::MemoryRegionPtr mr_;
  std::vector<uint8_t> atomic_word_;
  rdma::MemoryRegionPtr atomic_mr_;
  std::vector<std::unique_ptr<rdma::Rnic>> clients_;
  std::vector<std::shared_ptr<rdma::CompletionQueue>> server_cqs_;
  std::vector<std::shared_ptr<rdma::QueuePair>> server_qps_;
};

}  // namespace bench
}  // namespace kafkadirect
