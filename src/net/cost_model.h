// CostModel: every timing constant in the simulation, in one place.
//
// Defaults are calibrated to the paper's testbed (56 Gbit/s Mellanox
// ConnectX-4, 2x 8-core Xeon E5-2630 v3, IPoIB for the TCP baseline) using
// the paper's own microbenchmarks and latency decomposition:
//   - link goodput ~6 GiB/s, MTU 2 KiB                       (S5, Fig 8)
//   - WriteWithImm RTT ~1.5 us, RDMA Read ~2.2 us            (Fig 7, S4.4)
//   - one RDMA atomic unit: 2.68 M ops/s per counter         (S4.2.2)
//   - inter-thread request handoff 11 us, record processing
//     ~14 us incl. CRC32C, blocking-poll wakeups             (S5.1)
// Benches construct one CostModel and thread it through the whole stack;
// nothing else in the codebase hard-codes a time constant.
#pragma once

#include <cstdint>

#include "sim/simulator.h"

namespace kafkadirect {

/// Physical link / switch model (shared by RDMA and TCP traffic).
struct LinkModel {
  /// Payload bandwidth of one port direction. 56 Gbit/s signaling with
  /// 64b/66b encoding and protocol overheads yields ~6 GiB/s of goodput.
  double bytes_per_ns = 6.44;  // ~6 GiB/s

  /// One-way propagation incl. switch latency.
  sim::TimeNs propagation_ns = 250;

  /// InfiniBand path MTU.
  uint32_t mtu_bytes = 2048;

  /// Per-packet header+ICRC overhead (LRH/BTH/...).
  uint32_t header_bytes = 30;

  /// Loopback transfer latency (broker issuing an atomic to itself).
  sim::TimeNs loopback_ns = 300;
};

/// RNIC / verbs execution model.
struct RdmaModel {
  /// Posting a WR: WQE write + doorbell + WQE fetch by the NIC.
  sim::TimeNs doorbell_ns = 80;

  /// Per-WR processing inside an RNIC (each side). Together with the
  /// doorbell this caps the small-message rate at ~6.6 M writes/s,
  /// matching Fig. 8's no-batching goodput (~0.5 GiB/s of 64 B writes).
  sim::TimeNs process_ns = 70;

  /// Writing a CQE + the poller picking it up (busy polling).
  sim::TimeNs completion_ns = 150;

  /// Responder-side serialization of one atomic op on one counter:
  /// 373 ns => 2.68 M ops/s, the paper's measured ceiling.
  sim::TimeNs atomic_unit_ns = 373;

  /// Responder turnaround for a Read (fetch from memory, form response).
  sim::TimeNs read_response_ns = 700;

  /// Default queue sizes. CQ overflow puts the QP in error state, which is
  /// what motivates the paper's credit-based replication flow control.
  int max_send_wr = 128;
  int max_recv_wr = 1024;
  int default_cq_capacity = 4096;

  /// Default capacity of a SharedReceiveQueue (ibv_srq_init_attr.max_wr):
  /// one pool of posted receives serving every attached QP, sized for the
  /// server as a whole instead of per connection.
  int max_srq_wr = 4096;
};

/// Kernel TCP/IP (over IPoIB) cost model.
struct TcpModel {
  /// Sender syscall + kernel transmit path per message.
  sim::TimeNs send_overhead_ns = 15000;

  /// Copy user buffer -> socket buffer (sender side).
  double send_copy_ns_per_byte = 0.8;

  /// Receiver interrupt + kernel receive path per message.
  sim::TimeNs recv_overhead_ns = 15000;

  /// The two receive-side copies the paper calls out: driver buffer ->
  /// socket buffer -> application buffer.
  double recv_copy_ns_per_byte = 1.6;

  /// IPoIB pays extra per-byte overhead vs native verbs; effective goodput
  /// of a single TCP stream is well below link rate.
  double bytes_per_ns = 1.8;  // IPoIB single-stream goodput
};

/// Thread-scheduling costs (the dominant term in Kafka's ~100 us+ RPC
/// latencies per the paper's decomposition).
struct CpuModel {
  /// Waking a thread blocked on a selector / condition variable.
  sim::TimeNs wakeup_ns = 25000;

  /// Handing a request between thread pools via the shared queue (paper:
  /// "forwarding a request takes 11 us").
  sim::TimeNs handoff_ns = 11000;

  /// One busy-poll iteration (RDMA clients spin on their CQs).
  sim::TimeNs poll_iteration_ns = 200;
};

/// Kafka application-level costs (broker and client bookkeeping around the
/// actual data movement).
struct KafkaModel {
  /// CRC32C at ~2.8 GB/s (software, single core).
  double crc_ns_per_byte = 0.35;

  /// memcpy within broker (file buffer writes, response staging).
  double copy_ns_per_byte = 0.30;

  /// API-worker fixed cost to process one produce request: decode, verify,
  /// assign offsets, update index, commit bookkeeping.
  sim::TimeNs produce_process_ns = 9000;

  /// Same work for an RDMA-produced batch already sitting in the file —
  /// no request decode, no response build (calibrated so one worker
  /// sustains ~630 MiB/s of 4 KiB records, Fig. 13).
  sim::TimeNs rdma_produce_process_ns = 4500;

  /// The TCP produce path's receive-buffer -> file-buffer copy; slower
  /// than a straight memcpy (JVM heap traffic, cache misses).
  double produce_copy_ns_per_byte = 2.0;

  /// API-worker fixed cost for one fetch request.
  sim::TimeNs fetch_process_ns = 8000;

  /// Network-thread cost to frame/unframe one request or response.
  sim::TimeNs net_frame_ns = 4000;

  /// Producer client: API entry, batch bookkeeping, future allocation.
  sim::TimeNs producer_api_ns = 9000;

  /// Producer client copies user records "to prevent mutation" (paper S5.1).
  double producer_copy_ns_per_byte = 0.30;

  /// Consumer client fixed cost per poll() returning data.
  sim::TimeNs consumer_api_ns = 4000;

  /// KafkaDirect consumer must copy fetched bytes from the off-heap RDMA
  /// buffer into a Java-heap buffer (paper S5.3: ~2 us of the 4.2 us).
  double consumer_copy_ns_per_byte = 0.45;

  /// KafkaDirect client fixed per-operation cost (busy-polling RDMA
  /// clients skip the blocking-wakeup path).
  sim::TimeNs rdma_consumer_api_ns = 1200;
  sim::TimeNs rdma_producer_api_ns = 3000;

  /// Shared-mode producer: synchronous wait for the FAA region claim (the
  /// client cannot build the write until the claim returns). Reproduces the
  /// exclusive-vs-shared gap of Figs. 6/11.
  sim::TimeNs faa_sync_ns = 6000;

  /// Replica follower: fixed cost to append a replicated batch.
  sim::TimeNs replica_append_ns = 6000;

  /// Leader-side CPU to issue one push-replication RDMA Write (WQE prep,
  /// completion/credit bookkeeping). Batching contiguous writes amortizes
  /// this — the Fig. 17 mechanism.
  sim::TimeNs replication_post_ns = 7000;
};

/// The complete model; every component takes a const reference to this.
struct CostModel {
  LinkModel link;
  RdmaModel rdma;
  TcpModel tcp;
  CpuModel cpu;
  KafkaModel kafka;

  /// Service time for CRC-checking `n` bytes.
  sim::TimeNs CrcCost(uint64_t n) const {
    return static_cast<sim::TimeNs>(kafka.crc_ns_per_byte * n);
  }
  /// Service time for copying `n` bytes inside the broker/client.
  sim::TimeNs CopyCost(uint64_t n) const {
    return static_cast<sim::TimeNs>(kafka.copy_ns_per_byte * n);
  }

  /// Epoch window for the sharded simulator (sim/sharded.h): nothing
  /// crosses between nodes — and therefore between shard domains — in
  /// less than one propagation delay, so cross-shard events can wait in
  /// the inboxes until the epoch ends.
  sim::TimeNs ShardLookaheadNs() const { return link.propagation_ns; }
};

}  // namespace kafkadirect
