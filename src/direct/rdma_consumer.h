// RdmaConsumer: KafkaDirect's consume client (§4.4.2).
//
// Fetching is fully offloaded to the RNIC: records are pulled with
// one-sided RDMA Reads of a fixed fetch size (default 2 KiB); availability
// of new records is discovered by RDMA-reading the consumer's contiguous
// metadata-slot region on the broker — a single Read covers every
// subscribed TP (Fig. 9) and involves no broker CPU. Partially-fetched
// records are kept in a reassembly buffer until complete (§4.4.2 "fetch
// size for RDMA Reads"); immutable (sealed) files are drained to the end
// and then exchanged for the next file via a TCP access request.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "direct/control.h"
#include "direct/kd_broker.h"
#include "kafka/consumer.h"  // OwnedRecord
#include "kafka/record.h"
#include "rdma/queue_pair.h"

namespace kafkadirect {
namespace kd {

struct RdmaConsumerConfig {
  /// Bytes per RDMA Read; the paper's default (2 KiB) trades ~3 us latency
  /// against >5 GiB/s bandwidth.
  uint32_t fetch_size = 2048;

  /// Ring-buffer consume protocol (DESIGN.md §12): the broker pushes
  /// committed bytes into a consumer-registered ring MR and periodically
  /// publishes a tail pointer; the consumer drains locally and write-backs
  /// its consumed count one-sidedly. No RDMA Reads, no per-batch
  /// notifications. Requires broker rdma_consume.
  bool ring_consume = false;
  /// Ring data buffer size in bytes.
  uint64_t ring_capacity = 1 << 20;
  /// Write the consumed count back to the broker after this many drained
  /// bytes (space-reclamation granularity seen by the broker's pusher).
  uint64_t head_update_bytes = 64 * 1024;
};

class RdmaConsumer {
 public:
  RdmaConsumer(sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
               net::NodeId node, RdmaConsumerConfig config = {});
  ~RdmaConsumer();

  /// TCP control channel + RC QP to the leader.
  sim::Co<Status> Connect(KafkaDirectBroker* leader);

  /// Requests RDMA read access to `tp` starting at `offset`.
  /// (Non-coroutine shim: copies `tp` before the coroutine starts, which
  /// sidesteps GCC's mishandling of temporaries bound to coroutine
  /// parameters.)
  sim::Co<Status> Subscribe(const kafka::TopicPartitionId& tp,
                            int64_t offset) {
    return SubscribeImpl(tp, offset);
  }

  /// Re-grant after a leader move (§15): drops the `tp` subscription,
  /// rebuilds the whole transport when `leader` differs from the connected
  /// broker (fresh QP + control channel; every other subscription and
  /// commit target dies with the old one), and re-subscribes at `offset` —
  /// typically the group's RDMA-committed offset, so delivery resumes
  /// exactly-once.
  sim::Co<Status> Resubscribe(KafkaDirectBroker* leader,
                              const kafka::TopicPartitionId& tp,
                              int64_t offset) {
    return ResubscribeImpl(leader, tp, offset);
  }

  /// Returns the next available complete records from `tp`, or an empty
  /// vector if none are available. Never contacts the broker CPU unless a
  /// file boundary is crossed.
  sim::Co<StatusOr<std::vector<kafka::OwnedRecord>>> Poll(
      const kafka::TopicPartitionId& tp) {
    return PollImpl(tp);
  }

  /// Refreshes the cached metadata (last readable byte, mutability) of
  /// every subscribed TP with ONE RDMA Read spanning the active slots.
  sim::Co<Status> PollMetadata();

  /// EXTENSION (§5.4 future work): obtains an RDMA-writable committed-
  /// offset slot for `group`, turning subsequent commits into one-sided
  /// ~2 us writes instead of ~160 us TCP round trips.
  sim::Co<Status> EnableRdmaCommit(const kafka::TopicPartitionId& tp,
                                   const std::string& group) {
    return EnableRdmaCommitImpl(tp, group);
  }

  /// One-sided offset commit; requires EnableRdmaCommit first.
  sim::Co<Status> CommitOffsetRdma(const kafka::TopicPartitionId& tp,
                                   const std::string& group, int64_t offset) {
    return CommitOffsetRdmaImpl(tp, group, offset);
  }

  void Close();

  uint64_t fetched_records() const { return fetched_records_; }
  uint64_t fetched_bytes() const { return fetched_bytes_; }
  uint64_t rdma_reads_issued() const { return reads_issued_; }
  uint64_t metadata_reads() const { return metadata_reads_; }
  uint64_t file_switches() const { return file_switches_; }

 private:
  struct Subscription {
    kafka::TopicPartitionId tp;
    int64_t next_offset = 0;       // next record offset to deliver
    uint32_t file_ref = 0;
    uint64_t file_addr = 0;
    uint32_t file_rkey = 0;
    uint64_t read_pos = 0;         // next file position to fetch
    uint64_t last_readable = 0;    // cached from the metadata slot
    bool is_mutable = false;
    int32_t slot_index = -1;
    std::vector<uint8_t> partial;  // reassembly buffer

    // Ring-consume state (config.ring_consume).
    bool ring = false;
    uint32_t grant_ref = 0;
    std::vector<uint8_t> ring_buf;      // broker-written data ring
    rdma::MemoryRegionPtr ring_mr;
    std::vector<uint8_t> tail_word;     // broker-written pushed-byte count
    rdma::MemoryRegionPtr tail_mr;
    uint64_t broker_head_addr = 0;      // broker-side consumed-count word
    uint32_t broker_head_rkey = 0;
    uint64_t consumed = 0;              // bytes drained from the ring
    uint64_t head_written = 0;          // last consumed value written back
  };

  sim::Co<Status> SubscribeImpl(kafka::TopicPartitionId tp, int64_t offset);
  sim::Co<Status> ResubscribeImpl(KafkaDirectBroker* leader,
                                  kafka::TopicPartitionId tp, int64_t offset);
  sim::Co<Status> EnableRdmaCommitImpl(kafka::TopicPartitionId tp,
                                       std::string group);
  sim::Co<Status> CommitOffsetRdmaImpl(kafka::TopicPartitionId tp,
                                       std::string group, int64_t offset);
  sim::Co<StatusOr<std::vector<kafka::OwnedRecord>>> PollImpl(
      kafka::TopicPartitionId tp);
  sim::Co<StatusOr<uint64_t>> RdmaRead(uint64_t remote_addr, uint32_t rkey,
                                       uint8_t* dst, uint32_t len);
  sim::Co<Status> RequestAccess(Subscription* sub, int64_t offset,
                                bool unregister_current);
  /// Ring-consume handshake: registers the ring + tail MRs and asks the
  /// broker to start pushing from `offset`.
  sim::Co<Status> RequestRingAccess(Subscription* sub, int64_t offset);
  /// Ring-mode Poll: drains [consumed, tail) from the local ring.
  sim::Co<StatusOr<std::vector<kafka::OwnedRecord>>> PollRing(
      Subscription* sub);
  /// One-sided write-back of the consumed count to the broker's head word.
  void WriteRingHead(Subscription* sub);
  /// Extracts complete batches from the reassembly buffer into records.
  Status DrainPartial(Subscription* sub,
                      std::vector<kafka::OwnedRecord>* out,
                      sim::TimeNs* work_ns);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  tcpnet::Network& tcp_;
  net::NodeId node_;
  RdmaConsumerConfig config_;
  KafkaDirectBroker* leader_ = nullptr;

  rdma::Rnic rnic_;
  std::shared_ptr<rdma::CompletionQueue> cq_;
  std::shared_ptr<rdma::QueuePair> qp_;
  net::MessageStreamPtr ctrl_;
  uint32_t broker_qp_num_ = 0;  // broker end of qp_ (ring pushes ride it)

  uint64_t slot_region_addr_ = 0;
  uint32_t slot_rkey_ = 0;
  std::vector<uint8_t> slot_shadow_;  // local copy of the slot region

  std::map<kafka::TopicPartitionId, std::unique_ptr<Subscription>> subs_;
  struct CommitTarget {
    uint64_t addr = 0;
    uint32_t rkey = 0;
    std::vector<uint8_t> staging;  // 8 B, alive across the write
  };
  std::map<std::pair<kafka::TopicPartitionId, std::string>, CommitTarget>
      commit_targets_;
  uint64_t next_wr_id_ = 1;
  uint64_t rdma_commits_ = 0;

 public:
  uint64_t rdma_commits() const { return rdma_commits_; }

 private:

  uint64_t fetched_records_ = 0;
  uint64_t fetched_bytes_ = 0;
  uint64_t reads_issued_ = 0;
  uint64_t metadata_reads_ = 0;
  uint64_t file_switches_ = 0;
  uint64_t ring_head_writes_ = 0;

 public:
  uint64_t ring_head_writes() const { return ring_head_writes_; }
};

}  // namespace kd
}  // namespace kafkadirect
