// Kafka wire protocol (simplified): framed request/response messages
// exchanged over a MessageStream. KafkaDirect adds the RDMA-access
// handshake messages (§4.2.2 "getting RDMA access", §4.4.2) while keeping
// every original request intact — backward compatibility is a design goal
// of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/byte_order.h"
#include "common/status.h"

namespace kafkadirect {
namespace kafka {

/// The broker's TCP service port.
constexpr uint16_t kKafkaPort = 9092;

enum class MsgType : uint16_t {
  kProduceRequest = 1,
  kProduceResponse,
  kFetchRequest,
  kFetchResponse,
  kMetadataRequest,
  kMetadataResponse,
  kRdmaProduceAccessRequest,
  kRdmaProduceAccessResponse,
  kRdmaConsumeAccessRequest,
  kRdmaConsumeAccessResponse,
  kRdmaUnregisterRequest,
  kRdmaUnregisterResponse,
  kReplicaRdmaAccessRequest,
  kReplicaRdmaAccessResponse,
  kCommitOffsetRequest,
  kCommitOffsetResponse,
  kRdmaCommitAccessRequest,
  kRdmaCommitAccessResponse,
  kFetchCommittedOffsetRequest,
  kFetchCommittedOffsetResponse,
  kRdmaRingConsumeAccessRequest,
  kRdmaRingConsumeAccessResponse,
  // --- cluster control plane (DESIGN.md §15); appended so every prior
  // message keeps its wire value ---
  kControllerHeartbeatRequest,
  kControllerHeartbeatResponse,
  kLeaderAndIsrRequest,
  kLeaderAndIsrResponse,
  kLogInfoRequest,
  kLogInfoResponse,
};

enum class ErrorCode : int16_t {
  kNone = 0,
  kUnknownTopicOrPartition,
  kNotLeader,
  kCorruptMessage,
  kOffsetOutOfRange,
  kRecordTooLarge,
  kRdmaAccessDenied,
  kInvalidRequest,
  kTimedOut,
  kResourceExhausted,  // admission control: retry after a backoff (§14)
  // --- cluster control plane (DESIGN.md §15) ---
  kFencedLeaderEpoch,  // request fenced by a newer partition leader
};

const char* ErrorCodeName(ErrorCode code);

struct TopicPartitionId {
  std::string topic;
  int32_t partition = 0;

  bool operator==(const TopicPartitionId&) const = default;
  bool operator<(const TopicPartitionId& o) const {
    if (topic != o.topic) return topic < o.topic;
    return partition < o.partition;
  }
  std::string ToString() const {
    return topic + "-" + std::to_string(partition);
  }
};

/// acks=-1 (all ISR), 0 (fire and forget), 1 (leader only).
struct ProduceRequest {
  TopicPartitionId tp;
  int16_t acks = -1;
  std::vector<uint8_t> batch;
};

struct ProduceResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t base_offset = -1;
};

struct FetchRequest {
  TopicPartitionId tp;
  int64_t offset = 0;
  uint32_t max_bytes = 1 << 20;
  /// Long-poll budget: 0 => respond immediately (possibly empty).
  int64_t max_wait_ns = 0;
  /// Replica fetches read up to LEO and carry the follower's identity so
  /// the leader can track ISR progress.
  bool is_replica = false;
  int32_t replica_id = -1;
};

struct FetchResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t high_watermark = 0;
  int64_t log_end_offset = 0;
  std::vector<uint8_t> batches;
};

struct MetadataRequest {
  std::string topic;
};

struct MetadataResponse {
  ErrorCode error = ErrorCode::kNone;
  int32_t num_partitions = 0;
  std::vector<int32_t> leader_broker;  // one entry per partition
};

/// "Get RDMA produce address" (§4.2.2): grants write access to the head
/// file of a TP.
struct RdmaProduceAccessRequest {
  TopicPartitionId tp;
  bool exclusive = true;
  /// Set when re-requesting after the head file rolled or access was
  /// revoked; the broker releases state tied to the old file first.
  uint16_t stale_file_id = 0;
  /// Broker-side QP number of this producer's RC connection, so exclusive
  /// grants can be fenced when the QP disconnects (§4.2.2).
  uint32_t broker_qp = 0;
  /// On rotation: the file position this producer observed as the end of
  /// in-range claims (its own overflow claim start). The broker rotates
  /// once commits reach the smallest such target.
  uint64_t rotate_target = 0;
};

struct RdmaProduceAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint16_t file_id = 0;     // goes into the WriteWithImm immediate data
  uint64_t addr = 0;        // virtual address of the head file
  uint32_t rkey = 0;
  uint64_t capacity = 0;    // full length of the preallocated file
  uint64_t write_pos = 0;   // current append position
  /// Shared mode: the 8-byte {order, offset} word for RDMA FAA (§4.2.2).
  uint64_t atomic_addr = 0;
  uint32_t atomic_rkey = 0;
  uint16_t next_order = 0;
};

/// "Get RDMA read access" for consumers (§4.4.2).
struct RdmaConsumeAccessRequest {
  TopicPartitionId tp;
  int64_t offset = 0;
};

struct RdmaConsumeAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint32_t file_ref = 0;     // broker-side handle for unregistration
  uint64_t addr = 0;         // virtual address of the file
  uint32_t rkey = 0;
  uint64_t start_pos = 0;    // file position of the requested offset
  int64_t start_offset = 0;  // Kafka offset at start_pos
  uint64_t last_readable = 0;  // snapshot: position after last visible byte
  bool is_mutable = false;   // head file?
  /// Metadata slot for mutable files: one 16-byte slot inside the
  /// consumer's contiguous slot region.
  uint32_t slot_index = 0;
  uint64_t slot_region_addr = 0;
  uint32_t slot_rkey = 0;
};

/// Ring-buffer Write consume (DESIGN.md §12): the consumer registers a
/// ring MR plus an 8-byte tail word, both broker-writable; the broker
/// pushes committed bytes into the ring and periodically Writes the total
/// pushed byte count into the tail word. The response carries the broker's
/// head word — an 8-byte broker-side slot the consumer Writes its consumed
/// byte count into, which is the (amortized) buffer-reclamation channel.
struct RdmaRingConsumeAccessRequest {
  TopicPartitionId tp;
  int64_t offset = 0;
  /// Broker-side QP number of this consumer's RC connection (the QP the
  /// broker pushes ring writes on).
  uint32_t broker_qp = 0;
  uint64_t ring_addr = 0;
  uint32_t ring_rkey = 0;
  uint64_t ring_capacity = 0;
  uint64_t tail_addr = 0;
  uint32_t tail_rkey = 0;
};

struct RdmaRingConsumeAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint32_t grant_ref = 0;     // broker-side handle for the push session
  int64_t start_offset = 0;   // Kafka offset of the first pushed byte
  uint64_t head_addr = 0;     // broker-side consumed-count word
  uint32_t head_rkey = 0;
};

/// Consumer tells the broker a file can be unregistered (§4.4.2).
struct RdmaUnregisterRequest {
  TopicPartitionId tp;
  uint32_t file_ref = 0;
};

struct RdmaUnregisterResponse {
  ErrorCode error = ErrorCode::kNone;
};

/// Push-replication handshake: the leader asks a follower for RDMA write
/// access to the replica's head file plus a credit allowance (§4.3.2).
struct ReplicaRdmaAccessRequest {
  TopicPartitionId tp;
  uint16_t stale_file_id = 0;
};

struct ReplicaRdmaAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint16_t file_id = 0;
  uint64_t addr = 0;
  uint32_t rkey = 0;
  uint64_t capacity = 0;
  uint64_t write_pos = 0;
  uint32_t credits = 0;  // max outstanding replication writes
};

/// Consumer-group offset commit (used by the streaming workload, §5.4 —
/// the paper notes KafkaDirect still issues these over TCP).
struct CommitOffsetRequest {
  TopicPartitionId tp;
  std::string group;
  int64_t offset = 0;
};

struct CommitOffsetResponse {
  ErrorCode error = ErrorCode::kNone;
};

/// EXTENSION (paper §5.4 future work): grants a consumer group an
/// RDMA-writable 8-byte slot holding its committed offset, so offset
/// commits become one-sided writes instead of TCP round trips.
struct RdmaCommitAccessRequest {
  TopicPartitionId tp;
  std::string group;
};

struct RdmaCommitAccessResponse {
  ErrorCode error = ErrorCode::kNone;
  uint64_t slot_addr = 0;
  uint32_t slot_rkey = 0;
};

struct FetchCommittedOffsetRequest {
  TopicPartitionId tp;
  std::string group;
};

struct FetchCommittedOffsetResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t offset = -1;
};

// --- cluster control plane (DESIGN.md §15) ---

/// Controller -> broker liveness probe. A response carrying a higher term
/// deposes the sender; a request carrying a higher term installs the
/// sender as the receiver's controller.
struct ControllerHeartbeatRequest {
  int64_t term = 0;
  int32_t controller_id = -1;
};

struct ControllerHeartbeatResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t term = 0;  // receiver's view, so a stale controller steps down
};

/// Leadership/ISR install, broadcast by the controller to every alive
/// broker (every broker mirrors the full assignment map so any one of
/// them can take over as controller). Leaders also send this to the
/// controller (`from_controller = false`) to report ISR shrink/expand.
struct LeaderAndIsrRequest {
  TopicPartitionId tp;
  int32_t leader_id = -1;
  uint64_t leader_node = 0;   // net::NodeId of the leader
  int64_t leader_epoch = 0;
  bool from_controller = true;
  std::vector<int32_t> isr;       // includes the leader
  std::vector<int32_t> replicas;  // includes the leader
};

struct LeaderAndIsrResponse {
  ErrorCode error = ErrorCode::kNone;
};

/// Controller -> ISR member during failover: report log progress so the
/// controller elects the candidate with the longest log.
struct LogInfoRequest {
  TopicPartitionId tp;
};

struct LogInfoResponse {
  ErrorCode error = ErrorCode::kNone;
  int64_t log_end_offset = -1;
  int64_t high_watermark = -1;
};

/// A frame is MsgType (u16) followed by the message body.
MsgType PeekType(Slice frame);

// --- encode/decode, one pair per message ---
std::vector<uint8_t> Encode(const ProduceRequest& m);
std::vector<uint8_t> Encode(const ProduceResponse& m);
std::vector<uint8_t> Encode(const FetchRequest& m);
std::vector<uint8_t> Encode(const FetchResponse& m);
std::vector<uint8_t> Encode(const MetadataRequest& m);
std::vector<uint8_t> Encode(const MetadataResponse& m);
std::vector<uint8_t> Encode(const RdmaProduceAccessRequest& m);
std::vector<uint8_t> Encode(const RdmaProduceAccessResponse& m);
std::vector<uint8_t> Encode(const RdmaConsumeAccessRequest& m);
std::vector<uint8_t> Encode(const RdmaConsumeAccessResponse& m);
std::vector<uint8_t> Encode(const RdmaRingConsumeAccessRequest& m);
std::vector<uint8_t> Encode(const RdmaRingConsumeAccessResponse& m);
std::vector<uint8_t> Encode(const RdmaUnregisterRequest& m);
std::vector<uint8_t> Encode(const RdmaUnregisterResponse& m);
std::vector<uint8_t> Encode(const ReplicaRdmaAccessRequest& m);
std::vector<uint8_t> Encode(const ReplicaRdmaAccessResponse& m);
std::vector<uint8_t> Encode(const CommitOffsetRequest& m);
std::vector<uint8_t> Encode(const CommitOffsetResponse& m);
std::vector<uint8_t> Encode(const RdmaCommitAccessRequest& m);
std::vector<uint8_t> Encode(const RdmaCommitAccessResponse& m);
std::vector<uint8_t> Encode(const FetchCommittedOffsetRequest& m);
std::vector<uint8_t> Encode(const FetchCommittedOffsetResponse& m);
std::vector<uint8_t> Encode(const ControllerHeartbeatRequest& m);
std::vector<uint8_t> Encode(const ControllerHeartbeatResponse& m);
std::vector<uint8_t> Encode(const LeaderAndIsrRequest& m);
std::vector<uint8_t> Encode(const LeaderAndIsrResponse& m);
std::vector<uint8_t> Encode(const LogInfoRequest& m);
std::vector<uint8_t> Encode(const LogInfoResponse& m);

Status Decode(Slice frame, ProduceRequest* m);
Status Decode(Slice frame, ProduceResponse* m);
Status Decode(Slice frame, FetchRequest* m);
Status Decode(Slice frame, FetchResponse* m);
Status Decode(Slice frame, MetadataRequest* m);
Status Decode(Slice frame, MetadataResponse* m);
Status Decode(Slice frame, RdmaProduceAccessRequest* m);
Status Decode(Slice frame, RdmaProduceAccessResponse* m);
Status Decode(Slice frame, RdmaConsumeAccessRequest* m);
Status Decode(Slice frame, RdmaConsumeAccessResponse* m);
Status Decode(Slice frame, RdmaRingConsumeAccessRequest* m);
Status Decode(Slice frame, RdmaRingConsumeAccessResponse* m);
Status Decode(Slice frame, RdmaUnregisterRequest* m);
Status Decode(Slice frame, RdmaUnregisterResponse* m);
Status Decode(Slice frame, ReplicaRdmaAccessRequest* m);
Status Decode(Slice frame, ReplicaRdmaAccessResponse* m);
Status Decode(Slice frame, CommitOffsetRequest* m);
Status Decode(Slice frame, CommitOffsetResponse* m);
Status Decode(Slice frame, RdmaCommitAccessRequest* m);
Status Decode(Slice frame, RdmaCommitAccessResponse* m);
Status Decode(Slice frame, FetchCommittedOffsetRequest* m);
Status Decode(Slice frame, FetchCommittedOffsetResponse* m);
Status Decode(Slice frame, ControllerHeartbeatRequest* m);
Status Decode(Slice frame, ControllerHeartbeatResponse* m);
Status Decode(Slice frame, LeaderAndIsrRequest* m);
Status Decode(Slice frame, LeaderAndIsrResponse* m);
Status Decode(Slice frame, LogInfoRequest* m);
Status Decode(Slice frame, LogInfoResponse* m);

// --- pooled variants for the data-path messages ---
//
// The `reuse` overloads encode into a recycled vector (cleared first), so
// a pooled buffer's capacity is reused instead of reallocating per
// message. The BufferPool overloads fill the payload field (batch /
// batches) from the pool; pass nullptr for plain allocation.
std::vector<uint8_t> Encode(const ProduceRequest& m,
                            std::vector<uint8_t> reuse);
std::vector<uint8_t> Encode(const ProduceResponse& m,
                            std::vector<uint8_t> reuse);
std::vector<uint8_t> Encode(const FetchRequest& m, std::vector<uint8_t> reuse);
std::vector<uint8_t> Encode(const FetchResponse& m,
                            std::vector<uint8_t> reuse);
Status Decode(Slice frame, ProduceRequest* m, BufferPool* pool);
Status Decode(Slice frame, FetchResponse* m, BufferPool* pool);

}  // namespace kafka
}  // namespace kafkadirect
