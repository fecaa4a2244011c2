// Verbs-style type definitions: work requests, completions, access flags.
// Modeled after the InfiniBand verbs API surface KafkaDirect uses (via
// DiSNI): Send/Recv, RDMA Write, WriteWithImm, RDMA Read, and the two
// one-sided atomics (Compare-and-Swap, Fetch-and-Add).
#pragma once

#include <cstdint>

namespace kafkadirect {
namespace rdma {

enum class Opcode : uint8_t {
  kSend,          // two-sided; lands in a posted receive buffer
  kWrite,         // one-sided write, no responder notification
  kWriteWithImm,  // one-sided write + 32-bit immediate; consumes a recv WR
  kRead,          // one-sided read
  kCompSwap,      // 8-byte remote compare-and-swap
  kFetchAdd,      // 8-byte remote fetch-and-add
  // Responder-side completion opcodes:
  kRecv,          // a Send landed
  kRecvWithImm,   // a WriteWithImm landed
};

const char* OpcodeName(Opcode op);

enum class WcStatus : uint8_t {
  kSuccess,
  kLocalError,        // bad local arguments
  kRemoteAccessError, // rkey/bounds/permission failure at the responder
  kRnrRetryExceeded,  // responder had no receive posted
  kWrFlushed,         // QP moved to error; request never executed
};

const char* WcStatusName(WcStatus status);

/// Remote memory access permissions (subset of ibv_access_flags).
enum AccessFlags : uint32_t {
  kAccessNone = 0,
  kAccessRemoteWrite = 1u << 0,
  kAccessRemoteRead = 1u << 1,
  kAccessRemoteAtomic = 1u << 2,
};

/// A work request posted to a QP send queue.
struct WorkRequest {
  /// IBV_SEND_INLINE payload limit (max_inline_data in real QP caps).
  static constexpr uint32_t kMaxInlineData = 64;

  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kWrite;
  bool signaled = true;  // generate a CQE on the initiator when done

  /// Local buffer (source for sends/writes, destination for reads and
  /// atomic results). For atomics, must be 8 bytes if non-null.
  uint8_t* local_addr = nullptr;
  uint32_t length = 0;

  /// IBV_SEND_INLINE analogue: PostSend copies the payload (from
  /// `local_addr`, or already placed in `inline_data`) into the work
  /// request itself, so the caller's buffer is reusable the moment
  /// PostSend returns — no signaled completion needed to reclaim it.
  /// Valid for kSend / kWrite / kWriteWithImm with length <=
  /// kMaxInlineData.
  bool send_inline = false;
  uint8_t inline_data[kMaxInlineData] = {};

  /// Remote target for one-sided operations.
  uint64_t remote_addr = 0;
  uint32_t rkey = 0;

  /// Immediate data for kWriteWithImm.
  uint32_t imm_data = 0;

  /// Atomics: kFetchAdd adds `compare_add`; kCompSwap stores `swap` iff the
  /// current value equals `compare_add`. The prior value is returned into
  /// `local_addr`.
  uint64_t compare_add = 0;
  uint64_t swap = 0;

  /// Tracing correlation id (obs::SpanTracer async span), assigned by
  /// PostSend when tracing is enabled; 0 otherwise.
  uint64_t span_id = 0;
};

/// A receive work request: the buffer a Send / WriteWithImm payload lands
/// in. Posted to a QP's receive queue or to a SharedReceiveQueue.
struct RecvRequest {
  uint64_t wr_id = 0;
  uint8_t* buf = nullptr;
  uint32_t len = 0;
};

/// A completion queue entry.
struct WorkCompletion {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kWrite;
  WcStatus status = WcStatus::kSuccess;
  uint32_t byte_len = 0;   // bytes written/read/received
  uint32_t imm_data = 0;
  bool has_imm = false;
  uint32_t qp_num = 0;     // QP this completion belongs to

  bool ok() const { return status == WcStatus::kSuccess; }
};

}  // namespace rdma
}  // namespace kafkadirect
