// KafkaDirect in-band RDMA control plane:
//  - the 32-bit immediate-data layout of Fig. 4 ({order, file id});
//  - the 64-bit shared-produce atomic word of Fig. 5 ({order, offset});
//  - the small RDMA Send control messages (produce acks, replication
//    credits, HWM updates) that ride on already-established QPs;
//  - the shared produce-notification policy (WriteWithImm vs Write+Send)
//    used by both the producer and the fig07 microbench so the paper
//    figure and the ablation share one code path.
#pragma once

#include <cstdint>

#include "common/byte_order.h"
#include "rdma/verbs.h"

namespace kafkadirect {
namespace kd {

// --- produce-notification policy (Fig. 7 / DESIGN.md §5) ---

/// How the broker learns that a one-sided produce Write landed.
enum class NotifyMode : uint8_t {
  kWriteImm = 0,   // WriteWithImm: one WR, imm carries {order, file_id}
  kWriteSend = 1,  // unsignaled Write + separate Send with a CtrlMsg
};

/// The WRs a given notification mode produces.
struct NotifyPlan {
  rdma::Opcode data_opcode = rdma::Opcode::kWriteWithImm;
  bool separate_send = false;  // Write+Send: data WR unsignaled, the Send
                               // carries the notification (and the signal)
};

inline NotifyPlan PlanNotification(NotifyMode mode) {
  const bool use_imm = mode != NotifyMode::kWriteSend;
  NotifyPlan plan;
  plan.data_opcode =
      use_imm ? rdma::Opcode::kWriteWithImm : rdma::Opcode::kWrite;
  plan.separate_send = !use_imm;
  return plan;
}

// --- Fig. 4: immediate data = 16-bit order | 16-bit file identifier ---

inline uint32_t EncodeImm(uint16_t order, uint16_t file_id) {
  return (static_cast<uint32_t>(order) << 16) | file_id;
}
inline uint16_t ImmOrder(uint32_t imm) {
  return static_cast<uint16_t>(imm >> 16);
}
inline uint16_t ImmFileId(uint32_t imm) {
  return static_cast<uint16_t>(imm & 0xFFFF);
}

// --- Fig. 5: 64-bit atomic word = 16-bit order | 48-bit file offset ---

constexpr uint64_t kOffsetMask = (1ull << 48) - 1;

inline uint64_t EncodeAtomicWord(uint16_t order, uint64_t offset) {
  return (static_cast<uint64_t>(order) << 48) | (offset & kOffsetMask);
}
inline uint16_t AtomicOrder(uint64_t word) {
  return static_cast<uint16_t>(word >> 48);
}
inline uint64_t AtomicOffset(uint64_t word) { return word & kOffsetMask; }

/// The FAA addend that claims one produce slot of `size` bytes: increments
/// the order field by one and the offset field by the record size.
inline uint64_t FaaClaim(uint64_t size) { return (1ull << 48) + size; }

// --- control messages (fixed 24-byte RDMA Sends) ---

enum class CtrlKind : uint32_t {
  kProduceAck = 1,     // broker -> producer: {order, error, base_offset}
  kCredit = 2,         // follower -> leader: {granted, follower_leo}
  kHwmUpdate = 3,      // leader -> follower: {high_watermark}
  kProduceNotify = 4,  // producer -> broker: Write+Send notification
                       // {order, aux=file_id, value=write length} (§4.2.2)
  // --- QP-multiplexing stream lifecycle (DESIGN.md §14) ---
  kMuxOpen = 5,   // client -> broker: open `aux` logical streams starting
                  // at `stream` on this transport QP (aux == 0 -> 1)
  kMuxGrant = 6,  // broker -> client: admission verdict for `stream`;
                  // error == 0: order = per-stream credits, value =
                  //   committed-record count (reconnect resync anchor);
                  // error != 0: rejected, value = suggested retry-after ns
  kMuxClose = 7,  // client -> broker: close `aux` streams from `stream`
};

constexpr uint32_t kCtrlMsgSize = 24;

struct CtrlMsg {
  CtrlKind kind = CtrlKind::kProduceAck;
  uint16_t order = 0;
  uint16_t error = 0;      // 0 = OK; nonzero = kafka::ErrorCode
  int64_t value = 0;       // base offset / LEO / HWM
  uint32_t aux = 0;        // credits granted
  uint32_t stream = 0;     // logical client stream id (0 = unmuxed); rides
                           // in the 4 bytes that were reserved-zero before
                           // §14, so the unmuxed wire format is unchanged

  void EncodeTo(uint8_t* dst) const {
    EncodeFixed32(dst, static_cast<uint32_t>(kind));
    EncodeFixed16(dst + 4, order);
    EncodeFixed16(dst + 6, error);
    EncodeFixed64(dst + 8, static_cast<uint64_t>(value));
    EncodeFixed32(dst + 16, aux);
    EncodeFixed32(dst + 20, stream);
  }
  static CtrlMsg DecodeFrom(const uint8_t* src) {
    CtrlMsg m;
    m.kind = static_cast<CtrlKind>(DecodeFixed32(src));
    m.order = DecodeFixed16(src + 4);
    m.error = DecodeFixed16(src + 6);
    m.value = static_cast<int64_t>(DecodeFixed64(src + 8));
    m.aux = DecodeFixed32(src + 16);
    m.stream = DecodeFixed32(src + 20);
    return m;
  }
};

}  // namespace kd
}  // namespace kafkadirect
