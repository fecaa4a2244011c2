// Unit tests for KafkaDirect's control plane encodings: the Fig. 4
// immediate layout, the Fig. 5 atomic word, and the 24-byte control Sends.
#include "direct/control.h"

#include <gtest/gtest.h>

#include "direct/kd_broker.h"

namespace kafkadirect {
namespace kd {
namespace {

TEST(ImmDataTest, RoundTrip) {
  for (uint32_t order : {0u, 1u, 255u, 65535u}) {
    for (uint32_t file : {1u, 42u, 65535u}) {
      uint32_t imm = EncodeImm(static_cast<uint16_t>(order),
                               static_cast<uint16_t>(file));
      EXPECT_EQ(ImmOrder(imm), order);
      EXPECT_EQ(ImmFileId(imm), file);
    }
  }
}

TEST(ImmDataTest, FieldsDoNotBleed) {
  uint32_t imm = EncodeImm(0xFFFF, 0);
  EXPECT_EQ(ImmFileId(imm), 0);
  imm = EncodeImm(0, 0xFFFF);
  EXPECT_EQ(ImmOrder(imm), 0);
}

TEST(AtomicWordTest, Layout) {
  uint64_t word = EncodeAtomicWord(7, 123456);
  EXPECT_EQ(AtomicOrder(word), 7);
  EXPECT_EQ(AtomicOffset(word), 123456u);
}

TEST(AtomicWordTest, FaaClaimAdvancesBothFields) {
  uint64_t word = EncodeAtomicWord(10, 1000);
  word += FaaClaim(256);
  EXPECT_EQ(AtomicOrder(word), 11);
  EXPECT_EQ(AtomicOffset(word), 1256u);
}

TEST(AtomicWordTest, OffsetOverflowDetectableInExtraBits) {
  // §4.2.2: the 48-bit offset lets producers detect file overflow — the
  // 4 GiB max file fits in 32 bits, so overshoot never corrupts the order.
  uint64_t word = EncodeAtomicWord(3, (4ull << 30) - 100);  // near 4 GiB
  word += FaaClaim(4096);  // overshoots the file
  EXPECT_EQ(AtomicOrder(word), 4);  // order intact
  EXPECT_GT(AtomicOffset(word), 4ull << 30);  // overshoot visible
}

TEST(AtomicWordTest, OrderWrapsIndependently) {
  uint64_t word = EncodeAtomicWord(0xFFFF, 500);
  word += FaaClaim(10);
  EXPECT_EQ(AtomicOrder(word), 0);  // 16-bit wrap
  EXPECT_EQ(AtomicOffset(word), 510u);
}

TEST(PlanNotificationTest, ModeSelectsTheWrShape) {
  NotifyPlan imm = PlanNotification(NotifyMode::kWriteImm);
  EXPECT_EQ(imm.data_opcode, rdma::Opcode::kWriteWithImm);
  EXPECT_FALSE(imm.separate_send);
  NotifyPlan send = PlanNotification(NotifyMode::kWriteSend);
  EXPECT_EQ(send.data_opcode, rdma::Opcode::kWrite);
  EXPECT_TRUE(send.separate_send);
}

TEST(CtrlMsgTest, RoundTripAllKinds) {
  for (CtrlKind kind : {CtrlKind::kProduceAck, CtrlKind::kCredit,
                        CtrlKind::kHwmUpdate, CtrlKind::kProduceNotify}) {
    CtrlMsg msg;
    msg.kind = kind;
    msg.order = 4242;
    msg.error = 3;
    msg.value = -123456789;
    msg.aux = 77;
    uint8_t buf[kCtrlMsgSize];
    msg.EncodeTo(buf);
    CtrlMsg out = CtrlMsg::DecodeFrom(buf);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.order, 4242);
    EXPECT_EQ(out.error, 3);
    EXPECT_EQ(out.value, -123456789);
    EXPECT_EQ(out.aux, 77u);
  }
}

TEST(MetadataSlotTest, WriteReadRoundTrip) {
  uint8_t slot[ConsumerSession::kSlotSize] = {0};
  WriteSlot(slot, 987654321, true);
  EXPECT_EQ(SlotLastReadable(slot), 987654321u);
  EXPECT_TRUE(SlotMutable(slot));
  WriteSlot(slot, 42, false);
  EXPECT_EQ(SlotLastReadable(slot), 42u);
  EXPECT_FALSE(SlotMutable(slot));
}

TEST(ConsumerSessionTest, SlotAllocationKeepsProximity) {
  sim::Simulator sim;
  CostModel cost;
  net::Fabric fabric(sim, cost);
  rdma::Rnic rnic(sim, fabric, fabric.AddNode("n"));
  ConsumerSession session(rnic);
  // Lowest-free-first allocation (§4.4.2 proximity heuristic).
  EXPECT_EQ(session.AllocSlot(), 0);
  EXPECT_EQ(session.AllocSlot(), 1);
  EXPECT_EQ(session.AllocSlot(), 2);
  session.FreeSlot(1);
  EXPECT_EQ(session.AllocSlot(), 1);  // reuses the gap
  EXPECT_EQ(session.AllocSlot(), 3);
}

TEST(ConsumerSessionTest, ExhaustionReturnsMinusOne) {
  sim::Simulator sim;
  CostModel cost;
  net::Fabric fabric(sim, cost);
  rdma::Rnic rnic(sim, fabric, fabric.AddNode("n"));
  ConsumerSession session(rnic);
  for (uint32_t i = 0; i < ConsumerSession::kNumSlots; i++) {
    EXPECT_GE(session.AllocSlot(), 0);
  }
  EXPECT_EQ(session.AllocSlot(), -1);
}

TEST(ConsumerSessionTest, FreeZeroesTheSlot) {
  sim::Simulator sim;
  CostModel cost;
  net::Fabric fabric(sim, cost);
  rdma::Rnic rnic(sim, fabric, fabric.AddNode("n"));
  ConsumerSession session(rnic);
  int32_t slot = session.AllocSlot();
  WriteSlot(session.slot(slot), 999, true);
  session.FreeSlot(slot);
  EXPECT_EQ(SlotLastReadable(session.slot(slot)), 0u);
  EXPECT_FALSE(SlotMutable(session.slot(slot)));
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
