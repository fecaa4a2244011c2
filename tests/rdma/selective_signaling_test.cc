// Selective signaling (IBV_SEND_SIGNALED semantics, DESIGN.md §14): with
// lazy SQ reclamation enabled, unsignaled completions do NOT free their
// send-queue slots — only the next signaled completion reclaims the whole
// unsignaled run. These tests pin the SQ-exhaustion hazard that real
// verbs applications hit when they never signal, and the recovery path.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "rdma/queue_pair.h"
#include "rdma/rnic.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace rdma {
namespace {

class SelectiveSignalingTest : public ::testing::Test {
 protected:
  SelectiveSignalingTest()
      : fabric_(sim_, cost_),
        client_node_(fabric_.AddNode("client")),
        server_node_(fabric_.AddNode("server")),
        client_nic_(sim_, fabric_, client_node_),
        server_nic_(sim_, fabric_, server_node_) {
    client_cq_ = client_nic_.CreateCq();
    server_cq_ = server_nic_.CreateCq();
    client_qp_ = client_nic_.CreateQp(client_cq_, client_cq_);
    server_qp_ = server_nic_.CreateQp(server_cq_, server_cq_);
    KD_CHECK_OK(Connect(client_qp_, server_qp_));
    remote_.resize(4 * kKiB);
    mr_ = server_nic_
              .RegisterMemory(remote_.data(), remote_.size(),
                              kAccessRemoteWrite)
              .value();
    local_.resize(64, 0xEE);
  }

  WorkRequest Write(bool signaled, uint64_t wr_id = 0) {
    WorkRequest wr;
    wr.wr_id = wr_id;
    wr.opcode = Opcode::kWrite;
    wr.signaled = signaled;
    wr.local_addr = local_.data();
    wr.length = static_cast<uint32_t>(local_.size());
    wr.remote_addr = mr_->addr();
    wr.rkey = mr_->rkey();
    return wr;
  }

  uint64_t Metric(const char* name) {
    return fabric_.obs().metrics.GetCounter(name)->value();
  }

  sim::Simulator sim_;
  CostModel cost_;
  net::Fabric fabric_;
  net::NodeId client_node_, server_node_;
  Rnic client_nic_, server_nic_;
  std::shared_ptr<CompletionQueue> client_cq_, server_cq_;
  std::shared_ptr<QueuePair> client_qp_, server_qp_;
  std::vector<uint8_t> remote_, local_;
  MemoryRegionPtr mr_;
};

TEST_F(SelectiveSignalingTest, UnsignaledOnlyWedgesSendQueue) {
  cost_.rdma.max_send_wr = 8;  // capacity is read live at post time
  client_qp_->set_selective_signaling(true);
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(client_qp_->PostSend(Write(/*signaled=*/false)).ok());
  }
  // SQ full, nothing signaled: the 9th post fails ENOMEM-style.
  Status st = client_qp_->PostSend(Write(false));
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  // Even after every write completes on the wire, no CQE was generated so
  // no slot was reclaimed — the queue is wedged for good. This is the
  // hazard that forces producers to signal at least every max_send_wr/4.
  sim_.Run();
  EXPECT_EQ(client_qp_->outstanding_sends(), 8u);
  EXPECT_TRUE(client_qp_->PostSend(Write(false)).IsResourceExhausted());
  EXPECT_TRUE(client_qp_->PostSend(Write(true)).IsResourceExhausted());
  EXPECT_EQ(client_cq_->depth(), 0u);
  // The data still landed; only initiator-side bookkeeping is stuck.
  EXPECT_EQ(remote_[0], 0xEE);
}

TEST_F(SelectiveSignalingTest, SignaledCompletionReclaimsUnsignaledRun) {
  cost_.rdma.max_send_wr = 8;
  client_qp_->set_selective_signaling(true);
  for (int i = 0; i < 7; i++) {
    ASSERT_TRUE(client_qp_->PostSend(Write(false)).ok());
  }
  ASSERT_TRUE(client_qp_->PostSend(Write(true, 7)).ok());
  EXPECT_TRUE(client_qp_->PostSend(Write(false)).IsResourceExhausted());
  sim_.Run();
  // The one signaled completion reclaimed itself plus the 7 unsignaled
  // slots before it, and produced exactly one CQE.
  EXPECT_EQ(client_qp_->outstanding_sends(), 0u);
  EXPECT_EQ(client_cq_->depth(), 1u);
  WorkCompletion wc;
  ASSERT_EQ(client_cq_->PollBatch(&wc, 1), 1u);
  EXPECT_EQ(wc.wr_id, 7u);
  EXPECT_TRUE(wc.ok());
  // Posting works again after recovery.
  EXPECT_TRUE(client_qp_->PostSend(Write(false)).ok());
  sim_.Run();
}

TEST_F(SelectiveSignalingTest, WithoutLazyReclaimUnsignaledStillFrees) {
  // Default mode (selective signaling off): unsignaled completions
  // silently reclaim their slots — the pre-§12 behavior must not change.
  cost_.rdma.max_send_wr = 8;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(client_qp_->PostSend(Write(false)).ok());
  }
  sim_.Run();
  EXPECT_EQ(client_qp_->outstanding_sends(), 0u);
  EXPECT_EQ(client_cq_->depth(), 0u);
  EXPECT_TRUE(client_qp_->PostSend(Write(false)).ok());
  sim_.Run();
}

TEST_F(SelectiveSignalingTest, PollBatchSeesOnlySignaledCqes) {
  client_qp_->set_selective_signaling(true);
  uint64_t posted0 = Metric("kd.rdma.wrs_posted");
  uint64_t signaled0 = Metric("kd.rdma.wrs_signaled");
  uint64_t cqes0 = Metric("kd.rdma.cqes");
  // Signal every 4th of 16 writes; the CQ must carry exactly the 4
  // signaled completions, in post order, and PollBatch must drain them.
  for (uint64_t i = 0; i < 16; i++) {
    bool signal = (i + 1) % 4 == 0;
    ASSERT_TRUE(client_qp_->PostSend(Write(signal, i)).ok());
  }
  sim_.Run();
  EXPECT_EQ(client_qp_->outstanding_sends(), 0u);
  ASSERT_EQ(client_cq_->depth(), 4u);
  WorkCompletion wcs[8];
  ASSERT_EQ(client_cq_->PollBatch(wcs, 8), 4u);
  for (uint64_t i = 0; i < 4; i++) {
    EXPECT_EQ(wcs[i].wr_id, i * 4 + 3);
    EXPECT_TRUE(wcs[i].ok());
  }
  EXPECT_EQ(Metric("kd.rdma.wrs_posted") - posted0, 16u);
  EXPECT_EQ(Metric("kd.rdma.wrs_signaled") - signaled0, 4u);
  EXPECT_EQ(Metric("kd.rdma.cqes") - cqes0, 4u);
}

}  // namespace
}  // namespace rdma
}  // namespace kafkadirect
