#include "rdma/queue_pair.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "rdma/rnic.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace rdma {
namespace {

// Two-node harness: client (node 0) <-> server (node 1).
class QpTest : public ::testing::Test {
 protected:
  QpTest()
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
  }

  sim::Simulator sim_;
  CostModel cost_;
  net::Fabric fabric_;
  net::NodeId client_node_, server_node_;
  Rnic client_nic_, server_nic_;
  std::shared_ptr<CompletionQueue> client_cq_, server_cq_;
  std::shared_ptr<QueuePair> client_qp_, server_qp_;
};

sim::Co<void> AwaitCqe(CompletionQueue* cq, std::vector<WorkCompletion>* out,
                       int n) {
  for (int i = 0; i < n; i++) {
    auto wc = co_await cq->Next();
    if (!wc.has_value()) co_return;
    out->push_back(*wc);
  }
}

TEST_F(QpTest, WriteMovesBytesAndCompletes) {
  std::vector<uint8_t> remote(256, 0);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local = {1, 2, 3, 4, 5};

  WorkRequest wr;
  wr.wr_id = 77;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = local.data();
  wr.length = static_cast<uint32_t>(local.size());
  wr.remote_addr = mr->addr() + 16;
  wr.rkey = mr->rkey();
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());

  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, AwaitCqe(client_cq_.get(), &wcs, 1));
  sim_.Run();

  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(wcs[0].wr_id, 77u);
  EXPECT_EQ(wcs[0].byte_len, 5u);
  EXPECT_EQ(remote[16], 1);
  EXPECT_EQ(remote[20], 5);
  EXPECT_EQ(remote[15], 0);
  EXPECT_EQ(remote[21], 0);
}

TEST_F(QpTest, WriteLatencyMatchesModel) {
  std::vector<uint8_t> remote(64, 0);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local(8, 0xAA);
  WorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = local.data();
  wr.length = 8;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, AwaitCqe(client_cq_.get(), &wcs, 1));
  sim_.Run();
  // Small-write completion should land in the ~1-2.5 us range the paper
  // reports for its hardware.
  EXPECT_GT(sim_.Now(), 600);
  EXPECT_LT(sim_.Now(), Micros(3));
}

TEST_F(QpTest, WriteWithImmConsumesRecvAndCarriesImm) {
  std::vector<uint8_t> remote(256, 0);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  ASSERT_TRUE(server_qp_->PostRecv(500, nullptr, 0).ok());

  std::vector<uint8_t> local(32, 0xCD);
  WorkRequest wr;
  wr.wr_id = 9;
  wr.opcode = Opcode::kWriteWithImm;
  wr.local_addr = local.data();
  wr.length = 32;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  wr.imm_data = 0xABCD1234;
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());

  std::vector<WorkCompletion> client_wcs, server_wcs;
  sim::Spawn(sim_, AwaitCqe(client_cq_.get(), &client_wcs, 1));
  sim::Spawn(sim_, AwaitCqe(server_cq_.get(), &server_wcs, 1));
  sim_.Run();

  ASSERT_EQ(server_wcs.size(), 1u);
  EXPECT_EQ(server_wcs[0].opcode, Opcode::kRecvWithImm);
  EXPECT_EQ(server_wcs[0].wr_id, 500u);
  EXPECT_TRUE(server_wcs[0].has_imm);
  EXPECT_EQ(server_wcs[0].imm_data, 0xABCD1234u);
  EXPECT_EQ(server_wcs[0].byte_len, 32u);
  EXPECT_EQ(remote[0], 0xCD);
  ASSERT_EQ(client_wcs.size(), 1u);
  EXPECT_TRUE(client_wcs[0].ok());
}

TEST_F(QpTest, SendDeliversIntoPostedBuffer) {
  std::vector<uint8_t> recv_buf(128, 0);
  ASSERT_TRUE(server_qp_
                  ->PostRecv(1, recv_buf.data(),
                             static_cast<uint32_t>(recv_buf.size()))
                  .ok());
  std::vector<uint8_t> payload = {9, 8, 7};
  WorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.local_addr = payload.data();
  wr.length = 3;
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());

  std::vector<WorkCompletion> server_wcs;
  sim::Spawn(sim_, AwaitCqe(server_cq_.get(), &server_wcs, 1));
  sim_.Run();
  ASSERT_EQ(server_wcs.size(), 1u);
  EXPECT_EQ(server_wcs[0].opcode, Opcode::kRecv);
  EXPECT_EQ(server_wcs[0].byte_len, 3u);
  EXPECT_EQ(recv_buf[0], 9);
  EXPECT_EQ(recv_buf[2], 7);
}

TEST_F(QpTest, ReadFetchesRemoteBytes) {
  std::vector<uint8_t> remote(512);
  for (size_t i = 0; i < remote.size(); i++) {
    remote[i] = static_cast<uint8_t>(i & 0xFF);
  }
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteRead)
                .value();
  std::vector<uint8_t> local(512, 0);
  WorkRequest wr;
  wr.opcode = Opcode::kRead;
  wr.local_addr = local.data();
  wr.length = 512;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());

  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, AwaitCqe(client_cq_.get(), &wcs, 1));
  sim_.Run();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(local, remote);
  // ~2 us read RTT per the paper.
  EXPECT_GT(sim_.Now(), 900);
  EXPECT_LT(sim_.Now(), Micros(4));
}

TEST_F(QpTest, CompletionsInPostOrder) {
  std::vector<uint8_t> remote(1 * kMiB);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite | kAccessRemoteRead)
                .value();
  std::vector<uint8_t> local(1 * kMiB, 0x11);
  // Mix op types and sizes; completions must still arrive in post order.
  std::vector<WorkRequest> wrs;
  for (uint64_t i = 0; i < 20; i++) {
    WorkRequest wr;
    wr.wr_id = i;
    wr.local_addr = local.data();
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    if (i % 3 == 0) {
      wr.opcode = Opcode::kRead;
      wr.length = 64 * 1024;
    } else if (i % 3 == 1) {
      wr.opcode = Opcode::kWrite;
      wr.length = 128;
    } else {
      wr.opcode = Opcode::kWrite;
      wr.length = 256 * 1024;
    }
    wrs.push_back(wr);
  }
  for (const auto& wr : wrs) ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, AwaitCqe(client_cq_.get(), &wcs, 20));
  sim_.Run();
  ASSERT_EQ(wcs.size(), 20u);
  for (uint64_t i = 0; i < 20; i++) {
    EXPECT_EQ(wcs[i].wr_id, i) << "completion out of order";
    EXPECT_TRUE(wcs[i].ok());
  }
}

TEST_F(QpTest, PipelinedWritesReachLinkBandwidth) {
  std::vector<uint8_t> remote(1 * kMiB);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local(64 * kKiB, 0x22);
  const int n = 100;
  for (int i = 0; i < n; i++) {
    WorkRequest wr;
    wr.wr_id = static_cast<uint64_t>(i);
    wr.opcode = Opcode::kWrite;
    wr.local_addr = local.data();
    wr.length = 64 * kKiB;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  }
  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, AwaitCqe(client_cq_.get(), &wcs, n));
  sim_.Run();
  ASSERT_EQ(wcs.size(), static_cast<size_t>(n));
  double gibps = RateGiBps(64.0 * kKiB * n, static_cast<double>(sim_.Now()));
  EXPECT_GT(gibps, 5.0);  // pipelining, not one-at-a-time RTTs
}

TEST_F(QpTest, SendQueueDepthEnforced) {
  std::vector<uint8_t> remote(64);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local(8, 0);
  WorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.local_addr = local.data();
  wr.length = 8;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  int accepted = 0;
  for (int i = 0; i < cost_.rdma.max_send_wr + 10; i++) {
    if (client_qp_->PostSend(wr).ok()) accepted++;
  }
  EXPECT_EQ(accepted, cost_.rdma.max_send_wr);
  sim_.Run();  // drain; afterwards posting works again
  EXPECT_TRUE(client_qp_->PostSend(wr).ok());
  sim_.Run();
}

TEST_F(QpTest, UnsignaledWritesProduceNoCqe) {
  std::vector<uint8_t> remote(64);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local(8, 0x7);
  WorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.signaled = false;
  wr.local_addr = local.data();
  wr.length = 8;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  sim_.Run();
  EXPECT_EQ(client_cq_->depth(), 0u);
  EXPECT_EQ(remote[0], 0x7);
  EXPECT_EQ(client_qp_->outstanding_sends(), 0u);  // slot reclaimed
}

TEST_F(QpTest, PollBatchDrainsInOrderUpToCap) {
  std::vector<uint8_t> remote(1 * kKiB);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local(16, 3);
  for (uint64_t i = 0; i < 6; i++) {
    WorkRequest wr;
    wr.wr_id = i;
    wr.opcode = Opcode::kWrite;
    wr.local_addr = local.data();
    wr.length = 16;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  }
  sim_.Run();
  ASSERT_EQ(client_cq_->depth(), 6u);
  WorkCompletion wcs[8];
  // max_n caps the drain; order is delivery order.
  EXPECT_EQ(client_cq_->PollBatch(wcs, 4), 4u);
  for (uint64_t i = 0; i < 4; i++) EXPECT_EQ(wcs[i].wr_id, i);
  EXPECT_EQ(client_cq_->PollBatch(wcs, 8), 2u);
  EXPECT_EQ(wcs[0].wr_id, 4u);
  EXPECT_EQ(wcs[1].wr_id, 5u);
  EXPECT_EQ(client_cq_->PollBatch(wcs, 8), 0u);
}

TEST_F(QpTest, NextBatchWakesOnceForABurst) {
  std::vector<uint8_t> remote(1 * kKiB);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  std::vector<uint8_t> local(16, 4);
  std::vector<WorkCompletion> got;
  sim::Spawn(sim_, [](CompletionQueue* cq,
                      std::vector<WorkCompletion>* out) -> sim::Co<void> {
    WorkCompletion wcs[16];
    size_t n = co_await cq->NextBatch(wcs, 16);
    for (size_t i = 0; i < n; i++) out->push_back(wcs[i]);
  }(client_cq_.get(), &got));
  for (uint64_t i = 0; i < 5; i++) {
    WorkRequest wr;
    wr.wr_id = i;
    wr.opcode = Opcode::kWrite;
    wr.local_addr = local.data();
    wr.length = 16;
    wr.remote_addr = mr->addr();
    wr.rkey = mr->rkey();
    ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  }
  sim_.Run();
  // All 5 CQEs land at distinct times; the single waiter wakes on the
  // first and later drains whatever has arrived — at least the first one,
  // in order.
  ASSERT_GE(got.size(), 1u);
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].wr_id, static_cast<uint64_t>(i));
  }
}

TEST_F(QpTest, ZeroLengthWriteWithImmIsPureNotification) {
  std::vector<uint8_t> remote(64, 0);
  auto mr = server_nic_
                .RegisterMemory(remote.data(), remote.size(),
                                kAccessRemoteWrite)
                .value();
  ASSERT_TRUE(server_qp_->PostRecv(1, nullptr, 0).ok());
  WorkRequest wr;
  wr.opcode = Opcode::kWriteWithImm;
  wr.length = 0;
  wr.remote_addr = mr->addr();
  wr.rkey = mr->rkey();
  wr.imm_data = 42;
  ASSERT_TRUE(client_qp_->PostSend(wr).ok());
  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, AwaitCqe(server_cq_.get(), &wcs, 1));
  sim_.Run();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].imm_data, 42u);
  EXPECT_EQ(wcs[0].byte_len, 0u);
}

}  // namespace
}  // namespace rdma
}  // namespace kafkadirect
