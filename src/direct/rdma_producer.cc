#include "direct/rdma_producer.h"

#include <algorithm>
#include <span>
#include <vector>

#include "sim/awaitable.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;

namespace {
constexpr int kAckRecvDepth = 512;
}

RdmaProducer::RdmaProducer(sim::Simulator& sim, net::Fabric& fabric,
                           tcpnet::Network& tcp, net::NodeId node,
                           RdmaProducerConfig config)
    : sim_(sim), fabric_(fabric), tcp_(tcp), node_(node), config_(config),
      rnic_(sim, fabric, node), window_(sim, config.max_inflight),
      claim_mu_(std::make_unique<sim::AsyncMutex>(sim)),
      post_mu_(std::make_unique<sim::AsyncMutex>(sim)),
      ctrl_mu_(std::make_unique<sim::AsyncMutex>(sim)) {
  notify_imm_ = fabric.obs().metrics.GetCounter("kd.direct.notify.write_imm");
  notify_send_ =
      fabric.obs().metrics.GetCounter("kd.direct.notify.write_send");
}

RdmaProducer::~RdmaProducer() {
  *alive_ = false;
  Close();
}

void RdmaProducer::Close() {
  closed_ = true;
  if (qp_ != nullptr) qp_->Disconnect();
  // Wake RecvAckLoop/SendCqDrainer parked on an empty CQ so their frames
  // run to completion instead of leaking (coroutine-aware teardown, §14).
  if (send_cq_ != nullptr) send_cq_->Shutdown();
  if (recv_cq_ != nullptr) recv_cq_->Shutdown();
  if (ctrl_ != nullptr) ctrl_->Close();
}

sim::Co<Status> RdmaProducer::ConnectImpl(KafkaDirectBroker* leader,
                                          kafka::TopicPartitionId tp) {
  leader_ = leader;
  tp_ = tp;
  auto ctrl_or =
      co_await tcp_.Connect(node_, leader->node(), kafka::kKafkaPort);
  if (!ctrl_or.ok()) co_return ctrl_or.status();
  ctrl_ = ctrl_or.value();

  send_cq_ = rnic_.CreateCq();
  recv_cq_ = rnic_.CreateCq();
  qp_ = rnic_.CreateQp(send_cq_, recv_cq_);
  auto broker_qp = co_await leader->AcceptRdma(qp_);
  if (!broker_qp.ok()) co_return broker_qp.status();
  broker_qp_num_ = broker_qp.value()->qp_num();
  ack_bufs_.clear();
  std::vector<rdma::RecvRequest> recvs(kAckRecvDepth);
  for (int i = 0; i < kAckRecvDepth; i++) {
    ack_bufs_.emplace_back(kCtrlMsgSize);
    recvs[i].wr_id = static_cast<uint64_t>(i);
    recvs[i].buf = ack_bufs_.back().data();
    recvs[i].len = kCtrlMsgSize;
  }
  // One postlist (one doorbell) instead of kAckRecvDepth separate posts.
  KD_CO_RETURN_IF_ERROR(
      qp_->PostRecv(std::span<const rdma::RecvRequest>(recvs)));
  sim::Spawn(sim_, RecvAckLoop(alive_, recv_cq_));
  sim::Spawn(sim_, SendCqDrainer(alive_, send_cq_));
  co_return co_await RequestAccess(0);
}

sim::Co<Status> RdmaProducer::RequestAccess(uint16_t stale_file_id,
                                            uint64_t rotate_target) {
  co_await ctrl_mu_->Lock();
  if (stale_file_id != 0 && stale_file_id != file_id_) {
    // Another in-flight request already rotated; nothing to do.
    ctrl_mu_->Unlock();
    co_return Status::OK();
  }
  kafka::RdmaProduceAccessRequest req;
  req.tp = tp_;
  req.exclusive = config_.exclusive;
  req.stale_file_id = stale_file_id;
  req.broker_qp = broker_qp_num_;
  req.rotate_target = rotate_target;
  Status sent = co_await ctrl_->Send(Encode(req), false);
  if (!sent.ok()) {
    ctrl_mu_->Unlock();
    co_return sent;
  }
  auto frame = co_await ctrl_->Recv();
  if (!frame.ok()) {
    ctrl_mu_->Unlock();
    co_return frame.status();
  }
  kafka::RdmaProduceAccessResponse resp;
  Status decoded = kafka::Decode(Slice(frame.value()), &resp);
  if (!decoded.ok()) {
    ctrl_mu_->Unlock();
    co_return decoded;
  }
  if (resp.error != ErrorCode::kNone) {
    return_error_ = resp.error;
    ctrl_mu_->Unlock();
    co_return Status::PermissionDenied(
        std::string("RDMA produce access denied: ") +
        ErrorCodeName(resp.error));
  }
  file_id_ = resp.file_id;
  file_addr_ = resp.addr;
  file_rkey_ = resp.rkey;
  file_capacity_ = resp.capacity;
  write_pos_ = resp.write_pos;
  atomic_addr_ = resp.atomic_addr;
  atomic_rkey_ = resp.atomic_rkey;
  if (stale_file_id != 0) rotations_++;
  ctrl_mu_->Unlock();
  co_return Status::OK();
}

sim::Co<StatusOr<uint64_t>> RdmaProducer::ClaimRegion(uint64_t size) {
  for (int attempt = 0; attempt < 8; attempt++) {
    uint64_t wr_id = next_wr_id_++;
    auto result = std::make_shared<std::vector<uint8_t>>(8, 0);
    auto ev = std::make_shared<sim::Event>(sim_);
    faa_waiters_[wr_id] = ev;
    faa_results_[wr_id] = result;
    rdma::WorkRequest wr;
    wr.wr_id = wr_id;
    wr.opcode = rdma::Opcode::kFetchAdd;
    wr.local_addr = result->data();
    wr.remote_addr = atomic_addr_;
    wr.rkey = atomic_rkey_;
    wr.compare_add = FaaClaim(size);
    Status st = qp_->PostSend(wr);
    if (!st.ok()) co_return st;
    faa_issued_++;
    // The FAA completion is busy-polled (fast path; no blocking wakeup).
    co_await ev->Wait();
    faa_waiters_.erase(wr_id);
    faa_results_.erase(wr_id);
    if (faa_failed_) co_return Status::Disconnected("FAA failed");
    uint64_t word = DecodeFixed64(result->data());
    uint64_t pos = AtomicOffset(word);
    if (pos + size > file_capacity_) {
      // Overflow detected via the extra offset bits (§4.2.2, Fig. 5):
      // request a new head file and retry. `pos` is where in-range claims
      // end; the broker rotates once commits reach it.
      KD_CO_RETURN_IF_ERROR(co_await RequestAccess(
          file_id_, std::min<uint64_t>(pos, file_capacity_)));
      continue;
    }
    co_return word;
  }
  co_return Status::ResourceExhausted("shared produce rotation livelock");
}

sim::Co<Status> RdmaProducer::SendOne(Slice key, Slice value,
                                      std::shared_ptr<Pending>* out) {
  if (closed_ || qp_ == nullptr) {
    co_return Status::Disconnected("producer closed");
  }
  const CostModel& cm = fabric_.cost();
  sim::TimeNs started_at = sim_.Now();
  // Application thread: producer API entry + the Kafka client's defensive
  // copy of user data (§5.1). The handoff to the sender thread and the
  // region claim/post run pipelined in SenderStage.
  co_await sim::Delay(
      sim_,
      cm.kafka.rdma_producer_api_ns +
          static_cast<sim::TimeNs>(cm.kafka.producer_copy_ns_per_byte *
                                   static_cast<double>(key.size() +
                                                       value.size())));
  kafka::RecordBatchBuilder builder(0, sim_.Now(), config_.producer_id);
  builder.Add(key, value);
  auto pending = std::make_shared<Pending>();
  pending->batch = builder.Build();
  pending->payload_bytes = key.size() + value.size();
  pending->done = std::make_shared<sim::Event>(sim_);
  pending->sent_at = started_at;

  uint64_t pos = 0;
  if (config_.exclusive) {
    // Position assignment must stay on the submission path so pipelined
    // writes land back to back.
    if (pending->batch.size() > file_capacity_ - write_pos_) {
      // Not enough room left: timely request a new head file (§4.2.2).
      // In-flight pipelined writes end at write_pos_.
      KD_CO_RETURN_IF_ERROR(co_await RequestAccess(file_id_, write_pos_));
    }
    pos = write_pos_;
    write_pos_ += pending->batch.size();
    pending_.push_back(pending);  // exclusive acks match FIFO
  }
  sim::Spawn(sim_, SenderStage(sim_, cm.cpu.handoff_ns, this, alive_,
                               pending, pos));
  *out = pending;
  co_return Status::OK();
}

sim::Co<void> RdmaProducer::SenderStage(sim::Simulator& sim,
                                        sim::TimeNs handoff,
                                        RdmaProducer* self,
                                        std::shared_ptr<bool> alive,
                                        std::shared_ptr<Pending> pending,
                                        uint64_t pos) {
  // Handoff from the API thread to the client's sender thread. `self` must
  // not be touched before the aliveness check.
  co_await sim::Delay(sim, handoff);
  if (!*alive) co_return;  // producer destroyed while we were queued
  const CostModel& cm = self->fabric_.cost();
  uint16_t order = 0;
  if (!self->config_.exclusive) {
    // Claims are serialized per producer: the sender cannot form the write
    // before its FAA returns (§4.2.2), which is what keeps shared mode
    // below exclusive in Figs. 6/11.
    co_await self->claim_mu_->Lock();
    if (!*alive) co_return;
    auto word_or = co_await self->ClaimRegion(pending->batch.size());
    if (!*alive) co_return;
    if (word_or.ok()) {
      co_await sim::Delay(sim, cm.kafka.faa_sync_ns);
      if (!*alive) co_return;
    }
    self->claim_mu_->Unlock();
    if (!word_or.ok()) {
      pending->ack.error = static_cast<uint16_t>(ErrorCode::kTimedOut);
      self->errors_++;
      self->window_.Release();
      pending->done->Set();
      co_return;
    }
    pos = AtomicOffset(word_or.value());
    order = AtomicOrder(word_or.value());
    pending->order = order;
    self->pending_by_order_[order] = pending;
  }

  rdma::WorkRequest wr;
  wr.wr_id = self->next_wr_id_++;
  wr.local_addr = pending->batch.data();
  wr.length = static_cast<uint32_t>(pending->batch.size());
  wr.remote_addr = self->file_addr_ + pos;
  wr.rkey = self->file_rkey_;
  // Shared notification policy (control.h); the notification WR is
  // always signaled.
  NotifyPlan plan = PlanNotification(self->config_.notify_mode);
  rdma::WorkRequest notify_wr;
  if (plan.separate_send) {
    // Write+Send: the data write carries no notification; a small Send
    // with the metadata follows, ordered behind the write by RC delivery.
    wr.opcode = rdma::Opcode::kWrite;
    wr.signaled = false;
    CtrlMsg msg;
    msg.kind = CtrlKind::kProduceNotify;
    msg.order = order;
    msg.aux = self->file_id_;
    msg.value = static_cast<int64_t>(pending->batch.size());
    pending->notify.resize(kCtrlMsgSize);
    msg.EncodeTo(pending->notify.data());
    notify_wr.wr_id = self->next_wr_id_++;
    notify_wr.opcode = rdma::Opcode::kSend;
    notify_wr.signaled = true;
    notify_wr.local_addr = pending->notify.data();
    notify_wr.length = kCtrlMsgSize;
    self->notify_send_->Increment();
  } else {
    wr.opcode = rdma::Opcode::kWriteWithImm;
    wr.signaled = true;
    wr.imm_data = EncodeImm(order, self->file_id_);
    self->notify_imm_->Increment();
  }
  // Exclusive mode requires arrival order == position order.
  co_await self->post_mu_->Lock();
  if (!*alive) co_return;
  Status st = self->qp_->PostSend(wr);
  while (st.IsResourceExhausted()) {
    co_await sim::Delay(sim, 1000);  // send queue full
    if (!*alive) co_return;
    st = self->qp_->PostSend(wr);
  }
  if (st.ok() && plan.separate_send) {
    st = self->qp_->PostSend(notify_wr);
    while (st.IsResourceExhausted()) {
      co_await sim::Delay(sim, 1000);
      if (!*alive) co_return;
      st = self->qp_->PostSend(notify_wr);
    }
  }
  self->post_mu_->Unlock();
  if (!st.ok()) {
    pending->ack.error =
        static_cast<uint16_t>(ErrorCode::kRdmaAccessDenied);
    self->errors_++;
    self->window_.Release();
    pending->done->Set();
  }
}

void RdmaProducer::FailAllPending() {
  // Connection torn down: fail everything outstanding.
  for (auto& pending : pending_) {
    pending->ack.error =
        static_cast<uint16_t>(ErrorCode::kRdmaAccessDenied);
    pending->done->Set();
    window_.Release();
  }
  pending_.clear();
  for (auto& [order, pending] : pending_by_order_) {
    pending->ack.error =
        static_cast<uint16_t>(ErrorCode::kRdmaAccessDenied);
    pending->done->Set();
    window_.Release();
  }
  pending_by_order_.clear();
}

void RdmaProducer::HandleAck(const rdma::WorkCompletion& wc) {
  CtrlMsg msg = CtrlMsg::DecodeFrom(ack_bufs_[wc.wr_id].data());
  (void)qp_->PostRecv(wc.wr_id, ack_bufs_[wc.wr_id].data(), kCtrlMsgSize);
  if (msg.kind != CtrlKind::kProduceAck) return;
  std::shared_ptr<Pending> pending;
  if (config_.exclusive) {
    // Exclusive acks arrive in submission order (RC in-order delivery +
    // in-order commit processing).
    if (pending_.empty()) return;
    pending = pending_.front();
    pending_.pop_front();
  } else {
    auto it = pending_by_order_.find(msg.order);
    if (it == pending_by_order_.end()) return;
    pending = it->second;
    pending_by_order_.erase(it);
  }
  pending->ack = msg;
  if (msg.error == 0) {
    acked_records_++;
    acked_bytes_ += pending->payload_bytes;
    // Client-observed round trip includes the blocking wakeup.
    latencies_.Add(sim_.Now() - pending->sent_at +
                   fabric_.cost().cpu.wakeup_ns);
  } else {
    errors_++;
  }
  window_.Release();
  pending->done->Set();
}

sim::Co<void> RdmaProducer::RecvAckLoop(
    std::shared_ptr<bool> alive, std::shared_ptr<rdma::CompletionQueue> cq) {
  rdma::WorkCompletion wc;
  while (*alive) {
    size_t n = co_await cq->NextBatch(&wc, 1);
    if (!*alive || n == 0) co_return;
    if (!wc.ok()) {
      FailAllPending();
      co_return;
    }
    if (wc.opcode != rdma::Opcode::kRecv) continue;
    co_await sim::Delay(sim_, fabric_.cost().cpu.poll_iteration_ns);
    if (!*alive) co_return;
    HandleAck(wc);
  }
}

sim::Co<void> RdmaProducer::SendCqDrainer(
    std::shared_ptr<bool> alive, std::shared_ptr<rdma::CompletionQueue> cq) {
  rdma::WorkCompletion wc;
  while (*alive) {
    size_t n = co_await cq->NextBatch(&wc, 1);
    if (!*alive || n == 0) co_return;
    if (wc.opcode == rdma::Opcode::kFetchAdd) {
      auto it = faa_waiters_.find(wc.wr_id);
      if (it != faa_waiters_.end()) {
        if (!wc.ok()) faa_failed_ = true;
        it->second->Set();
      }
      continue;
    }
    if (!wc.ok()) {
      // A write failed (revoked access / disconnect): the RecvAckLoop
      // error path performs the full teardown.
      errors_++;
    }
  }
}

sim::Co<StatusOr<int64_t>> RdmaProducer::Produce(Slice key, Slice value) {
  co_await window_.Acquire();
  std::shared_ptr<Pending> pending;
  Status st = co_await SendOne(key, value, &pending);
  if (!st.ok()) {
    window_.Release();
    co_return st;
  }
  co_await pending->done->Wait();
  // The user thread blocks on the produce future and is woken by the ack.
  co_await sim::Delay(sim_, fabric_.cost().cpu.wakeup_ns);
  if (pending->ack.error != 0) {
    co_return Status::Aborted(
        std::string("rdma produce failed: ") +
        ErrorCodeName(static_cast<ErrorCode>(pending->ack.error)));
  }
  co_return pending->ack.value;
}

sim::Co<Status> RdmaProducer::ProduceAsync(Slice key, Slice value) {
  co_await window_.Acquire();
  std::shared_ptr<Pending> pending;
  Status st = co_await SendOne(key, value, &pending);
  if (!st.ok()) window_.Release();
  co_return st;
}

sim::Co<Status> RdmaProducer::Flush() {
  while (!pending_.empty() || !pending_by_order_.empty() ||
         window_.available() < config_.max_inflight) {
    if (!pending_.empty()) {
      auto last = pending_.back();
      co_await last->done->Wait();
    } else if (!pending_by_order_.empty()) {
      auto last = pending_by_order_.begin()->second;
      co_await last->done->Wait();
    } else {
      co_await sim::Delay(sim_, 1000);
    }
  }
  co_return Status::OK();
}

}  // namespace kd
}  // namespace kafkadirect
