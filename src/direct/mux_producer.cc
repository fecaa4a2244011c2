#include "direct/mux_producer.h"

#include <algorithm>
#include <span>

#include "kafka/record.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;

namespace {
constexpr int kAckRecvDepth = 512;
// A grant that takes longer than this died with its transport (e.g. the
// endpoint was evicted again mid-reconnect); the reconnect pass retries.
constexpr sim::TimeNs kGrantTimeout = 20ll * 1000 * 1000;  // 20 ms
constexpr int kMaxReconnectAttempts = 10;
/// Max completions drained per CQ wakeup.
constexpr size_t kPollBatch = 4;
/// Signal every Nth notify Send (clamped to max_send_wr/4 at connect).
constexpr int kSignalInterval = 16;
/// Lazy-reconnect backoff when the broker gave no retry-after hint.
constexpr sim::TimeNs kReconnectBackoff = 100 * 1000;  // 100 us
}  // namespace

MuxProducer::MuxProducer(sim::Simulator& sim, net::Fabric& fabric,
                         tcpnet::Network& tcp, net::NodeId node,
                         MuxProducerConfig config)
    : sim_(sim), fabric_(fabric), tcp_(tcp), node_(node), config_(config),
      rnic_(sim, fabric, node), window_(sim, config.max_inflight),
      post_mu_(std::make_unique<sim::AsyncMutex>(sim)),
      ctrl_mu_(std::make_unique<sim::AsyncMutex>(sim)),
      reconnect_mu_(std::make_unique<sim::AsyncMutex>(sim)) {}

MuxProducer::~MuxProducer() {
  *alive_ = false;
  Close();
}

void MuxProducer::Close() {
  closed_ = true;
  disconnected_ = true;
  if (qp_ != nullptr) qp_->Disconnect();
  // Coroutine-aware teardown: wake loops parked on empty CQs so their
  // frames run to completion instead of leaking.
  if (send_cq_ != nullptr) send_cq_->Shutdown();
  if (recv_cq_ != nullptr) recv_cq_->Shutdown();
  if (ctrl_ != nullptr) ctrl_->Close();
}

sim::Co<Status> MuxProducer::Connect(KafkaDirectBroker* leader,
                                     const kafka::TopicPartitionId& tp) {
  leader_ = leader;
  tp_ = tp;
  auto ctrl_or =
      co_await tcp_.Connect(node_, leader->node(), kafka::kKafkaPort);
  if (!ctrl_or.ok()) co_return ctrl_or.status();
  ctrl_ = ctrl_or.value();
  KD_CO_RETURN_IF_ERROR(co_await EstablishTransport());
  KD_CO_RETURN_IF_ERROR(co_await RequestAccess(tp, 0));
  disconnected_ = false;
  co_return Status::OK();
}

sim::Co<Status> MuxProducer::AddPartition(const kafka::TopicPartitionId& tp) {
  if (closed_) co_return Status::Disconnected("endpoint closed");
  if (ctrl_ == nullptr) {
    co_return Status::FailedPrecondition("AddPartition before Connect");
  }
  if (grants_.find(tp) != grants_.end()) co_return Status::OK();
  // Same transport QP, same control channel — only the grant is new.
  co_return co_await RequestAccess(tp, 0);
}

sim::Co<Status> MuxProducer::EstablishTransport() {
  send_cq_ = rnic_.CreateCq();
  recv_cq_ = rnic_.CreateCq();
  qp_ = rnic_.CreateQp(send_cq_, recv_cq_);
  const int cap = std::max(1, fabric_.cost().rdma.max_send_wr / 4);
  signal_every_ = std::min(kSignalInterval, cap);
  qp_->set_selective_signaling(true);
  auto broker_qp = co_await leader_->AcceptRdma(qp_);
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
  KD_CO_RETURN_IF_ERROR(
      qp_->PostRecv(std::span<const rdma::RecvRequest>(recvs)));
  sim::Spawn(sim_, RecvAckLoop(alive_, recv_cq_));
  sim::Spawn(sim_, SendCqDrainer(alive_, send_cq_));
  co_return Status::OK();
}

sim::Co<Status> MuxProducer::RequestAccess(const kafka::TopicPartitionId& tp,
                                           uint16_t stale_file_id,
                                           uint64_t rotate_target) {
  co_await ctrl_mu_->Lock();
  auto git = grants_.find(tp);
  if (stale_file_id != 0 &&
      (git == grants_.end() || stale_file_id != git->second.file_id)) {
    ctrl_mu_->Unlock();
    co_return Status::OK();  // a concurrent request already rotated
  }
  kafka::RdmaProduceAccessRequest req;
  req.tp = tp;
  req.exclusive = true;  // the endpoint owns the file; streams share it
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
    ctrl_mu_->Unlock();
    co_return Status::PermissionDenied(
        std::string("mux produce access denied: ") +
        ErrorCodeName(resp.error));
  }
  FileGrant& g = grants_[tp];  // inserted only on success
  g.tp = tp;
  g.file_id = resp.file_id;
  g.addr = resp.addr;
  g.rkey = resp.rkey;
  g.capacity = resp.capacity;
  g.write_pos = resp.write_pos;
  ctrl_mu_->Unlock();
  co_return Status::OK();
}

sim::Co<StatusOr<MuxOpenResult>> MuxProducer::SendOpen(uint32_t base,
                                                       uint32_t count) {
  auto ev = std::make_shared<sim::Event>(sim_);
  grant_waiters_[base] = {ev, CtrlMsg{}};
  CtrlMsg m;
  m.kind = CtrlKind::kMuxOpen;
  m.stream = base;
  m.aux = count;
  rdma::WorkRequest wr;
  wr.opcode = rdma::Opcode::kSend;
  wr.signaled = false;
  wr.send_inline = true;
  m.EncodeTo(wr.inline_data);
  wr.length = kCtrlMsgSize;
  Status st = qp_->PostSend(wr);
  while (st.IsResourceExhausted()) {
    co_await sim::Delay(sim_, 1000);
    st = qp_->PostSend(wr);
  }
  if (!st.ok()) {
    grant_waiters_.erase(base);
    co_return st;
  }
  bool fired = co_await ev->WaitFor(kGrantTimeout);
  auto it = grant_waiters_.find(base);
  if (!fired || it == grant_waiters_.end()) {
    grant_waiters_.erase(base);
    co_return Status::Disconnected("mux open grant lost");
  }
  CtrlMsg grant = it->second.second;
  grant_waiters_.erase(it);
  MuxOpenResult res;
  res.admitted = grant.aux;
  res.credits = grant.order;
  if (grant.error == 0 && count == 1) {
    res.committed = static_cast<uint64_t>(grant.value);
  } else if (grant.error != 0) {
    res.retry_after_ns = static_cast<sim::TimeNs>(grant.value);
  }
  co_return res;
}

sim::Co<StatusOr<MuxOpenResult>> MuxProducer::OpenStreams(uint32_t base,
                                                          uint32_t count) {
  co_return co_await OpenStreams(base, count, tp_);
}

sim::Co<StatusOr<MuxOpenResult>> MuxProducer::OpenStreams(
    uint32_t base, uint32_t count, const kafka::TopicPartitionId& tp) {
  if (closed_) co_return Status::Disconnected("endpoint closed");
  if (grants_.find(tp) == grants_.end()) {
    co_return Status::FailedPrecondition(
        "no produce grant for partition (AddPartition first)");
  }
  if (disconnected_) KD_CO_RETURN_IF_ERROR(co_await Reconnect());
  auto res_or = co_await SendOpen(base, count);
  if (!res_or.ok()) co_return res_or.status();
  const MuxOpenResult& res = res_or.value();
  for (uint32_t i = 0; i < res.admitted; i++) {
    StreamState& st = streams_[base + i];
    st.id = base + i;
    st.tp = tp;
    st.credits = std::make_unique<sim::Semaphore>(
        sim_, std::max<uint32_t>(1, res.credits));
    if (count == 1) st.acked = res.committed;
  }
  co_return res_or;
}

sim::Co<Status> MuxProducer::CloseStreams(uint32_t base, uint32_t count) {
  for (uint32_t i = 0; i < count; i++) streams_.erase(base + i);
  if (closed_ || disconnected_ || qp_ == nullptr) co_return Status::OK();
  CtrlMsg m;
  m.kind = CtrlKind::kMuxClose;
  m.stream = base;
  m.aux = count;
  rdma::WorkRequest wr;
  wr.opcode = rdma::Opcode::kSend;
  wr.signaled = false;
  wr.send_inline = true;
  m.EncodeTo(wr.inline_data);
  wr.length = kCtrlMsgSize;
  Status st = qp_->PostSend(wr);
  while (st.IsResourceExhausted()) {
    co_await sim::Delay(sim_, 1000);
    st = qp_->PostSend(wr);
  }
  co_return Status::OK();  // close is best-effort; the broker idles it out
}

sim::Co<Status> MuxProducer::PostRecord(StreamState* st,
                                        std::shared_ptr<Pending> p) {
  co_await post_mu_->Lock();
  if (!*alive_ || closed_) {
    post_mu_->Unlock();
    co_return Status::Disconnected("endpoint closed");
  }
  if (disconnected_) {
    // Leave the record queued; the reconnect pass re-posts it. Kick one
    // off in case no pass is running (the failure may have hit while the
    // endpoint had nothing outstanding).
    KickReconnect();
    post_mu_->Unlock();
    co_return Status::OK();
  }
  auto git = grants_.find(st->tp);
  if (git == grants_.end()) {
    post_mu_->Unlock();
    co_return Status::FailedPrecondition("no grant for stream partition");
  }
  if (p->batch.size() > git->second.capacity - git->second.write_pos) {
    // Head file full: rotate via the control channel (§4.2.2); in-flight
    // pipelined writes end at the grant's write_pos.
    Status rot = co_await RequestAccess(st->tp, git->second.file_id,
                                        git->second.write_pos);
    if (!rot.ok()) {
      post_mu_->Unlock();
      co_return rot;
    }
    git = grants_.find(st->tp);
    if (git == grants_.end()) {
      post_mu_->Unlock();
      co_return Status::FailedPrecondition("grant lost during rotation");
    }
  }
  FileGrant& grant = git->second;
  uint64_t pos = grant.write_pos;
  grant.write_pos += p->batch.size();
  // Data write: plain unsignaled Write. The stream id does not fit in the
  // 32-bit immediate, so mux produce always uses the Write + Send shape;
  // RC ordering delivers the notify after the data has landed.
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id_++;
  wr.opcode = rdma::Opcode::kWrite;
  wr.signaled = false;
  wr.local_addr = p->batch.data();
  wr.length = static_cast<uint32_t>(p->batch.size());
  wr.remote_addr = grant.addr + pos;
  wr.rkey = grant.rkey;
  CtrlMsg msg;
  msg.kind = CtrlKind::kProduceNotify;
  msg.aux = grant.file_id;
  msg.value = static_cast<int64_t>(p->batch.size());
  msg.stream = st->id;
  p->notify.resize(kCtrlMsgSize);
  msg.EncodeTo(p->notify.data());
  rdma::WorkRequest notify_wr;
  notify_wr.wr_id = next_wr_id_++;
  notify_wr.opcode = rdma::Opcode::kSend;
  notify_wr.signaled =
      signal_every_ <= 1 ||
      (++notify_seq_ % static_cast<uint64_t>(signal_every_)) == 0;
  notify_wr.local_addr = p->notify.data();
  notify_wr.length = kCtrlMsgSize;
  Status post = qp_->PostSend(wr);
  while (post.IsResourceExhausted()) {
    co_await sim::Delay(sim_, 1000);
    if (!*alive_) co_return Status::Disconnected("destroyed");
    post = qp_->PostSend(wr);
  }
  if (post.ok()) {
    post = qp_->PostSend(notify_wr);
    while (post.IsResourceExhausted()) {
      co_await sim::Delay(sim_, 1000);
      if (!*alive_) co_return Status::Disconnected("destroyed");
      post = qp_->PostSend(notify_wr);
    }
  }
  if (post.ok()) {
    p->posted = true;
  } else {
    OnTransportFailure();  // queued record rides the reconnect resend
  }
  post_mu_->Unlock();
  co_return Status::OK();
}

sim::Co<StatusOr<int64_t>> MuxProducer::Produce(uint32_t stream, Slice key,
                                                Slice value) {
  if (closed_) co_return Status::Disconnected("endpoint closed");
  if (streams_.find(stream) == streams_.end()) {
    co_return Status::InvalidArgument("stream not open");
  }
  sim::TimeNs started_at = sim_.Now();
  co_await window_.Acquire();
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    window_.Release();
    co_return Status::InvalidArgument("stream closed");
  }
  StreamState* st = &it->second;
  co_await st->credits->Acquire();
  const CostModel& cm = fabric_.cost();
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
  pending->done = std::make_shared<sim::Event>(sim_);
  pending->sent_at = started_at;
  // Re-resolve: the map may have rehashed conceptually, and the stream may
  // have raced a close during the awaits above.
  it = streams_.find(stream);
  if (it == streams_.end()) {
    window_.Release();
    co_return Status::InvalidArgument("stream closed");
  }
  st = &it->second;
  st->pending.push_back(pending);
  Status posted = co_await PostRecord(st, pending);
  if (!posted.ok()) {
    // Hard failure (closed / rotation denied): unwind this record.
    it = streams_.find(stream);
    if (it != streams_.end()) std::erase(it->second.pending, pending);
    window_.Release();
    errors_++;
    co_return posted;
  }
  co_await pending->done->Wait();
  co_await sim::Delay(sim_, cm.cpu.wakeup_ns);
  if (pending->ack.error != 0) {
    co_return Status::Aborted(
        std::string("mux produce failed: ") +
        ErrorCodeName(static_cast<ErrorCode>(pending->ack.error)));
  }
  co_return pending->ack.value;
}

void MuxProducer::HandleAck(const CtrlMsg& msg) {
  auto it = streams_.find(msg.stream);
  if (it == streams_.end()) return;  // stream closed while the ack flew
  StreamState& st = it->second;
  if (st.pending.empty()) return;
  // Per-stream FIFO: RC in-order delivery + the broker's in-order commit
  // processing mean acks resolve the oldest outstanding record.
  std::shared_ptr<Pending> pending = st.pending.front();
  st.pending.pop_front();
  pending->ack = msg;
  if (msg.error == 0) {
    acked_records_++;
    st.acked++;
    latencies_.Add(sim_.Now() - pending->sent_at +
                   fabric_.cost().cpu.wakeup_ns);
  } else {
    errors_++;
  }
  st.credits->Release();
  window_.Release();
  pending->done->Set();
}

sim::Co<void> MuxProducer::RecvAckLoop(
    std::shared_ptr<bool> alive, std::shared_ptr<rdma::CompletionQueue> cq) {
  std::vector<rdma::WorkCompletion> wcs(kPollBatch);
  while (*alive) {
    size_t n = co_await cq->NextBatch(wcs.data(), kPollBatch);
    if (!*alive || n == 0) co_return;  // CQ shut down (Close/reconnect)
    for (size_t i = 0; i < n; i++) {
      const rdma::WorkCompletion& wc = wcs[i];
      if (!wc.ok()) {
        // Only the CURRENT transport's death counts: a retired CQ can
        // still drain flushed completions while the replacement connects.
        if (cq == recv_cq_) OnTransportFailure();
        co_return;
      }
      if (wc.opcode != rdma::Opcode::kRecv) continue;
      co_await sim::Delay(sim_, fabric_.cost().cpu.poll_iteration_ns);
      if (!*alive) co_return;
      if (wc.wr_id >= ack_bufs_.size()) continue;
      CtrlMsg msg = CtrlMsg::DecodeFrom(ack_bufs_[wc.wr_id].data());
      (void)qp_->PostRecv(wc.wr_id, ack_bufs_[wc.wr_id].data(),
                          kCtrlMsgSize);
      if (msg.kind == CtrlKind::kProduceAck) {
        HandleAck(msg);
      } else if (msg.kind == CtrlKind::kMuxGrant) {
        auto it = grant_waiters_.find(msg.stream);
        if (it != grant_waiters_.end()) {
          it->second.second = msg;
          it->second.first->Set();
        }
      }
    }
  }
}

sim::Co<void> MuxProducer::SendCqDrainer(
    std::shared_ptr<bool> alive, std::shared_ptr<rdma::CompletionQueue> cq) {
  std::vector<rdma::WorkCompletion> wcs(kPollBatch);
  while (*alive) {
    size_t n = co_await cq->NextBatch(wcs.data(), kPollBatch);
    if (!*alive || n == 0) co_return;
    for (size_t i = 0; i < n; i++) {
      if (!wcs[i].ok() && cq == send_cq_) OnTransportFailure();
    }
  }
}

void MuxProducer::OnTransportFailure() {
  disconnected_ = true;
  transport_failures_++;
  // Only recover eagerly when there is something to recover: an endpoint
  // with no open streams stays quiet and reconnects lazily on its next
  // OpenStreams/Produce, so a pair of idle endpoints cannot evict each
  // other out of a small connection cache forever.
  if (streams_.empty()) return;
  KickReconnect();
}

void MuxProducer::KickReconnect() {
  if (closed_ || reconnect_queued_) return;
  reconnect_queued_ = true;
  // Transparent lazy reconnect: rebuild the transport in the background;
  // produces issued meanwhile queue up and ride the resend pass.
  sim::Spawn(sim_, [](MuxProducer* self,
                      std::shared_ptr<bool> alive) -> sim::Co<void> {
    Status st = co_await self->Reconnect();
    if (!*alive) co_return;
    self->reconnect_queued_ = false;
    (void)st;
  }(this, alive_));
}

sim::Co<Status> MuxProducer::Reconnect() {
  co_await reconnect_mu_->Lock();
  if (closed_ || !*alive_) {
    reconnect_mu_->Unlock();
    co_return Status::Disconnected("endpoint closed");
  }
  if (!disconnected_) {
    reconnect_mu_->Unlock();
    co_return Status::OK();  // a concurrent pass already recovered
  }
  reconnects_++;
  Status st = Status::OK();
  // The whole pass retries when the REPLACEMENT transport dies mid-flight
  // (e.g. another endpoint's reconnect evicted us out of a small
  // connection cache again) — detected by the failure epoch moving under
  // us between awaits.
  for (int attempt = 0; attempt < kMaxReconnectAttempts; attempt++) {
    co_await sim::Delay(sim_, kReconnectBackoff * (attempt + 1));
    if (closed_ || !*alive_) {
      reconnect_mu_->Unlock();
      co_return Status::Disconnected("endpoint closed");
    }
    // Retire the old transport; Shutdown wakes the old loops so their
    // frames complete (they hold the old CQs by shared_ptr).
    if (qp_ != nullptr) qp_->Disconnect();
    if (send_cq_ != nullptr) send_cq_->Shutdown();
    if (recv_cq_ != nullptr) recv_cq_->Shutdown();
    const uint64_t epoch = transport_failures_;
    st = co_await EstablishTransport();
    if (st.ok()) {
      // Fresh exclusive grant for every produced-to partition.
      std::vector<kafka::TopicPartitionId> tps;
      for (auto& [tp, grant] : grants_) tps.push_back(tp);
      for (const auto& tp : tps) {
        st = co_await RequestAccess(tp, 0);
        if (!st.ok()) break;
      }
    }
    if (closed_ || !*alive_) {
      reconnect_mu_->Unlock();
      co_return Status::Disconnected("endpoint closed");
    }
    if (st.ok() && transport_failures_ == epoch) {
      // Re-open every stream one at a time: each grant replays the
      // broker's committed count — the exactly-once resync anchor.
      // Records at or below it were committed before the transport died
      // (their acks were lost); resolve them without re-sending.
      bool pass_ok = true;
      for (auto& [id, stream] : streams_) {
        auto res_or = co_await SendOpen(id, 1);
        if (!res_or.ok() || transport_failures_ != epoch) {
          pass_ok = false;
          if (!res_or.ok()) st = res_or.status();
          break;
        }
        uint64_t committed = res_or.value().committed;
        uint64_t resolve =
            committed > stream.acked ? committed - stream.acked : 0;
        while (resolve > 0 && !stream.pending.empty()) {
          auto pending = stream.pending.front();
          stream.pending.pop_front();
          pending->ack = CtrlMsg{};  // error 0; base offset lost with ack
          pending->ack.kind = CtrlKind::kProduceAck;
          pending->ack.stream = id;
          acked_records_++;
          resynced_records_++;
          stream.acked++;
          stream.credits->Release();
          window_.Release();
          pending->done->Set();
          resolve--;
        }
        // Survivors were never committed; they re-post into the new file.
        for (auto& pending : stream.pending) pending->posted = false;
      }
      if (pass_ok) {
        disconnected_ = false;
        for (auto& [id, stream] : streams_) {
          // Snapshot: PostRecord awaits, and acks may pop from the deque.
          std::vector<std::shared_ptr<Pending>> resend(
              stream.pending.begin(), stream.pending.end());
          for (auto& pending : resend) {
            if (pending->posted) continue;
            (void)co_await PostRecord(&stream, pending);
            if (!*alive_ || closed_) {
              reconnect_mu_->Unlock();
              co_return Status::Disconnected("endpoint closed");
            }
          }
        }
        reconnect_mu_->Unlock();
        co_return Status::OK();
      }
    }
    if (st.ok()) st = Status::Disconnected("transport died mid-reconnect");
  }
  // Out of attempts: fail everything outstanding so callers unblock.
  for (auto& [id, stream] : streams_) {
    while (!stream.pending.empty()) {
      auto pending = stream.pending.front();
      stream.pending.pop_front();
      pending->ack.error =
          static_cast<uint16_t>(ErrorCode::kRdmaAccessDenied);
      errors_++;
      stream.credits->Release();
      window_.Release();
      pending->done->Set();
    }
  }
  reconnect_mu_->Unlock();
  co_return st;
}

sim::Co<Status> MuxProducer::Flush() {
  while (true) {
    std::shared_ptr<Pending> wait_on;
    for (auto& [id, stream] : streams_) {
      if (!stream.pending.empty()) {
        wait_on = stream.pending.front();
        break;
      }
    }
    if (wait_on == nullptr) co_return Status::OK();
    co_await wait_on->done->Wait();
  }
}

}  // namespace kd
}  // namespace kafkadirect
