#include "direct/kd_broker.h"

#include <algorithm>

#include "common/logging.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;
using kafka::PartitionState;

/// §14: consumer-session slab pool size when metadata_arena is on. Full
/// pool -> graceful fallback to a per-session registration.
constexpr uint32_t kSessionArenaSlots = 256;

/// §14: notify credits granted per logical stream at open.
constexpr uint32_t kMuxStreamCredits = 4;

// ---------------------------------------------------------------------------
// Broker setup
// ---------------------------------------------------------------------------

KafkaDirectBroker::KafkaDirectBroker(sim::Simulator& sim, net::Fabric& fabric,
                                     tcpnet::Network& tcp,
                                     kafka::BrokerConfig config)
    : Broker(sim, fabric, tcp, config) {
  obs::MetricsRegistry& m = fabric.obs().metrics;
  kd_obs_.zero_copy_bytes = m.GetCounter("kd.direct.rdma_produce.zero_copy_bytes");
  kd_obs_.notifications = m.GetCounter("kd.direct.notifications");
  kd_obs_.ctrl_msgs = m.GetCounter("kd.direct.ctrl_msgs");
  kd_obs_.produce_file_pos =
      m.GetGauge("kd.direct.produce_file.commit_pos");
  kd_obs_.ring_pushed_bytes = m.GetCounter("kd.direct.ring.pushed_bytes");
  kd_obs_.credits_outstanding =
      m.GetGauge("kd.direct.repl.credits_outstanding");
  kd_obs_.credit_cap = m.GetGauge("kd.direct.repl.credit_cap");
  if (config_.receiver_paced_credits) {
    kd_obs_.credit_cap->Set(static_cast<int64_t>(PacedCreditCap()));
  }
  if (config_.qp_mux) {
    // §14 admission plane. Only registered when the mux is on so the
    // monitor's admission invariant stays vacuous for paper-exact runs.
    adm_obs_.admitted = m.GetCounter("kd.broker.admission.admitted");
    adm_obs_.rejected = m.GetCounter("kd.broker.admission.rejected");
    adm_obs_.active = m.GetGauge("kd.broker.admission.active");
    adm_obs_.capacity = m.GetGauge("kd.broker.admission.capacity");
  }
}

KafkaDirectBroker::~KafkaDirectBroker() = default;

Status KafkaDirectBroker::Start() {
  KD_RETURN_IF_ERROR(Broker::Start());
  rdma_cq_ = rnic_.CreateCq();
  if (config_.use_srq) {
    // One shared receive pool for every ctrl-message QP: broker recv
    // memory is sized once here, independent of how many clients connect.
    srq_ = rnic_.CreateSrq();
    srq_arena_.resize(static_cast<size_t>(srq_->max_wr()) * kCtrlMsgSize);
    for (int i = 0; i < srq_->max_wr(); i++) {
      KD_CHECK_OK(srq_->PostRecv(
          static_cast<uint64_t>(i),
          srq_arena_.data() + static_cast<size_t>(i) * kCtrlMsgSize,
          kCtrlMsgSize));
    }
    ctrl_recv_buf_bytes_ = srq_arena_.size();
  }
  // §14 connection layer, each piece behind its own default-off flag.
  if (config_.qp_mux || config_.metadata_arena) {
    meta_arena_ = std::make_unique<rdma::SlotArena>(
        rnic_, rdma::QpMux::kSlotBytes, config_.metadata_arena_slots,
        rdma::kAccessRemoteRead);
  }
  if (config_.metadata_arena) {
    // Consumer metadata-slot regions come from a recycled slab pool
    // instead of one ibv_reg_mr per session.
    session_arena_ = std::make_unique<rdma::SlotArena>(
        rnic_, ConsumerSession::kRegionBytes, kSessionArenaSlots,
        rdma::kAccessRemoteRead);
  }
  if (config_.qp_mux) {
    uint32_t max_streams = config_.metadata_arena_slots;
    if (config_.admission_control && config_.admission_max_streams > 0) {
      max_streams = config_.admission_max_streams;
    }
    mux_ = std::make_unique<rdma::QpMux>(*meta_arena_, max_streams,
                                         kMuxStreamCredits,
                                         fabric_.obs().metrics);
    if (adm_obs_.capacity != nullptr) {
      adm_obs_.capacity->Set(static_cast<int64_t>(max_streams));
    }
  }
  if (config_.connection_cache) {
    conn_cache_ = std::make_unique<rdma::ConnectionCache>(
        std::max<uint32_t>(1, config_.connection_cache_capacity),
        fabric_.obs().metrics);
    conn_cache_->set_evict_hook(
        [this](uint32_t qp_num, std::shared_ptr<rdma::QueuePair> qp) {
          OnCacheEvict(qp_num, std::move(qp));
        });
  }
  sim::Spawn(sim_, RdmaPollerLoop());
  // Loopback QP pair so TCP produce requests to shared files can reserve
  // regions "by issuing an RDMA atomic to itself" (§4.2.2).
  loop_cq_ = rnic_.CreateCq();
  loop_peer_cq_ = rnic_.CreateCq();
  loop_qp_ = rnic_.CreateQp(loop_cq_, loop_cq_);
  loop_peer_qp_ = rnic_.CreateQp(loop_peer_cq_, loop_peer_cq_);
  loop_mu_ = std::make_unique<sim::AsyncMutex>(sim_);
  return rdma::Connect(loop_qp_, loop_peer_qp_);
}

sim::Co<StatusOr<std::shared_ptr<rdma::QueuePair>>>
KafkaDirectBroker::AcceptRdma(std::shared_ptr<rdma::QueuePair> client_qp) {
  // Out-of-band CM exchange: one request/response round trip.
  co_await sim::Delay(sim_, 2 * cost().link.propagation_ns + 20000);
  auto qp = srq_ != nullptr ? rnic_.CreateQp(rdma_cq_, rdma_cq_, srq_)
                            : rnic_.CreateQp(rdma_cq_, rdma_cq_);
  KD_CO_RETURN_IF_ERROR(rdma::Connect(qp, client_qp));
  PostCtrlRecvs(qp, kCtrlRecvsPerQp);
  rdma_qps_[qp->qp_num()] = qp;
  sim::Spawn(sim_, WatchQpFailure(qp));
  if (conn_cache_ != nullptr) {
    // May evict the coldest live QP (OnCacheEvict) to stay within the
    // transport budget — DCT-style on-demand connections.
    conn_cache_->Insert(qp->qp_num(), qp);
  }
  co_return qp;
}

void KafkaDirectBroker::PostCtrlRecvs(
    const std::shared_ptr<rdma::QueuePair>& qp, int n) {
  // An SRQ-attached QP draws from the pool posted once in Start().
  if (srq_ != nullptr) return;
  // Receives carry a small buffer so both immediate-only WriteWithImm and
  // 24-byte control Sends can land on any broker QP. Buffers are sized to
  // the 24-byte ctrl message, drawn from the broker buffer pool, and
  // recycled when the QP dies.
  QpRecvPool& pool = qp_recv_pools_[qp->qp_num()];
  pool.bufs.reserve(pool.bufs.size() + static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    uint64_t wr_id = pool.bufs.size();
    pool.bufs.push_back(buf_pool_.Acquire(kCtrlMsgSize));
    KD_CHECK_OK(qp->PostRecv(wr_id, pool.bufs[wr_id].data(),
                             kCtrlMsgSize));
    ctrl_recv_buf_bytes_ += kCtrlMsgSize;
  }
}

uint8_t* KafkaDirectBroker::CtrlRecvBuf(const rdma::WorkCompletion& wc) {
  if (srq_ != nullptr) {
    size_t off = static_cast<size_t>(wc.wr_id) * kCtrlMsgSize;
    if (off + kCtrlMsgSize > srq_arena_.size()) return nullptr;
    return srq_arena_.data() + off;
  }
  auto it = qp_recv_pools_.find(wc.qp_num);
  if (it == qp_recv_pools_.end()) return nullptr;  // QP already torn down
  if (wc.wr_id >= it->second.bufs.size()) return nullptr;
  return it->second.bufs[wc.wr_id].data();
}

void KafkaDirectBroker::RepostCtrlRecv(const rdma::WorkCompletion& wc,
                                       rdma::QueuePair* qp) {
  uint8_t* buf = CtrlRecvBuf(wc);
  if (buf == nullptr) return;
  if (srq_ != nullptr) {
    (void)srq_->PostRecv(wc.wr_id, buf, kCtrlMsgSize);
    return;
  }
  if (qp == nullptr) {
    auto it = rdma_qps_.find(wc.qp_num);
    if (it == rdma_qps_.end()) return;
    qp = it->second.get();
  }
  (void)qp->PostRecv(wc.wr_id, buf, kCtrlMsgSize);
}

void KafkaDirectBroker::ReleaseQpRecvPool(uint32_t qp_num) {
  auto it = qp_recv_pools_.find(qp_num);
  if (it == qp_recv_pools_.end()) return;
  for (auto& buf : it->second.bufs) {
    ctrl_recv_buf_bytes_ -= kCtrlMsgSize;
    buf_pool_.Release(std::move(buf));
  }
  qp_recv_pools_.erase(it);
}

sim::Co<void> KafkaDirectBroker::WatchQpFailure(
    std::shared_ptr<rdma::QueuePair> qp) {
  co_await qp->error_event().Wait();
  // Client failure detected from the QP disconnection event (§4.2.2):
  // revoke RDMA access to files exclusively owned by this connection.
  for (auto& [id, fs] : rdma_files_) {
    if (!fs->aborted && !fs->shared && fs->owner_qp == qp->qp_num()) {
      AbortFile(fs.get(), ErrorCode::kRdmaAccessDenied);
    }
  }
  for (auto& [ref, grant] : ring_grants_) {
    if (grant->qp_num == qp->qp_num()) grant->closed = true;
  }
  if (mux_ != nullptr) {
    // Streams survive transport death: their committed counts are the
    // reconnect resync anchor (§14).
    mux_->DetachQp(qp->qp_num());
  }
  if (conn_cache_ != nullptr) conn_cache_->Erase(qp->qp_num());
  ReleaseQpRecvPool(qp->qp_num());
  rdma_qps_.erase(qp->qp_num());
}

void KafkaDirectBroker::SendCtrl(uint32_t qp_num, const CtrlMsg& msg) {
  auto it = rdma_qps_.find(qp_num);
  if (it == rdma_qps_.end()) return;
  // IBV_SEND_INLINE: the 24-byte control message travels inside the work
  // request, so no send buffer has to outlive the (unsignaled) send and
  // nothing is allocated per ack.
  rdma::WorkRequest wr;
  wr.opcode = rdma::Opcode::kSend;
  wr.signaled = false;
  wr.send_inline = true;
  static_assert(kCtrlMsgSize <= rdma::WorkRequest::kMaxInlineData);
  msg.EncodeTo(wr.inline_data);
  wr.length = kCtrlMsgSize;
  (void)it->second->PostSend(wr);
  rdma_acks_sent_++;
  kd_obs_.ctrl_msgs->Increment();
}

// ---------------------------------------------------------------------------
// RDMA network module (§4.1): CQ poller feeding the shared request queue
// ---------------------------------------------------------------------------

sim::Co<void> KafkaDirectBroker::RdmaPollerLoop() {
  // One poll-iteration charge per wakeup drains up to cq_poll_batch CQEs
  // (ibv_poll_cq with num_entries > 1); with the default batch of 1 the
  // event schedule is identical to per-CQE polling.
  const size_t batch =
      static_cast<size_t>(std::max(1, config_.cq_poll_batch));
  std::vector<rdma::WorkCompletion> wcs(batch);
  while (true) {
    size_t n = co_await rdma_cq_->NextBatch(wcs.data(), batch);
    if (n == 0) co_return;  // CQ destroyed/errored
    co_await sim::Delay(sim_, cost().cpu.poll_iteration_ns);
    for (size_t i = 0; i < n; i++) {
      HandleRdmaCompletion(wcs[i]);
    }
  }
}

void KafkaDirectBroker::HandleRdmaCompletion(const rdma::WorkCompletion& wc) {
  if (!wc.ok()) return;  // QP failure handled by watchers
  if (conn_cache_ != nullptr) conn_cache_->Touch(wc.qp_num);
  if (wc.opcode == rdma::Opcode::kRecvWithImm) {
    uint16_t file_id = ImmFileId(wc.imm_data);
    uint16_t order = ImmOrder(wc.imm_data);
    auto it = rdma_files_.find(file_id);
    if (it != rdma_files_.end() && !it->second->shared &&
        !it->second->replica) {
      // Exclusive mode: the produce module assigns arrival order so the
      // request queue's multi-worker processing stays sequential per
      // file (§4.2.2 in-order completion processing).
      order = it->second->arrival_seq++;
    }
    // Re-post the consumed receive.
    RepostCtrlRecv(wc);
    Request req;
    req.file_id = file_id;
    req.order = order;
    req.byte_len = wc.byte_len;
    req.qp_num = wc.qp_num;
    EnqueueRequest(std::move(req));  // step 2 in Fig. 2
  } else if (wc.opcode == rdma::Opcode::kRecv) {
    uint8_t* buf = CtrlRecvBuf(wc);
    if (buf == nullptr) return;  // QP torn down; buffers already recycled
    CtrlMsg msg = CtrlMsg::DecodeFrom(buf);
    RepostCtrlRecv(wc);
    if (msg.kind == CtrlKind::kProduceNotify) {
      // Write+Send notification (§4.2.2): the Send is ordered behind the
      // data write, so the records are already in the file.
      uint16_t file_id = static_cast<uint16_t>(msg.aux);
      uint16_t order = msg.order;
      auto fit = rdma_files_.find(file_id);
      if (fit != rdma_files_.end() && !fit->second->shared &&
          !fit->second->replica) {
        order = fit->second->arrival_seq++;
      }
      Request produce_req;
      produce_req.file_id = file_id;
      produce_req.order = order;
      produce_req.byte_len = static_cast<uint32_t>(msg.value);
      produce_req.qp_num = wc.qp_num;
      produce_req.stream = msg.stream;
      if (mux_ != nullptr && msg.stream != 0) {
        // Per-stream credit layered on the SRQ: the window is returned
        // with the ack, so one stream can never monopolize the shared
        // receive pool.
        rdma::MuxStream* s = mux_->Find(msg.stream);
        if (s != nullptr) (void)mux_->ConsumeCredit(s);
      }
      EnqueueRequest(std::move(produce_req));
    } else if (msg.kind == CtrlKind::kMuxOpen) {
      HandleMuxOpen(msg, wc.qp_num);
    } else if (msg.kind == CtrlKind::kMuxClose) {
      HandleMuxClose(msg, wc.qp_num);
    } else if (msg.kind == CtrlKind::kHwmUpdate) {
      // Leader -> follower high-watermark propagation on the push path.
      auto fit = rdma_files_.find(static_cast<uint16_t>(msg.aux));
      if (fit != rdma_files_.end()) {
        PartitionState* ps = fit->second->ps;
        if (msg.value > ps->log.high_watermark()) {
          ps->log.SetHighWatermark(msg.value);
          ps->hwm_advanced.Pulse();
          OnHwmAdvanced(*ps);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

KdPartitionExt* KafkaDirectBroker::Ext(PartitionState& ps) {
  if (ps.ext == nullptr) ps.ext = std::make_unique<KdPartitionExt>();
  return static_cast<KdPartitionExt*>(ps.ext.get());
}

sim::Co<void> KafkaDirectBroker::HandleExtendedRequest(Request req) {
  if (req.conn == nullptr) {
    co_await HandleRdmaProduceArrival(std::move(req));
    co_return;
  }
  switch (kafka::PeekType(Slice(req.frame))) {
    case kafka::MsgType::kRdmaProduceAccessRequest:
      co_await HandleProduceAccess(std::move(req));
      break;
    case kafka::MsgType::kRdmaConsumeAccessRequest:
      co_await HandleConsumeAccess(std::move(req));
      break;
    case kafka::MsgType::kRdmaRingConsumeAccessRequest:
      co_await HandleRingConsumeAccess(std::move(req));
      break;
    case kafka::MsgType::kRdmaUnregisterRequest:
      co_await HandleUnregister(std::move(req));
      break;
    case kafka::MsgType::kReplicaRdmaAccessRequest:
      co_await HandleReplicaAccess(std::move(req));
      break;
    case kafka::MsgType::kRdmaCommitAccessRequest:
      co_await HandleCommitAccess(std::move(req));
      break;
    default:
      co_await Broker::HandleExtendedRequest(std::move(req));
      break;
  }
}

// ---------------------------------------------------------------------------
// Coroutine-aware teardown (§14)
// ---------------------------------------------------------------------------

void KafkaDirectBroker::Shutdown() {
  if (!started_ || shut_down_) return;
  // Client/replication QPs first: Disconnect fails both ends, which wakes
  // the per-QP watchers, engines, and any client loop parked on a CQ.
  // Copy out of the map — WatchQpFailure erases entries as it runs.
  std::vector<std::shared_ptr<rdma::QueuePair>> qps;
  qps.reserve(rdma_qps_.size());
  for (auto& [num, qp] : rdma_qps_) qps.push_back(qp);
  for (auto& qp : qps) qp->Disconnect();
  // Leader-side push-replication sessions: close the entry queues (the
  // replicator loops exit on nullopt) and shut their CQs so the credit
  // drainers drain and return.
  for (auto& [tp, ps] : partitions_) {
    if (ps->ext == nullptr) continue;
    auto* ext = static_cast<KdPartitionExt*>(ps->ext.get());
    for (auto& session : ext->push_sessions) {
      if (session->queue != nullptr) session->queue->Close();
      if (session->qp != nullptr) session->qp->Disconnect();
      if (session->send_cq != nullptr) session->send_cq->Shutdown();
      if (session->recv_cq != nullptr) session->recv_cq->Shutdown();
    }
  }
  for (auto& [ref, grant] : ring_grants_) grant->closed = true;
  if (loop_qp_ != nullptr) loop_qp_->Disconnect();
  if (loop_cq_ != nullptr) loop_cq_->Shutdown();
  if (loop_peer_cq_ != nullptr) loop_peer_cq_->Shutdown();
  // Last: the shared CQ, so the poller loop drains whatever the
  // disconnects flushed and runs to completion.
  if (rdma_cq_ != nullptr) rdma_cq_->Shutdown();
  Broker::Shutdown();
}

}  // namespace kd
}  // namespace kafkadirect
