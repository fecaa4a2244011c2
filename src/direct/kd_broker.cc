#include "direct/kd_broker.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "kafka/record.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;
using kafka::PartitionState;
using kafka::RecordBatchView;
using kafka::TopicPartitionId;

/// Ctrl-message receives posted per accepted QP (without the SRQ).
constexpr int kCtrlRecvsPerQp = 256;

/// §14: consumer-session slab pool size when metadata_arena is on. Full
/// pool -> graceful fallback to a per-session registration.
constexpr uint32_t kSessionArenaSlots = 256;

// ---------------------------------------------------------------------------
// ConsumerSession / metadata slots
// ---------------------------------------------------------------------------

ConsumerSession::ConsumerSession(rdma::Rnic& rnic)
    : region(kRegionBytes, 0), used(kNumSlots, false) {
  mr = rnic.RegisterMemory(region.data(), region.size(),
                           rdma::kAccessRemoteRead)
           .value();
  base_ = region.data();
  region_addr_ = mr->addr();
}

ConsumerSession::ConsumerSession(rdma::SlotArena& arena, uint32_t arena_slot)
    : used(kNumSlots, false),
      arena_(&arena),
      arena_slot_(static_cast<int32_t>(arena_slot)) {
  // §14: no per-session registration — the region is one recycled slab of
  // the broker's session arena, covered by the arena's single MR.
  mr = arena.mr();
  base_ = arena.SlotPtr(arena_slot);
  std::memset(base_, 0, kRegionBytes);
  region_addr_ = arena.SlotAddr(arena_slot);
}

ConsumerSession::~ConsumerSession() {
  if (arena_ != nullptr && arena_slot_ >= 0) {
    arena_->Free(static_cast<uint32_t>(arena_slot_));
  }
}

int32_t ConsumerSession::AllocSlot() {
  for (uint32_t i = 0; i < kNumSlots; i++) {
    if (!used[i]) {
      used[i] = true;
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

void ConsumerSession::FreeSlot(int32_t index) {
  if (index >= 0 && index < static_cast<int32_t>(kNumSlots)) {
    used[static_cast<size_t>(index)] = false;
    std::memset(slot(index), 0, kSlotSize);
  }
}

void WriteSlot(uint8_t* slot, uint64_t last_readable, bool is_mutable) {
  EncodeFixed64(slot, last_readable);
  slot[8] = is_mutable ? 1 : 0;
}

uint64_t SlotLastReadable(const uint8_t* slot) { return DecodeFixed64(slot); }
bool SlotMutable(const uint8_t* slot) { return slot[8] != 0; }

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
    srq_ = rnic_.CreateSrq(config_.srq_depth);
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
                                         config_.mux_stream_credits,
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

sim::Co<StatusOr<uint64_t>> KafkaDirectBroker::LoopbackFaa(RdmaFileState* fs,
                                                           uint64_t size) {
  co_await loop_mu_->Lock();
  std::vector<uint8_t> result(8, 0);
  rdma::WorkRequest wr;
  wr.opcode = rdma::Opcode::kFetchAdd;
  wr.local_addr = result.data();
  wr.remote_addr = fs->atomic_mr->addr();
  wr.rkey = fs->atomic_mr->rkey();
  wr.compare_add = FaaClaim(size);
  Status st = loop_qp_->PostSend(wr);
  if (!st.ok()) {
    loop_mu_->Unlock();
    co_return st;
  }
  auto wc = co_await loop_cq_->Next();
  loop_mu_->Unlock();
  if (!wc.has_value() || !wc->ok()) {
    co_return Status::Disconnected("loopback FAA failed");
  }
  co_return DecodeFixed64(result.data());
}

sim::Co<StatusOr<int64_t>> KafkaDirectBroker::CommitBatch(
    PartitionState* ps, std::vector<uint8_t> batch, bool charge_copy) {
  for (int attempt = 0; attempt < 4; attempt++) {
    KdPartitionExt* ext = Ext(*ps);
    RdmaFileState* fs = ext->produce_file;
    if (fs == nullptr || fs->aborted || !fs->shared) {
      // No shared RDMA grant on the head file: the original path applies.
      co_return co_await Broker::CommitBatch(ps, std::move(batch),
                                             charge_copy);
    }
    // Reserve a region exactly like a remote producer would (§4.2.2: the
    // broker issues an RDMA atomic to itself).
    auto word_or = co_await LoopbackFaa(fs, batch.size());
    if (!word_or.ok()) co_return word_or.status();
    uint64_t word = word_or.value();
    uint16_t order = AtomicOrder(word);
    uint64_t pos = AtomicOffset(word);
    kafka::Segment* seg = ps->log.segments()[fs->seg_index].get();
    if (pos + batch.size() > seg->capacity()) {
      // The file overflowed under us; retire it, roll, and retry on the
      // fresh head file. Writers with in-range claims finish first.
      uint64_t target = std::min<uint64_t>(pos, seg->capacity());
      uint64_t last_progress = fs->next_commit_pos;
      int stalls = 0;
      while (!fs->aborted &&
             (fs->next_commit_pos < target || !fs->pending.empty())) {
        (void)co_await fs->commit_event->WaitFor(
            config_.shared_produce_hole_timeout);
        if (fs->next_commit_pos == last_progress) {
          if (++stalls >= 2) {
            AbortFile(fs, ErrorCode::kTimedOut);
            break;
          }
        } else {
          last_progress = fs->next_commit_pos;
          stalls = 0;
        }
      }
      if (!fs->aborted) {
        AbortFile(fs, ErrorCode::kNone);
        co_await ps->append_mu.Lock();
        ps->log.Roll();
        ps->append_mu.Unlock();
        OnRolled(*ps);
        CreateFileState(*ps, /*shared=*/true, /*replica=*/false);
      }
      continue;
    }
    // Counted as copied when it commits (CommitRdmaWrite, qp 0).
    if (charge_copy) co_await Work(cost().CopyCost(batch.size()));
    const uint32_t batch_len = static_cast<uint32_t>(batch.size());
    std::memcpy(seg->data() + pos, batch.data(), batch.size());
    buf_pool_.Release(std::move(batch));  // copied into the segment above
    co_await CommitRdmaWrite(fs, order, batch_len, /*qp_num=*/0,
                             /*stream=*/0);
    while (!fs->aborted && !OrderCommitted(fs, order)) {
      (void)co_await fs->commit_event->WaitFor(
          config_.shared_produce_hole_timeout * 4);
    }
    if (fs->aborted && !OrderCommitted(fs, order)) {
      co_return Status::Aborted("shared produce aborted");
    }
    co_return kafka::GetBaseOffset(seg->data() + pos);
  }
  co_return Status::ResourceExhausted("shared produce: rotation livelock");
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

void KafkaDirectBroker::SendCtrlBatch(uint32_t qp_num,
                                      std::span<const CtrlMsg> msgs) {
  auto it = rdma_qps_.find(qp_num);
  if (it == rdma_qps_.end()) return;
  // Chain the whole fan-out behind one doorbell; chunk so a burst never
  // exceeds the QP's send-queue capacity.
  constexpr size_t kChunk = 16;
  std::vector<rdma::WorkRequest> wrs;
  wrs.reserve(std::min(msgs.size(), kChunk));
  for (size_t i = 0; i < msgs.size(); i += kChunk) {
    wrs.clear();
    for (size_t j = i; j < std::min(msgs.size(), i + kChunk); j++) {
      rdma::WorkRequest wr;
      wr.opcode = rdma::Opcode::kSend;
      wr.signaled = false;
      wr.send_inline = true;
      msgs[j].EncodeTo(wr.inline_data);
      wr.length = kCtrlMsgSize;
      wrs.push_back(wr);
    }
    (void)it->second->PostSend(std::span<const rdma::WorkRequest>(wrs));
    rdma_acks_sent_ += wrs.size();
    kd_obs_.ctrl_msgs->Increment(wrs.size());
  }
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
// RDMA produce module (§4.2.2)
// ---------------------------------------------------------------------------

RdmaFileState* KafkaDirectBroker::CreateFileState(PartitionState& ps,
                                                  bool shared, bool replica) {
  auto fs = std::make_unique<RdmaFileState>();
  fs->file_id = next_file_id_++;
  if (next_file_id_ == 0) next_file_id_ = 1;  // 0 is reserved
  fs->ps = &ps;
  fs->seg_index = static_cast<int>(ps.log.segments().size()) - 1;
  fs->shared = shared;
  fs->replica = replica;
  fs->next_commit_pos = ps.log.head().size();
  fs->granted_epoch = ps.leader_epoch;
  fs->commit_event = std::make_unique<sim::Event>(sim_);
  kafka::Segment& seg = ps.log.head();
  fs->mr = rnic_.RegisterMemory(seg.data(), seg.capacity(),
                                rdma::kAccessRemoteWrite)
               .value();
  if (shared) {
    fs->atomic_word.resize(8);
    EncodeFixed64(fs->atomic_word.data(),
                  EncodeAtomicWord(0, fs->next_commit_pos));
    fs->atomic_mr = rnic_.RegisterMemory(fs->atomic_word.data(), 8,
                                         rdma::kAccessRemoteAtomic)
                        .value();
  }
  RdmaFileState* raw = fs.get();
  rdma_files_[fs->file_id] = std::move(fs);
  Ext(ps)->produce_file = replica ? Ext(ps)->produce_file : raw;
  return raw;
}

void KafkaDirectBroker::AbortFile(RdmaFileState* fs, ErrorCode error) {
  if (fs->aborted) return;
  fs->aborted = true;
  // Revoke remote access immediately (a faulty client must not touch the
  // file again, §4.2.2).
  if (fs->mr != nullptr) (void)rnic_.DeregisterMemory(fs->mr);
  if (fs->atomic_mr != nullptr) (void)rnic_.DeregisterMemory(fs->atomic_mr);
  if (config_.rdma_postlist) {
    // Group the abort fan-out by QP so each producer gets one chained
    // postlist instead of one doorbell per pending ack.
    std::map<uint32_t, std::vector<CtrlMsg>> by_qp;
    for (auto& [order, pending] : fs->pending) {
      if (pending.qp_num == 0) continue;
      CtrlMsg msg;
      msg.kind = CtrlKind::kProduceAck;
      msg.order = order;
      msg.error = static_cast<uint16_t>(error);
      msg.stream = pending.stream;
      by_qp[pending.qp_num].push_back(msg);
    }
    for (auto& [qp_num, msgs] : by_qp) {
      SendCtrlBatch(qp_num, msgs);
    }
  } else {
    for (auto& [order, pending] : fs->pending) {
      if (pending.qp_num != 0) {
        CtrlMsg msg;
        msg.kind = CtrlKind::kProduceAck;
        msg.order = order;
        msg.error = static_cast<uint16_t>(error);
        msg.stream = pending.stream;
        SendCtrl(pending.qp_num, msg);
      }
    }
  }
  fs->pending.clear();
  fs->commit_event->Pulse();
  KdPartitionExt* ext = Ext(*fs->ps);
  if (ext->produce_file == fs) ext->produce_file = nullptr;
}

sim::Co<void> KafkaDirectBroker::HandleProduceAccess(Request req) {
  kafka::RdmaProduceAccessRequest areq;
  kafka::RdmaProduceAccessResponse resp;
  if (!kafka::Decode(Slice(req.frame), &areq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  PartitionState* ps = GetPartition(areq.tp);
  if (ps == nullptr) {
    resp.error = ErrorCode::kUnknownTopicOrPartition;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!ps->is_leader || !config_.rdma_produce) {
    resp.error = config_.rdma_produce ? ErrorCode::kNotLeader
                                      : ErrorCode::kRdmaAccessDenied;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  KdPartitionExt* ext = Ext(*ps);
  RdmaFileState* fs = ext->produce_file;

  if (areq.stale_file_id != 0 && fs != nullptr &&
      fs->file_id == areq.stale_file_id && !fs->aborted) {
    // Head-file rotation: wait for claims already reserved inside the old
    // file to commit (up to the requester's observed end of in-range
    // claims), then seal and roll. A writer that claimed a region and then
    // stalls is eventually fenced like any other hole (§4.2.2).
    uint64_t target = std::min<uint64_t>(areq.rotate_target,
                                         ps->log.head().capacity());
    uint64_t last_progress = fs->next_commit_pos;
    int stalls = 0;
    while (!fs->aborted &&
           (fs->next_commit_pos < target || !fs->pending.empty())) {
      (void)co_await fs->commit_event->WaitFor(
          config_.shared_produce_hole_timeout);
      if (fs->next_commit_pos == last_progress) {
        if (++stalls >= 2) {
          AbortFile(fs, ErrorCode::kTimedOut);
          break;
        }
      } else {
        last_progress = fs->next_commit_pos;
        stalls = 0;
      }
    }
    bool was_shared = fs->shared;
    AbortFile(fs, ErrorCode::kNone);  // retire the old grant
    co_await ps->append_mu.Lock();
    ps->log.Roll();
    ps->append_mu.Unlock();
    OnRolled(*ps);
    fs = CreateFileState(*ps, was_shared, /*replica=*/false);
    fs->owner_qp = areq.broker_qp;
  } else if (fs == nullptr || fs->aborted) {
    fs = CreateFileState(*ps, /*shared=*/!areq.exclusive, /*replica=*/false);
    fs->owner_qp = areq.broker_qp;
    // mmap + ibv_reg_mr cost for the (preallocated) head file.
    co_await Work(rnic_.RegistrationCost(ps->log.head().capacity()));
  } else {
    // A grant already exists for the head file.
    if (areq.exclusive || !fs->shared) {
      // The broker never grants exclusive access to the same file to two
      // producers (§4.2.2), and never mixes modes.
      resp.error = ErrorCode::kRdmaAccessDenied;
      SendResponse(req.conn, Encode(resp));
      co_return;
    }
  }

  resp.error = ErrorCode::kNone;
  resp.file_id = fs->file_id;
  resp.addr = fs->mr->addr();
  resp.rkey = fs->mr->rkey();
  resp.capacity = ps->log.head().capacity();
  resp.write_pos = fs->next_commit_pos;
  resp.next_order = fs->next_expected_order;
  if (fs->shared) {
    resp.atomic_addr = fs->atomic_mr->addr();
    resp.atomic_rkey = fs->atomic_mr->rkey();
  }
  SendResponse(req.conn, Encode(resp));
}

sim::Co<void> KafkaDirectBroker::HandleRdmaProduceArrival(Request req) {
  auto it = rdma_files_.find(req.file_id);
  if (it == rdma_files_.end()) co_return;  // revoked or unknown: drop
  co_await CommitRdmaWrite(it->second.get(), req.order, req.byte_len,
                           req.qp_num, req.stream);
}

sim::Co<void> KafkaDirectBroker::CommitRdmaWrite(RdmaFileState* fs,
                                                 uint16_t order,
                                                 uint32_t byte_len,
                                                 uint32_t qp_num,
                                                 uint32_t stream) {
  if (fs->aborted) {
    if (qp_num != 0) {
      CtrlMsg msg;
      msg.kind = CtrlKind::kProduceAck;
      msg.order = order;
      msg.error = static_cast<uint16_t>(ErrorCode::kRdmaAccessDenied);
      msg.stream = stream;
      SendCtrl(qp_num, msg);
    }
    co_return;
  }
  if (config_.control_plane && !fs->replica &&
      (!fs->ps->is_leader || fs->ps->leader_epoch != fs->granted_epoch)) {
    // Leader-epoch fence on the zero-copy path (§15): the partition moved
    // (or this broker was demoted) after the grant; nothing from the stale
    // grant may commit — the producer must re-request at the new leader.
    if (qp_num != 0) {
      CtrlMsg msg;
      msg.kind = CtrlKind::kProduceAck;
      msg.order = order;
      msg.error = static_cast<uint16_t>(ErrorCode::kFencedLeaderEpoch);
      msg.stream = stream;
      SendCtrl(qp_num, msg);
    }
    AbortFile(fs, ErrorCode::kFencedLeaderEpoch);
    co_return;
  }
  if (order != fs->next_expected_order) {
    // Out-of-order arrival: request i must wait for request i-1 (§4.2.2).
    fs->pending[order] = RdmaFileState::PendingWrite{byte_len, qp_num,
                                                     stream};
    if (!fs->hole_watch_armed) {
      fs->hole_watch_armed = true;
      sim::Spawn(sim_, HoleWatchdog(fs, fs->next_expected_order));
    }
    co_return;
  }
  uint16_t cur_order = order;
  uint32_t cur_len = byte_len;
  uint32_t cur_qp = qp_num;
  uint32_t cur_stream = stream;
  while (true) {
    PartitionState* ps = fs->ps;
    kafka::Segment* seg = ps->log.segments()[fs->seg_index].get();
    uint64_t pos = fs->next_commit_pos;
    stats_.rdma_produce_requests++;
    // Verify the records already sitting in the file: fixed processing +
    // CRC32C — the only CPU the zero-copy path spends on data.
    co_await Work(cost().kafka.rdma_produce_process_ns);
    co_await Work(cost().CrcCost(cur_len));
    // Validate the written span. A produce write carries exactly one
    // batch; a push-replication write may carry several contiguous batches
    // merged by the leader's opportunistic batching (§4.3.2).
    bool valid = pos + cur_len <= seg->capacity();
    uint64_t scanned = 0;
    uint32_t count = 0;
    int64_t span_base = 0;
    int64_t expected_next = -1;
    while (valid && scanned < cur_len) {
      auto view_or = RecordBatchView::Parse(
          Slice(seg->data() + pos + scanned, cur_len - scanned));
      if (!view_or.ok()) {
        valid = false;
        break;
      }
      const RecordBatchView& view = view_or.value();
      if (!fs->replica && view.total_size() != cur_len) {
        valid = false;  // producers write one batch per request
        break;
      }
      if (scanned == 0) {
        span_base = view.base_offset();
      } else if (view.base_offset() != expected_next) {
        valid = false;  // replicated batches must be offset-contiguous
        break;
      }
      expected_next = view.last_offset() + 1;
      count += view.record_count();
      scanned += view.total_size();
    }
    valid = valid && scanned == cur_len;
    if (!valid) {
      // Integrity failure: abort and revoke (the producer must re-request
      // access, §4.2.2).
      if (cur_qp != 0) {
        CtrlMsg msg;
        msg.kind = CtrlKind::kProduceAck;
        msg.order = cur_order;
        msg.error = static_cast<uint16_t>(ErrorCode::kCorruptMessage);
        msg.stream = cur_stream;
        SendCtrl(cur_qp, msg);
      }
      AbortFile(fs, ErrorCode::kRdmaAccessDenied);
      co_return;
    }
    co_await ps->append_mu.Lock();
    int64_t base = ps->log.log_end_offset();
    if (fs->replica) {
      // Push replication: offsets were assigned by the leader and must
      // line up with this replica's log end.
      if (span_base != base) {
        ps->append_mu.Unlock();
        AbortFile(fs, ErrorCode::kInvalidRequest);
        co_return;
      }
    } else {
      kafka::SetBaseOffset(seg->data() + pos, base);
    }
    Status st = seg->CommitInPlace(pos, cur_len, count);
    ps->append_mu.Unlock();
    if (!st.ok()) {
      AbortFile(fs, ErrorCode::kInvalidRequest);
      co_return;
    }
    stats_.bytes_appended += cur_len;
    fs->next_commit_pos += cur_len;
    fs->next_expected_order++;
    fs->commit_event->Pulse();
    kd_obs_.produce_file_pos->Set(fs->next_commit_pos);
    flight_->Record(flight_shard_, sim_.Now(), obs::FlightEventType::kCommit,
                    fs->file_id, cur_len, fs->next_commit_pos);
    if (!fs->replica) {
      obs_.produce_bytes->Increment(cur_len);
      if (cur_qp != 0) {
        // Remote one-sided produce: the records were written straight into
        // the TP file by the client's RNIC — the broker copied nothing.
        kd_obs_.zero_copy_bytes->Increment(cur_len);
      } else {
        // Loopback write of a TCP produce (CommitBatch): the broker copied
        // the batch into the file.
        obs_.produce_copied_bytes->Increment(cur_len);
      }
    }

    if (fs->replica) {
      stats_.replication_writes++;
      if (config_.receiver_paced_credits) {
        PacedCreditOnCommit(fs, cur_qp);
      } else {
        GrantCredit(cur_qp, ps);
      }
    } else {
      OnAppended(*ps, pos, cur_len, base, count);
      ps->leo_advanced.Pulse();
      AdvanceHwm(ps);
      // Backpressure: never let the push-replication queues grow without
      // bound when producers outpace the replication worker.
      for (auto& session : Ext(*ps)->push_sessions) {
        while (session->queue->size() > 64) {
          co_await sim::Delay(sim_, 1000);
        }
      }
      if (cur_qp != 0) {
        if (mux_ != nullptr && cur_stream != 0) {
          // §14: the commit advances the stream's resync anchor, and the
          // ack about to go out returns the stream's notify credit.
          rdma::MuxStream* s = mux_->Find(cur_stream);
          if (s != nullptr) {
            mux_->RecordCommit(s);
            mux_->RefillCredit(s);
          }
        }
        int64_t required = base + count;
        if (ps->log.high_watermark() >= required) {
          CtrlMsg msg;
          msg.kind = CtrlKind::kProduceAck;
          msg.order = cur_order;
          msg.value = base;
          msg.stream = cur_stream;
          SendCtrl(cur_qp, msg);
        } else {
          sim::Spawn(sim_, AckWhenCommitted(ps, cur_qp, cur_order, base,
                                            required, cur_stream));
        }
      }
    }
    // Drain any unblocked out-of-order arrivals.
    auto next = fs->pending.find(fs->next_expected_order);
    if (next == fs->pending.end()) break;
    cur_order = next->first;
    cur_len = next->second.byte_len;
    cur_qp = next->second.qp_num;
    cur_stream = next->second.stream;
    fs->pending.erase(next);
  }
}

sim::Co<void> KafkaDirectBroker::AckWhenCommitted(PartitionState* ps,
                                                  uint32_t qp_num,
                                                  uint16_t order,
                                                  int64_t base,
                                                  int64_t required,
                                                  uint32_t stream) {
  const sim::TimeNs deadline = sim_.Now() + kafka::kProducePurgatoryTimeout;
  while (ps->log.high_watermark() < required) {
    const sim::TimeNs remaining = deadline - sim_.Now();
    if (remaining <= 0) {
      CtrlMsg msg;
      msg.kind = CtrlKind::kProduceAck;
      msg.order = order;
      msg.error = static_cast<uint16_t>(ErrorCode::kTimedOut);
      msg.stream = stream;
      SendCtrl(qp_num, msg);
      co_return;
    }
    (void)co_await ps->hwm_advanced.WaitFor(remaining);
  }
  CtrlMsg msg;
  msg.kind = CtrlKind::kProduceAck;
  msg.order = order;
  msg.value = base;
  msg.stream = stream;
  SendCtrl(qp_num, msg);
}

sim::Co<void> KafkaDirectBroker::HoleWatchdog(RdmaFileState* fs,
                                              uint16_t expected) {
  co_await sim::Delay(sim_, config_.shared_produce_hole_timeout);
  fs->hole_watch_armed = false;
  if (fs->aborted) co_return;
  if (fs->pending.empty()) co_return;
  if (fs->next_expected_order == expected) {
    // Request `expected` never arrived: abort all pending produce requests
    // and revoke RDMA access to the file (§4.2.2 hole prevention).
    AbortFile(fs, ErrorCode::kTimedOut);
    co_return;
  }
  // Progress was made but holes remain; re-arm.
  fs->hole_watch_armed = true;
  sim::Spawn(sim_, HoleWatchdog(fs, fs->next_expected_order));
}

// ---------------------------------------------------------------------------
// Push replication (§4.3.2)
// ---------------------------------------------------------------------------

void KafkaDirectBroker::OnAppended(PartitionState& ps, uint64_t pos,
                                   uint64_t len, int64_t base_offset,
                                   uint32_t record_count) {
  (void)base_offset;
  (void)record_count;
  if (!ps.is_leader || !config_.rdma_replicate) return;
  KdPartitionExt* ext = Ext(ps);
  int seg = static_cast<int>(ps.log.segments().size()) - 1;
  for (auto& session : ext->push_sessions) {
    session->queue->Push(ReplEntry{seg, pos, static_cast<uint32_t>(len)});
  }
}

void KafkaDirectBroker::StartPushReplication(
    const TopicPartitionId& tp, const std::vector<kafka::Broker*>& followers) {
  KD_CHECK(config_.rdma_replicate);
  for (kafka::Broker* follower : followers) {
    sim::Spawn(sim_, PushReplicatorLoop(tp, follower));
  }
}

sim::Co<Status> KafkaDirectBroker::PushHandshake(PushSession* session,
                                                 PartitionState* ps,
                                                 uint16_t stale_file_id) {
  kafka::ReplicaRdmaAccessRequest req;
  req.tp = session->tp;
  req.stale_file_id = stale_file_id;
  KD_CO_RETURN_IF_ERROR(co_await session->ctrl->Send(Encode(req), false));
  auto frame = co_await session->ctrl->Recv();
  if (!frame.ok()) co_return frame.status();
  kafka::ReplicaRdmaAccessResponse resp;
  KD_CO_RETURN_IF_ERROR(kafka::Decode(Slice(frame.value()), &resp));
  if (resp.error != ErrorCode::kNone) {
    co_return Status::Internal("replica access denied");
  }
  session->file_id = resp.file_id;
  session->remote_addr = resp.addr;
  session->rkey = resp.rkey;
  session->capacity = resp.capacity;
  session->next_order = 0;
  if (session->credits == nullptr || config_.receiver_paced_credits) {
    // A paced follower resets its credit window on every handshake, so
    // discard any stale permits to keep both sides' outstanding counts in
    // agreement. (Safe: only this coroutine ever waits on the semaphore,
    // and it is not waiting now.)
    session->credits = std::make_unique<sim::Semaphore>(sim_, resp.credits);
  }
  (void)ps;
  co_return Status::OK();
}

sim::Co<void> KafkaDirectBroker::PushReplicatorLoop(
    TopicPartitionId tp, kafka::Broker* follower_base) {
  auto* follower = dynamic_cast<KafkaDirectBroker*>(follower_base);
  KD_CHECK(follower != nullptr)
      << "push replication requires KafkaDirect followers";
  PartitionState* ps = GetPartition(tp);
  KD_CHECK(ps != nullptr && ps->is_leader);
  KdPartitionExt* ext = Ext(*ps);

  auto session = std::make_unique<PushSession>();
  PushSession* s = session.get();
  s->tp = tp;
  s->follower = follower;
  s->queue = std::make_unique<sim::Channel<ReplEntry>>(sim_);
  ext->push_sessions.push_back(std::move(session));

  // Control channel + RC QP to the follower.
  auto conn_or = co_await tcp_.Connect(node_, follower->node(), kafka::kKafkaPort);
  if (!conn_or.ok()) co_return;
  s->ctrl = conn_or.value();
  s->send_cq = rnic_.CreateCq();
  s->recv_cq = rnic_.CreateCq();
  // With the SRQ enabled, credit-return receives also come from the shared
  // pool — the replication QP just binds its own CQ for the drainer.
  s->qp = srq_ != nullptr ? rnic_.CreateQp(s->send_cq, s->recv_cq, srq_)
                          : rnic_.CreateQp(s->send_cq, s->recv_cq);
  auto accepted = co_await follower->AcceptRdma(s->qp);
  if (!accepted.ok()) co_return;
  // Receive buffers for credit-return messages (no-op when SRQ-attached).
  PostCtrlRecvs(s->qp, 512);
  Status hs = co_await PushHandshake(s, ps, 0);
  if (!hs.ok()) co_return;
  s->seg_index = static_cast<int>(ps->log.segments().size()) - 1;
  sim::Spawn(sim_, PushCreditDrainer(s, ps));

  int64_t last_hwm_sent = -1;
  while (true) {
    auto entry_opt = co_await s->queue->Pop();
    if (!entry_opt.has_value()) co_return;
    ReplEntry entry = *entry_opt;
    // Opportunistic batching: merge immediately-available contiguous
    // writes into one RDMA Write, up to the configured batch size. The
    // replicator never waits for more data (§4.3.2).
    while (entry.len < config_.replication_max_batch_bytes) {
      const ReplEntry* next = s->queue->PeekFront();
      if (next == nullptr || next->seg != entry.seg ||
          next->pos != entry.pos + entry.len ||
          entry.len + next->len > config_.replication_max_batch_bytes) {
        break;
      }
      entry.len += next->len;
      (void)s->queue->TryPop();
    }
    if (entry.seg != s->seg_index) {
      // The leader rolled its head file; roll the replica too.
      Status rot = co_await PushHandshake(s, ps, s->file_id);
      if (!rot.ok()) co_return;
      s->seg_index = entry.seg;
    }
    // Per-write CPU on the replication worker; while it is busy, more
    // contiguous entries queue up and get merged next round (§4.3.2).
    co_await sim::Delay(sim_, cost().kafka.replication_post_ns);
    while (entry.len < config_.replication_max_batch_bytes) {
      const ReplEntry* more = s->queue->PeekFront();
      if (more == nullptr || more->seg != entry.seg ||
          more->pos != entry.pos + entry.len ||
          entry.len + more->len > config_.replication_max_batch_bytes) {
        break;
      }
      entry.len += more->len;
      (void)s->queue->TryPop();
    }
    co_await s->credits->Acquire();
    kafka::Segment* seg = ps->log.segments()[entry.seg].get();
    rdma::WorkRequest wr;
    wr.opcode = rdma::Opcode::kWriteWithImm;
    wr.signaled = false;
    wr.local_addr = seg->data() + entry.pos;  // zero copy from the TP file
    wr.length = entry.len;
    wr.remote_addr = s->remote_addr + entry.pos;
    wr.rkey = s->rkey;
    wr.imm_data = EncodeImm(s->next_order++, s->file_id);
    while (true) {
      Status st;
      int64_t hwm_now = ps->log.high_watermark();
      if (config_.rdma_postlist && hwm_now != last_hwm_sent) {
        // Chain the data write and the HWM-update Send into one postlist:
        // both leave behind a single doorbell, and RC ordering still
        // delivers the Send after the write has landed.
        CtrlMsg msg;
        msg.kind = CtrlKind::kHwmUpdate;
        msg.value = hwm_now;
        msg.aux = s->file_id;
        rdma::WorkRequest chain[2];
        chain[0] = wr;
        chain[1].opcode = rdma::Opcode::kSend;
        chain[1].signaled = false;
        chain[1].send_inline = true;
        msg.EncodeTo(chain[1].inline_data);
        chain[1].length = kCtrlMsgSize;
        st = s->qp->PostSend(std::span<const rdma::WorkRequest>(chain, 2));
        if (st.ok()) last_hwm_sent = hwm_now;
      } else {
        st = s->qp->PostSend(wr);
      }
      if (st.ok()) break;
      if (st.IsDisconnected()) co_return;
      co_await sim::Delay(sim_, 1000);  // send queue full; retry shortly
    }
    stats_.replication_writes++;
    // Propagate our HWM so follower consumers/failover see commits.
    if (ps->log.high_watermark() != last_hwm_sent) {
      last_hwm_sent = ps->log.high_watermark();
      CtrlMsg msg;
      msg.kind = CtrlKind::kHwmUpdate;
      msg.value = last_hwm_sent;
      msg.aux = s->file_id;
      rdma::WorkRequest hwm_wr;
      hwm_wr.opcode = rdma::Opcode::kSend;
      hwm_wr.signaled = false;
      hwm_wr.send_inline = true;  // no retained buffer needed
      msg.EncodeTo(hwm_wr.inline_data);
      hwm_wr.length = kCtrlMsgSize;
      (void)s->qp->PostSend(hwm_wr);
    }
  }
}

sim::Co<void> KafkaDirectBroker::PushCreditDrainer(PushSession* session,
                                                   PartitionState* ps) {
  const size_t batch =
      static_cast<size_t>(std::max(1, config_.cq_poll_batch));
  std::vector<rdma::WorkCompletion> wcs(batch);
  while (true) {
    size_t n = co_await session->recv_cq->NextBatch(wcs.data(), batch);
    if (n == 0) {
      ReleaseQpRecvPool(session->qp->qp_num());
      co_return;
    }
    for (size_t i = 0; i < n; i++) {
      const rdma::WorkCompletion& wc = wcs[i];
      if (!wc.ok()) {
        ReleaseQpRecvPool(session->qp->qp_num());
        co_return;
      }
      if (wc.opcode != rdma::Opcode::kRecv) continue;
      uint8_t* buf = CtrlRecvBuf(wc);
      if (buf == nullptr) continue;
      CtrlMsg msg = CtrlMsg::DecodeFrom(buf);
      RepostCtrlRecv(wc, session->qp.get());
      if (msg.kind != CtrlKind::kCredit) continue;
      session->credits->Release(msg.aux);
      // The credit message carries the follower's log end offset.
      auto it = ps->follower_leo.find(session->follower->id());
      if (it != ps->follower_leo.end() && msg.value > it->second) {
        it->second = msg.value;
        AdvanceHwm(ps);
      }
    }
  }
}

sim::Co<void> KafkaDirectBroker::HandleReplicaAccess(Request req) {
  kafka::ReplicaRdmaAccessRequest areq;
  kafka::ReplicaRdmaAccessResponse resp;
  if (!kafka::Decode(Slice(req.frame), &areq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  PartitionState* ps = GetPartition(areq.tp);
  if (ps == nullptr || ps->is_leader) {
    resp.error = ErrorCode::kUnknownTopicOrPartition;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (areq.stale_file_id != 0) {
    auto it = rdma_files_.find(areq.stale_file_id);
    if (it != rdma_files_.end()) {
      AbortFile(it->second.get(), ErrorCode::kNone);
    }
    co_await ps->append_mu.Lock();
    ps->log.Roll();
    ps->append_mu.Unlock();
    OnRolled(*ps);
  }
  RdmaFileState* fs = CreateFileState(*ps, /*shared=*/false,
                                      /*replica=*/true);
  co_await Work(rnic_.RegistrationCost(ps->log.head().capacity()));
  resp.error = ErrorCode::kNone;
  resp.file_id = fs->file_id;
  resp.addr = fs->mr->addr();
  resp.rkey = fs->mr->rkey();
  resp.capacity = ps->log.head().capacity();
  resp.write_pos = fs->next_commit_pos;
  uint32_t credits = config_.push_replication_credits;
  if (config_.receiver_paced_credits) {
    // Receiver pacing (DESIGN.md §12): the initial window is capped below
    // this follower's posted ctrl-receive pool so the leader can never RNR
    // us, and the pacer re-sizes it from the observed commit drain rate.
    credits = std::min(credits, PacedCreditCap());
    fs->pacer.credits_outstanding = credits;
    kd_obs_.credits_outstanding->Set(static_cast<int64_t>(credits));
    sim::Spawn(sim_, CreditFlushLoop(fs));
  }
  resp.credits = credits;
  SendResponse(req.conn, Encode(resp));
}

void KafkaDirectBroker::GrantCredit(uint32_t qp_num, PartitionState* ps) {
  CtrlMsg msg;
  msg.kind = CtrlKind::kCredit;
  msg.aux = 1;
  msg.value = ps->log.log_end_offset();
  SendCtrl(qp_num, msg);
  flight_->Record(flight_shard_, sim_.Now(),
                  obs::FlightEventType::kCreditGrant, qp_num, 1,
                  static_cast<uint64_t>(msg.value));
}

uint32_t KafkaDirectBroker::PacedCreditCap() const {
  return static_cast<uint32_t>(kCtrlRecvsPerQp) * 3 / 4;
}

uint32_t KafkaDirectBroker::PacedTargetWindow(const RdmaFileState* fs) const {
  const uint32_t cap = PacedCreditCap();
  double drain_ns = fs->pacer.ewma_commit_interval_ns;
  if (drain_ns <= 0) return cap;  // no drain samples yet: open the window
  // The window must cover one grant round trip of drain at the observed
  // commit rate; 4x headroom absorbs poller batching and queueing jitter.
  double rtt_ns = 2.0 * cost().link.propagation_ns +
                  cost().cpu.poll_iteration_ns +
                  cost().kafka.replication_post_ns;
  auto target = static_cast<uint32_t>(std::ceil(4.0 * rtt_ns / drain_ns));
  return std::clamp<uint32_t>(target, 8, cap);
}

void KafkaDirectBroker::PacedCreditOnCommit(RdmaFileState* fs,
                                            uint32_t qp_num) {
  RdmaFileState::CreditPacer& p = fs->pacer;
  if (qp_num != 0) p.qp_num = qp_num;
  sim::TimeNs now = sim_.Now();
  if (p.last_commit_ns != 0) {
    auto interval = static_cast<double>(now - p.last_commit_ns);
    p.ewma_commit_interval_ns =
        p.ewma_commit_interval_ns <= 0
            ? interval
            : 0.75 * p.ewma_commit_interval_ns + 0.25 * interval;
  }
  p.last_commit_ns = now;
  if (p.credits_outstanding > 0) p.credits_outstanding--;
  kd_obs_.credits_outstanding->Set(
      static_cast<int64_t>(p.credits_outstanding));
  p.pending_grants++;
  // Batch grants (~a quarter window per credit message) but flush early
  // when the leader is close to running dry so throughput never stalls.
  uint32_t target = PacedTargetWindow(fs);
  bool leader_low = p.credits_outstanding * 2 < target;
  if (leader_low || p.pending_grants >= std::max<uint32_t>(1, target / 4)) {
    FlushPacedCredits(fs);
  }
}

void KafkaDirectBroker::FlushPacedCredits(RdmaFileState* fs) {
  RdmaFileState::CreditPacer& p = fs->pacer;
  if (p.qp_num == 0 || fs->aborted) return;
  uint32_t target = PacedTargetWindow(fs);
  uint32_t grant =
      p.credits_outstanding < target ? target - p.credits_outstanding : 0;
  // Seeded fault (BrokerConfig::fault_credit_overgrant): grant beyond the
  // pacer window so the monitor's credit invariant demonstrably fires.
  grant += config_.fault_credit_overgrant;
  int64_t leo = fs->ps->log.log_end_offset();
  if (grant == 0 && leo == p.last_leo_sent) {
    p.pending_grants = 0;  // window already full and the LEO is current
    return;
  }
  CtrlMsg msg;
  msg.kind = CtrlKind::kCredit;
  msg.aux = grant;  // leader Releases aux permits; 0 = LEO-only update
  msg.value = leo;
  SendCtrl(p.qp_num, msg);
  p.credits_outstanding += grant;
  kd_obs_.credits_outstanding->Set(
      static_cast<int64_t>(p.credits_outstanding));
  p.pending_grants = 0;
  p.last_leo_sent = leo;
  flight_->Record(flight_shard_, sim_.Now(),
                  obs::FlightEventType::kCreditGrant, p.qp_num, grant,
                  static_cast<uint64_t>(leo));
}

sim::Co<void> KafkaDirectBroker::CreditFlushLoop(RdmaFileState* fs) {
  const sim::TimeNs interval = config_.credit_flush_interval_ns > 0
                                   ? config_.credit_flush_interval_ns
                                   : 200 * 1000;
  // Exits on Shutdown() too: a dead broker has no follower left to pace.
  while (!fs->aborted && !shut_down_) {
    co_await sim::Delay(sim_, interval);
    if (fs->aborted || shut_down_) co_return;
    if (fs->pacer.pending_grants > 0 ||
        fs->ps->log.log_end_offset() != fs->pacer.last_leo_sent) {
      FlushPacedCredits(fs);
    }
  }
}

// ---------------------------------------------------------------------------
// Consume module (§4.4.2)
// ---------------------------------------------------------------------------

ConsumerSession* KafkaDirectBroker::SessionFor(
    const net::MessageStreamPtr& conn) {
  auto it = consumer_sessions_.find(conn.get());
  if (it != consumer_sessions_.end()) return it->second.get();
  std::unique_ptr<ConsumerSession> session;
  if (session_arena_ != nullptr) {
    int32_t slab = session_arena_->Alloc();
    if (slab >= 0) {
      // §14: O(1) — one slab pop under the arena's single MR instead of a
      // fresh per-session registration.
      session = std::make_unique<ConsumerSession>(
          *session_arena_, static_cast<uint32_t>(slab));
    }
  }
  if (session == nullptr) {
    session = std::make_unique<ConsumerSession>(rnic_);
  }
  ConsumerSession* raw = session.get();
  consumer_sessions_[conn.get()] = std::move(session);
  return raw;
}

uint64_t KafkaDirectBroker::ReadablePosition(PartitionState& ps,
                                             int seg_index) const {
  const kafka::Segment& seg = *ps.log.segments()[seg_index];
  int64_t hwm = ps.log.high_watermark();
  if (hwm <= seg.base_offset()) return 0;
  if (hwm >= seg.next_offset()) return seg.size();
  auto pos = seg.PositionOf(hwm);
  return pos.ok() ? pos.value() : seg.size();
}

void KafkaDirectBroker::UpdateConsumeSlots(PartitionState& ps) {
  KdPartitionExt* ext = Ext(ps);
  for (ConsumeGrant* grant : ext->consume_grants) {
    if (grant->slot_index < 0) continue;
    auto* session = static_cast<ConsumerSession*>(grant->session);
    const kafka::Segment& seg = *ps.log.segments()[grant->seg_index];
    uint64_t readable = ReadablePosition(ps, grant->seg_index);
    WriteSlot(session->slot(grant->slot_index), readable, !seg.sealed());
    kd_obs_.notifications->Increment();
    flight_->Record(flight_shard_, sim_.Now(),
                    obs::FlightEventType::kNotification,
                    static_cast<uint32_t>(grant->slot_index), 0, readable);
  }
}

void KafkaDirectBroker::OnHwmAdvanced(PartitionState& ps) {
  if (config_.rdma_consume) UpdateConsumeSlots(ps);
}

void KafkaDirectBroker::OnRolled(PartitionState& ps) {
  if (config_.rdma_consume) UpdateConsumeSlots(ps);
}

void KafkaDirectBroker::OnLeadershipChanged(PartitionState& ps,
                                            bool is_leader) {
  if (is_leader) {
    // Newly promoted: consumers re-subscribing here get fresh grants from
    // current state; nothing to fence.
    if (config_.rdma_consume) UpdateConsumeSlots(ps);
    return;
  }
  // Demoted: fence every zero-copy handle on this partition.
  KdPartitionExt* ext = Ext(ps);
  if (ext->produce_file != nullptr) {
    AbortFile(ext->produce_file, ErrorCode::kNotLeader);
  }
  for (auto& [ref, grant] : ring_grants_) {
    if (grant->ps == &ps) grant->closed = true;
  }
}

sim::Co<void> KafkaDirectBroker::HandleConsumeAccess(Request req) {
  kafka::RdmaConsumeAccessRequest areq;
  kafka::RdmaConsumeAccessResponse resp;
  if (!kafka::Decode(Slice(req.frame), &areq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  PartitionState* ps = GetPartition(areq.tp);
  if (ps == nullptr) {
    resp.error = ErrorCode::kUnknownTopicOrPartition;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!ps->is_leader || !config_.rdma_consume) {
    resp.error = config_.rdma_consume ? ErrorCode::kNotLeader
                                      : ErrorCode::kRdmaAccessDenied;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  int64_t leo = ps->log.log_end_offset();
  if (areq.offset < 0 || areq.offset > leo) {
    resp.error = ErrorCode::kOffsetOutOfRange;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  int seg_index;
  if (areq.offset == leo) {
    seg_index = static_cast<int>(ps->log.segments().size()) - 1;
  } else {
    seg_index = ps->log.SegmentIndexFor(areq.offset);
    if (seg_index < 0) {
      resp.error = ErrorCode::kOffsetOutOfRange;
      SendResponse(req.conn, Encode(resp));
      co_return;
    }
  }
  kafka::Segment& seg = *ps->log.segments()[seg_index];
  uint64_t start_pos;
  if (areq.offset >= seg.next_offset()) {
    start_pos = seg.size();
  } else {
    auto pos_or = seg.PositionOf(areq.offset);
    start_pos = pos_or.ok() ? pos_or.value() : seg.size();
  }
  // Map the file and register it with the RNIC (mmap + ibv_reg_mr).
  co_await Work(rnic_.RegistrationCost(seg.capacity()));
  auto mr_or = rnic_.RegisterMemory(seg.data(), seg.capacity(),
                                    rdma::kAccessRemoteRead);
  if (!mr_or.ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  auto grant = std::make_unique<ConsumeGrant>();
  grant->file_ref = next_file_ref_++;
  grant->ps = ps;
  grant->seg_index = seg_index;
  grant->mr = mr_or.value();

  resp.error = ErrorCode::kNone;
  resp.file_ref = grant->file_ref;
  resp.addr = grant->mr->addr();
  resp.rkey = grant->mr->rkey();
  resp.start_pos = start_pos;
  resp.start_offset = areq.offset;
  resp.last_readable = ReadablePosition(*ps, seg_index);
  resp.is_mutable = !seg.sealed();
  if (resp.is_mutable) {
    ConsumerSession* session = SessionFor(req.conn);
    int32_t slot = session->AllocSlot();
    if (slot < 0) {
      resp.error = ErrorCode::kRdmaAccessDenied;  // out of slots
      SendResponse(req.conn, Encode(resp));
      co_return;
    }
    grant->session = session;
    grant->slot_index = slot;
    WriteSlot(session->slot(slot), resp.last_readable, true);
    resp.slot_index = static_cast<uint32_t>(slot);
    resp.slot_region_addr = session->region_addr();
    resp.slot_rkey = session->region_rkey();
  }
  Ext(*ps)->consume_grants.push_back(grant.get());
  consume_grants_[grant->file_ref] = std::move(grant);
  SendResponse(req.conn, Encode(resp));
}

// ---------------------------------------------------------------------------
// Ring-buffer consume protocol (DESIGN.md §12)
// ---------------------------------------------------------------------------

sim::Co<void> KafkaDirectBroker::HandleRingConsumeAccess(Request req) {
  kafka::RdmaRingConsumeAccessRequest areq;
  kafka::RdmaRingConsumeAccessResponse resp;
  if (!kafka::Decode(Slice(req.frame), &areq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  PartitionState* ps = GetPartition(areq.tp);
  if (ps == nullptr) {
    resp.error = ErrorCode::kUnknownTopicOrPartition;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!ps->is_leader || !config_.rdma_consume ||
      !config_.rdma_ring_consume) {
    resp.error = !ps->is_leader ? ErrorCode::kNotLeader
                                : ErrorCode::kRdmaAccessDenied;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (areq.ring_capacity == 0 ||
      rdma_qps_.find(areq.broker_qp) == rdma_qps_.end()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  int64_t leo = ps->log.log_end_offset();
  if (areq.offset < 0 || areq.offset > leo) {
    resp.error = ErrorCode::kOffsetOutOfRange;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  int seg_index;
  if (areq.offset == leo) {
    seg_index = static_cast<int>(ps->log.segments().size()) - 1;
  } else {
    seg_index = ps->log.SegmentIndexFor(areq.offset);
    if (seg_index < 0) {
      resp.error = ErrorCode::kOffsetOutOfRange;
      SendResponse(req.conn, Encode(resp));
      co_return;
    }
  }
  kafka::Segment& seg = *ps->log.segments()[seg_index];
  uint64_t start_pos;
  if (areq.offset >= seg.next_offset()) {
    start_pos = seg.size();
  } else {
    auto pos_or = seg.PositionOf(areq.offset);
    start_pos = pos_or.ok() ? pos_or.value() : seg.size();
  }
  auto grant = std::make_unique<RingConsumeGrant>();
  grant->grant_ref = next_file_ref_++;
  grant->ps = ps;
  grant->qp_num = areq.broker_qp;
  grant->seg_index = seg_index;
  grant->read_pos = start_pos;
  grant->ring_addr = areq.ring_addr;
  grant->ring_rkey = areq.ring_rkey;
  grant->ring_capacity = areq.ring_capacity;
  grant->tail_addr = areq.tail_addr;
  grant->tail_rkey = areq.tail_rkey;
  // Only the 8-byte head word is registered broker-side: the push source
  // is the broker's own TP file, read with plain loads, and the ring/tail
  // MRs live on the consumer.
  grant->head_word.assign(8, 0);
  co_await Work(rnic_.RegistrationCost(grant->head_word.size()));
  auto mr_or = rnic_.RegisterMemory(grant->head_word.data(),
                                    grant->head_word.size(),
                                    rdma::kAccessRemoteWrite);
  if (!mr_or.ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  grant->head_mr = mr_or.value();
  resp.error = ErrorCode::kNone;
  resp.grant_ref = grant->grant_ref;
  resp.start_offset = areq.offset;
  resp.head_addr = grant->head_mr->addr();
  resp.head_rkey = grant->head_mr->rkey();
  RingConsumeGrant* raw = grant.get();
  ring_grants_[raw->grant_ref] = std::move(grant);
  sim::Spawn(sim_, RingPushLoop(raw));
  SendResponse(req.conn, Encode(resp));
}

sim::Co<void> KafkaDirectBroker::RingPushLoop(RingConsumeGrant* g) {
  PartitionState* ps = g->ps;
  const uint64_t tail_every = config_.ring_tail_interval_bytes > 0
                                  ? config_.ring_tail_interval_bytes
                                  : 16 * 1024;
  uint64_t since_tail = 0;
  while (!g->closed) {
    auto qp_it = rdma_qps_.find(g->qp_num);
    if (qp_it == rdma_qps_.end()) break;  // consumer disconnected
    std::shared_ptr<rdma::QueuePair> qp = qp_it->second;
    uint64_t readable = ReadablePosition(*ps, g->seg_index);
    while (!g->closed && g->read_pos < readable) {
      // Ring space from the consumer's one-sided head write-backs; chunks
      // never wrap so each push is a single contiguous Write.
      uint64_t consumed = DecodeFixed64(g->head_word.data());
      uint64_t space = g->ring_capacity - (g->pushed - consumed);
      uint64_t ring_off = g->pushed % g->ring_capacity;
      uint64_t chunk = std::min({readable - g->read_pos, space,
                                 g->ring_capacity - ring_off});
      if (chunk == 0) break;  // ring full: wait for the consumer to drain
      kafka::Segment* seg = ps->log.segments()[g->seg_index].get();
      rdma::WorkRequest wr;
      wr.opcode = rdma::Opcode::kWrite;
      wr.signaled = false;
      wr.local_addr = seg->data() + g->read_pos;  // zero copy from TP file
      wr.length = static_cast<uint32_t>(chunk);
      wr.remote_addr = g->ring_addr + ring_off;
      wr.rkey = g->ring_rkey;
      Status st = qp->PostSend(wr);
      if (st.IsResourceExhausted()) {
        co_await sim::Delay(sim_, 1000);  // send queue full; retry shortly
        continue;
      }
      if (!st.ok()) {
        g->closed = true;
        break;
      }
      g->read_pos += chunk;
      g->pushed += chunk;
      since_tail += chunk;
      kd_obs_.ring_pushed_bytes->Increment(chunk);
      flight_->Record(flight_shard_, sim_.Now(),
                      obs::FlightEventType::kRingPush, g->grant_ref,
                      static_cast<uint32_t>(chunk), g->pushed);
      if (since_tail >= tail_every) {
        PublishRingTail(g, qp.get());
        since_tail = 0;
      }
      // Per-push CPU on the broker's pusher, mirroring the replication
      // worker's post cost.
      co_await sim::Delay(sim_, cost().kafka.replication_post_ns);
      readable = ReadablePosition(*ps, g->seg_index);
    }
    if (g->closed) break;
    // Roll to the next segment once this one is sealed and fully pushed.
    kafka::Segment* seg = ps->log.segments()[g->seg_index].get();
    if (seg->sealed() && g->read_pos >= seg->size() &&
        g->seg_index + 1 < static_cast<int>(ps->log.segments().size())) {
      g->seg_index++;
      g->read_pos = 0;
      continue;
    }
    // Idle (caught up, or the ring is full): publish any partial tail so
    // the consumer sees what has landed, then wait for new commits or for
    // the consumer's head to advance.
    if (g->pushed != g->published_tail) {
      PublishRingTail(g, qp.get());
      since_tail = 0;
    }
    if (g->read_pos < ReadablePosition(*ps, g->seg_index)) {
      co_await sim::Delay(sim_, cost().cpu.poll_iteration_ns);
    } else {
      (void)co_await ps->hwm_advanced.WaitFor(5 * 1000 * 1000);
    }
  }
  (void)rnic_.DeregisterMemory(g->head_mr);
  ring_grants_.erase(g->grant_ref);  // destroys g
}

void KafkaDirectBroker::PublishRingTail(RingConsumeGrant* g,
                                        rdma::QueuePair* qp) {
  rdma::WorkRequest wr;
  wr.opcode = rdma::Opcode::kWrite;
  wr.signaled = false;
  wr.send_inline = true;
  EncodeFixed64(wr.inline_data, g->pushed);
  wr.length = 8;
  wr.remote_addr = g->tail_addr;
  wr.rkey = g->tail_rkey;
  if (qp->PostSend(wr).ok()) {
    g->published_tail = g->pushed;
    // The tail write is the ring protocol's entire notification traffic:
    // one counter tick per publish, amortized over many records.
    kd_obs_.notifications->Increment();
    flight_->Record(flight_shard_, sim_.Now(),
                    obs::FlightEventType::kNotification, g->grant_ref, 1,
                    g->pushed);
  }
}

CommitSlot* KafkaDirectBroker::GetOrCreateCommitSlot(
    PartitionState& ps, const std::string& group) {
  KdPartitionExt* ext = Ext(ps);
  auto it = ext->commit_slots.find(group);
  if (it != ext->commit_slots.end()) return it->second.get();
  auto slot = std::make_unique<CommitSlot>();
  slot->value.resize(8);
  EncodeFixed64(slot->value.data(), static_cast<uint64_t>(int64_t{-1}));
  slot->mr = rnic_.RegisterMemory(slot->value.data(), 8,
                                  rdma::kAccessRemoteWrite |
                                      rdma::kAccessRemoteRead)
                 .value();
  CommitSlot* raw = slot.get();
  ext->commit_slots[group] = std::move(slot);
  return raw;
}

sim::Co<void> KafkaDirectBroker::HandleCommitAccess(Request req) {
  kafka::RdmaCommitAccessRequest areq;
  kafka::RdmaCommitAccessResponse resp;
  if (!kafka::Decode(Slice(req.frame), &areq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  PartitionState* ps = GetPartition(areq.tp);
  if (ps == nullptr || !ps->is_leader) {
    resp.error = ps == nullptr ? ErrorCode::kUnknownTopicOrPartition
                               : ErrorCode::kNotLeader;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  CommitSlot* slot = GetOrCreateCommitSlot(*ps, areq.group);
  // Seed the slot with any offset committed over TCP before the upgrade.
  auto it = ps->committed_offsets.find(areq.group);
  if (it != ps->committed_offsets.end()) {
    EncodeFixed64(slot->value.data(), static_cast<uint64_t>(it->second));
  }
  resp.error = ErrorCode::kNone;
  resp.slot_addr = slot->mr->addr();
  resp.slot_rkey = slot->mr->rkey();
  SendResponse(req.conn, Encode(resp));
}

sim::Co<void> KafkaDirectBroker::HandleCommitOffset(Request req) {
  // Keep the RDMA slot coherent when legacy TCP commits arrive.
  kafka::CommitOffsetRequest creq;
  if (kafka::Decode(Slice(req.frame), &creq).ok()) {
    PartitionState* ps = GetPartition(creq.tp);
    if (ps != nullptr) {
      KdPartitionExt* ext = Ext(*ps);
      auto it = ext->commit_slots.find(creq.group);
      if (it != ext->commit_slots.end()) {
        EncodeFixed64(it->second->value.data(),
                      static_cast<uint64_t>(creq.offset));
      }
    }
  }
  co_await Broker::HandleCommitOffset(std::move(req));
}

sim::Co<void> KafkaDirectBroker::HandleFetchCommittedOffset(Request req) {
  kafka::FetchCommittedOffsetRequest creq;
  if (kafka::Decode(Slice(req.frame), &creq).ok()) {
    PartitionState* ps = GetPartition(creq.tp);
    if (ps != nullptr) {
      KdPartitionExt* ext = Ext(*ps);
      auto it = ext->commit_slots.find(creq.group);
      if (it != ext->commit_slots.end()) {
        // The slot is authoritative once RDMA commits are enabled: the
        // broker reads the memory the consumers write one-sidedly.
        kafka::FetchCommittedOffsetResponse resp;
        resp.offset = static_cast<int64_t>(
            DecodeFixed64(it->second->value.data()));
        co_await Work(cost().kafka.fetch_process_ns);
        SendResponse(req.conn, Encode(resp));
        co_return;
      }
    }
  }
  co_await Broker::HandleFetchCommittedOffset(std::move(req));
}

sim::Co<void> KafkaDirectBroker::HandleUnregister(Request req) {
  kafka::RdmaUnregisterRequest ureq;
  kafka::RdmaUnregisterResponse resp;
  if (!kafka::Decode(Slice(req.frame), &ureq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  auto ring_it = ring_grants_.find(ureq.file_ref);
  if (ring_it != ring_grants_.end()) {
    // The push loop owns teardown; it wakes, sees `closed`, and erases.
    ring_it->second->closed = true;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  auto it = consume_grants_.find(ureq.file_ref);
  if (it == consume_grants_.end()) {
    resp.error = ErrorCode::kInvalidRequest;
    SendResponse(req.conn, Encode(resp));
    co_return;
  }
  ConsumeGrant* grant = it->second.get();
  if (grant->slot_index >= 0) {
    static_cast<ConsumerSession*>(grant->session)
        ->FreeSlot(grant->slot_index);
  }
  std::erase(Ext(*grant->ps)->consume_grants, grant);
  (void)rnic_.DeregisterMemory(grant->mr);
  consume_grants_.erase(it);
  SendResponse(req.conn, Encode(resp));
}

// ---------------------------------------------------------------------------
// §14 million-client connection architecture
// ---------------------------------------------------------------------------

void KafkaDirectBroker::HandleMuxOpen(const CtrlMsg& msg, uint32_t qp_num) {
  uint32_t count = std::max<uint32_t>(1, msg.aux);
  CtrlMsg grant;
  grant.kind = CtrlKind::kMuxGrant;
  grant.stream = msg.stream;
  if (mux_ == nullptr || msg.stream == 0) {
    // Stream 0 is the reserved unmuxed id; opens for it are malformed.
    grant.error = static_cast<uint16_t>(
        mux_ == nullptr ? ErrorCode::kRdmaAccessDenied
                        : ErrorCode::kInvalidRequest);
    SendCtrl(qp_num, grant);
    return;
  }
  uint32_t admitted = 0;
  uint64_t first_committed = 0;
  for (uint32_t i = 0; i < count; i++) {
    rdma::MuxStream* s = nullptr;
    if (mux_->Open(msg.stream + i, qp_num, &s) ==
        rdma::QpMux::OpenResult::kRejected) {
      break;
    }
    if (i == 0) first_committed = s->committed;
    admitted++;
  }
  if (adm_obs_.admitted != nullptr) {
    if (admitted > 0) adm_obs_.admitted->Increment(admitted);
    if (admitted < count) adm_obs_.rejected->Increment(count - admitted);
    adm_obs_.active->Set(static_cast<int64_t>(mux_->active()));
  }
  grant.aux = admitted;  // contiguous prefix [stream, stream+admitted)
  grant.order = static_cast<uint16_t>(mux_->stream_credits());
  if (admitted == count) {
    // Single-stream reopen (the lazy-reconnect path) replays the stream's
    // committed count so the client can resolve its unacked records
    // exactly-once; bulk opens get a plain full-admission grant.
    grant.value = count == 1 ? static_cast<int64_t>(first_committed) : 0;
  } else {
    // Admission control: don't stall the client, tell it when to retry
    // (§14). Without the flag the rejection is still explicit, just
    // without a pacing hint.
    grant.error = static_cast<uint16_t>(ErrorCode::kResourceExhausted);
    grant.value = config_.admission_control
                      ? static_cast<int64_t>(config_.admission_retry_after_ns)
                      : 0;
  }
  SendCtrl(qp_num, grant);
}

void KafkaDirectBroker::HandleMuxClose(const CtrlMsg& msg, uint32_t qp_num) {
  (void)qp_num;  // close is idempotent and unacknowledged
  if (mux_ == nullptr || msg.stream == 0) return;
  uint32_t count = std::max<uint32_t>(1, msg.aux);
  for (uint32_t i = 0; i < count; i++) {
    (void)mux_->Close(msg.stream + i);
  }
  if (adm_obs_.active != nullptr) {
    adm_obs_.active->Set(static_cast<int64_t>(mux_->active()));
  }
}

void KafkaDirectBroker::OnCacheEvict(uint32_t qp_num,
                                     std::shared_ptr<rdma::QueuePair> qp) {
  // Detach before disconnecting so the streams' committed counts survive
  // as reconnect anchors; the QP failure watcher handles the rest of the
  // teardown (file aborts, receive-pool recycling) exactly as it would
  // for a client that died on its own.
  if (mux_ != nullptr) mux_->DetachQp(qp_num);
  qp->Disconnect();
}

bool KafkaDirectBroker::EvictQp(uint32_t qp_num) {
  auto it = rdma_qps_.find(qp_num);
  if (it == rdma_qps_.end()) return false;
  std::shared_ptr<rdma::QueuePair> qp = it->second;
  if (conn_cache_ != nullptr) conn_cache_->Erase(qp_num);
  OnCacheEvict(qp_num, std::move(qp));
  return true;
}

uint64_t KafkaDirectBroker::mux_meta_peak_bytes() const {
  uint64_t bytes = 0;
  if (meta_arena_ != nullptr) bytes += meta_arena_->peak_used_bytes();
  if (session_arena_ != nullptr) bytes += session_arena_->peak_used_bytes();
  return bytes;
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
