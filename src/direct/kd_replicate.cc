#include "direct/kd_broker.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;
using kafka::PartitionState;
using kafka::TopicPartitionId;

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
      Status st = s->qp->PostSend(wr);
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
  // Idle flush interval for batched grants: bounds LEO/HWM propagation
  // delay when the drain pauses.
  constexpr sim::TimeNs kCreditFlushInterval = 200 * 1000;  // 200 us
  // Exits on Shutdown() too: a dead broker has no follower left to pace.
  while (!fs->aborted && !shut_down_) {
    co_await sim::Delay(sim_, kCreditFlushInterval);
    if (fs->aborted || shut_down_) co_return;
    if (fs->pacer.pending_grants > 0 ||
        fs->ps->log.log_end_offset() != fs->pacer.last_leo_sent) {
      FlushPacedCredits(fs);
    }
  }
}

}  // namespace kd
}  // namespace kafkadirect
