#include "rdma/queue_pair.h"

#include <algorithm>
#include <cstring>

#include "common/byte_order.h"
#include "rdma/rnic.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace rdma {

namespace {
uint32_t NextQpNum() {
  static uint32_t next = 1;
  return next++;
}

bool IsAtomic(Opcode op) {
  return op == Opcode::kCompSwap || op == Opcode::kFetchAdd;
}

bool CanInline(Opcode op) {
  return op == Opcode::kSend || op == Opcode::kWrite ||
         op == Opcode::kWriteWithImm;
}

/// Source bytes of a send/write payload: the WR's own inline copy when
/// IBV_SEND_INLINE was used, the caller's buffer otherwise.
const uint8_t* SendSource(const WorkRequest& wr) {
  return wr.send_inline ? wr.inline_data : wr.local_addr;
}

/// Trace span names per opcode (string literals; the tracer stores
/// pointers, never copies).
const char* SpanName(Opcode op) {
  switch (op) {
    case Opcode::kSend: return "rdma.Send";
    case Opcode::kWrite: return "rdma.Write";
    case Opcode::kWriteWithImm: return "rdma.WriteWithImm";
    case Opcode::kRead: return "rdma.Read";
    case Opcode::kCompSwap: return "rdma.CompSwap";
    case Opcode::kFetchAdd: return "rdma.FetchAdd";
    default: return "rdma.op";
  }
}
}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kSend: return "Send";
    case Opcode::kWrite: return "Write";
    case Opcode::kWriteWithImm: return "WriteWithImm";
    case Opcode::kRead: return "Read";
    case Opcode::kCompSwap: return "CompSwap";
    case Opcode::kFetchAdd: return "FetchAdd";
    case Opcode::kRecv: return "Recv";
    case Opcode::kRecvWithImm: return "RecvWithImm";
  }
  return "?";
}

const char* WcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess: return "Success";
    case WcStatus::kLocalError: return "LocalError";
    case WcStatus::kRemoteAccessError: return "RemoteAccessError";
    case WcStatus::kRnrRetryExceeded: return "RnrRetryExceeded";
    case WcStatus::kWrFlushed: return "WrFlushed";
  }
  return "?";
}

void CompletionQueue::Push(const WorkCompletion& wc) {
  if (error_) return;
  if (static_cast<int>(cqes_.size()) >= capacity_) {
    // Verbs CQ overflow: fatal for every QP using this CQ.
    error_ = true;
    auto qps = qps_;  // Fail() mutates attachment lists
    for (QueuePair* qp : qps) qp->FailFromCq();
    arrival_.Pulse();
    return;
  }
  cqes_.push_back(wc);
  total_++;
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(cqes_.size()));
  }
  arrival_.Pulse();
}

void CompletionQueue::DetachQp(QueuePair* qp) {
  std::erase(qps_, qp);
}

QueuePair::QueuePair(Rnic* rnic, std::shared_ptr<CompletionQueue> send_cq,
                     std::shared_ptr<CompletionQueue> recv_cq,
                     std::shared_ptr<SharedReceiveQueue> srq)
    : rnic_(rnic),
      sim_(rnic->simulator()),
      cost_(rnic->cost()),
      send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)),
      qp_num_(NextQpNum()),
      send_ch_(rnic->simulator()),
      deliveries_(rnic->simulator()),
      srq_(std::move(srq)),
      error_event_(rnic->simulator()) {
  send_cq_->AttachQp(this);
  if (recv_cq_ != send_cq_) recv_cq_->AttachQp(this);
  // Metric registration (allocates) happens once here; PostSend/PostRecv
  // only bump the resulting pointers.
  obs::Observability& ob = rnic->fabric().obs();
  const std::string prefix = "kd.rdma.qp." + std::to_string(qp_num_) + ".";
  qp_counters_.send = ob.metrics.GetCounter(prefix + "send");
  qp_counters_.write = ob.metrics.GetCounter(prefix + "write");
  qp_counters_.read = ob.metrics.GetCounter(prefix + "read");
  qp_counters_.atomic = ob.metrics.GetCounter(prefix + "atomic");
  qp_counters_.recv = ob.metrics.GetCounter(prefix + "recv");
  qp_counters_.inline_sends = ob.metrics.GetCounter(prefix + "inline_sends");
  qp_counters_.bytes = ob.metrics.GetCounter(prefix + "bytes");
  agg_counters_.send = ob.metrics.GetCounter("kd.rdma.ops.send");
  agg_counters_.write = ob.metrics.GetCounter("kd.rdma.ops.write");
  agg_counters_.read = ob.metrics.GetCounter("kd.rdma.ops.read");
  agg_counters_.atomic = ob.metrics.GetCounter("kd.rdma.ops.atomic");
  agg_counters_.recv = ob.metrics.GetCounter("kd.rdma.ops.recv");
  agg_counters_.inline_sends = ob.metrics.GetCounter("kd.rdma.inline_sends");
  agg_counters_.bytes = ob.metrics.GetCounter("kd.rdma.bytes_posted");
  sig_counters_.wrs_posted = ob.metrics.GetCounter("kd.rdma.wrs_posted");
  sig_counters_.wrs_signaled = ob.metrics.GetCounter("kd.rdma.wrs_signaled");
  sig_counters_.doorbells = ob.metrics.GetCounter("kd.rdma.doorbells");
  sig_counters_.cqes = ob.metrics.GetCounter("kd.rdma.cqes");
  sig_counters_.rnr_events = ob.metrics.GetCounter("kd.rdma.rnr_events");
  flight_ = &ob.flight;
  flight_shard_ = sim_.shard_id();
  tracer_ = &ob.tracer;
  if (tracer_->enabled()) {
    trace_track_ =
        tracer_->DefineTrack("rdma", "qp-" + std::to_string(qp_num_));
  }
}

QueuePair::~QueuePair() {
  send_cq_->DetachQp(this);
  if (recv_cq_ != send_cq_) recv_cq_->DetachQp(this);
}

Status QueuePair::PostSend(const WorkRequest& wr) {
  if (state_ != State::kConnected) {
    return Status::Disconnected("PostSend: QP not connected");
  }
  if (outstanding_ >= static_cast<size_t>(rnic_->cost().rdma.max_send_wr)) {
    return Status::ResourceExhausted("PostSend: send queue full");
  }
  if (IsAtomic(wr.opcode)) {
    if (wr.remote_addr % 8 != 0) {
      return Status::InvalidArgument("atomic target must be 8-byte aligned");
    }
  }
  WorkRequest queued = wr;
  if (queued.send_inline) {
    if (!CanInline(queued.opcode)) {
      return Status::InvalidArgument("inline only valid for sends/writes");
    }
    if (queued.length > WorkRequest::kMaxInlineData) {
      return Status::InvalidArgument("inline payload too large");
    }
    // Capture the payload now — this is the point of IBV_SEND_INLINE: the
    // caller's buffer is free for reuse as soon as PostSend returns.
    if (queued.length > 0 && wr.local_addr != nullptr) {
      std::memcpy(queued.inline_data, wr.local_addr, queued.length);
    }
    queued.local_addr = nullptr;
  }
  switch (queued.opcode) {
    case Opcode::kSend:
      qp_counters_.send->Increment();
      agg_counters_.send->Increment();
      break;
    case Opcode::kWrite:
    case Opcode::kWriteWithImm:
      qp_counters_.write->Increment();
      agg_counters_.write->Increment();
      break;
    case Opcode::kRead:
      qp_counters_.read->Increment();
      agg_counters_.read->Increment();
      break;
    case Opcode::kCompSwap:
    case Opcode::kFetchAdd:
      qp_counters_.atomic->Increment();
      agg_counters_.atomic->Increment();
      break;
    default:
      break;
  }
  if (queued.send_inline) {
    qp_counters_.inline_sends->Increment();
    agg_counters_.inline_sends->Increment();
  }
  qp_counters_.bytes->Increment(queued.length);
  agg_counters_.bytes->Increment(queued.length);
  sig_counters_.wrs_posted->Increment();
  if (queued.signaled) sig_counters_.wrs_signaled->Increment();
  sig_counters_.doorbells->Increment();
  flight_->Record(flight_shard_, sim_.Now(), obs::FlightEventType::kVerbPosted,
                  qp_num_, static_cast<uint32_t>(queued.opcode),
                  queued.length);
  // Async span: post -> fabric -> initiator completion. Ends in
  // CompleteInitiator when the CQE (or flush) is delivered.
  queued.span_id = tracer_->AsyncBegin(trace_track_, SpanName(queued.opcode));
  outstanding_++;
  send_ch_.Push(std::move(queued));
  return Status::OK();
}

Status QueuePair::PostRecv(uint64_t wr_id, uint8_t* buf, uint32_t len) {
  if (state_ == State::kError) {
    return Status::Disconnected("PostRecv: QP in error state");
  }
  if (srq_ != nullptr) {
    return Status::InvalidArgument(
        "PostRecv: QP uses an SRQ; post to the SRQ instead");
  }
  if (recvs_.size() >= static_cast<size_t>(rnic_->cost().rdma.max_recv_wr)) {
    return Status::ResourceExhausted("PostRecv: receive queue full");
  }
  qp_counters_.recv->Increment();
  agg_counters_.recv->Increment();
  recvs_.push_back(RecvRequest{wr_id, buf, len});
  return Status::OK();
}

Status QueuePair::PostRecv(std::span<const RecvRequest> reqs) {
  if (reqs.empty()) return Status::OK();
  if (state_ == State::kError) {
    return Status::Disconnected("PostRecv: QP in error state");
  }
  if (srq_ != nullptr) {
    return Status::InvalidArgument(
        "PostRecv: QP uses an SRQ; post to the SRQ instead");
  }
  if (recvs_.size() + reqs.size() >
      static_cast<size_t>(rnic_->cost().rdma.max_recv_wr)) {
    return Status::ResourceExhausted(
        "PostRecv: postlist exceeds receive queue capacity");
  }
  for (const RecvRequest& r : reqs) {
    recvs_.push_back(r);
  }
  qp_counters_.recv->Increment(reqs.size());
  agg_counters_.recv->Increment(reqs.size());
  return Status::OK();
}

bool QueuePair::TakeRecv(RecvRequest* out) {
  if (srq_ != nullptr) return srq_->TryTake(out);
  if (recvs_.empty()) return false;
  *out = recvs_.front();
  recvs_.pop_front();
  return true;
}

void QueuePair::FailRnr(const WorkRequest& wr, QueuePair* initiator,
                        Opcode rop, sim::TimeNs prop) {
  sig_counters_.rnr_events->Increment();
  flight_->Record(flight_shard_, sim_.Now(), obs::FlightEventType::kRnr,
                  qp_num_, static_cast<uint32_t>(wr.opcode), 0);
  if (srq_ != nullptr) {
    // SRQ drained: the receiver's CQ sees the RNR error (its QP is what
    // breaks), and the initiator's WR is flushed with the teardown.
    WorkCompletion rwc;
    rwc.opcode = rop;
    rwc.status = WcStatus::kRnrRetryExceeded;
    rwc.qp_num = qp_num_;
    recv_cq_->Push(rwc);
    initiator->CompleteInitiator(wr, WcStatus::kWrFlushed,
                                 sim_.Now() + prop, 0);
  } else {
    // Plain RQ: receiver-not-ready with no retries configured — only the
    // initiator learns why.
    initiator->CompleteInitiator(wr, WcStatus::kRnrRetryExceeded,
                                 sim_.Now() + prop, 0);
  }
  Disconnect();
}

void QueuePair::Disconnect() {
  if (state_ == State::kError) return;
  Fail();
  if (peer_ != nullptr) peer_->Fail();
}

void QueuePair::FailFromCq() { Disconnect(); }

void QueuePair::Fail() {
  if (state_ == State::kError) return;
  state_ = State::kError;
  // Flush unprocessed send WRs.
  while (auto wr = send_ch_.TryPop()) {
    CompleteInitiator(*wr, WcStatus::kWrFlushed, sim_.Now(), 0);
  }
  send_ch_.Close();
  deliveries_.Close();
  // Flush posted receives. SRQ entries are deliberately NOT flushed: they
  // belong to the shared pool and stay posted for surviving QPs.
  while (!recvs_.empty()) {
    RecvRequest r = recvs_.front();
    recvs_.pop_front();
    WorkCompletion wc;
    wc.wr_id = r.wr_id;
    wc.opcode = Opcode::kRecv;
    wc.status = WcStatus::kWrFlushed;
    wc.qp_num = qp_num_;
    recv_cq_->Push(wc);
  }
  error_event_.Set();
}

void QueuePair::CompleteInitiator(const WorkRequest& wr, WcStatus status,
                                  sim::TimeNs when, uint32_t byte_len) {
  auto self = shared_from_this();
  const bool cqe = wr.signaled || status != WcStatus::kSuccess;
  sim_.ScheduleAt(when, [self, wr, status, byte_len, cqe]() {
    if (!self->lazy_sq_reclaim_) {
      // Historical behaviour: every completion frees its SQ slot as soon
      // as the RNIC is done with it, CQE or not.
      if (self->outstanding_ > 0) self->outstanding_--;
    } else if (cqe) {
      // Selective signaling: a CQE tells the driver that this WR and every
      // unsignaled WR completed since the previous CQE are done (RC
      // completes in post order) — reclaim the whole run.
      size_t reclaim = 1 + self->sq_unreclaimed_;
      self->sq_unreclaimed_ = 0;
      self->outstanding_ -= std::min(self->outstanding_, reclaim);
    } else {
      // No CQE: the driver cannot observe this completion yet. The slot
      // stays occupied until the next signaled/errored WR completes — the
      // SQ-full-because-nothing-signaled hazard.
      self->sq_unreclaimed_++;
    }
    self->tracer_->AsyncEnd(self->trace_track_, SpanName(wr.opcode),
                            wr.span_id);
    if (cqe) {
      WorkCompletion wc;
      wc.wr_id = wr.wr_id;
      wc.opcode = wr.opcode;
      wc.status = status;
      wc.byte_len = byte_len;
      wc.qp_num = self->qp_num_;
      self->sig_counters_.cqes->Increment();
      self->send_cq_->Push(wc);
    }
  });
}

void QueuePair::CompleteRecv(const WorkCompletion& wc, sim::TimeNs when) {
  auto self = shared_from_this();
  sim_.ScheduleAt(when, [self, wc]() {
    self->sig_counters_.cqes->Increment();
    self->recv_cq_->Push(wc);
  });
}

sim::Co<void> QueuePair::SendEngine(std::shared_ptr<QueuePair> self) {
  sim::Simulator& sim = self->rnic_->simulator();
  net::Fabric& fabric = self->rnic_->fabric();
  const RdmaModel& m = self->rnic_->cost().rdma;
  const net::NodeId my_node = self->rnic_->node();

  while (true) {
    auto popped = co_await self->send_ch_.Pop();
    if (!popped.has_value()) co_return;  // channel closed (QP error)
    WorkRequest wr = *popped;
    if (self->state_ != State::kConnected) {
      self->CompleteInitiator(wr, WcStatus::kWrFlushed, sim.Now(), 0);
      continue;
    }
    // WQE fetch + doorbell + NIC processing, serialized per QP.
    co_await sim::Delay(sim, m.doorbell_ns + m.process_ns);
    if (self->state_ != State::kConnected) {
      self->CompleteInitiator(wr, WcStatus::kWrFlushed, sim.Now(), 0);
      continue;
    }
    QueuePair* peer = self->peer_;
    const net::NodeId peer_node = peer->rnic_->node();

    // Wire footprint: payload for writes/sends; request-only for reads and
    // atomics (their data comes back on the response path).
    uint64_t request_payload;
    switch (wr.opcode) {
      case Opcode::kSend:
      case Opcode::kWrite:
      case Opcode::kWriteWithImm:
        request_payload = wr.length;
        break;
      case Opcode::kRead:
        request_payload = 16;
        break;
      case Opcode::kCompSwap:
      case Opcode::kFetchAdd:
        request_payload = 28;
        break;
      default:
        self->CompleteInitiator(wr, WcStatus::kLocalError, sim.Now(), 0);
        continue;
    }
    sim::TimeNs arrival =
        fabric.ReserveTransfer(my_node, peer_node, request_payload);
    // Hand the request to the responder at its arrival time. The channel
    // preserves arrival order, which matches RC in-order delivery.
    auto peer_shared = peer->shared_from_this();
    sim.ScheduleAt(arrival, [peer_shared, wr, self]() {
      if (peer_shared->deliveries_.closed()) {
        // Responder died while the request was in flight.
        self->CompleteInitiator(wr, WcStatus::kWrFlushed, self->sim_.Now(),
                                0);
        return;
      }
      peer_shared->deliveries_.Push(Delivery{wr, self});
    });
  }
}

sim::Co<void> QueuePair::ResponderWorker(std::shared_ptr<QueuePair> self) {
  while (true) {
    auto d = co_await self->deliveries_.Pop();
    if (!d.has_value()) co_return;
    co_await self->Execute(std::move(*d));
  }
}

sim::Co<void> QueuePair::Execute(Delivery d) {
  sim::Simulator& sim = rnic_->simulator();
  net::Fabric& fabric = rnic_->fabric();
  const RdmaModel& m = rnic_->cost().rdma;
  const sim::TimeNs prop = rnic_->cost().link.propagation_ns;
  const WorkRequest& wr = d.wr;
  QueuePair* initiator = d.initiator.get();

  if (state_ != State::kConnected) {
    initiator->CompleteInitiator(wr, WcStatus::kWrFlushed, sim.Now(), 0);
    co_return;
  }

  switch (wr.opcode) {
    case Opcode::kSend: {
      RecvRequest r;
      if (!TakeRecv(&r)) {
        FailRnr(wr, initiator, Opcode::kRecv, prop);
        co_return;
      }
      if (wr.length > r.len) {
        initiator->CompleteInitiator(wr, WcStatus::kRemoteAccessError,
                                     sim.Now() + prop, 0);
        Disconnect();
        co_return;
      }
      if (wr.length > 0 && r.buf != nullptr) {
        std::memcpy(r.buf, SendSource(wr), wr.length);
      }
      WorkCompletion rwc;
      rwc.wr_id = r.wr_id;
      rwc.opcode = Opcode::kRecv;
      rwc.status = WcStatus::kSuccess;
      rwc.byte_len = wr.length;
      rwc.qp_num = qp_num_;
      CompleteRecv(rwc, sim.Now() + m.process_ns);
      sim::TimeNs depart = std::max(sim.Now() + m.process_ns, resp_chain_);
      resp_chain_ = depart;
      initiator->CompleteInitiator(wr, WcStatus::kSuccess,
                                   depart + prop + m.completion_ns, wr.length);
      break;
    }
    case Opcode::kWrite:
    case Opcode::kWriteWithImm: {
      MemoryRegion* mr = rnic_->LookupMr(wr.rkey);
      if (mr == nullptr ||
          !mr->Allows(wr.remote_addr, wr.length, kAccessRemoteWrite)) {
        initiator->CompleteInitiator(wr, WcStatus::kRemoteAccessError,
                                     sim.Now() + prop, 0);
        Disconnect();
        co_return;
      }
      if (wr.length > 0) {
        std::memcpy(mr->Translate(wr.remote_addr), SendSource(wr), wr.length);
      }
      if (wr.opcode == Opcode::kWriteWithImm) {
        RecvRequest r;
        if (!TakeRecv(&r)) {
          FailRnr(wr, initiator, Opcode::kRecvWithImm, prop);
          co_return;
        }
        WorkCompletion rwc;
        rwc.wr_id = r.wr_id;
        rwc.opcode = Opcode::kRecvWithImm;
        rwc.status = WcStatus::kSuccess;
        rwc.byte_len = wr.length;
        rwc.imm_data = wr.imm_data;
        rwc.has_imm = true;
        rwc.qp_num = qp_num_;
        CompleteRecv(rwc, sim.Now() + m.process_ns);
      }
      sim::TimeNs depart = std::max(sim.Now() + m.process_ns, resp_chain_);
      resp_chain_ = depart;
      initiator->CompleteInitiator(wr, WcStatus::kSuccess,
                                   depart + prop + m.completion_ns, wr.length);
      break;
    }
    case Opcode::kRead: {
      MemoryRegion* mr = rnic_->LookupMr(wr.rkey);
      if (mr == nullptr ||
          !mr->Allows(wr.remote_addr, wr.length, kAccessRemoteRead)) {
        initiator->CompleteInitiator(wr, WcStatus::kRemoteAccessError,
                                     sim.Now() + prop, 0);
        Disconnect();
        co_return;
      }
      sim::TimeNs ready = std::max(sim.Now() + m.read_response_ns, resp_chain_);
      sim::TimeNs arrival = fabric.ReserveTransfer(
          rnic_->node(), initiator->rnic_->node(), wr.length, ready);
      resp_chain_ = arrival - prop;  // response serialization end
      // Data is captured when the response lands (see DESIGN.md: readable
      // bytes are immutable by protocol, so late capture is safe).
      uint8_t* src = mr->Translate(wr.remote_addr);
      auto self = shared_from_this();
      auto initiator_shared = initiator->shared_from_this();
      sim.ScheduleAt(arrival, [self, initiator_shared, wr, src]() {
        if (wr.length > 0 && wr.local_addr != nullptr) {
          std::memcpy(wr.local_addr, src, wr.length);
        }
      });
      initiator->CompleteInitiator(wr, WcStatus::kSuccess,
                                   arrival + m.completion_ns, wr.length);
      break;
    }
    case Opcode::kCompSwap:
    case Opcode::kFetchAdd: {
      MemoryRegion* mr = rnic_->LookupMr(wr.rkey);
      if (mr == nullptr ||
          !mr->Allows(wr.remote_addr, 8, kAccessRemoteAtomic)) {
        initiator->CompleteInitiator(wr, WcStatus::kRemoteAccessError,
                                     sim.Now() + prop, 0);
        Disconnect();
        co_return;
      }
      // Serialize on the RNIC's atomic unit — the 2.68 Mops/s ceiling.
      co_await rnic_->atomic_unit().Use(m.atomic_unit_ns);
      rnic_->CountAtomic();
      uint8_t* ptr = mr->Translate(wr.remote_addr);
      uint64_t old = DecodeFixed64(ptr);
      if (wr.opcode == Opcode::kFetchAdd) {
        EncodeFixed64(ptr, old + wr.compare_add);
      } else if (old == wr.compare_add) {
        EncodeFixed64(ptr, wr.swap);
      }
      sim::TimeNs depart = std::max(sim.Now(), resp_chain_);
      resp_chain_ = depart;
      sim::TimeNs arrival = depart + prop;
      uint8_t* result_dst = wr.local_addr;
      sim.ScheduleAt(arrival, [result_dst, old]() {
        if (result_dst != nullptr) EncodeFixed64(result_dst, old);
      });
      initiator->CompleteInitiator(wr, WcStatus::kSuccess,
                                   arrival + m.completion_ns, 8);
      break;
    }
    default:
      initiator->CompleteInitiator(wr, WcStatus::kLocalError, sim.Now(), 0);
      break;
  }
}

Status Connect(const std::shared_ptr<QueuePair>& a,
               const std::shared_ptr<QueuePair>& b) {
  if (a->state_ != QueuePair::State::kInit ||
      b->state_ != QueuePair::State::kInit) {
    return Status::FailedPrecondition("Connect: QP not in INIT state");
  }
  a->peer_ = b.get();
  b->peer_ = a.get();
  a->state_ = QueuePair::State::kConnected;
  b->state_ = QueuePair::State::kConnected;
  sim::Simulator& sim = a->rnic_->simulator();
  sim::Spawn(sim, QueuePair::SendEngine(a));
  sim::Spawn(sim, QueuePair::ResponderWorker(a));
  sim::Spawn(sim, QueuePair::SendEngine(b));
  sim::Spawn(sim, QueuePair::ResponderWorker(b));
  return Status::OK();
}

}  // namespace rdma
}  // namespace kafkadirect
