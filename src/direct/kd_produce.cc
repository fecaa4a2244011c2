#include "direct/kd_broker.h"

#include <algorithm>
#include <cstring>

#include "kafka/record.h"

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;
using kafka::PartitionState;
using kafka::RecordBatchView;

/// §4.2.2 shared produce: how long request i waits for request i-1 before
/// the broker aborts the file and revokes access.
constexpr sim::TimeNs kSharedProduceHoleTimeout = Millis(5);

// ---------------------------------------------------------------------------
// RDMA produce module (§4.2.2)
// ---------------------------------------------------------------------------

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
            kSharedProduceHoleTimeout);
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
          kSharedProduceHoleTimeout * 4);
    }
    if (fs->aborted && !OrderCommitted(fs, order)) {
      co_return Status::Aborted("shared produce aborted");
    }
    co_return kafka::GetBaseOffset(seg->data() + pos);
  }
  co_return Status::ResourceExhausted("shared produce: rotation livelock");
}

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
          kSharedProduceHoleTimeout);
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
  co_await sim::Delay(sim_, kSharedProduceHoleTimeout);
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

}  // namespace kd
}  // namespace kafkadirect
