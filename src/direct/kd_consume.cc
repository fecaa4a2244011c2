#include "direct/kd_broker.h"

#include <algorithm>
#include <cstring>

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;
using kafka::PartitionState;

/// §12 ring consume: publish the ring tail after this many pushed bytes
/// (and whenever the pusher goes idle, so the consumer never waits on a
/// partial interval).
constexpr uint64_t kRingTailIntervalBytes = 16 * 1024;

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
  if (!ps->is_leader || !config_.rdma_consume) {
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
      if (since_tail >= kRingTailIntervalBytes) {
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

}  // namespace kd
}  // namespace kafkadirect
