#include "kafka/protocol.h"

namespace kafkadirect {
namespace kafka {

namespace {

void PutHeader(BinaryWriter* w, MsgType type) {
  w->PutU16(static_cast<uint16_t>(type));
}

void PutTp(BinaryWriter* w, const TopicPartitionId& tp) {
  w->PutString(tp.topic);
  w->PutI32(tp.partition);
}

Status GetHeader(BinaryReader* r, MsgType expected) {
  uint16_t t;
  KD_RETURN_IF_ERROR(r->GetU16(&t));
  if (t != static_cast<uint16_t>(expected)) {
    return Status::InvalidArgument("unexpected message type");
  }
  return Status::OK();
}

Status GetTp(BinaryReader* r, TopicPartitionId* tp) {
  KD_RETURN_IF_ERROR(r->GetString(&tp->topic));
  KD_RETURN_IF_ERROR(r->GetI32(&tp->partition));
  return Status::OK();
}

Status GetError(BinaryReader* r, ErrorCode* e) {
  uint16_t v;
  KD_RETURN_IF_ERROR(r->GetU16(&v));
  *e = static_cast<ErrorCode>(static_cast<int16_t>(v));
  return Status::OK();
}

// Copies a decoded payload view into `out`, drawing the destination from
// the pool when one is supplied.
void AssignBytes(Slice b, std::vector<uint8_t>* out, BufferPool* pool) {
  if (pool != nullptr) {
    *out = pool->Acquire(b.size());
    if (!b.empty()) std::memcpy(out->data(), b.data(), b.size());
  } else {
    *out = b.ToVector();
  }
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "None";
    case ErrorCode::kUnknownTopicOrPartition: return "UnknownTopicOrPartition";
    case ErrorCode::kNotLeader: return "NotLeader";
    case ErrorCode::kCorruptMessage: return "CorruptMessage";
    case ErrorCode::kOffsetOutOfRange: return "OffsetOutOfRange";
    case ErrorCode::kRecordTooLarge: return "RecordTooLarge";
    case ErrorCode::kRdmaAccessDenied: return "RdmaAccessDenied";
    case ErrorCode::kInvalidRequest: return "InvalidRequest";
    case ErrorCode::kTimedOut: return "TimedOut";
    case ErrorCode::kResourceExhausted: return "ResourceExhausted";
    case ErrorCode::kFencedLeaderEpoch: return "FencedLeaderEpoch";
  }
  return "?";
}

MsgType PeekType(Slice frame) {
  if (frame.size() < 2) return static_cast<MsgType>(0);
  return static_cast<MsgType>(DecodeFixed16(frame.data()));
}

std::vector<uint8_t> Encode(const ProduceRequest& m) {
  return Encode(m, std::vector<uint8_t>());
}

std::vector<uint8_t> Encode(const ProduceRequest& m,
                            std::vector<uint8_t> reuse) {
  BinaryWriter w(std::move(reuse), m.batch.size() + 64);
  PutHeader(&w, MsgType::kProduceRequest);
  PutTp(&w, m.tp);
  w.PutU16(static_cast<uint16_t>(m.acks));
  w.PutBytes(Slice(m.batch));
  return w.Release();
}

Status Decode(Slice frame, ProduceRequest* m) {
  return Decode(frame, m, nullptr);
}

Status Decode(Slice frame, ProduceRequest* m, BufferPool* pool) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kProduceRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  uint16_t acks;
  KD_RETURN_IF_ERROR(r.GetU16(&acks));
  m->acks = static_cast<int16_t>(acks);
  Slice b;
  KD_RETURN_IF_ERROR(r.GetBytes(&b));
  AssignBytes(b, &m->batch, pool);
  return Status::OK();
}

std::vector<uint8_t> Encode(const ProduceResponse& m) {
  return Encode(m, std::vector<uint8_t>());
}

std::vector<uint8_t> Encode(const ProduceResponse& m,
                            std::vector<uint8_t> reuse) {
  BinaryWriter w(std::move(reuse), 16);
  PutHeader(&w, MsgType::kProduceResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutI64(m.base_offset);
  return w.Release();
}

Status Decode(Slice frame, ProduceResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kProduceResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetI64(&m->base_offset));
  return Status::OK();
}

std::vector<uint8_t> Encode(const FetchRequest& m) {
  return Encode(m, std::vector<uint8_t>());
}

std::vector<uint8_t> Encode(const FetchRequest& m,
                            std::vector<uint8_t> reuse) {
  BinaryWriter w(std::move(reuse), 64);
  PutHeader(&w, MsgType::kFetchRequest);
  PutTp(&w, m.tp);
  w.PutI64(m.offset);
  w.PutU32(m.max_bytes);
  w.PutI64(m.max_wait_ns);
  w.PutU8(m.is_replica ? 1 : 0);
  w.PutI32(m.replica_id);
  return w.Release();
}

Status Decode(Slice frame, FetchRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kFetchRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetI64(&m->offset));
  KD_RETURN_IF_ERROR(r.GetU32(&m->max_bytes));
  KD_RETURN_IF_ERROR(r.GetI64(&m->max_wait_ns));
  uint8_t is_replica;
  KD_RETURN_IF_ERROR(r.GetU8(&is_replica));
  m->is_replica = is_replica != 0;
  KD_RETURN_IF_ERROR(r.GetI32(&m->replica_id));
  return Status::OK();
}

std::vector<uint8_t> Encode(const FetchResponse& m) {
  return Encode(m, std::vector<uint8_t>());
}

std::vector<uint8_t> Encode(const FetchResponse& m,
                            std::vector<uint8_t> reuse) {
  BinaryWriter w(std::move(reuse), m.batches.size() + 64);
  PutHeader(&w, MsgType::kFetchResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutI64(m.high_watermark);
  w.PutI64(m.log_end_offset);
  w.PutBytes(Slice(m.batches));
  return w.Release();
}

Status Decode(Slice frame, FetchResponse* m) {
  return Decode(frame, m, nullptr);
}

Status Decode(Slice frame, FetchResponse* m, BufferPool* pool) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kFetchResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetI64(&m->high_watermark));
  KD_RETURN_IF_ERROR(r.GetI64(&m->log_end_offset));
  Slice b;
  KD_RETURN_IF_ERROR(r.GetBytes(&b));
  AssignBytes(b, &m->batches, pool);
  return Status::OK();
}

std::vector<uint8_t> Encode(const MetadataRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kMetadataRequest);
  w.PutString(m.topic);
  return w.Release();
}

Status Decode(Slice frame, MetadataRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kMetadataRequest));
  KD_RETURN_IF_ERROR(r.GetString(&m->topic));
  return Status::OK();
}

std::vector<uint8_t> Encode(const MetadataResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kMetadataResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutI32(m.num_partitions);
  w.PutU32(static_cast<uint32_t>(m.leader_broker.size()));
  for (int32_t b : m.leader_broker) w.PutI32(b);
  return w.Release();
}

Status Decode(Slice frame, MetadataResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kMetadataResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetI32(&m->num_partitions));
  uint32_t n;
  KD_RETURN_IF_ERROR(r.GetU32(&n));
  m->leader_broker.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    KD_RETURN_IF_ERROR(r.GetI32(&m->leader_broker[i]));
  }
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaProduceAccessRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaProduceAccessRequest);
  PutTp(&w, m.tp);
  w.PutU8(m.exclusive ? 1 : 0);
  w.PutU16(m.stale_file_id);
  w.PutU32(m.broker_qp);
  w.PutU64(m.rotate_target);
  return w.Release();
}

Status Decode(Slice frame, RdmaProduceAccessRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaProduceAccessRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  uint8_t ex;
  KD_RETURN_IF_ERROR(r.GetU8(&ex));
  m->exclusive = ex != 0;
  KD_RETURN_IF_ERROR(r.GetU16(&m->stale_file_id));
  KD_RETURN_IF_ERROR(r.GetU32(&m->broker_qp));
  KD_RETURN_IF_ERROR(r.GetU64(&m->rotate_target));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaProduceAccessResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaProduceAccessResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutU16(m.file_id);
  w.PutU64(m.addr);
  w.PutU32(m.rkey);
  w.PutU64(m.capacity);
  w.PutU64(m.write_pos);
  w.PutU64(m.atomic_addr);
  w.PutU32(m.atomic_rkey);
  w.PutU16(m.next_order);
  return w.Release();
}

Status Decode(Slice frame, RdmaProduceAccessResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaProduceAccessResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetU16(&m->file_id));
  KD_RETURN_IF_ERROR(r.GetU64(&m->addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->rkey));
  KD_RETURN_IF_ERROR(r.GetU64(&m->capacity));
  KD_RETURN_IF_ERROR(r.GetU64(&m->write_pos));
  KD_RETURN_IF_ERROR(r.GetU64(&m->atomic_addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->atomic_rkey));
  KD_RETURN_IF_ERROR(r.GetU16(&m->next_order));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaConsumeAccessRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaConsumeAccessRequest);
  PutTp(&w, m.tp);
  w.PutI64(m.offset);
  return w.Release();
}

Status Decode(Slice frame, RdmaConsumeAccessRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaConsumeAccessRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetI64(&m->offset));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaConsumeAccessResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaConsumeAccessResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutU32(m.file_ref);
  w.PutU64(m.addr);
  w.PutU32(m.rkey);
  w.PutU64(m.start_pos);
  w.PutI64(m.start_offset);
  w.PutU64(m.last_readable);
  w.PutU8(m.is_mutable ? 1 : 0);
  w.PutU32(m.slot_index);
  w.PutU64(m.slot_region_addr);
  w.PutU32(m.slot_rkey);
  return w.Release();
}

Status Decode(Slice frame, RdmaConsumeAccessResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaConsumeAccessResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetU32(&m->file_ref));
  KD_RETURN_IF_ERROR(r.GetU64(&m->addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->rkey));
  KD_RETURN_IF_ERROR(r.GetU64(&m->start_pos));
  KD_RETURN_IF_ERROR(r.GetI64(&m->start_offset));
  KD_RETURN_IF_ERROR(r.GetU64(&m->last_readable));
  uint8_t mu;
  KD_RETURN_IF_ERROR(r.GetU8(&mu));
  m->is_mutable = mu != 0;
  KD_RETURN_IF_ERROR(r.GetU32(&m->slot_index));
  KD_RETURN_IF_ERROR(r.GetU64(&m->slot_region_addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->slot_rkey));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaRingConsumeAccessRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaRingConsumeAccessRequest);
  PutTp(&w, m.tp);
  w.PutI64(m.offset);
  w.PutU32(m.broker_qp);
  w.PutU64(m.ring_addr);
  w.PutU32(m.ring_rkey);
  w.PutU64(m.ring_capacity);
  w.PutU64(m.tail_addr);
  w.PutU32(m.tail_rkey);
  return w.Release();
}

Status Decode(Slice frame, RdmaRingConsumeAccessRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaRingConsumeAccessRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetI64(&m->offset));
  KD_RETURN_IF_ERROR(r.GetU32(&m->broker_qp));
  KD_RETURN_IF_ERROR(r.GetU64(&m->ring_addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->ring_rkey));
  KD_RETURN_IF_ERROR(r.GetU64(&m->ring_capacity));
  KD_RETURN_IF_ERROR(r.GetU64(&m->tail_addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->tail_rkey));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaRingConsumeAccessResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaRingConsumeAccessResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutU32(m.grant_ref);
  w.PutI64(m.start_offset);
  w.PutU64(m.head_addr);
  w.PutU32(m.head_rkey);
  return w.Release();
}

Status Decode(Slice frame, RdmaRingConsumeAccessResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaRingConsumeAccessResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetU32(&m->grant_ref));
  KD_RETURN_IF_ERROR(r.GetI64(&m->start_offset));
  KD_RETURN_IF_ERROR(r.GetU64(&m->head_addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->head_rkey));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaUnregisterRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaUnregisterRequest);
  PutTp(&w, m.tp);
  w.PutU32(m.file_ref);
  return w.Release();
}

Status Decode(Slice frame, RdmaUnregisterRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaUnregisterRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetU32(&m->file_ref));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaUnregisterResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaUnregisterResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  return w.Release();
}

Status Decode(Slice frame, RdmaUnregisterResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaUnregisterResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  return Status::OK();
}

std::vector<uint8_t> Encode(const ReplicaRdmaAccessRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kReplicaRdmaAccessRequest);
  PutTp(&w, m.tp);
  w.PutU16(m.stale_file_id);
  return w.Release();
}

Status Decode(Slice frame, ReplicaRdmaAccessRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kReplicaRdmaAccessRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetU16(&m->stale_file_id));
  return Status::OK();
}

std::vector<uint8_t> Encode(const ReplicaRdmaAccessResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kReplicaRdmaAccessResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutU16(m.file_id);
  w.PutU64(m.addr);
  w.PutU32(m.rkey);
  w.PutU64(m.capacity);
  w.PutU64(m.write_pos);
  w.PutU32(m.credits);
  return w.Release();
}

Status Decode(Slice frame, ReplicaRdmaAccessResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kReplicaRdmaAccessResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetU16(&m->file_id));
  KD_RETURN_IF_ERROR(r.GetU64(&m->addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->rkey));
  KD_RETURN_IF_ERROR(r.GetU64(&m->capacity));
  KD_RETURN_IF_ERROR(r.GetU64(&m->write_pos));
  KD_RETURN_IF_ERROR(r.GetU32(&m->credits));
  return Status::OK();
}

std::vector<uint8_t> Encode(const CommitOffsetRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kCommitOffsetRequest);
  PutTp(&w, m.tp);
  w.PutString(m.group);
  w.PutI64(m.offset);
  return w.Release();
}

Status Decode(Slice frame, CommitOffsetRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kCommitOffsetRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetString(&m->group));
  KD_RETURN_IF_ERROR(r.GetI64(&m->offset));
  return Status::OK();
}

std::vector<uint8_t> Encode(const CommitOffsetResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kCommitOffsetResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  return w.Release();
}

Status Decode(Slice frame, CommitOffsetResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kCommitOffsetResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaCommitAccessRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaCommitAccessRequest);
  PutTp(&w, m.tp);
  w.PutString(m.group);
  return w.Release();
}

Status Decode(Slice frame, RdmaCommitAccessRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaCommitAccessRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetString(&m->group));
  return Status::OK();
}

std::vector<uint8_t> Encode(const RdmaCommitAccessResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kRdmaCommitAccessResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutU64(m.slot_addr);
  w.PutU32(m.slot_rkey);
  return w.Release();
}

Status Decode(Slice frame, RdmaCommitAccessResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kRdmaCommitAccessResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetU64(&m->slot_addr));
  KD_RETURN_IF_ERROR(r.GetU32(&m->slot_rkey));
  return Status::OK();
}

std::vector<uint8_t> Encode(const FetchCommittedOffsetRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kFetchCommittedOffsetRequest);
  PutTp(&w, m.tp);
  w.PutString(m.group);
  return w.Release();
}

Status Decode(Slice frame, FetchCommittedOffsetRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kFetchCommittedOffsetRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetString(&m->group));
  return Status::OK();
}

std::vector<uint8_t> Encode(const FetchCommittedOffsetResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kFetchCommittedOffsetResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutI64(m.offset);
  return w.Release();
}

Status Decode(Slice frame, FetchCommittedOffsetResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kFetchCommittedOffsetResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetI64(&m->offset));
  return Status::OK();
}

namespace {

void PutI32Vec(BinaryWriter* w, const std::vector<int32_t>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (int32_t x : v) w->PutI32(x);
}

Status GetI32Vec(BinaryReader* r, std::vector<int32_t>* v) {
  uint32_t n;
  KD_RETURN_IF_ERROR(r->GetU32(&n));
  v->resize(n);
  for (uint32_t i = 0; i < n; i++) {
    KD_RETURN_IF_ERROR(r->GetI32(&(*v)[i]));
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> Encode(const ControllerHeartbeatRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kControllerHeartbeatRequest);
  w.PutI64(m.term);
  w.PutI32(m.controller_id);
  return w.Release();
}

Status Decode(Slice frame, ControllerHeartbeatRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kControllerHeartbeatRequest));
  KD_RETURN_IF_ERROR(r.GetI64(&m->term));
  KD_RETURN_IF_ERROR(r.GetI32(&m->controller_id));
  return Status::OK();
}

std::vector<uint8_t> Encode(const ControllerHeartbeatResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kControllerHeartbeatResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutI64(m.term);
  return w.Release();
}

Status Decode(Slice frame, ControllerHeartbeatResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kControllerHeartbeatResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetI64(&m->term));
  return Status::OK();
}

std::vector<uint8_t> Encode(const LeaderAndIsrRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kLeaderAndIsrRequest);
  PutTp(&w, m.tp);
  w.PutI32(m.leader_id);
  w.PutU64(m.leader_node);
  w.PutI64(m.leader_epoch);
  w.PutU8(m.from_controller ? 1 : 0);
  PutI32Vec(&w, m.isr);
  PutI32Vec(&w, m.replicas);
  return w.Release();
}

Status Decode(Slice frame, LeaderAndIsrRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kLeaderAndIsrRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  KD_RETURN_IF_ERROR(r.GetI32(&m->leader_id));
  KD_RETURN_IF_ERROR(r.GetU64(&m->leader_node));
  KD_RETURN_IF_ERROR(r.GetI64(&m->leader_epoch));
  uint8_t fc;
  KD_RETURN_IF_ERROR(r.GetU8(&fc));
  m->from_controller = fc != 0;
  KD_RETURN_IF_ERROR(GetI32Vec(&r, &m->isr));
  KD_RETURN_IF_ERROR(GetI32Vec(&r, &m->replicas));
  return Status::OK();
}

std::vector<uint8_t> Encode(const LeaderAndIsrResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kLeaderAndIsrResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  return w.Release();
}

Status Decode(Slice frame, LeaderAndIsrResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kLeaderAndIsrResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  return Status::OK();
}

std::vector<uint8_t> Encode(const LogInfoRequest& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kLogInfoRequest);
  PutTp(&w, m.tp);
  return w.Release();
}

Status Decode(Slice frame, LogInfoRequest* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kLogInfoRequest));
  KD_RETURN_IF_ERROR(GetTp(&r, &m->tp));
  return Status::OK();
}

std::vector<uint8_t> Encode(const LogInfoResponse& m) {
  BinaryWriter w;
  PutHeader(&w, MsgType::kLogInfoResponse);
  w.PutU16(static_cast<uint16_t>(m.error));
  w.PutI64(m.log_end_offset);
  w.PutI64(m.high_watermark);
  return w.Release();
}

Status Decode(Slice frame, LogInfoResponse* m) {
  BinaryReader r(frame);
  KD_RETURN_IF_ERROR(GetHeader(&r, MsgType::kLogInfoResponse));
  KD_RETURN_IF_ERROR(GetError(&r, &m->error));
  KD_RETURN_IF_ERROR(r.GetI64(&m->log_end_offset));
  KD_RETURN_IF_ERROR(r.GetI64(&m->high_watermark));
  return Status::OK();
}

}  // namespace kafka
}  // namespace kafkadirect
