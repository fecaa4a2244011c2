#include "kafka/record.h"

#include "common/byte_order.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace kafkadirect {
namespace kafka {

RecordBatchBuilder::RecordBatchBuilder(int64_t base_offset,
                                       int64_t first_timestamp,
                                       uint64_t producer_id) {
  InitHeader(base_offset, first_timestamp, producer_id);
}

RecordBatchBuilder::RecordBatchBuilder(int64_t base_offset,
                                       int64_t first_timestamp,
                                       uint64_t producer_id,
                                       std::vector<uint8_t> reuse)
    : batch_(std::move(reuse)) {
  batch_.clear();
  InitHeader(base_offset, first_timestamp, producer_id);
}

void RecordBatchBuilder::InitHeader(int64_t base_offset,
                                    int64_t first_timestamp,
                                    uint64_t producer_id) {
  batch_.resize(kBatchHeaderSize);
  EncodeFixed64(&batch_[0], static_cast<uint64_t>(base_offset));
  EncodeFixed32(&batch_[8], 0);   // batch_length, patched in Build
  EncodeFixed32(&batch_[12], 0);  // crc, patched in Build
  EncodeFixed16(&batch_[16], kMagicV2);
  EncodeFixed16(&batch_[18], 0);  // attributes
  EncodeFixed32(&batch_[20], 0);  // record_count, patched
  EncodeFixed64(&batch_[24], static_cast<uint64_t>(first_timestamp));
  EncodeFixed64(&batch_[32], producer_id);
}

void RecordBatchBuilder::Add(Slice key, Slice value, uint32_t timestamp_delta,
                             bool null_key) {
  size_t n = batch_.size();
  size_t record_size = 4 + (null_key ? 0 : key.size()) + 4 + value.size() + 4;
  batch_.resize(n + record_size);
  uint8_t* p = &batch_[n];
  if (null_key) {
    EncodeFixed32(p, kNullField);
    p += 4;
  } else {
    EncodeFixed32(p, static_cast<uint32_t>(key.size()));
    p += 4;
    std::memcpy(p, key.data(), key.size());
    p += key.size();
  }
  EncodeFixed32(p, static_cast<uint32_t>(value.size()));
  p += 4;
  std::memcpy(p, value.data(), value.size());
  p += value.size();
  EncodeFixed32(p, timestamp_delta);
  count_++;
}

std::vector<uint8_t> RecordBatchBuilder::Build() {
  EncodeFixed32(&batch_[8],
                static_cast<uint32_t>(batch_.size() - kBatchPrefixSize));
  EncodeFixed32(&batch_[20], count_);
  uint32_t crc = crc32c::Value(batch_.data() + 16, batch_.size() - 16);
  EncodeFixed32(&batch_[12], crc);
  return std::move(batch_);
}

std::vector<uint8_t> BuildSingleRecordBatch(int64_t base_offset,
                                            int64_t timestamp, Slice key,
                                            Slice value) {
  RecordBatchBuilder b(base_offset, timestamp, /*producer_id=*/0);
  b.Add(key, value);
  return b.Build();
}

StatusOr<uint64_t> RecordBatchView::PeekBatchSize(Slice data) {
  if (data.size() < kBatchPrefixSize) {
    return Status::OutOfRange("batch prefix incomplete");
  }
  uint32_t batch_length = DecodeFixed32(data.data() + 8);
  if (batch_length < kBatchHeaderSize - kBatchPrefixSize) {
    return Status::Corruption("batch_length smaller than header");
  }
  return static_cast<uint64_t>(batch_length) + kBatchPrefixSize;
}

StatusOr<RecordBatchView> RecordBatchView::ParseUnchecked(Slice data) {
  KD_ASSIGN_OR_RETURN(uint64_t total, PeekBatchSize(data));
  if (data.size() < total) {
    return Status::OutOfRange("batch truncated");
  }
  Slice batch = data.SubSlice(0, total);
  if (DecodeFixed16(batch.data() + 16) != kMagicV2) {
    return Status::Corruption("bad batch magic");
  }
  RecordBatchView view(batch);
  uint32_t count = view.record_count();
  if (count == 0) {
    return Status::Corruption("empty record batch");
  }
  // Walk the records to validate structure.
  uint32_t walked = 0;
  Status st = view.ForEach([&walked](const RecordView&) { walked++; });
  KD_RETURN_IF_ERROR(st);
  if (walked != count) {
    return Status::Corruption("record_count does not match records");
  }
  return view;
}

StatusOr<RecordBatchView> RecordBatchView::Parse(Slice data) {
  KD_ASSIGN_OR_RETURN(RecordBatchView view, ParseUnchecked(data));
  KD_RETURN_IF_ERROR(view.VerifyCrc());
  return view;
}

int64_t RecordBatchView::base_offset() const {
  return static_cast<int64_t>(DecodeFixed64(data_.data()));
}

uint32_t RecordBatchView::record_count() const {
  return DecodeFixed32(data_.data() + 20);
}

int64_t RecordBatchView::first_timestamp() const {
  return static_cast<int64_t>(DecodeFixed64(data_.data() + 24));
}

uint64_t RecordBatchView::producer_id() const {
  return DecodeFixed64(data_.data() + 32);
}

uint32_t RecordBatchView::crc() const {
  return DecodeFixed32(data_.data() + 12);
}

Status RecordBatchView::VerifyCrc() const {
  uint32_t actual = crc32c::Value(data_.data() + 16, data_.size() - 16);
  if (actual != crc()) {
    return Status::Corruption("record batch CRC mismatch");
  }
  return Status::OK();
}

Status RecordBatchView::ForEach(
    const std::function<void(const RecordView&)>& fn) const {
  BinaryReader r(data_.SubSlice(kBatchHeaderSize,
                                data_.size() - kBatchHeaderSize));
  int64_t base = base_offset();
  int64_t first_ts = first_timestamp();
  uint32_t count = record_count();
  for (uint32_t i = 0; i < count; i++) {
    RecordView rec;
    uint32_t key_len;
    KD_RETURN_IF_ERROR(r.GetU32(&key_len));
    if (key_len != kNullField) {
      if (key_len > kMaxRecordSize) {
        return Status::Corruption("record key too large");
      }
      KD_RETURN_IF_ERROR(r.GetRaw(key_len, &rec.key));
    }
    uint32_t value_len;
    KD_RETURN_IF_ERROR(r.GetU32(&value_len));
    if (value_len > kMaxRecordSize) {
      return Status::Corruption("record value exceeds 1 MiB limit");
    }
    KD_RETURN_IF_ERROR(r.GetRaw(value_len, &rec.value));
    uint32_t ts_delta;
    KD_RETURN_IF_ERROR(r.GetU32(&ts_delta));
    rec.offset = base + i;
    rec.timestamp = first_ts + ts_delta;
    fn(rec);
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after last record");
  }
  return Status::OK();
}

StatusOr<std::vector<RecordView>> RecordBatchView::Records() const {
  std::vector<RecordView> out;
  out.reserve(record_count());
  KD_RETURN_IF_ERROR(
      ForEach([&out](const RecordView& r) { out.push_back(r); }));
  return out;
}

void SetBaseOffset(uint8_t* batch_start, int64_t base_offset) {
  EncodeFixed64(batch_start, static_cast<uint64_t>(base_offset));
}

int64_t GetBaseOffset(const uint8_t* batch_start) {
  return static_cast<int64_t>(DecodeFixed64(batch_start));
}

}  // namespace kafka
}  // namespace kafkadirect
