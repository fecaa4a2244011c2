// Kafka record batch format (simplified v2 layout).
//
// A batch is the unit of produce/replication/fetch I/O and of CRC
// protection. Mirroring Kafka v2, the CRC does NOT cover the base_offset /
// batch_length prefix, so the broker can assign offsets by patching
// base_offset in place without recomputing the checksum — this is what
// makes zero-copy RDMA produce possible (§4.2.2: the broker verifies and
// commits records already sitting in the file).
//
// Layout (all little-endian, fixed width):
//   0  u64 base_offset        -- patched by the broker at commit time
//   8  u32 batch_length       -- bytes following this field
//   12 u32 crc32c             -- over bytes [16, end)
//   16 u16 magic (=2)
//   18 u16 attributes
//   20 u32 record_count
//   24 i64 first_timestamp
//   32 u64 producer_id
//   40 records...
// Each record:
//   u32 key_len   (kNullField for null key)
//   key bytes
//   u32 value_len
//   value bytes
//   u32 timestamp_delta
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace kafkadirect {
namespace kafka {

constexpr uint32_t kNullField = 0xFFFFFFFFu;
constexpr size_t kBatchHeaderSize = 40;
constexpr size_t kBatchPrefixSize = 12;  // base_offset + batch_length
constexpr uint16_t kMagicV2 = 2;
/// Kafka's default record size cap (1 MiB).
constexpr uint32_t kMaxRecordSize = 1 << 20;

/// A decoded view of one record inside a batch (borrowing the batch bytes).
struct RecordView {
  int64_t offset = 0;
  int64_t timestamp = 0;
  Slice key;
  Slice value;
};

/// Builds a serialized record batch.
class RecordBatchBuilder {
 public:
  RecordBatchBuilder(int64_t base_offset, int64_t first_timestamp,
                     uint64_t producer_id);

  /// Builds into `reuse` (cleared first), typically a pooled buffer, so a
  /// producer's batch construction reuses capacity between requests.
  RecordBatchBuilder(int64_t base_offset, int64_t first_timestamp,
                     uint64_t producer_id, std::vector<uint8_t> reuse);

  /// Appends one record. Null key: pass a default Slice with `null_key`.
  void Add(Slice key, Slice value, uint32_t timestamp_delta = 0,
           bool null_key = false);

  uint32_t record_count() const { return count_; }
  size_t size_estimate() const { return batch_.size(); }

  /// Finalizes the batch: patches lengths and computes the CRC.
  std::vector<uint8_t> Build();

 private:
  void InitHeader(int64_t base_offset, int64_t first_timestamp,
                  uint64_t producer_id);

  std::vector<uint8_t> batch_;
  uint32_t count_ = 0;
};

/// Convenience: a single-record batch (benches produce unbatched records,
/// matching the paper's "producers do not batch requests").
std::vector<uint8_t> BuildSingleRecordBatch(int64_t base_offset,
                                            int64_t timestamp,
                                            Slice key, Slice value);

/// A validated, read-only view over a serialized batch.
class RecordBatchView {
 public:
  /// Number of bytes needed before the total batch size is known.
  static constexpr size_t kSizePrefixBytes = kBatchPrefixSize;

  /// Total batch size from the 12-byte prefix. `data` must have >= 12
  /// bytes; the result may exceed data.size() (partial batch).
  static StatusOr<uint64_t> PeekBatchSize(Slice data);

  /// Parses and fully validates one batch at the start of `data`:
  /// structure, magic, record walk, and CRC. The view borrows `data`.
  static StatusOr<RecordBatchView> Parse(Slice data);

  /// Parses structure only (no CRC) — used where the checksum is verified
  /// separately or deferred.
  static StatusOr<RecordBatchView> ParseUnchecked(Slice data);

  int64_t base_offset() const;
  int64_t last_offset() const {
    return base_offset() + record_count() - 1;
  }
  uint32_t record_count() const;
  int64_t first_timestamp() const;
  uint64_t producer_id() const;
  uint32_t crc() const;
  /// Full serialized size (prefix + header + records).
  uint64_t total_size() const { return data_.size(); }
  Slice data() const { return data_; }

  /// Recomputes the CRC over the payload and compares with the stored one.
  Status VerifyCrc() const;

  /// Iterates the records, assigning offsets base_offset + i.
  Status ForEach(const std::function<void(const RecordView&)>& fn) const;

  /// Collects all records.
  StatusOr<std::vector<RecordView>> Records() const;

 private:
  explicit RecordBatchView(Slice data) : data_(data) {}

  Slice data_;
};

/// Patches the base_offset of a serialized batch in place (broker-side
/// offset assignment; CRC intentionally unaffected).
void SetBaseOffset(uint8_t* batch_start, int64_t base_offset);

/// Reads base_offset without full parsing.
int64_t GetBaseOffset(const uint8_t* batch_start);

}  // namespace kafka
}  // namespace kafkadirect
