// Segment: one log file of a topic partition, standing in for the paper's
// tmpfs files. Its whole capacity is reserved at creation at one stable
// address (the paper enables Kafka file preallocation so RNICs can write
// into the region), but as demand-zero memory: it reads as zero and a page
// becomes resident only when something writes to it, like a sparse tmpfs
// file sized with ftruncate. Capacity costs address space, not RAM.
#pragma once

#include <cstdint>
#include <vector>

#include "common/demand_zero_buffer.h"
#include "common/slice.h"
#include "common/status.h"

namespace kafkadirect {
namespace kafka {

class Segment {
 public:
  /// `base_offset`: Kafka offset of the first record this file will hold.
  Segment(int64_t base_offset, uint64_t capacity);
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  int64_t base_offset() const { return base_offset_; }
  /// Offset the next appended record will receive.
  int64_t next_offset() const { return next_offset_; }
  uint64_t capacity() const { return buf_.size(); }
  /// Bytes of committed data (valid prefix of the file).
  uint64_t size() const { return size_; }
  uint64_t remaining() const { return capacity() - size_; }
  bool sealed() const { return sealed_; }

  /// The whole file; bytes past size() read as zero until written.
  uint8_t* data() { return buf_.data(); }
  const uint8_t* data() const { return buf_.data(); }

  /// Appends a serialized batch covering `record_count` offsets. Fails when
  /// full or sealed.
  Status Append(Slice batch, uint32_t record_count);

  /// Commits `len` bytes already present at position `pos` (written there
  /// by an RDMA producer or the push-replication module). `pos` must equal
  /// the current size — the log never has gaps.
  Status CommitInPlace(uint64_t pos, uint64_t len, uint32_t record_count);

  /// Marks the file immutable (it becomes a non-head file, Fig. 1).
  void Seal() { sealed_ = true; }

  /// File position of the batch containing `offset`, via the offset index.
  StatusOr<uint64_t> PositionOf(int64_t offset) const;

  /// Number of indexed batches (one entry per committed batch).
  size_t batch_count() const { return index_.size(); }

 private:
  struct IndexEntry {
    int64_t offset;  // base offset of the batch
    uint64_t pos;    // file position of the batch
  };

  int64_t base_offset_;
  int64_t next_offset_;
  uint64_t size_ = 0;
  bool sealed_ = false;
  DemandZeroBuffer buf_;
  std::vector<IndexEntry> index_;
};

}  // namespace kafka
}  // namespace kafkadirect
