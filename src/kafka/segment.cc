#include "kafka/segment.h"

#include <algorithm>
#include <cstring>

namespace kafkadirect {
namespace kafka {

Segment::Segment(int64_t base_offset, uint64_t capacity)
    : base_offset_(base_offset), next_offset_(base_offset), buf_(capacity) {}

Status Segment::Append(Slice batch, uint32_t record_count) {
  if (sealed_) return Status::FailedPrecondition("append to sealed segment");
  if (batch.size() > remaining()) {
    return Status::ResourceExhausted("segment full");
  }
  std::memcpy(buf_.data() + size_, batch.data(), batch.size());
  return CommitInPlace(size_, batch.size(), record_count);
}

Status Segment::CommitInPlace(uint64_t pos, uint64_t len,
                              uint32_t record_count) {
  if (sealed_) return Status::FailedPrecondition("commit to sealed segment");
  if (pos != size_) {
    return Status::InvalidArgument("commit position leaves a gap");
  }
  if (pos + len > capacity()) {
    return Status::OutOfRange("commit beyond segment capacity");
  }
  index_.push_back(IndexEntry{next_offset_, pos});
  size_ = pos + len;
  next_offset_ += record_count;
  return Status::OK();
}

StatusOr<uint64_t> Segment::PositionOf(int64_t offset) const {
  if (index_.empty() || offset < base_offset_ || offset >= next_offset_) {
    return Status::OutOfRange("offset not in segment");
  }
  // Greatest indexed batch whose base offset is <= target.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), offset,
      [](int64_t off, const IndexEntry& e) { return off < e.offset; });
  --it;
  return it->pos;
}

}  // namespace kafka
}  // namespace kafkadirect
