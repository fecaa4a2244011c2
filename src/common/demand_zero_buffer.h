// DemandZeroBuffer: a fixed-size byte buffer backed by one private
// anonymous mapping. It reads as zero and a page becomes resident only
// when something writes to it, so a large buffer that is mostly never
// touched (a log segment's preallocated capacity, a ring of receive
// buffers sized for the largest message) costs address space, not RAM.
// The address is stable for the buffer's lifetime, as a registered RDMA
// memory region needs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kafkadirect {

class DemandZeroBuffer {
 public:
  /// Maps `size` zero bytes (none for size 0, leaving data() null); aborts
  /// if the mapping fails.
  explicit DemandZeroBuffer(size_t size);
  ~DemandZeroBuffer();
  DemandZeroBuffer(const DemandZeroBuffer&) = delete;
  DemandZeroBuffer& operator=(const DemandZeroBuffer&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  uint8_t* data_ = nullptr;
  const size_t size_;
};

}  // namespace kafkadirect
