#include "common/demand_zero_buffer.h"

#include <sys/mman.h>

#include "common/logging.h"

namespace kafkadirect {

DemandZeroBuffer::DemandZeroBuffer(size_t size) : size_(size) {
  if (size == 0) return;
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  KD_CHECK(p != MAP_FAILED) << "mmap of " << size << " bytes failed";
  data_ = static_cast<uint8_t*>(p);
}

DemandZeroBuffer::~DemandZeroBuffer() {
  if (data_ != nullptr) munmap(data_, size_);
}

}  // namespace kafkadirect
