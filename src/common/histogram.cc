#include "common/histogram.h"

#include <cmath>

namespace kafkadirect {

void Histogram::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

int64_t Histogram::Percentile(double p) const {
  if (samples_.empty()) return 0;
  Sort();
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  return samples_[rank - 1];
}

}  // namespace kafkadirect
