// Latency histogram with exact percentiles (stores samples; benches use
// bounded sample counts so memory stays small).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kafkadirect {

/// Collects int64 samples (typically nanoseconds) and reports order
/// statistics. Every sample is kept, so percentiles are exact; Min, Max
/// and Mean are running values. Not thread-safe; the simulator is
/// single-threaded.
class Histogram {
 public:
  void Add(int64_t v) {
    if (samples_.empty() || v < min_) min_ = v;
    if (samples_.empty() || v > max_) max_ = v;
    sum_ += static_cast<long double>(v);
    samples_.push_back(v);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  int64_t Min() const { return empty() ? 0 : min_; }
  int64_t Max() const { return empty() ? 0 : max_; }
  double Mean() const {
    return empty() ? 0.0
                   : static_cast<double>(
                         sum_ / static_cast<long double>(samples_.size()));
  }
  /// p in [0, 100]; nearest-rank percentile. Returns 0 on empty.
  int64_t Percentile(double p) const;
  int64_t Median() const { return Percentile(50.0); }

  void Clear() {
    samples_.clear();
    sorted_ = false;
    min_ = 0;
    max_ = 0;
    sum_ = 0;
  }

  /// Stored samples (unsorted order unspecified); used to merge histograms.
  const std::vector<int64_t>& samples() const { return samples_; }
  /// Combines running stats and appends the other's samples.
  void Merge(const Histogram& other) {
    if (other.empty()) return;
    if (empty() || other.min_ < min_) min_ = other.min_;
    if (empty() || other.max_ > max_) max_ = other.max_;
    sum_ += other.sum_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

 private:
  void Sort() const;

  mutable std::vector<int64_t> samples_;
  mutable bool sorted_ = false;
  int64_t min_ = 0;
  int64_t max_ = 0;
  long double sum_ = 0;
};

}  // namespace kafkadirect
