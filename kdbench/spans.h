// kdbench span log: one span per call the benchmark makes into a layer's
// public function, recorded from the benchmark's own code (nothing inside
// src/ is instrumented). A span carries both clocks: virtual (simulator)
// time and host (steady_clock) time. Recording only reads the clocks, so a
// traced run schedules exactly the same simulator events as an untraced one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace kafkadirect {
namespace kdbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t record = -1;  // record id shared by every span of one record
  int64_t parent = -1;  // index of the parent span, -1 for a root
  int64_t v0 = 0, v1 = 0;  // virtual start / end (ns)
  int64_t h0 = 0, h1 = 0;  // host start / end (ns)
};

/// In-memory span store; written out once, at exit. When disabled every
/// call is a branch and nothing else.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  /// Reserves one `record` root span per record id, at indices [0, n), so
  /// children can name their parent before the record's end is known.
  /// Must come before any other span.
  void ReserveRecords(size_t n) {
    if (!enabled_) return;
    spans_.resize(n);
    for (size_t i = 0; i < n; i++) {
      spans_[i].name = "record";
      spans_[i].record = static_cast<int64_t>(i);
    }
  }
  void SetRecord(int64_t id, int64_t v0, int64_t v1) {
    if (!enabled_) return;
    spans_[id].v0 = v0;
    spans_[id].v1 = v1;
  }

  /// Opens a span; returns its index (or -1 when disabled).
  int64_t Begin(const char* name, int64_t vnow, int64_t record = -1,
                int64_t parent = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.record = record;
    s.parent = parent;
    s.v0 = vnow;
    s.h0 = HostNowNs();
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t idx, int64_t vnow) {
    if (idx < 0) return;
    spans_[idx].v1 = vnow;
    spans_[idx].h1 = HostNowNs();
  }
  /// A complete child span with known bounds (e.g. the delivering poll of
  /// one record, shared by every record that poll returned).
  void Add(const char* name, int64_t record, int64_t parent, int64_t v0,
           int64_t v1, int64_t h0, int64_t h1) {
    if (!enabled_) return;
    spans_.push_back(Span{name, record, parent, v0, v1, h0, h1});
  }

  /// Per span name: count, summed virtual duration, summed virtual self
  /// time (duration minus the union of its children's intervals, clipped
  /// to the span) and summed host duration.
  struct NameStats {
    uint64_t count = 0;
    double virt_ns = 0, self_ns = 0, host_ns = 0;
  };
  std::map<std::string, NameStats> SelfTimes(
      uint64_t* mismatches) const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.v0, s.v1});
    }
    std::map<std::string, NameStats> out;
    *mismatches = 0;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      int64_t dur = s.v1 - s.v0;
      int64_t covered = CoveredNs(&kids[i], s.v0, s.v1);
      NameStats& st = out[s.name];
      st.count++;
      st.virt_ns += static_cast<double>(dur);
      st.self_ns += static_cast<double>(dur - covered);
      st.host_ns += static_cast<double>(s.h1 - s.h0);
      // Self time plus child time equals the duration only when the
      // children's union lies within the span.
      if (covered < 0 || covered > dur) (*mismatches)++;
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"record\":%lld,"
                   "\"parent\":%lld,\"v0\":%lld,\"v1\":%lld,\"h0\":%lld,"
                   "\"h1\":%lld}\n",
                   i, s.name, static_cast<long long>(s.record),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.v0), static_cast<long long>(s.v1),
                   static_cast<long long>(s.h0),
                   static_cast<long long>(s.h1));
    }
    return std::fclose(f) == 0;
  }

 private:
  /// Length of the union of `iv` clipped to [lo, hi].
  static int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>>* iv,
                           int64_t lo, int64_t hi) {
    if (iv->empty() || hi <= lo) return 0;
    std::sort(iv->begin(), iv->end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : *iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    return covered;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace kdbench
}  // namespace kafkadirect
