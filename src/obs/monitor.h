// Monitor: live invariant watching over the metrics registry.
//
// Watchers are named predicates evaluated against the MetricsRegistry; the
// monitor is ticked from the simulator at a configurable *virtual-time*
// period (StartTicking), so cross-layer invariants — byte conservation,
// signaled <= posted, credit windows, HWM monotonicity, SRQ bounds — are
// checked continuously while the workload runs instead of post-hoc.
//
// A violation is latched per watcher (reported once, not per tick), logged,
// handed to the violation hook (the harness dumps the flight recorder
// there), and — in strict mode — aborts the process so CI catches it.
// Watchers whose instruments have not been registered yet pass vacuously:
// the standard set can be installed unconditionally against any deployment.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace obs {

class Monitor {
 public:
  /// Returns true when the invariant holds. On failure, fill *detail with a
  /// human-readable account of the observed values.
  using Predicate =
      std::function<bool(const MetricsRegistry&, std::string* detail)>;

  struct Violation {
    std::string watcher;
    std::string detail;
    int64_t at_ns = 0;
  };

  void AddWatcher(std::string name, Predicate check);
  size_t num_watchers() const { return watchers_.size(); }

  void set_strict(bool on) { strict_ = on; }
  bool strict() const { return strict_; }

  /// Invoked once per violation, before a strict-mode abort — the harness
  /// uses it to record a kViolation flight event and dump the recorder.
  void set_violation_hook(std::function<void(const Violation&)> hook) {
    violation_hook_ = std::move(hook);
  }

  /// Evaluates every not-yet-tripped watcher; returns the number of new
  /// violations. Aborts in strict mode after logging and running the hook.
  int CheckNow(const MetricsRegistry& metrics, int64_t now_ns);

  /// Self-rescheduling virtual-time tick. The registry and simulator must
  /// outlive the simulation (both live on the fabric/harness, so they do).
  void StartTicking(sim::Simulator& sim, const MetricsRegistry& metrics,
                    sim::TimeNs period_ns);
  void StopTicking() { armed_ = false; }

  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t checks_run() const { return checks_run_; }

 private:
  void ScheduleTick(sim::Simulator& sim, const MetricsRegistry& metrics,
                    sim::TimeNs period_ns);

  struct Watcher {
    std::string name;
    Predicate check;
    bool tripped = false;
  };
  std::vector<Watcher> watchers_;
  std::vector<Violation> violations_;
  std::function<void(const Violation&)> violation_hook_;
  uint64_t checks_run_ = 0;
  bool strict_ = false;
  bool armed_ = false;
};

/// Installs the standard cross-layer invariant set (DESIGN.md §13):
///   rdma.signaled_le_posted   kd.rdma.wrs_signaled <= kd.rdma.wrs_posted
///   kafka.byte_conservation   sum(broker produce.bytes) ==
///                             kd.direct zero-copy bytes + copied bytes
///   direct.credit_window      0 <= repl.credits_outstanding <= credit_cap
///   kafka.hwm_monotonic       every per-partition
///                             kd.broker.<id>.<tp>.hwm.offset gauge sits
///                             at its own high-water mark
///   rdma.srq_bounded          kd.rdma.srq.depth (and its high water)
///                             <= kd.rdma.srq.capacity
/// Each passes vacuously while its instruments are unregistered.
void InstallStandardWatchers(Monitor& monitor);

}  // namespace obs
}  // namespace kafkadirect
