#include "obs/monitor.h"

#include <cstdlib>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace kafkadirect {
namespace obs {

void Monitor::AddWatcher(std::string name, Predicate check) {
  watchers_.push_back(Watcher{std::move(name), std::move(check), false});
}

int Monitor::CheckNow(const MetricsRegistry& metrics, int64_t now_ns) {
  checks_run_++;
  int fired = 0;
  for (size_t i = 0; i < watchers_.size(); i++) {
    Watcher& w = watchers_[i];
    if (w.tripped) continue;  // latched: one report per watcher
    std::string detail;
    if (w.check(metrics, &detail)) continue;
    w.tripped = true;
    fired++;
    Violation v{w.name, detail, now_ns};
    KD_LOG(kError) << "monitor: invariant '" << v.watcher
                   << "' violated at t=" << now_ns << "ns: " << v.detail;
    violations_.push_back(v);
    if (violation_hook_) violation_hook_(violations_.back());
    if (strict_) {
      KD_LOG(kError) << "monitor: --strict, aborting";
      std::abort();
    }
  }
  return fired;
}

void Monitor::StartTicking(sim::Simulator& sim,
                           const MetricsRegistry& metrics,
                           sim::TimeNs period_ns) {
  if (period_ns <= 0) return;
  armed_ = true;
  ScheduleTick(sim, metrics, period_ns);
}

void Monitor::ScheduleTick(sim::Simulator& sim,
                           const MetricsRegistry& metrics,
                           sim::TimeNs period_ns) {
  sim.Schedule(period_ns, [this, &sim, &metrics, period_ns] {
    if (!armed_) return;
    CheckNow(metrics, sim.Now());
    ScheduleTick(sim, metrics, period_ns);
  });
}

namespace {

uint64_t CounterOr0(const MetricsRegistry& m, const std::string& name) {
  const Counter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

}  // namespace

void InstallStandardWatchers(Monitor& monitor) {
  monitor.AddWatcher(
      "rdma.signaled_le_posted",
      [](const MetricsRegistry& m, std::string* detail) {
        const Counter* posted = m.FindCounter("kd.rdma.wrs_posted");
        const Counter* signaled = m.FindCounter("kd.rdma.wrs_signaled");
        if (posted == nullptr || signaled == nullptr) return true;
        if (signaled->value() <= posted->value()) return true;
        std::ostringstream os;
        os << "wrs_signaled=" << signaled->value() << " > wrs_posted="
           << posted->value();
        *detail = os.str();
        return false;
      });

  monitor.AddWatcher(
      "kafka.byte_conservation",
      [](const MetricsRegistry& m, std::string* detail) {
        uint64_t produced = m.SumCounters("kd.broker.", ".produce.bytes");
        if (produced == 0) return true;
        uint64_t copied =
            m.SumCounters("kd.broker.", ".produce.copied_bytes");
        uint64_t zero_copy =
            CounterOr0(m, "kd.direct.rdma_produce.zero_copy_bytes");
        if (produced == copied + zero_copy) return true;
        std::ostringstream os;
        os << "produce.bytes=" << produced << " != copied=" << copied
           << " + zero_copy=" << zero_copy;
        *detail = os.str();
        return false;
      });

  monitor.AddWatcher(
      "direct.credit_window",
      [](const MetricsRegistry& m, std::string* detail) {
        const Gauge* outstanding =
            m.FindGauge("kd.direct.repl.credits_outstanding");
        if (outstanding == nullptr) return true;
        const Gauge* cap = m.FindGauge("kd.direct.repl.credit_cap");
        int64_t limit = cap == nullptr ? INT64_MAX : cap->value();
        if (outstanding->value() >= 0 && outstanding->high_water() <= limit)
          return true;
        std::ostringstream os;
        os << "credits_outstanding=" << outstanding->value()
           << " (high_water=" << outstanding->high_water()
           << ") outside [0, " << limit << "]";
        *detail = os.str();
        return false;
      });

  monitor.AddWatcher(
      "kafka.hwm_monotonic",
      [](const MetricsRegistry& m, std::string* detail) {
        // One kd.broker.<id>.<tp>.hwm.offset gauge per partition replica,
        // only ever Set() on advance; a value below its own high-water
        // mark means that partition's HWM moved backwards.
        bool ok = true;
        std::ostringstream os;
        m.ForEachGauge([&](const std::string& name, const Gauge& g) {
          if (name.rfind("kd.broker.", 0) != 0) return;
          if (name.size() < 11 ||
              name.compare(name.size() - 11, 11, ".hwm.offset") != 0)
            return;
          if (g.value() >= g.high_water()) return;
          if (!ok) os << "; ";
          ok = false;
          os << name << "=" << g.value() << " < high_water="
             << g.high_water();
        });
        if (!ok) *detail = os.str();
        return ok;
      });

  monitor.AddWatcher(
      "rdma.srq_bounded",
      [](const MetricsRegistry& m, std::string* detail) {
        const Gauge* depth = m.FindGauge("kd.rdma.srq.depth");
        const Gauge* cap = m.FindGauge("kd.rdma.srq.capacity");
        if (depth == nullptr || cap == nullptr) return true;
        if (depth->value() <= cap->value() &&
            depth->high_water() <= cap->value())
          return true;
        std::ostringstream os;
        os << "srq.depth=" << depth->value() << " (high_water="
           << depth->high_water() << ") > capacity=" << cap->value();
        *detail = os.str();
        return false;
      });

  monitor.AddWatcher(
      "broker.admission_bounded",
      [](const MetricsRegistry& m, std::string* detail) {
        // §14 admission control: the active logical-stream count must
        // never exceed the advertised capacity — over-limit opens are
        // rejected with a retry-after, not admitted. Vacuous unless the
        // QP mux registered its gauges.
        const Gauge* active = m.FindGauge("kd.broker.admission.active");
        const Gauge* cap = m.FindGauge("kd.broker.admission.capacity");
        if (active == nullptr || cap == nullptr) return true;
        if (active->value() <= cap->value() &&
            active->high_water() <= cap->value())
          return true;
        std::ostringstream os;
        os << "admission.active=" << active->value() << " (high_water="
           << active->high_water() << ") > capacity=" << cap->value();
        *detail = os.str();
        return false;
      });

  monitor.AddWatcher(
      "cluster.single_leader_per_partition",
      [](const MetricsRegistry& m, std::string* detail) {
        // §15 control plane: per-broker leader gauges (kd.broker.<id>.
        // leader.<tp>) are 1 on the partition's leader and 0 everywhere
        // else (killed brokers zero theirs on shutdown). Summing across
        // brokers per partition must never exceed 1 — zero is legal while
        // an election converges, split-brain is not.
        std::map<std::string, int64_t> leaders_per_tp;
        m.ForEachGauge([&](const std::string& name, const Gauge& g) {
          if (name.rfind("kd.broker.", 0) != 0) return;
          size_t pos = name.find(".leader.");
          if (pos == std::string::npos) return;
          leaders_per_tp[name.substr(pos + 8)] += g.value();
        });
        bool ok = true;
        std::ostringstream os;
        for (const auto& [tp, count] : leaders_per_tp) {
          if (count <= 1) continue;
          if (!ok) os << "; ";
          ok = false;
          os << tp << " has " << count << " leaders";
        }
        if (!ok) *detail = os.str();
        return ok;
      });

  monitor.AddWatcher(
      "group.offsets_monotonic_across_generations",
      [](const MetricsRegistry& m, std::string* detail) {
        // The kd.group.<g>.<tp>.committed.offset gauges are Set() on every
        // commit, across consumer restarts and leader moves. A value below
        // its own high-water mark means a resuming consumer rewound a
        // group's committed offset (duplicate delivery risk).
        bool ok = true;
        std::ostringstream os;
        m.ForEachGauge([&](const std::string& name, const Gauge& g) {
          if (name.rfind("kd.group.", 0) != 0) return;
          constexpr size_t kSuffix = 17;  // ".committed.offset"
          if (name.size() < kSuffix ||
              name.compare(name.size() - kSuffix, kSuffix,
                           ".committed.offset") != 0)
            return;
          if (g.value() >= g.high_water()) return;
          if (!ok) os << "; ";
          ok = false;
          os << name << "=" << g.value() << " < high_water="
             << g.high_water();
        });
        if (!ok) *detail = os.str();
        return ok;
      });
}

}  // namespace obs
}  // namespace kafkadirect
