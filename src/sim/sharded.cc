#include "sim/sharded.h"

#include <algorithm>

namespace kafkadirect {
namespace sim {

namespace {

/// Saturating add on virtual time (horizons reach kNoEventTime).
TimeNs SatAdd(TimeNs a, TimeNs b) {
  TimeNs r;
  if (__builtin_add_overflow(a, b, &r)) return Simulator::kNoEventTime;
  return r;
}

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config)
    : num_shards_(std::max<uint32_t>(1, config.num_shards)),
      lookahead_(std::max<TimeNs>(1, config.lookahead_ns)) {
  shards_.reserve(num_shards_);
  for (uint32_t i = 0; i < num_shards_; i++) {
    auto sh = std::make_unique<Simulator>(/*register_log_clock=*/i == 0);
    sh->engine_ = this;
    sh->shard_id_ = i;
    shards_.push_back(std::move(sh));
  }
  inboxes_.resize(num_shards_);
  stats_.resize(num_shards_);
}

ShardedSimulator::~ShardedSimulator() = default;

bool ShardedSimulator::Idle() const {
  for (const auto& sh : shards_) {
    if (!sh->Idle()) return false;
  }
  for (const auto& inbox : inboxes_) {
    if (!inbox.empty()) return false;
  }
  return true;
}

uint64_t ShardedSimulator::events_processed() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->events_processed();
  return total;
}

size_t ShardedSimulator::pending_events() const {
  size_t total = 0;
  for (const auto& sh : shards_) total += sh->pending_events();
  for (const auto& inbox : inboxes_) total += inbox.size();
  return total;
}

size_t ShardedSimulator::pending_events_high_water() const {
  size_t total = 0;
  for (const auto& sh : shards_) total += sh->pending_events_high_water();
  return total;
}

ShardStats ShardedSimulator::shard_stats(uint32_t i) const {
  KD_DCHECK(i < num_shards_);
  ShardStats s = stats_[i];
  s.events = shards_[i]->events_processed();
  return s;
}

void ShardedSimulator::CrossSend(uint32_t src, uint32_t dst, TimeNs delay,
                                 InlineFunction fn) {
  KD_DCHECK(src < num_shards_ && dst < num_shards_);
  if (delay < 0) delay = 0;
  if (dst == src) {
    shards_[src]->Schedule(delay, std::move(fn));
    return;
  }
  // A remote delivery may not land inside the epoch that sent it.
  if (delay < lookahead_) {
    stats_[src].lookahead_clamps++;
    delay = lookahead_;
  }
  const TimeNs dst_time = SatAdd(shards_[src]->Now(), delay);
  if (!running_) {
    // Setup phase (no shard executing): schedule directly.
    shards_[dst]->ScheduleAt(dst_time, std::move(fn));
    return;
  }
  inboxes_[dst].push_back(
      CrossEvent{dst_time, src, stats_[src].cross_sent, std::move(fn)});
  stats_[src].cross_sent++;
}

void ShardedSimulator::DrainInbox(uint32_t dst) {
  std::vector<CrossEvent>& pend = inboxes_[dst];
  if (pend.empty()) return;
  ShardStats& st = stats_[dst];
  if (pend.size() > st.mailbox_max_depth) st.mailbox_max_depth = pend.size();
  st.cross_received += pend.size();
  // Fixed merge order — (arrival time, source shard, source sequence) —
  // makes delivery order independent of send interleaving; equal-arrival-
  // time ties enter the destination wheel bucket in exactly this order.
  std::sort(pend.begin(), pend.end(),
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.dst_time != b.dst_time) return a.dst_time < b.dst_time;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (CrossEvent& e : pend) {
    shards_[dst]->ScheduleAt(e.dst_time, std::move(e.fn));
  }
  pend.clear();
}

void ShardedSimulator::RunMerged(TimeNs limit,
                                 const std::function<bool()>* done,
                                 TimeNs deadline) {
  stop_ = false;
  for (auto& sh : shards_) sh->stopped_ = false;
  running_ = true;
  bool interrupted = false;
  std::vector<uint64_t> epoch_start_events(num_shards_);
  while (!interrupted) {
    for (uint32_t s = 0; s < num_shards_; s++) DrainInbox(s);
    TimeNs min_next = Simulator::kNoEventTime;
    for (uint32_t s = 0; s < num_shards_; s++) {
      min_next = std::min(min_next, shards_[s]->NextEventTime());
    }
    if (min_next == Simulator::kNoEventTime || min_next > limit) break;
    const TimeNs epoch_end =
        std::min(SatAdd(min_next, lookahead_), SatAdd(limit, 1));
    epochs_++;
    for (uint32_t s = 0; s < num_shards_; s++) {
      epoch_start_events[s] = shards_[s]->events_processed_;
    }
    // Merged schedule: always execute the globally earliest event,
    // (time, shard) ordered. Cross-shard sends buffer in the inboxes until
    // the epoch ends.
    for (;;) {
      TimeNs best = epoch_end;
      uint32_t bs = num_shards_;
      for (uint32_t s = 0; s < num_shards_; s++) {
        const TimeNs t = shards_[s]->NextEventTime();
        if (t < best) {
          best = t;
          bs = s;
        }
      }
      if (bs == num_shards_) break;
      if (done != nullptr && (*done)()) {
        interrupted = true;
        break;
      }
      if (best > deadline) {
        interrupted = true;
        break;
      }
      Simulator& sh = *shards_[bs];
      sh.ExecuteNextBefore(epoch_end);
      merged_now_ = sh.now_;
      if (sh.stopped_ || stop_) {
        interrupted = true;
        break;
      }
    }
    for (uint32_t s = 0; s < num_shards_; s++) {
      if (shards_[s]->events_processed_ != epoch_start_events[s]) {
        stats_[s].epochs_active++;
      }
    }
  }
  running_ = false;
  if (!interrupted && limit != Simulator::kNoEventTime) {
    for (auto& sh : shards_) sh->AdvanceTo(limit);
    merged_now_ = limit;
  }
}

void ShardedSimulator::Run() {
  RunMerged(Simulator::kNoEventTime, nullptr, Simulator::kNoEventTime);
}

void ShardedSimulator::RunUntil(TimeNs time) {
  RunMerged(time, nullptr, Simulator::kNoEventTime);
}

void ShardedSimulator::RunUntilDone(const std::function<bool()>& done,
                                    TimeNs deadline) {
  RunMerged(Simulator::kNoEventTime, &done, deadline);
}

}  // namespace sim
}  // namespace kafkadirect
