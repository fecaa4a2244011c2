#include "sim/simulator.h"

#include "common/logging.h"
#include "sim/sharded.h"

namespace kafkadirect {
namespace sim {

uint32_t Simulator::Insert(TimeNs time, InlineFunction fn) {
  if (time < now_) time = now_;
  const uint32_t slot = AcquireSlot(std::move(fn));
  const uint64_t index = static_cast<uint64_t>(time - wheel_base_);
  if (index < kWheelSize) {
    AppendToBucket(static_cast<size_t>(index), slot);
  } else {
    overflow_.push_back(Entry{time, next_seq_, slot});
    SiftUp(overflow_.size() - 1);
  }
  next_seq_++;
  if (++pending_ > pending_high_water_) pending_high_water_ = pending_;
  return slot;
}

bool Simulator::Cancel(const TimerHandle& h) {
  if (h.slot >= slots_.size() || slots_[h.slot].generation != h.generation) {
    return false;
  }
  // Destroyed after the bookkeeping: a captured object's destructor may
  // schedule, which can regrow slots_.
  InlineFunction fn = std::move(slots_[h.slot].fn);
  slots_[h.slot].generation++;
  pending_--;
  // Every pending event at or past the window end is in the heap: the
  // window only moves at Refill, which decants all of it.
  const uint64_t index = static_cast<uint64_t>(h.time - wheel_base_);
  if (index < kWheelSize) {
    const size_t i = static_cast<size_t>(index);
    uint32_t prev = kNil;
    uint32_t cur = bucket_head_[i];
    while (cur != h.slot) {
      KD_DCHECK(cur != kNil) << "pending timer missing from its bucket";
      prev = cur;
      cur = slots_[cur].next;
    }
    const uint32_t next = slots_[cur].next;
    if (prev == kNil) {
      bucket_head_[i] = next;
      if (next == kNil) bitmap_[i >> 6] &= ~(1ull << (i & 63));
    } else {
      slots_[prev].next = next;
    }
    if (bucket_tail_[i] == cur) bucket_tail_[i] = prev;
    wheel_count_--;
    slots_[h.slot].next = kNil;
    free_slots_.push_back(h.slot);
  } else {
    slots_[h.slot].next = kDead;
    overflow_dead_++;
    DropDeadTop();
    if (overflow_dead_ * 2 > overflow_.size()) Compact();
  }
  return true;
}

void Simulator::Compact() {
  size_t kept = 0;
  for (const Entry& e : overflow_) {
    if (IsTombstone(e)) {
      ReleaseTombstone(e.slot);
    } else {
      overflow_[kept++] = e;
    }
  }
  overflow_.resize(kept);
  // Floyd heapify: (time, seq) is a strict total order, so the rebuilt
  // heap pops exactly the sequence the old one would have.
  if (kept < 2) return;
  for (size_t i = (kept - 2) / kHeapArity + 1; i-- > 0;) {
    SiftDown(i, overflow_[i]);
  }
}

void Simulator::Refill() {
  KD_DCHECK(wheel_count_ == 0 && !overflow_.empty());
  wheel_base_ = overflow_.front().time;
  cursor_ = 0;
  const TimeNs end = wheel_base_ + static_cast<TimeNs>(kWheelSize);
  while (!overflow_.empty() && overflow_.front().time < end) {
    const Entry e = PopOverflowTop();
    AppendToBucket(static_cast<size_t>(e.time - wheel_base_), e.slot);
    DropDeadTop();
  }
}

void Simulator::Run() {
  stopped_ = false;
  while (!Idle() && !stopped_) {
    const auto [time, slot] = PopNext();
    KD_DCHECK(time >= now_);
    now_ = time;
    events_processed_++;
    InlineFunction fn = TakeFn(slot);
    fn();
  }
}

void Simulator::RunUntilDone(const std::function<bool()>& done,
                             TimeNs deadline) {
  stopped_ = false;
  while (!done() && !Idle() && !stopped_ && PeekTime() <= deadline) {
    const auto [time, slot] = PopNext();
    now_ = time;
    events_processed_++;
    InlineFunction fn = TakeFn(slot);
    fn();
  }
}

bool Simulator::ExecuteNextBefore(TimeNs horizon) {
  if (stopped_ || Idle() || PeekTime() >= horizon) return false;
  const auto [time, slot] = PopNext();
  KD_DCHECK(time >= now_);
  now_ = time;
  events_processed_++;
  InlineFunction fn = TakeFn(slot);
  fn();
  return true;
}

void Simulator::ScheduleCross(uint32_t dst_shard, TimeNs delay,
                              InlineFunction fn) {
  KD_CHECK(engine_ != nullptr)
      << "ScheduleCross on a standalone simulator (no owning engine)";
  engine_->CrossSend(shard_id_, dst_shard, delay, std::move(fn));
}

void Simulator::RunUntil(TimeNs time) {
  stopped_ = false;
  while (!Idle() && !stopped_ && PeekTime() <= time) {
    const auto [time_now, slot] = PopNext();
    now_ = time_now;
    events_processed_++;
    InlineFunction fn = TakeFn(slot);
    fn();
  }
  if (!stopped_ && now_ < time) now_ = time;
}

}  // namespace sim
}  // namespace kafkadirect
