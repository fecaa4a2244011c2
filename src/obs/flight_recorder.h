// FlightRecorder: an always-on, allocation-free ring of the last N datapath
// events — the black box the invariant monitor dumps when something goes
// wrong mid-run.
//
// Design (ISSUE 8 tentpole piece 3):
//   - One fixed-size power-of-two ring per simulator shard, sized once at
//     Configure() time; recording never allocates, never branches on ring
//     fullness (old events are overwritten), and costs a handful of stores.
//     The layout is a flat slot array indexed by a monotonically
//     increasing head masked to the capacity.
//   - Events are 24-byte PODs: virtual timestamp, an event type, the shard,
//     and three payload words whose meaning is per-type (qp_num/opcode/bytes
//     for verbs, qp/grant/LEO for credits, ...).
//   - Dumps merge all shard rings into one deterministic Chrome-trace JSON
//     (instant events, one Perfetto process per shard) ordered by
//     (ts, shard, ring order) — byte-identical across runs of the same
//     deterministic schedule, which the golden dump test pins.
//
// Compile-time kill switch: building with -DKD_NO_FLIGHT_RECORDER turns
// Record() into an empty inline so the ≤3% overhead budget can be measured
// against a recorder-free binary (bench/simcore_gbench BM_FlightRecorder*).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace kafkadirect {
namespace obs {

enum class FlightEventType : uint8_t {
  kVerbPosted = 1,   // a=qp_num, b=opcode, c=bytes
  kNotification = 2, // a=slot/grant id, b=kind, c=readable/pushed bytes
  kCreditGrant = 3,  // a=qp_num, b=credits granted, c=follower LEO
  kIsrUpdate = 4,    // a=broker id, b=follower id, c=follower offset
  kHwmAdvance = 5,   // a=broker id, b=partition, c=new high watermark
  kCommit = 6,       // a=file id, b=bytes committed, c=new commit pos
  kRingPush = 7,     // a=grant ref, b=chunk bytes, c=total pushed
  kRnr = 8,          // a=qp_num, b=opcode, c=0
  kViolation = 9,    // a=watcher index, b=0, c=0
};

const char* FlightEventTypeName(FlightEventType type);

struct FlightEvent {
  int64_t ts_ns = 0;
  uint64_t c = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  FlightEventType type = FlightEventType::kVerbPosted;
  uint8_t shard = 0;
};

class FlightRecorder {
 public:
  static constexpr uint32_t kDefaultCapacity = 4096;

  FlightRecorder() { Configure(1, kDefaultCapacity); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// (Re)sizes to `num_shards` rings of `capacity` events each (rounded up
  /// to a power of two). Allocates; call once at setup, never on the
  /// datapath. Existing events are discarded.
  void Configure(uint32_t num_shards, uint32_t capacity = kDefaultCapacity);

  static constexpr bool compiled_in() {
#ifdef KD_NO_FLIGHT_RECORDER
    return false;
#else
    return true;
#endif
  }

  void set_enabled(bool on) { enabled_ = on && compiled_in(); }
  bool enabled() const { return enabled_; }

  /// The few-stores hot path. `shard` out of range falls back to ring 0 so
  /// callers can pass sim.shard_id() unconditionally.
  void Record(uint32_t shard, int64_t ts_ns, FlightEventType type, uint32_t a,
              uint32_t b, uint64_t c) {
#ifndef KD_NO_FLIGHT_RECORDER
    if (!enabled_) return;
    Ring& r = rings_[shard < rings_.size() ? shard : 0];
    FlightEvent& e = r.slots[r.head & r.mask];
    e.ts_ns = ts_ns;
    e.c = c;
    e.a = a;
    e.b = b;
    e.type = type;
    e.shard = static_cast<uint8_t>(shard);
    r.head++;
#else
    (void)shard, (void)ts_ns, (void)type, (void)a, (void)b, (void)c;
#endif
  }

  uint32_t num_shards() const { return static_cast<uint32_t>(rings_.size()); }
  uint32_t capacity() const {
    return rings_.empty() ? 0 : static_cast<uint32_t>(rings_[0].slots.size());
  }
  /// Total events ever recorded / overwritten-before-dump across shards.
  uint64_t recorded() const;
  uint64_t dropped() const;

  /// Oldest-to-newest snapshot of one shard's surviving events.
  std::vector<FlightEvent> Snapshot(uint32_t shard) const;
  /// All shards merged in deterministic (ts, shard, ring order) order.
  std::vector<FlightEvent> MergedSnapshot() const;

  /// Chrome-trace JSON (instant events, one process per shard) of
  /// MergedSnapshot(). Deterministic for a deterministic schedule.
  void WriteChromeTrace(std::ostream& os) const;
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  struct Ring {
    std::vector<FlightEvent> slots;
    uint64_t head = 0;
    uint32_t mask = 0;
  };
  std::vector<Ring> rings_;
  bool enabled_ = compiled_in();
};

}  // namespace obs
}  // namespace kafkadirect
