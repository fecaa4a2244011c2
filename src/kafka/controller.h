// Cluster control plane (DESIGN.md §15): a controller elected among the
// brokers with a deterministic sim-clock term/heartbeat protocol.
//
//   - Every broker runs a watchdog; with no controller heartbeat for
//     miss_limit intervals plus an id-rank stagger, it claims term+1.
//     Ranks make the takeover deterministic: the lowest surviving id
//     claims first and its heartbeats (carrying the higher term) keep the
//     rest in line. A deposed controller steps down when it sees a higher
//     term in a heartbeat response.
//   - The controller probes every peer each interval. miss_limit
//     consecutive failures declare the broker dead: each partition it led
//     gets a new leader — the alive ISR member with the longest log
//     (queried via LogInfo; follower logs are leader-log prefixes, so the
//     longest log loses nothing) — under a bumped leader epoch, broadcast
//     to all alive brokers. Partitions where the dead broker followed get
//     an ISR shrink so the leader's HWM stops waiting on it.
//   - Leaders manage ISR membership under replication lag (shrink beyond
//     kIsrMaxLagRecords, expand once caught up and recently seen) and
//     report changes to the controller, which rebroadcasts.
//   - Every broker mirrors the full assignment map (RecordAssignment), so
//     whichever broker wins the next election can fail partitions over.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "kafka/broker.h"

namespace kafkadirect {
namespace kafka {

/// Controller-side record of one partition's leadership state.
struct PartitionAssignment {
  int32_t leader = -1;
  uint64_t leader_node = 0;
  int64_t epoch = 0;
  std::vector<int32_t> isr;
  std::vector<int32_t> replicas;
};

class ControlPlane {
 public:
  ControlPlane(Broker& broker, std::vector<ControlPlanePeer> peers);

  /// Spawns the watchdog, heartbeat and ISR-management loops.
  void Start();
  /// Stops the loops and drops peer connections; called from
  /// Broker::Shutdown before the listener closes.
  void Stop();

  bool is_controller() const { return is_controller_; }
  int64_t term() const { return term_; }
  /// Broker id this node believes is the controller (-1 = none yet).
  int32_t known_controller() const { return controller_id_; }
  bool running() const { return running_; }

  /// Dispatches one control-plane request (routed by the API worker).
  sim::Co<void> Handle(Broker::Request req);

  /// One serialized request/response round trip to a peer broker over the
  /// lazily-connected control channel. Any transport error drops the
  /// cached connection so the next call reconnects.
  sim::Co<StatusOr<std::vector<uint8_t>>> PeerRpc(int32_t broker_id,
                                                  std::vector<uint8_t> frame);

  /// Mirrors a leadership decision into the local assignment map.
  void RecordAssignment(const LeaderAndIsrRequest& req);
  /// Seeds the assignment map for a partition created after Start() (topic
  /// creation is a deployment-wide act, so every broker seeds the same
  /// entry and any future controller can fail it over).
  void SeedAssignment(const TopicPartitionId& tp, const PartitionState& ps);
  const std::map<TopicPartitionId, PartitionAssignment>& assignments() const {
    return assignment_;
  }

  /// Liveness as seen from this node's controller state (everyone is alive
  /// until this node's controller term declares otherwise).
  bool IsAlive(int32_t broker_id) const;

 private:
  struct Peer {
    ControlPlanePeer info;
    net::MessageStreamPtr conn;
    std::unique_ptr<sim::AsyncMutex> mu;
    int missed = 0;
    bool alive = true;
  };

  Peer* FindPeer(int32_t broker_id);
  uint64_t NodeOf(int32_t broker_id) const;

  sim::Co<void> WatchdogLoop();
  sim::Co<void> HeartbeatLoop();
  sim::Co<void> IsrLoop();
  /// One controller probe round over all alive peers.
  sim::Co<void> HeartbeatRound();
  /// Declares a broker dead: re-elect leaders for its partitions from the
  /// ISR, shrink it out of every other ISR, broadcast the new state.
  sim::Co<void> FailoverBroker(int32_t dead);
  /// Applies locally and pushes a LeaderAndIsr install to all alive peers.
  sim::Co<void> Broadcast(LeaderAndIsrRequest req);
  void BecomeController();
  void StepDown(int64_t new_term, int32_t new_controller);

  sim::Co<void> HandleControllerHeartbeat(Broker::Request req);
  sim::Co<void> HandleLeaderAndIsr(Broker::Request req);
  sim::Co<void> HandleLogInfo(Broker::Request req);

  Broker& broker_;
  sim::Simulator& sim_;
  std::vector<Peer> peers_;  // sorted by id; includes self (conn unused)
  int rank_ = 0;             // index of own id among the sorted peer ids

  bool running_ = false;
  bool is_controller_ = false;
  int64_t term_ = 0;
  int32_t controller_id_ = -1;
  sim::TimeNs last_heartbeat_ns_ = 0;

  std::map<TopicPartitionId, PartitionAssignment> assignment_;

  // kd.cp.* cluster-wide counters + per-broker term/controller gauges.
  obs::Counter* elections_ = nullptr;
  obs::Counter* leader_moves_ = nullptr;
  obs::Counter* isr_shrinks_ = nullptr;
  obs::Counter* isr_expands_ = nullptr;
  obs::Counter* broker_deaths_ = nullptr;
  obs::Counter* unavailable_partitions_ = nullptr;
  obs::Gauge* term_gauge_ = nullptr;
  obs::Gauge* is_controller_gauge_ = nullptr;
  obs::Gauge* alive_gauge_ = nullptr;
};

}  // namespace kafka
}  // namespace kafkadirect
