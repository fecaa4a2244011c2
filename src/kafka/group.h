// Consumer groups (DESIGN.md §15): a coordinator riding on the elected
// controller broker, plus the client-side GroupMember protocol driver.
//
// Rebalance protocol (modeled on Kafka's GroupCoordinator):
//   join    — member (re)enters; the group goes kPreparing and a
//             generation forms once every known member rejoined and the
//             join window quiesced (or the session timeout drops the
//             stragglers). Joins park until the generation forms.
//   sync    — member fetches its partition assignment (round-robin over
//             members sorted by name — deterministic).
//   heartbeat — liveness + the rebalance signal: kRebalanceInProgress
//             tells the member to commit its offsets and rejoin.
//   leave   — graceful exit, triggers an immediate rebalance.
//
// Offsets are NOT coordinator state: members commit through the partition
// leaders (TCP CommitOffset, replicated through the ISR before the ack,
// or the RDMA commit slot), and resume by FetchCommittedOffset at the
// (possibly new) leader. That is how a rebalanced consumer lands
// exactly-once on the broker's RDMA-committed count.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kafka/broker.h"

namespace kafkadirect {
namespace kafka {

class ControlPlane;

class GroupCoordinator {
 public:
  GroupCoordinator(Broker& broker, ControlPlane& cp);

  /// Spawns the member-expiry loop.
  void Start();
  /// Wakes every parked join with an error and stops the expiry loop.
  void Stop();
  /// Drops all group state (controller election / step-down): members get
  /// kUnknownMember on their next RPC and rejoin at the new coordinator.
  void Reset();

  sim::Co<void> HandleJoin(Broker::Request req);
  sim::Co<void> HandleSync(Broker::Request req);
  sim::Co<void> HandleHeartbeat(Broker::Request req);
  sim::Co<void> HandleLeave(Broker::Request req);

  int64_t generation_of(const std::string& group) const;
  size_t num_members(const std::string& group) const;

 private:
  struct MemberState {
    sim::TimeNs last_hb = 0;
    bool pending_join = false;
  };

  struct GroupState {
    std::string name;
    std::string topic;
    int64_t generation = 0;
    enum Phase { kEmpty, kPreparing, kStable } phase = kEmpty;
    std::map<std::string, MemberState> members;  // ordered => deterministic
    std::map<std::string, std::vector<int32_t>> assignment;
    std::unique_ptr<sim::Event> formed;  // pulsed when a generation forms
    sim::TimeNs join_deadline = 0;       // last join + rebalance delay
    sim::TimeNs prepare_deadline = 0;    // rebalance hard timeout
    bool form_loop_running = false;
    bool dead = false;  // coordinator moved; parked joins must error out
    obs::Gauge* generation_gauge = nullptr;
  };
  using GroupPtr = std::shared_ptr<GroupState>;

  GroupPtr GetOrCreate(const std::string& group, const std::string& topic);
  void StartRebalance(const GroupPtr& g);
  void FormGeneration(const GroupPtr& g);
  sim::Co<void> FormLoop(GroupPtr g);
  sim::Co<void> ExpiryLoop();
  /// Parks until the generation forms, then answers the join.
  sim::Co<void> RespondJoin(net::MessageStreamPtr conn, GroupPtr g,
                            std::string member);

  Broker& broker_;
  ControlPlane& cp_;
  sim::Simulator& sim_;
  std::map<std::string, GroupPtr> groups_;
  bool running_ = false;
  obs::Counter* rebalances_ = nullptr;
  obs::Counter* expirations_ = nullptr;
};

/// Client-side consumer-group membership driver: maintains join/sync/
/// heartbeat against the coordinator (re-resolving it across controller
/// elections) and surfaces assignment changes through coroutine hooks.
/// The revoke hook runs BEFORE rejoining — commit your offsets there; the
/// assign hook runs after sync — fetch committed offsets and resume.
class GroupMember {
 public:
  struct Config {
    std::string group;
    std::string member;
    std::string topic;
    sim::TimeNs heartbeat_interval_ns = 2 * 1000 * 1000;  // 2 ms
    sim::TimeNs retry_backoff_ns = 1 * 1000 * 1000;       // 1 ms
  };
  /// Returns the current coordinator's fabric node, or kNoCoordinator when
  /// none is known yet (node 0 is a valid broker).
  static constexpr uint64_t kNoCoordinator = ~0ull;
  using Resolver = std::function<uint64_t()>;
  using AssignmentHook = std::function<sim::Co<void>(
      const std::vector<int32_t>& partitions, int64_t generation)>;

  GroupMember(sim::Simulator& sim, tcpnet::Network& tcp, net::NodeId node,
              Resolver resolver, Config config);
  /// Requires the membership loop to have drained: Stop(), then run the
  /// simulation until stopped() — destroying earlier would leave the loop
  /// with a dangling `this`.
  ~GroupMember();

  void set_on_revoke(AssignmentHook hook) { on_revoke_ = std::move(hook); }
  void set_on_assign(AssignmentHook hook) { on_assign_ = std::move(hook); }

  /// Spawns the membership loop.
  void Start();
  /// Leaves the group (best effort) and stops the loop.
  void Stop();

  const std::vector<int32_t>& assignment() const { return assignment_; }
  int64_t generation() const { return generation_; }
  uint64_t rebalances() const { return rebalances_; }
  /// Joined + synced in the current generation.
  bool stable() const { return stable_; }
  bool stopped() const { return stopped_; }

 private:
  sim::Co<void> Run();
  sim::Co<Status> EnsureConn();
  sim::Co<StatusOr<std::vector<uint8_t>>> Rpc(std::vector<uint8_t> frame);
  sim::Co<Status> JoinAndSync();
  sim::Co<void> LeaveAndClose();
  void DropConn();

  sim::Simulator& sim_;
  tcpnet::Network& tcp_;
  net::NodeId node_;
  Resolver resolver_;
  Config config_;
  AssignmentHook on_revoke_;
  AssignmentHook on_assign_;

  net::MessageStreamPtr conn_;
  std::vector<int32_t> assignment_;
  int64_t generation_ = 0;
  uint64_t rebalances_ = 0;
  bool stable_ = false;
  bool need_rejoin_ = true;
  bool stopped_ = false;
  bool started_ = false;
};

}  // namespace kafka
}  // namespace kafkadirect
