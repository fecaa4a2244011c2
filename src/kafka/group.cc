#include "kafka/group.h"

#include "kafka/controller.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace kafka {

namespace {

/// Member expiry: no heartbeat for this long => expelled.
constexpr sim::TimeNs kSessionTimeout = Millis(20);
/// Join-window quiesce: a rebalance generation forms once no new join has
/// arrived for this long (storms coalesce into one generation).
constexpr sim::TimeNs kRebalanceDelay = Millis(1);

}  // namespace

// ---------------------------------------------------------------------------
// GroupCoordinator
// ---------------------------------------------------------------------------

GroupCoordinator::GroupCoordinator(Broker& broker, ControlPlane& cp)
    : broker_(broker), cp_(cp), sim_(broker.simulator()) {
  obs::MetricsRegistry& m = broker_.fabric().obs().metrics;
  rebalances_ = m.GetCounter("kd.cp.group.rebalances");
  expirations_ = m.GetCounter("kd.cp.group.expirations");
}

void GroupCoordinator::Start() {
  if (running_) return;
  running_ = true;
  sim::Spawn(sim_, ExpiryLoop());
}

void GroupCoordinator::Stop() {
  if (!running_) return;
  running_ = false;
  Reset();
}

void GroupCoordinator::Reset() {
  for (auto& [name, g] : groups_) {
    g->dead = true;
    g->formed->Pulse();
  }
  groups_.clear();
}

int64_t GroupCoordinator::generation_of(const std::string& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second->generation;
}

size_t GroupCoordinator::num_members(const std::string& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second->members.size();
}

GroupCoordinator::GroupPtr GroupCoordinator::GetOrCreate(
    const std::string& group, const std::string& topic) {
  auto it = groups_.find(group);
  if (it != groups_.end()) return it->second;
  auto g = std::make_shared<GroupState>();
  g->name = group;
  g->topic = topic;
  g->formed = std::make_unique<sim::Event>(sim_);
  g->generation_gauge = broker_.fabric().obs().metrics.GetGauge(
      "kd.group." + group + ".generation");
  groups_[group] = g;
  return g;
}

void GroupCoordinator::StartRebalance(const GroupPtr& g) {
  if (g->phase == GroupState::kPreparing) return;
  g->phase = GroupState::kPreparing;
  // Every member must rejoin; heartbeats answer kRebalanceInProgress until
  // it does, and FormGeneration drops whoever misses the hard deadline.
  for (auto& [name, m] : g->members) m.pending_join = false;
  const sim::TimeNs now = sim_.Now();
  g->join_deadline = now + kRebalanceDelay;
  g->prepare_deadline = now + kSessionTimeout;
  if (!g->form_loop_running) {
    g->form_loop_running = true;
    sim::Spawn(sim_, FormLoop(g));
  }
}

sim::Co<void> GroupCoordinator::FormLoop(GroupPtr g) {
  constexpr sim::TimeNs tick = kRebalanceDelay / 2;
  while (running_ && !g->dead && g->phase == GroupState::kPreparing) {
    co_await sim::Delay(sim_, tick);
    if (!running_ || g->dead || g->phase != GroupState::kPreparing) break;
    const sim::TimeNs now = sim_.Now();
    bool all_joined = !g->members.empty();
    for (const auto& [name, m] : g->members) {
      if (!m.pending_join) {
        all_joined = false;
        break;
      }
    }
    if ((all_joined && now >= g->join_deadline) ||
        now >= g->prepare_deadline) {
      FormGeneration(g);
      break;
    }
  }
  g->form_loop_running = false;
}

void GroupCoordinator::FormGeneration(const GroupPtr& g) {
  // Whoever failed to rejoin inside the window is out of this generation.
  for (auto it = g->members.begin(); it != g->members.end();) {
    if (!it->second.pending_join) {
      it = g->members.erase(it);
    } else {
      ++it;
    }
  }
  g->generation += 1;
  g->assignment.clear();
  if (g->members.empty()) {
    g->phase = GroupState::kEmpty;
  } else {
    // Round-robin partitions over members sorted by name (std::map order):
    // same members => same assignment on every coordinator, every run.
    int32_t num_partitions = 0;
    auto tm = broker_.topic_metadata_.find(g->topic);
    if (tm != broker_.topic_metadata_.end()) {
      num_partitions = static_cast<int32_t>(tm->second.size());
    }
    std::vector<std::string> names;
    names.reserve(g->members.size());
    for (auto& [name, m] : g->members) {
      names.push_back(name);
      m.pending_join = false;
      m.last_hb = sim_.Now();
    }
    for (int32_t p = 0; p < num_partitions; p++) {
      g->assignment[names[p % names.size()]].push_back(p);
    }
    g->phase = GroupState::kStable;
  }
  g->generation_gauge->Set(g->generation);
  rebalances_->Increment();
  g->formed->Pulse();
}

sim::Co<void> GroupCoordinator::RespondJoin(net::MessageStreamPtr conn,
                                            GroupPtr g, std::string member) {
  while (true) {
    JoinGroupResponse resp;
    if (!running_ || g->dead) {
      resp.error = ErrorCode::kUnknownMember;
      broker_.SendResponse(conn, Encode(resp));
      co_return;
    }
    auto it = g->members.find(member);
    if (it == g->members.end()) {
      resp.error = ErrorCode::kUnknownMember;
      broker_.SendResponse(conn, Encode(resp));
      co_return;
    }
    if (g->phase == GroupState::kStable && !it->second.pending_join) {
      resp.generation = g->generation;
      broker_.SendResponse(conn, Encode(resp));
      co_return;
    }
    const bool fired = co_await g->formed->WaitFor(kSessionTimeout);
    if (!fired) {
      resp.error = ErrorCode::kRebalanceInProgress;
      broker_.SendResponse(conn, Encode(resp));
      co_return;
    }
  }
}

sim::Co<void> GroupCoordinator::HandleJoin(Broker::Request req) {
  JoinGroupRequest jreq;
  if (!Decode(Slice(req.frame), &jreq).ok()) {
    JoinGroupResponse resp;
    resp.error = ErrorCode::kInvalidRequest;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!running_ || !cp_.is_controller()) {
    JoinGroupResponse resp;
    resp.error = ErrorCode::kNotController;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  GroupPtr g = GetOrCreate(jreq.group, jreq.topic);
  if (g->topic != jreq.topic) {
    // An existing group is bound to one topic; silently assigning another
    // topic's partitions would hand the member the wrong data.
    JoinGroupResponse resp;
    resp.error = ErrorCode::kInvalidRequest;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (g->phase != GroupState::kPreparing) StartRebalance(g);
  MemberState& m = g->members[jreq.member];
  m.pending_join = true;
  m.last_hb = sim_.Now();
  g->join_deadline = sim_.Now() + kRebalanceDelay;
  // The join parks until the generation forms; answer from a side task so
  // this API worker goes back to the queue.
  sim::Spawn(sim_, RespondJoin(req.conn, g, jreq.member));
  co_return;
}

sim::Co<void> GroupCoordinator::HandleSync(Broker::Request req) {
  SyncGroupRequest sreq;
  SyncGroupResponse resp;
  if (!Decode(Slice(req.frame), &sreq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!running_ || !cp_.is_controller()) {
    resp.error = ErrorCode::kNotController;
  } else {
    auto git = groups_.find(sreq.group);
    if (git == groups_.end() ||
        git->second->members.count(sreq.member) == 0) {
      resp.error = ErrorCode::kUnknownMember;
    } else {
      GroupPtr g = git->second;
      g->members[sreq.member].last_hb = sim_.Now();
      if (g->phase != GroupState::kStable) {
        resp.error = ErrorCode::kRebalanceInProgress;
      } else if (sreq.generation != g->generation) {
        resp.error = ErrorCode::kIllegalGeneration;
      } else {
        resp.generation = g->generation;
        resp.topic = g->topic;
        auto ait = g->assignment.find(sreq.member);
        if (ait != g->assignment.end()) resp.partitions = ait->second;
      }
    }
  }
  broker_.SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> GroupCoordinator::HandleHeartbeat(Broker::Request req) {
  GroupHeartbeatRequest hreq;
  GroupHeartbeatResponse resp;
  if (!Decode(Slice(req.frame), &hreq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!running_ || !cp_.is_controller()) {
    resp.error = ErrorCode::kNotController;
  } else {
    auto git = groups_.find(hreq.group);
    if (git == groups_.end() ||
        git->second->members.count(hreq.member) == 0) {
      resp.error = ErrorCode::kUnknownMember;
    } else {
      GroupPtr g = git->second;
      MemberState& m = g->members[hreq.member];
      m.last_hb = sim_.Now();
      if (g->phase == GroupState::kPreparing && !m.pending_join) {
        resp.error = ErrorCode::kRebalanceInProgress;
      } else if (g->phase == GroupState::kStable &&
                 hreq.generation != g->generation) {
        resp.error = ErrorCode::kIllegalGeneration;
      }
    }
  }
  broker_.SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> GroupCoordinator::HandleLeave(Broker::Request req) {
  LeaveGroupRequest lreq;
  LeaveGroupResponse resp;
  if (!Decode(Slice(req.frame), &lreq).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  if (!running_ || !cp_.is_controller()) {
    resp.error = ErrorCode::kNotController;
  } else {
    auto git = groups_.find(lreq.group);
    if (git != groups_.end() &&
        git->second->members.erase(lreq.member) > 0) {
      GroupPtr g = git->second;
      if (g->members.empty()) {
        if (g->phase == GroupState::kStable) {
          g->generation += 1;
          g->generation_gauge->Set(g->generation);
        }
        g->phase = GroupState::kEmpty;
        g->assignment.clear();
        g->formed->Pulse();
      } else if (g->phase == GroupState::kStable) {
        // Survivors pick up the leaver's partitions next generation.
        StartRebalance(g);
      }
    }
  }
  broker_.SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> GroupCoordinator::ExpiryLoop() {
  constexpr sim::TimeNs tick = kSessionTimeout / 4;
  while (running_) {
    co_await sim::Delay(sim_, tick);
    if (!running_) co_return;
    const sim::TimeNs now = sim_.Now();
    for (auto& [name, g] : groups_) {
      // Mid-rebalance stragglers are dropped by FormGeneration at the
      // prepare deadline; expiry only polices stable generations.
      if (g->phase != GroupState::kStable) continue;
      bool expired = false;
      for (auto it = g->members.begin(); it != g->members.end();) {
        if (now - it->second.last_hb > kSessionTimeout) {
          it = g->members.erase(it);
          expirations_->Increment();
          expired = true;
        } else {
          ++it;
        }
      }
      if (!expired) continue;
      if (g->members.empty()) {
        g->generation += 1;
        g->generation_gauge->Set(g->generation);
        g->phase = GroupState::kEmpty;
        g->assignment.clear();
        g->formed->Pulse();
      } else {
        StartRebalance(g);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GroupMember
// ---------------------------------------------------------------------------

GroupMember::GroupMember(sim::Simulator& sim, tcpnet::Network& tcp,
                         net::NodeId node, Resolver resolver, Config config)
    : sim_(sim), tcp_(tcp), node_(node), resolver_(std::move(resolver)),
      config_(std::move(config)) {}

GroupMember::~GroupMember() { KD_DCHECK(!started_) << "destroyed mid-run"; }

void GroupMember::Start() {
  if (started_) return;
  started_ = true;
  stopped_ = false;
  sim::Spawn(sim_, Run());
}

void GroupMember::Stop() {
  if (!started_ || stopped_) return;
  // Run() notices on its next tick, leaves the group and closes the
  // connection; `stopped()` flips once that happened.
  stopped_ = true;
}

void GroupMember::DropConn() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_ = nullptr;
  }
}

sim::Co<Status> GroupMember::EnsureConn() {
  if (conn_ != nullptr && !conn_->closed()) co_return Status::OK();
  conn_ = nullptr;
  const uint64_t coord = resolver_();
  if (coord == kNoCoordinator) {
    co_return Status::FailedPrecondition("no coordinator known yet");
  }
  auto conn_or = co_await tcp_.Connect(
      node_, static_cast<net::NodeId>(coord), kKafkaPort);
  if (!conn_or.ok()) co_return conn_or.status();
  conn_ = conn_or.value();
  co_return Status::OK();
}

sim::Co<StatusOr<std::vector<uint8_t>>> GroupMember::Rpc(
    std::vector<uint8_t> frame) {
  Status conn_status = co_await EnsureConn();
  if (!conn_status.ok()) co_return conn_status;
  Status sent = co_await conn_->Send(std::move(frame), false);
  if (!sent.ok()) {
    DropConn();
    co_return sent;
  }
  auto reply = co_await conn_->Recv();
  if (!reply.ok()) {
    DropConn();
    co_return reply.status();
  }
  co_return std::move(reply).value();
}

sim::Co<Status> GroupMember::JoinAndSync() {
  JoinGroupRequest jreq;
  jreq.group = config_.group;
  jreq.member = config_.member;
  jreq.topic = config_.topic;
  auto jreply = co_await Rpc(Encode(jreq));
  if (!jreply.ok()) co_return jreply.status();
  JoinGroupResponse jresp;
  Status jdec = Decode(Slice(jreply.value()), &jresp);
  if (!jdec.ok()) co_return jdec;
  if (jresp.error != ErrorCode::kNone) {
    if (jresp.error == ErrorCode::kNotController ||
        jresp.error == ErrorCode::kUnknownMember) {
      // Coordinator moved (or dropped us): re-resolve before retrying.
      DropConn();
    }
    co_return Status::Aborted(std::string("join: ") +
                              ErrorCodeName(jresp.error));
  }

  SyncGroupRequest sreq;
  sreq.group = config_.group;
  sreq.member = config_.member;
  sreq.generation = jresp.generation;
  auto sreply = co_await Rpc(Encode(sreq));
  if (!sreply.ok()) co_return sreply.status();
  SyncGroupResponse sresp;
  Status sdec = Decode(Slice(sreply.value()), &sresp);
  if (!sdec.ok()) co_return sdec;
  if (sresp.error != ErrorCode::kNone) {
    if (sresp.error == ErrorCode::kNotController ||
        sresp.error == ErrorCode::kUnknownMember) {
      DropConn();
    }
    co_return Status::Aborted(std::string("sync: ") +
                              ErrorCodeName(sresp.error));
  }
  generation_ = sresp.generation;
  assignment_ = sresp.partitions;
  co_return Status::OK();
}

sim::Co<void> GroupMember::LeaveAndClose() {
  if (conn_ != nullptr && !conn_->closed()) {
    LeaveGroupRequest lreq;
    lreq.group = config_.group;
    lreq.member = config_.member;
    Status sent = co_await conn_->Send(Encode(lreq), false);
    if (sent.ok()) (void)co_await conn_->Recv();  // best effort
  }
  DropConn();
}

sim::Co<void> GroupMember::Run() {
  while (!stopped_) {
    if (need_rejoin_) {
      stable_ = false;
      if (on_revoke_ != nullptr && !assignment_.empty()) {
        // Commit point: offsets for the old assignment go to the brokers
        // BEFORE the new generation can hand those partitions elsewhere.
        co_await on_revoke_(assignment_, generation_);
      }
      Status joined = co_await JoinAndSync();
      if (stopped_) break;
      if (!joined.ok()) {
        co_await sim::Delay(sim_, config_.retry_backoff_ns);
        continue;
      }
      need_rejoin_ = false;
      stable_ = true;
      rebalances_++;
      if (on_assign_ != nullptr) {
        co_await on_assign_(assignment_, generation_);
      }
      continue;
    }
    co_await sim::Delay(sim_, config_.heartbeat_interval_ns);
    if (stopped_) break;
    GroupHeartbeatRequest hreq;
    hreq.group = config_.group;
    hreq.member = config_.member;
    hreq.generation = generation_;
    auto reply = co_await Rpc(Encode(hreq));
    if (!reply.ok()) {
      need_rejoin_ = true;
      continue;
    }
    GroupHeartbeatResponse resp;
    if (!Decode(Slice(reply.value()), &resp).ok()) {
      need_rejoin_ = true;
      continue;
    }
    switch (resp.error) {
      case ErrorCode::kNone:
        break;
      case ErrorCode::kRebalanceInProgress:
        need_rejoin_ = true;
        break;
      default:
        // kNotController / kUnknownMember / kIllegalGeneration: the
        // coordinator moved or forgot us — re-resolve and rejoin.
        DropConn();
        need_rejoin_ = true;
        break;
    }
  }
  co_await LeaveAndClose();
  stable_ = false;
  started_ = false;
  stopped_ = true;
}

}  // namespace kafka
}  // namespace kafkadirect
