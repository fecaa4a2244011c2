#include "kafka/controller.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace kafka {

namespace {

/// Controller -> broker liveness probe period (also the watchdog tick).
constexpr sim::TimeNs kHeartbeatInterval = Millis(2);
/// Consecutive missed heartbeats before a broker is declared dead.
constexpr int kMissLimit = 3;
/// Per-rank delay added to the controller-takeover timeout, so exactly one
/// surviving broker claims the next term (lowest id first).
constexpr sim::TimeNs kElectionStagger = Millis(4);  // 2 heartbeats
/// ISR lag management: a follower more than this many records behind the
/// leader LEO is shrunk out of the ISR; it rejoins once its lag drops back
/// under half the threshold and it has fetched recently.
constexpr int64_t kIsrMaxLagRecords = 512;
constexpr sim::TimeNs kIsrCheckInterval = Millis(4);

bool Contains(const std::vector<int32_t>& v, int32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void Erase(std::vector<int32_t>* v, int32_t x) {
  v->erase(std::remove(v->begin(), v->end(), x), v->end());
}

}  // namespace

ControlPlane::ControlPlane(Broker& broker, std::vector<ControlPlanePeer> peers)
    : broker_(broker), sim_(broker.simulator()) {
  std::sort(peers.begin(), peers.end(),
            [](const ControlPlanePeer& a, const ControlPlanePeer& b) {
              return a.id < b.id;
            });
  for (size_t i = 0; i < peers.size(); i++) {
    Peer p;
    p.info = peers[i];
    p.mu = std::make_unique<sim::AsyncMutex>(sim_);
    if (peers[i].id == broker_.id()) rank_ = static_cast<int>(i);
    peers_.push_back(std::move(p));
  }
  obs::Observability& ob = broker_.fabric().obs();
  elections_ = ob.metrics.GetCounter("kd.cp.elections");
  leader_moves_ = ob.metrics.GetCounter("kd.cp.leader_moves");
  isr_shrinks_ = ob.metrics.GetCounter("kd.cp.isr_shrinks");
  isr_expands_ = ob.metrics.GetCounter("kd.cp.isr_expands");
  broker_deaths_ = ob.metrics.GetCounter("kd.cp.broker_deaths");
  unavailable_partitions_ =
      ob.metrics.GetCounter("kd.cp.unavailable_partitions");
  const std::string prefix =
      "kd.broker." + std::to_string(broker_.id()) + ".";
  term_gauge_ = ob.metrics.GetGauge(prefix + "cp.term");
  is_controller_gauge_ = ob.metrics.GetGauge(prefix + "cp.is_controller");
  alive_gauge_ = ob.metrics.GetGauge(prefix + "alive");
}

void ControlPlane::Start() {
  if (running_) return;
  running_ = true;
  last_heartbeat_ns_ = sim_.Now();
  alive_gauge_->Set(1);
  // Seed the assignment map from the partitions this broker hosts; the
  // first controller broadcastless term starts from this shared view
  // (every broker derives the same map for partitions it hosts; the
  // controller fills gaps as leaders report ISR changes).
  for (auto& [tp, ps] : broker_.partitions_) {
    PartitionAssignment a;
    a.leader = ps->leader_id;
    a.leader_node = NodeOf(ps->leader_id);
    a.epoch = ps->leader_epoch;
    a.isr = ps->isr;
    a.replicas = ps->replicas;
    assignment_[tp] = std::move(a);
  }
  sim::Spawn(sim_, WatchdogLoop());
  sim::Spawn(sim_, HeartbeatLoop());
  sim::Spawn(sim_, IsrLoop());
}

void ControlPlane::Stop() {
  if (!running_) return;
  running_ = false;
  is_controller_ = false;
  alive_gauge_->Set(0);
  is_controller_gauge_->Set(0);
  for (Peer& p : peers_) {
    if (p.conn != nullptr) {
      p.conn->Close();
      p.conn = nullptr;
    }
  }
}

ControlPlane::Peer* ControlPlane::FindPeer(int32_t broker_id) {
  for (Peer& p : peers_) {
    if (p.info.id == broker_id) return &p;
  }
  return nullptr;
}

uint64_t ControlPlane::NodeOf(int32_t broker_id) const {
  for (const Peer& p : peers_) {
    if (p.info.id == broker_id) return p.info.node;
  }
  return 0;
}

bool ControlPlane::IsAlive(int32_t broker_id) const {
  for (const Peer& p : peers_) {
    if (p.info.id == broker_id) return p.alive;
  }
  return false;
}

sim::Co<StatusOr<std::vector<uint8_t>>> ControlPlane::PeerRpc(
    int32_t broker_id, std::vector<uint8_t> frame) {
  Peer* p = FindPeer(broker_id);
  if (p == nullptr) co_return Status::NotFound("unknown peer broker");
  if (p->info.id == broker_.id()) {
    co_return Status::InvalidArgument("peer RPC to self");
  }
  co_await p->mu->Lock();
  if (!running_) {
    p->mu->Unlock();
    co_return Status::FailedPrecondition("control plane stopped");
  }
  if (p->conn == nullptr) {
    auto conn_or = co_await broker_.tcp().Connect(
        broker_.node(), static_cast<net::NodeId>(p->info.node), kKafkaPort);
    if (!conn_or.ok()) {
      p->mu->Unlock();
      co_return conn_or.status();
    }
    p->conn = conn_or.value();
  }
  // Stop() may null the cached connection while we are suspended in
  // Send/Recv (closing it is what resumes us with an error), so re-check
  // before dropping it.
  Status sent = co_await p->conn->Send(std::move(frame), false);
  if (!sent.ok()) {
    if (p->conn != nullptr) p->conn->Close();
    p->conn = nullptr;
    p->mu->Unlock();
    co_return sent;
  }
  if (p->conn == nullptr) {
    p->mu->Unlock();
    co_return Status::Aborted("control plane stopped");
  }
  auto reply = co_await p->conn->Recv();
  if (!reply.ok()) {
    if (p->conn != nullptr) p->conn->Close();
    p->conn = nullptr;
    p->mu->Unlock();
    co_return reply.status();
  }
  p->mu->Unlock();
  co_return std::move(reply).value();
}

void ControlPlane::RecordAssignment(const LeaderAndIsrRequest& req) {
  PartitionAssignment& a = assignment_[req.tp];
  if (req.leader_epoch < a.epoch) return;
  a.leader = req.leader_id;
  a.leader_node = req.leader_node;
  a.epoch = req.leader_epoch;
  a.isr = req.isr;
  if (!req.replicas.empty()) a.replicas = req.replicas;
}

void ControlPlane::SeedAssignment(const TopicPartitionId& tp,
                                  const PartitionState& ps) {
  if (assignment_.count(tp) != 0) return;
  PartitionAssignment a;
  a.leader = ps.leader_id;
  a.leader_node = NodeOf(ps.leader_id);
  a.epoch = ps.leader_epoch;
  a.isr = ps.isr;
  a.replicas = ps.replicas;
  assignment_[tp] = std::move(a);
}

void ControlPlane::BecomeController() {
  term_ += 1;
  is_controller_ = true;
  controller_id_ = broker_.id();
  elections_->Increment();
  term_gauge_->Set(term_);
  is_controller_gauge_->Set(1);
}

void ControlPlane::StepDown(int64_t new_term, int32_t new_controller) {
  term_ = new_term;
  controller_id_ = new_controller;
  if (is_controller_) {
    is_controller_ = false;
    is_controller_gauge_->Set(0);
  }
  term_gauge_->Set(term_);
  // The watchdog skipped while we were controller, so last_heartbeat_ns_ is
  // stale; without a refresh the very next tick would reclaim term+1 and
  // depose the legitimate controller (election flapping).
  last_heartbeat_ns_ = sim_.Now();
}

sim::Co<void> ControlPlane::WatchdogLoop() {
  const sim::TimeNs timeout =
      kMissLimit * kHeartbeatInterval + rank_ * kElectionStagger;
  while (running_) {
    co_await sim::Delay(sim_, kHeartbeatInterval);
    if (!running_) co_return;
    if (is_controller_) continue;
    if (sim_.Now() - last_heartbeat_ns_ >= timeout) {
      BecomeController();
      // Assert the new term immediately so higher-rank watchdogs see a
      // heartbeat before their own staggered timeout fires.
      co_await HeartbeatRound();
    }
  }
}

sim::Co<void> ControlPlane::HeartbeatLoop() {
  while (running_) {
    co_await sim::Delay(sim_, kHeartbeatInterval);
    if (!running_) co_return;
    if (!is_controller_) continue;
    co_await HeartbeatRound();
  }
}

sim::Co<void> ControlPlane::HeartbeatRound() {
  ControllerHeartbeatRequest hb;
  hb.term = term_;
  hb.controller_id = broker_.id();
  const int64_t round_term = term_;
  for (Peer& p : peers_) {
    if (!running_ || !is_controller_ || term_ != round_term) co_return;
    if (p.info.id == broker_.id() || !p.alive) continue;
    auto reply_or = co_await PeerRpc(p.info.id, Encode(hb));
    if (!reply_or.ok()) {
      p.missed++;
      if (p.missed >= kMissLimit) {
        p.alive = false;
        p.missed = 0;
        broker_deaths_->Increment();
        co_await FailoverBroker(p.info.id);
      }
      continue;
    }
    ControllerHeartbeatResponse resp;
    if (!Decode(Slice(reply_or.value()), &resp).ok()) continue;
    if (resp.term > term_) {
      // A higher term exists: this controller was deposed.
      StepDown(resp.term, -1);
      co_return;
    }
    p.missed = 0;
  }
}

sim::Co<void> ControlPlane::FailoverBroker(int32_t dead) {
  // Partitions led by the dead broker get a new leader from the ISR; the
  // rest just shrink it out so their leaders stop waiting on it.
  for (auto& [tp, a] : assignment_) {
    if (!running_ || !is_controller_) co_return;
    if (a.leader == dead) {
      int32_t best = -1;
      int64_t best_leo = -1;
      for (int32_t cand : a.isr) {
        if (cand == dead || !IsAlive(cand)) continue;
        int64_t leo = -1;
        if (cand == broker_.id()) {
          PartitionState* ps = broker_.GetPartition(tp);
          if (ps != nullptr) leo = ps->log.log_end_offset();
        } else {
          LogInfoRequest li;
          li.tp = tp;
          std::vector<uint8_t> li_frame = Encode(li);
          auto reply_or = co_await PeerRpc(cand, std::move(li_frame));
          if (!reply_or.ok()) continue;
          LogInfoResponse resp;
          if (!Decode(Slice(reply_or.value()), &resp).ok() ||
              resp.error != ErrorCode::kNone) {
            continue;
          }
          leo = resp.log_end_offset;
        }
        // Longest log wins; ties go to the lowest id (deterministic).
        if (leo > best_leo) {
          best = cand;
          best_leo = leo;
        }
      }
      if (best < 0) {
        // No electable replica: the partition is unavailable until a
        // broker rejoins. Record it; leave the assignment fenced.
        unavailable_partitions_->Increment();
        continue;
      }
      a.leader = best;
      a.leader_node = NodeOf(best);
      a.epoch += 1;
      Erase(&a.isr, dead);
      leader_moves_->Increment();
    } else if (Contains(a.isr, dead)) {
      Erase(&a.isr, dead);
      isr_shrinks_->Increment();
    } else {
      continue;
    }
    LeaderAndIsrRequest req;
    req.tp = tp;
    req.leader_id = a.leader;
    req.leader_node = a.leader_node;
    req.leader_epoch = a.epoch;
    req.from_controller = true;
    req.isr = a.isr;
    req.replicas = a.replicas;
    co_await Broadcast(std::move(req));
  }
}

sim::Co<void> ControlPlane::Broadcast(LeaderAndIsrRequest req) {
  req.from_controller = true;
  RecordAssignment(req);
  broker_.ApplyLeaderAndIsr(req);
  std::vector<uint8_t> frame = Encode(req);
  for (Peer& p : peers_) {
    if (!running_) co_return;
    if (p.info.id == broker_.id() || !p.alive) continue;
    (void)co_await PeerRpc(p.info.id, frame);
  }
}

sim::Co<void> ControlPlane::IsrLoop() {
  // A follower may only re-enter the ISR if it fetched within a long-poll
  // round plus one check interval — a dead follower's lag reads as zero on
  // an idle partition, but it never fetches.
  constexpr sim::TimeNs freshness = kReplicaFetchMaxWait + kIsrCheckInterval;
  while (running_) {
    co_await sim::Delay(sim_, kIsrCheckInterval);
    if (!running_) co_return;
    for (auto& [tp, ps] : broker_.partitions_) {
      if (!running_) co_return;
      if (!ps->is_leader) continue;
      const int64_t leo = ps->log.log_end_offset();
      std::vector<int32_t> nisr = ps->isr;
      bool changed = false;
      for (int32_t r : ps->replicas) {
        if (r == broker_.id()) continue;
        auto it = ps->follower_leo.find(r);
        if (it == ps->follower_leo.end()) continue;
        const int64_t lag = leo - it->second;
        const bool in = Contains(nisr, r);
        if (in && lag > kIsrMaxLagRecords) {
          Erase(&nisr, r);
          isr_shrinks_->Increment();
          changed = true;
        } else if (!in && lag <= kIsrMaxLagRecords / 2) {
          // Never re-admit a broker the controller declared dead: right
          // after the death its last fetch still looks fresh.
          if (!IsAlive(r)) continue;
          auto seen = ps->follower_seen.find(r);
          if (seen == ps->follower_seen.end() ||
              sim_.Now() - seen->second > freshness) {
            continue;
          }
          nisr.push_back(r);
          isr_expands_->Increment();
          changed = true;
        }
      }
      if (!changed) continue;
      std::sort(nisr.begin(), nisr.end());
      LeaderAndIsrRequest req;
      req.tp = tp;
      req.leader_id = broker_.id();
      req.leader_node = NodeOf(broker_.id());
      req.leader_epoch = ps->leader_epoch;
      req.from_controller = false;
      req.isr = nisr;
      req.replicas = ps->replicas;
      RecordAssignment(req);
      broker_.ApplyLeaderAndIsr(req);
      if (is_controller_) {
        co_await Broadcast(std::move(req));
      } else if (controller_id_ >= 0 && controller_id_ != broker_.id()) {
        (void)co_await PeerRpc(controller_id_, Encode(req));
      }
    }
  }
}

sim::Co<void> ControlPlane::Handle(Broker::Request req) {
  switch (PeekType(Slice(req.frame))) {
    case MsgType::kControllerHeartbeatRequest:
      co_await HandleControllerHeartbeat(std::move(req));
      break;
    case MsgType::kLeaderAndIsrRequest:
      co_await HandleLeaderAndIsr(std::move(req));
      break;
    case MsgType::kLogInfoRequest:
      co_await HandleLogInfo(std::move(req));
      break;
    default:
      break;
  }
  co_return;
}

sim::Co<void> ControlPlane::HandleControllerHeartbeat(Broker::Request req) {
  ControllerHeartbeatRequest hb;
  ControllerHeartbeatResponse resp;
  if (!Decode(Slice(req.frame), &hb).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
  } else if (hb.term < term_) {
    // Stale controller: tell it the real term so it steps down.
    resp.error = ErrorCode::kFencedLeaderEpoch;
    resp.term = term_;
  } else {
    if (hb.term > term_ ||
        (hb.term == term_ && controller_id_ != hb.controller_id)) {
      StepDown(hb.term, hb.controller_id);
    }
    last_heartbeat_ns_ = sim_.Now();
    resp.term = term_;
  }
  broker_.SendResponse(req.conn, Encode(resp));
  co_return;
}

sim::Co<void> ControlPlane::HandleLeaderAndIsr(Broker::Request req) {
  LeaderAndIsrRequest lai;
  LeaderAndIsrResponse resp;
  if (!Decode(Slice(req.frame), &lai).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
    broker_.SendResponse(req.conn, Encode(resp));
    co_return;
  }
  RecordAssignment(lai);
  broker_.ApplyLeaderAndIsr(lai);
  broker_.SendResponse(req.conn, Encode(resp));
  // Leader-reported ISR change arriving at the controller: fan it out so
  // every broker (and the next controller-elect) shares the view.
  if (!lai.from_controller && is_controller_) {
    co_await Broadcast(std::move(lai));
  }
  co_return;
}

sim::Co<void> ControlPlane::HandleLogInfo(Broker::Request req) {
  LogInfoRequest li;
  LogInfoResponse resp;
  if (!Decode(Slice(req.frame), &li).ok()) {
    resp.error = ErrorCode::kInvalidRequest;
  } else {
    PartitionState* ps = broker_.GetPartition(li.tp);
    if (ps == nullptr) {
      resp.error = ErrorCode::kUnknownTopicOrPartition;
    } else {
      resp.log_end_offset = ps->log.log_end_offset();
      resp.high_watermark = ps->log.high_watermark();
    }
  }
  broker_.SendResponse(req.conn, Encode(resp));
  co_return;
}

}  // namespace kafka
}  // namespace kafkadirect
