#include "kafka/cluster.h"

#include "kafka/controller.h"

namespace kafkadirect {
namespace kafka {

Status Cluster::Start() {
  for (int i = 0; i < num_brokers_; i++) {
    BrokerConfig cfg = broker_template_;
    cfg.id = i;
    std::unique_ptr<Broker> broker;
    if (factory_) {
      broker = factory_(sim_, fabric_, tcp_, cfg);
    } else {
      broker = std::make_unique<Broker>(sim_, fabric_, tcp_, cfg);
    }
    KD_RETURN_IF_ERROR(broker->Start());
    brokers_.push_back(std::move(broker));
  }
  killed_.assign(brokers_.size(), false);
  return Status::OK();
}

void Cluster::StartControlPlane() {
  if (!broker_template_.control_plane) return;
  std::vector<ControlPlanePeer> peers;
  for (auto& broker : brokers_) {
    peers.push_back({broker->id(), broker->node()});
  }
  for (auto& broker : brokers_) {
    broker->StartControlPlane(peers);
  }
}

void Cluster::KillBroker(int32_t id) {
  if (id < 0 || id >= static_cast<int32_t>(brokers_.size())) return;
  if (killed_[id]) return;
  killed_[id] = true;
  brokers_[id]->Shutdown();
}

bool Cluster::IsBrokerAlive(int32_t id) const {
  return id >= 0 && id < static_cast<int32_t>(brokers_.size()) &&
         !killed_[id];
}

Broker* Cluster::ControllerBroker() {
  for (size_t i = 0; i < brokers_.size(); i++) {
    if (killed_[i]) continue;
    ControlPlane* cp = brokers_[i]->control_plane();
    if (cp != nullptr && cp->is_controller()) return brokers_[i].get();
  }
  return nullptr;
}

void Cluster::Shutdown() {
  for (auto& broker : brokers_) broker->Shutdown();
}

Status Cluster::CreateTopic(const std::string& topic, int partitions,
                            int replication_factor) {
  if (partitions <= 0 || replication_factor <= 0 ||
      replication_factor > num_brokers_) {
    return Status::InvalidArgument("bad topic parameters");
  }
  if (topic_leaders_.count(topic) > 0) {
    return Status::AlreadyExists("topic exists: " + topic);
  }
  std::vector<int32_t> leaders;
  for (int p = 0; p < partitions; p++) {
    TopicPartitionId tp{topic, p};
    int32_t leader = p % num_brokers_;
    leaders.push_back(leader);
    std::vector<int32_t> replicas;
    for (int r = 0; r < replication_factor; r++) {
      replicas.push_back((leader + r) % num_brokers_);
    }
    for (int32_t replica : replicas) {
      brokers_[replica]->AddPartition(tp, leader, replicas);
    }
    if (replication_factor > 1) {
      if (broker_template_.rdma_replicate) {
        std::vector<Broker*> followers;
        for (int32_t replica : replicas) {
          if (replica != leader) followers.push_back(brokers_[replica].get());
        }
        brokers_[leader]->StartPushReplication(tp, followers);
      } else {
        for (int32_t replica : replicas) {
          if (replica == leader) continue;
          brokers_[replica]->StartReplicaFetcher(
              tp, brokers_[leader]->node());
        }
      }
    }
  }
  topic_leaders_[topic] = leaders;
  for (auto& broker : brokers_) {
    broker->SetTopicMetadata(topic, leaders);
  }
  return Status::OK();
}

Broker* Cluster::LeaderOf(const TopicPartitionId& tp) {
  if (broker_template_.control_plane) {
    // Dynamic view: prefer the controller's assignment map, falling back
    // to any alive broker's mirrored metadata while an election converges.
    Broker* source = ControllerBroker();
    if (source == nullptr) {
      for (size_t i = 0; i < brokers_.size(); i++) {
        if (!killed_[i]) {
          source = brokers_[i].get();
          break;
        }
      }
    }
    if (source != nullptr) {
      int32_t leader = source->MetadataLeaderOf(tp);
      if (leader >= 0 && IsBrokerAlive(leader)) {
        return brokers_[leader].get();
      }
    }
  }
  auto it = topic_leaders_.find(tp.topic);
  if (it == topic_leaders_.end()) return nullptr;
  if (tp.partition < 0 ||
      tp.partition >= static_cast<int32_t>(it->second.size())) {
    return nullptr;
  }
  return brokers_[it->second[tp.partition]].get();
}

}  // namespace kafka
}  // namespace kafkadirect
