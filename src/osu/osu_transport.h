// OSU-Kafka transport: the comparison system from the paper (§4, §5).
//
// "OSU Kafka uses two-sided RDMA Sends to replace the TCP/IP network module
// of Kafka and does not use one-sided RDMA requests to directly access
// records. Thus, its performance is still obstructed by the need to copy
// messages from and to network buffers of the multipurpose request
// processing module."
//
// Implemented as a MessageStream over verbs Send/Recv with registered
// bounce buffers: the sender copies each frame into a registered send
// buffer; the receiver copies it out of the posted receive buffer. The
// unmodified broker/client request path then runs on top — exactly the
// design point the paper measures.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/demand_zero_buffer.h"
#include "direct/kd_broker.h"
#include "net/message_stream.h"
#include "rdma/queue_pair.h"
#include "sim/channel.h"

namespace kafkadirect {
namespace osu {

struct OsuConfig {
  /// Size of each registered bounce buffer; frames larger than this are
  /// fragmented.
  uint32_t buffer_size = 1u << 20;
  /// Pre-posted receives per connection.
  int recv_depth = 64;
};

/// One endpoint of an OSU-style two-sided RDMA channel.
class OsuChannel : public net::MessageStream,
                   public std::enable_shared_from_this<OsuChannel> {
 public:
  OsuChannel(sim::Simulator& sim, net::Fabric& fabric,
             std::shared_ptr<rdma::QueuePair> qp,
             std::shared_ptr<rdma::CompletionQueue> send_cq,
             std::shared_ptr<rdma::CompletionQueue> recv_cq,
             net::NodeId peer, OsuConfig config);

  /// Posts receive buffers and starts the receive pump; call once both
  /// sides are connected.
  void Start();

  sim::Co<Status> Send(std::vector<uint8_t> msg, bool zero_copy) override;
  sim::Co<StatusOr<std::vector<uint8_t>>> Recv() override;
  void Close() override;
  bool closed() const override { return closed_; }
  net::NodeId peer_node() const override { return peer_; }

 private:
  struct Frag {
    uint32_t total = 0;  // total frame size; fragments reassembled in order
    std::vector<uint8_t> data;
  };

  sim::Co<void> RecvPump(std::shared_ptr<bool> alive,
                         std::shared_ptr<rdma::CompletionQueue> cq);

  /// Receive buffer `i` (a bounce buffer plus its fragment header).
  uint8_t* RecvBuf(uint64_t i);
  uint32_t RecvBufSize() const;

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  std::shared_ptr<rdma::QueuePair> qp_;
  std::shared_ptr<rdma::CompletionQueue> send_cq_;
  std::shared_ptr<rdma::CompletionQueue> recv_cq_;
  net::NodeId peer_;
  OsuConfig config_;
  // recv_depth receive buffers back to back in one demand-zero mapping:
  // only the bytes a frame lands on become resident.
  DemandZeroBuffer recv_bufs_;
  std::deque<std::vector<uint8_t>> send_bufs_;  // retained until completion
  sim::Channel<std::vector<uint8_t>> rx_;
  std::vector<uint8_t> reassembly_;
  uint64_t expected_total_ = 0;
  bool closed_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Listener side: brokers serve OSU connections alongside TCP.
class OsuListener : public net::StreamListener {
 public:
  explicit OsuListener(sim::Simulator& sim) : pending_(sim) {}

  sim::Co<StatusOr<net::MessageStreamPtr>> Accept() override {
    auto item = co_await pending_.Pop();
    if (!item.has_value()) {
      co_return Status::Disconnected("OSU listener shut down");
    }
    co_return std::move(*item);
  }
  void Shutdown() override { pending_.Close(); }

  void Deliver(net::MessageStreamPtr stream) {
    pending_.Push(std::move(stream));
  }

 private:
  sim::Channel<net::MessageStreamPtr> pending_;
};

/// Establishes an OSU channel between a client RNIC and a broker that
/// serves `listener`. Stands in for OSU Kafka's connection setup.
sim::Co<StatusOr<net::MessageStreamPtr>> OsuConnect(
    sim::Simulator& sim, net::Fabric& fabric, rdma::Rnic& client_rnic,
    kd::KafkaDirectBroker* broker, OsuListener* listener,
    OsuConfig config = {});

}  // namespace osu
}  // namespace kafkadirect
