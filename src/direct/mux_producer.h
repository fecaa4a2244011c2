// MuxProducer: the client half of the QP-multiplexing connection layer
// (DESIGN.md §14).
//
// One endpoint = one TCP control channel + ONE RC QP to the broker,
// carrying many *logical client streams*. Each stream is identified by the
// 32-bit `stream` word of the 24-byte ctrl header; the endpoint holds one
// exclusive produce grant on the head file, assigns write positions
// locally, and notifies the broker with Write + kProduceNotify Sends (the
// Send carries the stream id, which the 32-bit immediate cannot). Acks
// demultiplex by stream and resolve per-stream FIFO.
//
// Streams open in bulk (one kMuxOpen covers a contiguous id range, one
// grant comes back) and carry a per-stream credit window layered on the
// broker's SRQ. When the broker's connection cache evicts this endpoint's
// transport QP — or the QP fails for any reason — the endpoint lazily
// reconnects: fresh QP, fresh exclusive grant, then a single-stream
// re-open per active stream whose grant replays the broker's committed
// count. Records at or below that count are resolved as committed
// (exactly-once: never re-sent); the rest are transparently re-posted
// into the new file.
//
// One transport QP carries streams for MULTIPLE partitions (§15 satellite):
// the endpoint holds one exclusive head-file grant per partition it
// produces to (AddPartition), each stream binds to one partition at open
// (OpenStreams' tp parameter, defaulting to the Connect partition), and the
// notify's file id routes each record to the right partition broker-side.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "direct/control.h"
#include "direct/kd_broker.h"
#include "rdma/queue_pair.h"
#include "sim/semaphore.h"

namespace kafkadirect {
namespace kd {

struct MuxProducerConfig {
  /// Per-endpoint pipelining window across all streams.
  int max_inflight = 16;
  uint64_t producer_id = 0;
};

/// Result of a bulk stream open.
struct MuxOpenResult {
  uint32_t admitted = 0;        // contiguous prefix admitted
  uint32_t credits = 0;         // per-stream notify window
  uint64_t committed = 0;       // single-stream reopen: resync anchor
  sim::TimeNs retry_after_ns = 0;  // admission backpressure hint
};

class MuxProducer {
 public:
  MuxProducer(sim::Simulator& sim, net::Fabric& fabric, tcpnet::Network& tcp,
              net::NodeId node, MuxProducerConfig config);
  ~MuxProducer();

  /// TCP control channel + RC QP + exclusive produce grant on `tp` (the
  /// endpoint's default partition for streams opened without one).
  sim::Co<Status> Connect(KafkaDirectBroker* leader,
                          const kafka::TopicPartitionId& tp);

  /// Acquires an exclusive head-file grant for another partition led by
  /// the same broker, carried over the SAME transport QP and control
  /// channel. Idempotent per partition.
  sim::Co<Status> AddPartition(const kafka::TopicPartitionId& tp);
  /// Partitions this endpoint currently holds produce grants on.
  size_t num_partitions() const { return grants_.size(); }

  /// Opens `count` contiguous streams [base, base+count) with ONE ctrl
  /// round trip. Partial admission returns the admitted prefix plus the
  /// broker's retry-after hint. Streams bind to the Connect partition.
  sim::Co<StatusOr<MuxOpenResult>> OpenStreams(uint32_t base,
                                               uint32_t count);
  /// Same, binding the streams to `tp` (must be granted via Connect or
  /// AddPartition first).
  sim::Co<StatusOr<MuxOpenResult>> OpenStreams(
      uint32_t base, uint32_t count, const kafka::TopicPartitionId& tp);
  /// Closes `count` contiguous streams (fire-and-forget; flush first).
  sim::Co<Status> CloseStreams(uint32_t base, uint32_t count);

  /// Synchronous produce on one logical stream.
  sim::Co<StatusOr<int64_t>> Produce(uint32_t stream, Slice key,
                                     Slice value);
  /// Waits until every open stream has drained its pending records.
  sim::Co<Status> Flush();

  void Close();

  Histogram& latencies() { return latencies_; }
  uint64_t acked_records() const { return acked_records_; }
  uint64_t errors() const { return errors_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t resynced_records() const { return resynced_records_; }
  size_t open_streams() const { return streams_.size(); }
  bool connected() const { return !disconnected_; }
  /// Broker-side QP number of the current transport connection (eviction
  /// target for tests).
  uint32_t broker_qp_num() const { return broker_qp_num_; }

 private:
  struct Pending {
    sim::TimeNs sent_at = 0;
    std::vector<uint8_t> batch;   // alive until acked (resend source)
    std::vector<uint8_t> notify;  // Write+Send metadata buffer
    std::shared_ptr<sim::Event> done;
    CtrlMsg ack;
    bool posted = false;          // false once the QP died before the post
  };

  /// Client-side state of one partition's exclusive head-file grant.
  struct FileGrant {
    kafka::TopicPartitionId tp;
    uint16_t file_id = 0;
    uint64_t addr = 0;
    uint32_t rkey = 0;
    uint64_t capacity = 0;
    uint64_t write_pos = 0;
  };

  /// Client-side view of one open logical stream.
  struct StreamState {
    uint32_t id = 0;
    kafka::TopicPartitionId tp;  // partition this stream produces to
    std::unique_ptr<sim::Semaphore> credits;
    std::deque<std::shared_ptr<Pending>> pending;  // FIFO, acks match front
    uint64_t acked = 0;  // records resolved (acks + resync), mirrors the
                         // broker's committed count when drained
  };

  /// Builds the transport: CQs, QP, CM exchange, ack receives, loops.
  sim::Co<Status> EstablishTransport();
  /// Exclusive-grant (re)request for one partition over the TCP control
  /// channel.
  sim::Co<Status> RequestAccess(const kafka::TopicPartitionId& tp,
                                uint16_t stale_file_id,
                                uint64_t rotate_target = 0);
  /// One kMuxOpen round trip over the RDMA ctrl plane.
  sim::Co<StatusOr<MuxOpenResult>> SendOpen(uint32_t base, uint32_t count);
  /// Lazy reconnect: new transport + grant, re-open every stream, resolve
  /// records the broker already committed, re-post the rest.
  sim::Co<Status> Reconnect();
  /// Position assignment + Write/Send post for one record.
  sim::Co<Status> PostRecord(StreamState* st, std::shared_ptr<Pending> p);
  sim::Co<void> RecvAckLoop(std::shared_ptr<bool> alive,
                            std::shared_ptr<rdma::CompletionQueue> cq);
  sim::Co<void> SendCqDrainer(std::shared_ptr<bool> alive,
                              std::shared_ptr<rdma::CompletionQueue> cq);
  void HandleAck(const CtrlMsg& msg);
  /// Marks the transport dead and kicks off a background reconnect.
  void OnTransportFailure();
  /// Spawns the background reconnect pass unless one is already queued.
  void KickReconnect();

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  tcpnet::Network& tcp_;
  net::NodeId node_;
  MuxProducerConfig config_;
  kafka::TopicPartitionId tp_;
  KafkaDirectBroker* leader_ = nullptr;

  rdma::Rnic rnic_;
  std::shared_ptr<rdma::CompletionQueue> send_cq_;
  std::shared_ptr<rdma::CompletionQueue> recv_cq_;
  std::shared_ptr<rdma::QueuePair> qp_;
  net::MessageStreamPtr ctrl_;
  std::vector<std::vector<uint8_t>> ack_bufs_;

  /// Exclusive head-file grants, one per produced-to partition.
  std::map<kafka::TopicPartitionId, FileGrant> grants_;

  std::map<uint32_t, StreamState> streams_;
  /// kMuxGrant waiters keyed by base stream id.
  std::map<uint32_t, std::pair<std::shared_ptr<sim::Event>, CtrlMsg>>
      grant_waiters_;

  sim::Semaphore window_;
  std::unique_ptr<sim::AsyncMutex> post_mu_;   // keeps posts in order
  std::unique_ptr<sim::AsyncMutex> ctrl_mu_;   // one access request at a time
  std::unique_ptr<sim::AsyncMutex> reconnect_mu_;

  Histogram latencies_;
  uint64_t acked_records_ = 0;
  uint64_t errors_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t resynced_records_ = 0;
  /// Failure epoch: bumped on every transport death so a reconnect pass
  /// can detect its freshly built QP dying under it (cache ping-pong).
  uint64_t transport_failures_ = 0;
  uint32_t broker_qp_num_ = 0;
  uint64_t next_wr_id_ = 1;
  int signal_every_ = 1;
  uint64_t notify_seq_ = 0;
  bool disconnected_ = true;
  bool reconnect_queued_ = false;
  bool closed_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kd
}  // namespace kafkadirect
