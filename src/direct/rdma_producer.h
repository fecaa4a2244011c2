// RdmaProducer: KafkaDirect's produce client (§4.2.2).
//
// Exclusive mode: the single producer tracks the file write position
// locally and pipelines WriteWithImm requests straight into the head file.
// Shared mode: each produce first claims a region with an RDMA
// Fetch-and-Add on the broker's {order, offset} word (Fig. 5), detects file
// overflow from the 48-bit offset, then writes with the claimed order in
// the immediate data (Fig. 4).
//
// The broker acknowledges commits with small RDMA Sends on the same QP;
// with replication enabled the ack arrives only once the record is fully
// replicated, matching the paper's latency methodology.
#pragma once

#include <deque>
#include <memory>

#include "common/histogram.h"
#include "direct/control.h"
#include "direct/kd_broker.h"
#include "kafka/record.h"
#include "rdma/queue_pair.h"
#include "sim/semaphore.h"

namespace kafkadirect {
namespace kd {

struct RdmaProducerConfig {
  bool exclusive = true;
  int max_inflight = 1;
  uint64_t producer_id = 0;
  /// §4.2.2 "the choice of notification method" (control.h
  /// PlanNotification). kWriteImm is the paper's pick (lowest latency);
  /// kWriteSend is a plain RDMA Write followed by a Send carrying the
  /// metadata (supports >32 bits of metadata).
  NotifyMode notify_mode = NotifyMode::kWriteImm;
};

class RdmaProducer {
 public:
  RdmaProducer(sim::Simulator& sim, net::Fabric& fabric,
               tcpnet::Network& tcp, net::NodeId node,
               RdmaProducerConfig config);
  ~RdmaProducer();

  /// Full connection setup: TCP control channel to the leader, RC QP
  /// establishment (CM exchange), and the "get RDMA produce address"
  /// request.
  sim::Co<Status> Connect(KafkaDirectBroker* leader,
                          const kafka::TopicPartitionId& tp) {
    return ConnectImpl(leader, tp);
  }

  /// Synchronous produce: resolves when the broker's commit ack arrives.
  sim::Co<StatusOr<int64_t>> Produce(Slice key, Slice value);

  /// Pipelined produce: waits only for a window slot.
  sim::Co<Status> ProduceAsync(Slice key, Slice value);

  /// Waits for all outstanding produce requests to be acknowledged.
  sim::Co<Status> Flush();

  void Close();

  Histogram& latencies() { return latencies_; }
  uint64_t acked_records() const { return acked_records_; }
  uint64_t acked_bytes() const { return acked_bytes_; }
  uint64_t errors() const { return errors_; }
  uint64_t rotations() const { return rotations_; }
  uint64_t faa_issued() const { return faa_issued_; }

 private:
  struct Pending {
    uint16_t order = 0;
    sim::TimeNs sent_at = 0;
    uint64_t payload_bytes = 0;
    std::vector<uint8_t> batch;   // staging buffer, alive until acked
    std::vector<uint8_t> notify;  // Write+Send metadata buffer
    std::shared_ptr<sim::Event> done;
    CtrlMsg ack;
    bool write_failed = false;
  };

  sim::Co<Status> ConnectImpl(KafkaDirectBroker* leader,
                              kafka::TopicPartitionId tp);
  /// Application-thread half of a produce: API entry + defensive copy +
  /// (exclusive mode) position assignment; hands off to SenderStage.
  sim::Co<Status> SendOne(Slice key, Slice value,
                          std::shared_ptr<Pending>* out);
  /// Sender-thread half: handoff, (shared mode) FAA claim, ordered post.
  /// Detached and lazily started: `sim` and `handoff` are parameters
  /// (copied at call time) because the producer may be destroyed before
  /// the first resume; `alive` is checked before any member access.
  static sim::Co<void> SenderStage(sim::Simulator& sim, sim::TimeNs handoff,
                                   RdmaProducer* self,
                                   std::shared_ptr<bool> alive,
                                   std::shared_ptr<Pending> pending,
                                   uint64_t pos);
  /// Re-requests access (initial, after rotation, or after revocation).
  /// `rotate_target` is the end of in-range claims the producer observed.
  sim::Co<Status> RequestAccess(uint16_t stale_file_id,
                                uint64_t rotate_target = 0);
  /// Shared mode: claims {order, offset}; handles overflow by rotating.
  sim::Co<StatusOr<uint64_t>> ClaimRegion(uint64_t size);
  /// Detached loops: they co-own their CQ and check `alive` after every
  /// resume so a destroyed producer is never touched.
  sim::Co<void> RecvAckLoop(std::shared_ptr<bool> alive,
                            std::shared_ptr<rdma::CompletionQueue> cq);
  sim::Co<void> SendCqDrainer(std::shared_ptr<bool> alive,
                              std::shared_ptr<rdma::CompletionQueue> cq);
  /// Fails all outstanding produces (CQ error teardown).
  void FailAllPending();
  /// Decodes one ack CQE, reposts its recv buffer, resolves the pending.
  void HandleAck(const rdma::WorkCompletion& wc);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  tcpnet::Network& tcp_;
  net::NodeId node_;
  RdmaProducerConfig config_;
  kafka::TopicPartitionId tp_;
  KafkaDirectBroker* leader_ = nullptr;

  rdma::Rnic rnic_;
  std::shared_ptr<rdma::CompletionQueue> send_cq_;
  std::shared_ptr<rdma::CompletionQueue> recv_cq_;
  std::shared_ptr<rdma::QueuePair> qp_;
  net::MessageStreamPtr ctrl_;
  std::vector<std::vector<uint8_t>> ack_bufs_;

  // Current file grant.
  uint16_t file_id_ = 0;
  uint64_t file_addr_ = 0;
  uint32_t file_rkey_ = 0;
  uint64_t file_capacity_ = 0;
  uint64_t write_pos_ = 0;        // exclusive mode local tracking
  uint64_t atomic_addr_ = 0;
  uint32_t atomic_rkey_ = 0;

  sim::Semaphore window_;
  std::deque<std::shared_ptr<Pending>> pending_;
  std::map<uint16_t, std::shared_ptr<Pending>> pending_by_order_;
  std::unique_ptr<sim::AsyncMutex> claim_mu_;  // serializes shared claims
  std::unique_ptr<sim::AsyncMutex> post_mu_;   // keeps posts in order
  std::unique_ptr<sim::AsyncMutex> ctrl_mu_;   // one access request at a time
  /// FAA completions routed by wr_id.
  std::map<uint64_t, std::shared_ptr<sim::Event>> faa_waiters_;
  std::map<uint64_t, std::shared_ptr<std::vector<uint8_t>>> faa_results_;
  uint64_t next_wr_id_ = 1;

  Histogram latencies_;
  uint64_t acked_records_ = 0;
  uint64_t acked_bytes_ = 0;
  uint64_t errors_ = 0;
  uint64_t rotations_ = 0;
  uint64_t faa_issued_ = 0;
  uint32_t broker_qp_num_ = 0;
  /// Notification-mix counters (kd.direct.notify.*): how often each
  /// notification shape was posted.
  obs::Counter* notify_imm_ = nullptr;
  obs::Counter* notify_send_ = nullptr;
  bool closed_ = false;
  bool faa_failed_ = false;
  kafka::ErrorCode return_error_ = kafka::ErrorCode::kNone;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kd
}  // namespace kafkadirect
