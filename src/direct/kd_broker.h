// KafkaDirectBroker: the paper's broker extensions (Fig. 2, colored boxes),
// layered over the unmodified TCP broker:
//
//  - RDMA network module (§4.1): accepts RC QP connections, polls shared
//    completion queues and forwards WriteWithImm arrivals into the shared
//    request queue;
//  - RDMA produce module (§4.2.2): per-file 16-bit IDs, exclusive and
//    shared (FAA-ordered) zero-copy produce, in-order commit enforcement
//    with hole-timeout abort + access revocation, loopback FAA for TCP
//    writers to shared files, head-file rotation;
//  - RDMA push replication (§4.3.2): leader writes committed batches
//    directly into follower replica files with credit-based flow control
//    and opportunistic batching of contiguous writes;
//  - RDMA consume module (§4.4.2): registers TP files for one-sided reads
//    and maintains per-consumer contiguous metadata-slot regions that track
//    each mutable file's last readable byte.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "direct/control.h"
#include "kafka/broker.h"
#include "rdma/completion_queue.h"
#include "rdma/qp_mux.h"
#include "rdma/queue_pair.h"
#include "rdma/slot_arena.h"
#include "rdma/srq.h"

namespace kafkadirect {
namespace kd {

class KafkaDirectBroker;

/// Ctrl-message receives posted per accepted QP (without the SRQ).
constexpr int kCtrlRecvsPerQp = 256;

/// Broker-side state of one RDMA-writable file (a produce grant or a
/// replication target). Keyed by the 16-bit file ID carried in immediates.
struct RdmaFileState {
  uint16_t file_id = 0;
  kafka::PartitionState* ps = nullptr;
  int seg_index = 0;                 // which segment of the partition log
  rdma::MemoryRegionPtr mr;          // write access for the producer(s)
  bool shared = false;               // shared FAA mode vs exclusive
  bool replica = false;              // written by push replication
  bool aborted = false;
  uint32_t owner_qp = 0;             // exclusive mode: the granted QP
  /// Leader epoch at grant time: a write landing after a control-plane
  /// leader move commits against a stale epoch and is fenced (§15).
  int64_t granted_epoch = 0;

  // Shared mode: the Fig. 5 atomic word, RDMA-accessible.
  std::vector<uint8_t> atomic_word;
  rdma::MemoryRegionPtr atomic_mr;

  // In-order commit enforcement (§4.2.2).
  uint16_t next_expected_order = 0;
  uint16_t arrival_seq = 0;          // order assigned to exclusive arrivals
  uint64_t next_commit_pos = 0;
  struct PendingWrite {
    uint32_t byte_len;
    uint32_t qp_num;
    uint32_t stream;  // logical mux stream the ack goes to (0 = unmuxed)
  };
  std::map<uint16_t, PendingWrite> pending;  // out-of-order arrivals
  bool hole_watch_armed = false;
  /// Pulsed whenever next_expected_order advances (or the file aborts).
  std::unique_ptr<sim::Event> commit_event;

  /// Receiver-paced replication credits (follower side, DESIGN.md §12):
  /// instead of 1-credit-per-commit, grants are sized from the observed
  /// drain rate and batched, with total credits in flight capped below the
  /// posted-receive pool so a fast leader can never RNR a slow follower.
  struct CreditPacer {
    uint32_t qp_num = 0;              // leader QP (learned at first commit)
    uint32_t credits_outstanding = 0; // granted minus drained
    uint32_t pending_grants = 0;      // drained commits not yet re-granted
    double ewma_commit_interval_ns = 0;
    sim::TimeNs last_commit_ns = 0;
    int64_t last_leo_sent = -1;
  };
  CreditPacer pacer;
};

/// One committed range of the leader's head file awaiting replication.
struct ReplEntry {
  int seg = 0;
  uint64_t pos = 0;
  uint32_t len = 0;
};

/// Leader-side push-replication session to one follower for one TP.
struct PushSession {
  kafka::TopicPartitionId tp;
  KafkaDirectBroker* follower = nullptr;
  net::MessageStreamPtr ctrl;        // TCP control channel (handshake)
  std::shared_ptr<rdma::CompletionQueue> send_cq;
  std::shared_ptr<rdma::CompletionQueue> recv_cq;
  std::shared_ptr<rdma::QueuePair> qp;
  uint16_t file_id = 0;
  uint64_t remote_addr = 0;
  uint32_t rkey = 0;
  uint64_t capacity = 0;
  int seg_index = 0;                 // follower segment this maps
  uint16_t next_order = 0;
  std::unique_ptr<sim::Semaphore> credits;
  std::unique_ptr<sim::Channel<ReplEntry>> queue;  // committed ranges
};

/// One grant of RDMA read access to one consumer for one file.
struct ConsumeGrant {
  uint32_t file_ref = 0;
  kafka::PartitionState* ps = nullptr;
  int seg_index = 0;
  rdma::MemoryRegionPtr mr;
  // Metadata slot (mutable files only).
  void* session = nullptr;           // owning ConsumerSession
  int32_t slot_index = -1;
};

/// Per-consumer contiguous metadata-slot region (Fig. 9). Paper-exact mode
/// registers a fresh MemoryRegion per session; with
/// BrokerConfig::metadata_arena the region is one recycled slab of the
/// broker's session arena instead (§14: O(1) registration per client).
struct ConsumerSession {
  static constexpr uint32_t kNumSlots = 64;
  static constexpr uint32_t kSlotSize = 16;
  static constexpr uint32_t kRegionBytes = kNumSlots * kSlotSize;

  explicit ConsumerSession(rdma::Rnic& rnic);
  /// Arena-backed: borrows `arena_slot` (kRegionBytes wide) from `arena`.
  ConsumerSession(rdma::SlotArena& arena, uint32_t arena_slot);
  ~ConsumerSession();

  std::vector<uint8_t> region;  // empty in arena mode
  rdma::MemoryRegionPtr mr;     // own MR, or the shared arena MR
  std::vector<bool> used;

  /// Remote address/rkey of the slot region handed to the consumer.
  uint64_t region_addr() const { return region_addr_; }
  uint32_t region_rkey() const { return mr->rkey(); }

  /// Lowest free slot (the broker "tries to keep assigned slots in close
  /// proximity to each other", §4.4.2).
  int32_t AllocSlot();
  void FreeSlot(int32_t index);
  uint8_t* slot(int32_t index) { return base_ + index * kSlotSize; }

 private:
  uint8_t* base_ = nullptr;
  uint64_t region_addr_ = 0;
  rdma::SlotArena* arena_ = nullptr;  // set in arena mode
  int32_t arena_slot_ = -1;
};

/// Slot contents: {u64 last_readable, u8 mutable flag}.
void WriteSlot(uint8_t* slot, uint64_t last_readable, bool is_mutable);
uint64_t SlotLastReadable(const uint8_t* slot);
bool SlotMutable(const uint8_t* slot);

/// Broker-side state of one ring-buffer consume grant (DESIGN.md §12): the
/// broker pushes committed bytes into a consumer-registered ring MR with
/// plain RDMA Writes and periodically publishes a tail pointer, replacing
/// both consumer-driven Reads and per-batch metadata-slot notifications.
struct RingConsumeGrant {
  uint32_t grant_ref = 0;
  kafka::PartitionState* ps = nullptr;
  uint32_t qp_num = 0;               // consumer QP the pushes ride on
  int seg_index = 0;
  uint64_t read_pos = 0;             // next unpushed byte in seg_index
  // Consumer-registered ring data MR and tail word MR.
  uint64_t ring_addr = 0;
  uint32_t ring_rkey = 0;
  uint64_t ring_capacity = 0;
  uint64_t tail_addr = 0;
  uint32_t tail_rkey = 0;
  // Flow state. `pushed` is the monotonically growing byte count written
  // into the ring; the consumer RDMA-Writes its consumed count into
  // head_word, which the broker reads locally for free.
  uint64_t pushed = 0;
  uint64_t published_tail = 0;       // last `pushed` value sent to consumer
  std::vector<uint8_t> head_word;    // u64 LE consumed count
  rdma::MemoryRegionPtr head_mr;
  bool closed = false;
};

/// EXTENSION (§5.4 future work): an RDMA-writable 8-byte committed-offset
/// slot per consumer group, making offset commits one-sided writes.
struct CommitSlot {
  std::vector<uint8_t> value;  // i64 LE committed offset, -1 = none
  rdma::MemoryRegionPtr mr;
};

/// KafkaDirect per-partition module state.
struct KdPartitionExt : public kafka::PartitionExt {
  RdmaFileState* produce_file = nullptr;     // current head-file grant
  std::vector<std::unique_ptr<PushSession>> push_sessions;
  std::vector<ConsumeGrant*> consume_grants;  // all grants on this TP
  std::map<std::string, std::unique_ptr<CommitSlot>> commit_slots;
};

class KafkaDirectBroker : public kafka::Broker {
 public:
  KafkaDirectBroker(sim::Simulator& sim, net::Fabric& fabric,
                    tcpnet::Network& tcp, kafka::BrokerConfig config);
  ~KafkaDirectBroker() override;

  Status Start() override;

  /// Coroutine-aware teardown (§14): disconnects every client and
  /// replication QP, closes push queues and ring grants, shuts down the
  /// broker CQs so parked pollers drain, then runs the base TCP walk.
  /// Idempotent; the simulator must be drained afterwards.
  void Shutdown() override;

  /// Out-of-band connection-manager exchange: accepts a client QP and
  /// returns the broker-side QP bound to the broker's shared CQs. Stands in
  /// for the rdma_cm handshake the paper's "RDMA connection string" implies.
  sim::Co<StatusOr<std::shared_ptr<rdma::QueuePair>>> AcceptRdma(
      std::shared_ptr<rdma::QueuePair> client_qp);

  void StartPushReplication(
      const kafka::TopicPartitionId& tp,
      const std::vector<kafka::Broker*>& followers) override;

  /// RDMA-originated requests processed (offloaded consume never counts —
  /// that is the point of §5.3).
  uint64_t rdma_acks_sent() const { return rdma_acks_sent_; }

  /// Bytes currently committed to ctrl-message receive buffers: the SRQ
  /// arena when use_srq, otherwise the sum of per-QP pools. The
  /// tbl_client_scaling bench asserts this is client-count-independent
  /// with the SRQ enabled.
  uint64_t ctrl_recv_buf_bytes() const { return ctrl_recv_buf_bytes_; }

  /// The broker's shared receive queue (nullptr unless config.use_srq).
  rdma::SharedReceiveQueue* srq() const { return srq_.get(); }

  // --- §14 million-client connection architecture ---
  /// Logical-stream directory (nullptr unless config.qp_mux).
  rdma::QpMux* mux() const { return mux_.get(); }
  /// LRU transport cache (nullptr unless config.connection_cache).
  rdma::ConnectionCache* connection_cache() const { return conn_cache_.get(); }
  /// Slab arena backing mux stream slots (nullptr unless qp_mux or
  /// metadata_arena).
  rdma::SlotArena* metadata_arena() const { return meta_arena_.get(); }
  /// Live broker-side client QPs (the scaling bench asserts this is
  /// O(active clients) with the connection cache on).
  size_t live_rdma_qps() const { return rdma_qps_.size(); }
  /// Peak per-client metadata bytes pinned by the mux arena(s); the
  /// scaling bench asserts this is client-count-independent.
  uint64_t mux_meta_peak_bytes() const;
  /// Test hook: force-evict one QP exactly as the LRU would (disconnect +
  /// stream detach). Returns false if the QP is unknown.
  bool EvictQp(uint32_t qp_num);

 protected:
  sim::Co<void> HandleExtendedRequest(Request req) override;

  /// Offset reads/writes consult the RDMA commit slot when one exists.
  sim::Co<void> HandleCommitOffset(Request req) override;
  sim::Co<void> HandleFetchCommittedOffset(Request req) override;

  /// Overridden so TCP produce requests to an RDMA-shared file reserve
  /// their region with a loopback FAA, keeping the broker's view consistent
  /// with remote producers (§4.2.2).
  sim::Co<StatusOr<int64_t>> CommitBatch(kafka::PartitionState* ps,
                                         std::vector<uint8_t> batch,
                                         bool charge_copy) override;
  void OnAppended(kafka::PartitionState& ps, uint64_t pos, uint64_t len,
                  int64_t base_offset, uint32_t record_count) override;
  void OnHwmAdvanced(kafka::PartitionState& ps) override;
  void OnRolled(kafka::PartitionState& ps) override;
  /// Demotion fences the zero-copy state: the produce grant is aborted
  /// (producers get kNotLeader and re-request at the new leader) and ring
  /// push sessions close so consumers re-subscribe (§15).
  void OnLeadershipChanged(kafka::PartitionState& ps,
                           bool is_leader) override;

 private:
  // --- RDMA network module ---
  sim::Co<void> RdmaPollerLoop();
  sim::Co<void> WatchQpFailure(std::shared_ptr<rdma::QueuePair> qp);
  void PostCtrlRecvs(const std::shared_ptr<rdma::QueuePair>& qp, int n);
  void SendCtrl(uint32_t qp_num, const CtrlMsg& msg);
  /// Dispatches one CQE from the shared broker CQ (synchronous — the
  /// poller drains whole batches between wakeups).
  void HandleRdmaCompletion(const rdma::WorkCompletion& wc);
  /// Buffer an inbound ctrl message landed in: an SRQ arena slot when
  /// use_srq, else the QP's pooled buffer. nullptr once the QP is gone.
  uint8_t* CtrlRecvBuf(const rdma::WorkCompletion& wc);
  /// Returns the consumed receive buffer to the SRQ / the QP's receive
  /// queue. `qp` overrides the rdma_qps_ lookup (leader-side replication
  /// QPs are not in that map).
  void RepostCtrlRecv(const rdma::WorkCompletion& wc,
                      rdma::QueuePair* qp = nullptr);
  /// Recycles a dead QP's ctrl receive buffers through buf_pool_.
  void ReleaseQpRecvPool(uint32_t qp_num);

  // --- RDMA produce module ---
  KdPartitionExt* Ext(kafka::PartitionState& ps);
  sim::Co<void> HandleProduceAccess(Request req);
  sim::Co<void> HandleRdmaProduceArrival(Request req);
  sim::Co<void> CommitRdmaWrite(RdmaFileState* fs, uint16_t order,
                                uint32_t byte_len, uint32_t qp_num,
                                uint32_t stream);
  sim::Co<void> HoleWatchdog(RdmaFileState* fs, uint16_t expected);
  RdmaFileState* CreateFileState(kafka::PartitionState& ps, bool shared,
                                 bool replica);
  /// Broker-side FAA against a shared file's atomic word; returns the
  /// pre-increment word.
  sim::Co<StatusOr<uint64_t>> LoopbackFaa(RdmaFileState* fs, uint64_t size);
  /// True once the write claiming `order` has been committed.
  static bool OrderCommitted(const RdmaFileState* fs, uint16_t order) {
    uint16_t diff = static_cast<uint16_t>(fs->next_expected_order - order);
    return diff >= 1 && diff < 0x8000;
  }
  void AbortFile(RdmaFileState* fs, kafka::ErrorCode error);
  /// Sends the produce ack once `required` is covered by the HWM.
  sim::Co<void> AckWhenCommitted(kafka::PartitionState* ps, uint32_t qp_num,
                                 uint16_t order, int64_t base,
                                 int64_t required, uint32_t stream);

  // --- §14 million-client connection architecture ---
  /// Handles a kMuxOpen ctrl message: admits (or re-attaches) `aux`
  /// contiguous streams starting at msg.stream, replying with one
  /// kMuxGrant; over-capacity opens are rejected with a retry-after hint
  /// when admission control is on.
  void HandleMuxOpen(const CtrlMsg& msg, uint32_t qp_num);
  void HandleMuxClose(const CtrlMsg& msg, uint32_t qp_num);
  /// ConnectionCache evict hook: detaches the victim's streams and
  /// disconnects it (clients lazily reconnect on next use).
  void OnCacheEvict(uint32_t qp_num, std::shared_ptr<rdma::QueuePair> qp);

  // --- push replication (leader side) ---
  sim::Co<void> PushReplicatorLoop(kafka::TopicPartitionId tp,
                                   kafka::Broker* follower_base);
  sim::Co<void> PushCreditDrainer(PushSession* session,
                                  kafka::PartitionState* ps);
  sim::Co<Status> PushHandshake(PushSession* session,
                                kafka::PartitionState* ps,
                                uint16_t stale_file_id);

  // --- push replication (follower side) ---
  sim::Co<void> HandleReplicaAccess(Request req);
  void GrantCredit(uint32_t qp_num, kafka::PartitionState* ps);
  /// Receiver-paced flow control (DESIGN.md §12): per-commit pacer update.
  /// Sizes the credit window from the observed drain rate and batches
  /// grants instead of echoing one credit per commit.
  void PacedCreditOnCommit(RdmaFileState* fs, uint32_t qp_num);
  /// Sends any pending batched grant / LEO update for a paced replica file.
  void FlushPacedCredits(RdmaFileState* fs);
  /// Periodic flush so batched grants cannot stall LEO/HWM propagation.
  sim::Co<void> CreditFlushLoop(RdmaFileState* fs);
  uint32_t PacedTargetWindow(const RdmaFileState* fs) const;
  /// Hard cap on credits in flight: 3/4 of the per-QP ctrl receive pool,
  /// so a paced leader can never exhaust the follower's posted receives.
  uint32_t PacedCreditCap() const;

  // --- consume module ---
  sim::Co<void> HandleConsumeAccess(Request req);
  sim::Co<void> HandleUnregister(Request req);
  sim::Co<void> HandleCommitAccess(Request req);
  CommitSlot* GetOrCreateCommitSlot(kafka::PartitionState& ps,
                                    const std::string& group);
  ConsumerSession* SessionFor(const net::MessageStreamPtr& conn);
  void UpdateConsumeSlots(kafka::PartitionState& ps);
  uint64_t ReadablePosition(kafka::PartitionState& ps, int seg_index) const;

  // --- ring-buffer consume protocol (DESIGN.md §12) ---
  sim::Co<void> HandleRingConsumeAccess(Request req);
  /// Per-grant pusher: streams committed bytes into the consumer ring with
  /// unsignaled Writes and publishes the tail every kRingTailIntervalBytes
  /// (plus whenever the pusher goes idle with unpublished bytes).
  sim::Co<void> RingPushLoop(RingConsumeGrant* grant);
  /// Inline 8-byte tail-pointer Write; counts as one notification.
  void PublishRingTail(RingConsumeGrant* grant, rdma::QueuePair* qp);

  std::shared_ptr<rdma::CompletionQueue> rdma_cq_;   // shared recv/send CQ
  std::map<uint32_t, std::shared_ptr<rdma::QueuePair>> rdma_qps_;
  std::map<uint16_t, std::unique_ptr<RdmaFileState>> rdma_files_;
  uint16_t next_file_id_ = 1;
  uint32_t next_file_ref_ = 1;
  std::map<const net::MessageStream*, std::unique_ptr<ConsumerSession>>
      consumer_sessions_;
  std::map<uint32_t, std::unique_ptr<ConsumeGrant>> consume_grants_;
  std::map<uint32_t, std::unique_ptr<RingConsumeGrant>> ring_grants_;
  /// Ctrl-message receive buffers. With use_srq, one arena sized to the
  /// SRQ (wr_id = slot index) serves every QP; otherwise each QP gets a
  /// pool of kCtrlMsgSize buffers recycled through buf_pool_ when the QP
  /// dies (wr_id = per-QP index).
  std::shared_ptr<rdma::SharedReceiveQueue> srq_;
  std::vector<uint8_t> srq_arena_;
  struct QpRecvPool {
    std::vector<std::vector<uint8_t>> bufs;
  };
  std::map<uint32_t, QpRecvPool> qp_recv_pools_;
  uint64_t ctrl_recv_buf_bytes_ = 0;
  uint64_t rdma_acks_sent_ = 0;
  /// kd.direct.* instruments: zero-copy produce byte count (the paper's
  /// headline claim, checked by the obs invariants test), consume-slot
  /// notification writes, inline control messages, and head-file occupancy.
  struct KdObsHandles {
    obs::Counter* zero_copy_bytes = nullptr;
    obs::Counter* notifications = nullptr;
    obs::Counter* ctrl_msgs = nullptr;
    obs::Gauge* produce_file_pos = nullptr;
    /// §12 ring-consume protocol: bytes pushed into consumer rings.
    obs::Counter* ring_pushed_bytes = nullptr;
    /// §12 receiver-paced credits, watched live by the monitor's
    /// direct.credit_window invariant: the outstanding window (most recent
    /// pacer to move) must stay within [0, credit_cap].
    obs::Gauge* credits_outstanding = nullptr;
    obs::Gauge* credit_cap = nullptr;
  };
  KdObsHandles kd_obs_;
  /// §14 connection layer (all nullptr when the flags are off, so the
  /// paper-exact datapath is untouched).
  std::unique_ptr<rdma::SlotArena> meta_arena_;     // mux stream slots
  std::unique_ptr<rdma::SlotArena> session_arena_;  // consumer slot regions
  std::unique_ptr<rdma::QpMux> mux_;
  std::unique_ptr<rdma::ConnectionCache> conn_cache_;
  /// kd.broker.admission.* instruments (registered only when the mux is
  /// enabled; the monitor's admission invariant is vacuous otherwise).
  struct AdmissionObs {
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Gauge* active = nullptr;
    obs::Gauge* capacity = nullptr;
  };
  AdmissionObs adm_obs_;
  /// Loopback QP pair for the broker's own FAA on shared files (§4.2.2:
  /// TCP produce to an RDMA-shared file reserves via an atomic to itself).
  std::shared_ptr<rdma::QueuePair> loop_qp_, loop_peer_qp_;
  std::shared_ptr<rdma::CompletionQueue> loop_cq_, loop_peer_cq_;
  std::unique_ptr<sim::AsyncMutex> loop_mu_;
};

}  // namespace kd
}  // namespace kafkadirect
