#include "direct/kd_broker.h"

#include <algorithm>

namespace kafkadirect {
namespace kd {

using kafka::ErrorCode;

/// §14: client backoff hint carried in an admission-control rejection.
constexpr sim::TimeNs kAdmissionRetryAfter = 1 * 1000 * 1000;  // 1 ms

// ---------------------------------------------------------------------------
// §14 million-client connection architecture
// ---------------------------------------------------------------------------

void KafkaDirectBroker::HandleMuxOpen(const CtrlMsg& msg, uint32_t qp_num) {
  uint32_t count = std::max<uint32_t>(1, msg.aux);
  CtrlMsg grant;
  grant.kind = CtrlKind::kMuxGrant;
  grant.stream = msg.stream;
  if (mux_ == nullptr || msg.stream == 0) {
    // Stream 0 is the reserved unmuxed id; opens for it are malformed.
    grant.error = static_cast<uint16_t>(
        mux_ == nullptr ? ErrorCode::kRdmaAccessDenied
                        : ErrorCode::kInvalidRequest);
    SendCtrl(qp_num, grant);
    return;
  }
  uint32_t admitted = 0;
  uint64_t first_committed = 0;
  for (uint32_t i = 0; i < count; i++) {
    rdma::MuxStream* s = nullptr;
    if (mux_->Open(msg.stream + i, qp_num, &s) ==
        rdma::QpMux::OpenResult::kRejected) {
      break;
    }
    if (i == 0) first_committed = s->committed;
    admitted++;
  }
  if (adm_obs_.admitted != nullptr) {
    if (admitted > 0) adm_obs_.admitted->Increment(admitted);
    if (admitted < count) adm_obs_.rejected->Increment(count - admitted);
    adm_obs_.active->Set(static_cast<int64_t>(mux_->active()));
  }
  grant.aux = admitted;  // contiguous prefix [stream, stream+admitted)
  grant.order = static_cast<uint16_t>(mux_->stream_credits());
  if (admitted == count) {
    // Single-stream reopen (the lazy-reconnect path) replays the stream's
    // committed count so the client can resolve its unacked records
    // exactly-once; bulk opens get a plain full-admission grant.
    grant.value = count == 1 ? static_cast<int64_t>(first_committed) : 0;
  } else {
    // Admission control: don't stall the client, tell it when to retry
    // (§14). Without the flag the rejection is still explicit, just
    // without a pacing hint.
    grant.error = static_cast<uint16_t>(ErrorCode::kResourceExhausted);
    grant.value = config_.admission_control ? kAdmissionRetryAfter : 0;
  }
  SendCtrl(qp_num, grant);
}

void KafkaDirectBroker::HandleMuxClose(const CtrlMsg& msg, uint32_t qp_num) {
  (void)qp_num;  // close is idempotent and unacknowledged
  if (mux_ == nullptr || msg.stream == 0) return;
  uint32_t count = std::max<uint32_t>(1, msg.aux);
  for (uint32_t i = 0; i < count; i++) {
    (void)mux_->Close(msg.stream + i);
  }
  if (adm_obs_.active != nullptr) {
    adm_obs_.active->Set(static_cast<int64_t>(mux_->active()));
  }
}

void KafkaDirectBroker::OnCacheEvict(uint32_t qp_num,
                                     std::shared_ptr<rdma::QueuePair> qp) {
  // Detach before disconnecting so the streams' committed counts survive
  // as reconnect anchors; the QP failure watcher handles the rest of the
  // teardown (file aborts, receive-pool recycling) exactly as it would
  // for a client that died on its own.
  if (mux_ != nullptr) mux_->DetachQp(qp_num);
  qp->Disconnect();
}

bool KafkaDirectBroker::EvictQp(uint32_t qp_num) {
  auto it = rdma_qps_.find(qp_num);
  if (it == rdma_qps_.end()) return false;
  std::shared_ptr<rdma::QueuePair> qp = it->second;
  if (conn_cache_ != nullptr) conn_cache_->Erase(qp_num);
  OnCacheEvict(qp_num, std::move(qp));
  return true;
}

uint64_t KafkaDirectBroker::mux_meta_peak_bytes() const {
  uint64_t bytes = 0;
  if (meta_arena_ != nullptr) bytes += meta_arena_->peak_used_bytes();
  if (session_arena_ != nullptr) bytes += session_arena_->peak_used_bytes();
  return bytes;
}

}  // namespace kd
}  // namespace kafkadirect
