#include "osu/osu_transport.h"

#include <cstring>

#include "sim/awaitable.h"

namespace kafkadirect {
namespace osu {

namespace {
constexpr uint32_t kFragHeader = 8;  // {u32 frame_total, u32 frag_len}
}

uint32_t OsuChannel::RecvBufSize() const {
  return config_.buffer_size + kFragHeader;
}

uint8_t* OsuChannel::RecvBuf(uint64_t i) {
  return recv_bufs_.data() + i * RecvBufSize();
}

OsuChannel::OsuChannel(sim::Simulator& sim, net::Fabric& fabric,
                       std::shared_ptr<rdma::QueuePair> qp,
                       std::shared_ptr<rdma::CompletionQueue> send_cq,
                       std::shared_ptr<rdma::CompletionQueue> recv_cq,
                       net::NodeId peer, OsuConfig config)
    : sim_(sim), fabric_(fabric), qp_(std::move(qp)),
      send_cq_(std::move(send_cq)), recv_cq_(std::move(recv_cq)),
      peer_(peer), config_(config),
      recv_bufs_(static_cast<size_t>(config.recv_depth) * RecvBufSize()),
      rx_(sim) {}

void OsuChannel::Start() {
  for (int i = 0; i < config_.recv_depth; i++) {
    KD_CHECK_OK(qp_->PostRecv(i, RecvBuf(i), RecvBufSize()));
  }
  sim::Spawn(sim_, RecvPump(alive_, recv_cq_));
}

void OsuChannel::Close() {
  if (closed_) return;
  closed_ = true;
  *alive_ = false;
  rx_.Close();
  qp_->Disconnect();
}

sim::Co<Status> OsuChannel::Send(std::vector<uint8_t> msg, bool zero_copy) {
  if (closed_) co_return Status::Disconnected("OSU channel closed");
  const CostModel& cm = fabric_.cost();
  uint32_t total = static_cast<uint32_t>(msg.size());
  uint64_t offset = 0;
  do {
    uint32_t frag = static_cast<uint32_t>(
        std::min<uint64_t>(config_.buffer_size, msg.size() - offset));
    // Copy the frame into a registered network send buffer — the copy the
    // paper's zero-copy design exists to remove.
    if (!zero_copy) {
      co_await sim::Delay(
          sim_, static_cast<sim::TimeNs>(cm.kafka.copy_ns_per_byte * frag));
    }
    send_bufs_.emplace_back(kFragHeader + frag);
    std::vector<uint8_t>& buf = send_bufs_.back();
    EncodeFixed32(buf.data(), total);
    EncodeFixed32(buf.data() + 4, frag);
    std::memcpy(buf.data() + kFragHeader, msg.data() + offset, frag);
    rdma::WorkRequest wr;
    wr.opcode = rdma::Opcode::kSend;
    wr.signaled = true;
    wr.local_addr = buf.data();
    wr.length = static_cast<uint32_t>(buf.size());
    while (true) {
      Status st = qp_->PostSend(wr);
      if (st.ok()) break;
      if (st.IsDisconnected()) co_return st;
      co_await sim::Delay(sim_, 2000);  // send queue full; retry
    }
    offset += frag;
  } while (offset < msg.size());
  co_return Status::OK();
}

sim::Co<void> OsuChannel::RecvPump(std::shared_ptr<bool> alive,
                                   std::shared_ptr<rdma::CompletionQueue> cq) {
  while (*alive) {
    auto wc = co_await cq->Next();
    if (!*alive || !wc.has_value()) co_return;
    if (!wc->ok()) {
      rx_.Close();
      co_return;
    }
    if (wc->opcode == rdma::Opcode::kSend) {
      // Send buffer transmitted; release it.
      if (!send_bufs_.empty()) send_bufs_.pop_front();
      continue;
    }
    if (wc->opcode != rdma::Opcode::kRecv) continue;
    const uint8_t* buf = RecvBuf(wc->wr_id);
    uint32_t total = DecodeFixed32(buf);
    uint32_t frag = DecodeFixed32(buf + 4);
    // Copy out of the network receive buffer (the second OSU copy).
    co_await sim::Delay(
        sim_, static_cast<sim::TimeNs>(
                  fabric_.cost().kafka.copy_ns_per_byte * frag));
    if (reassembly_.empty()) expected_total_ = total;
    reassembly_.insert(reassembly_.end(), buf + kFragHeader,
                       buf + kFragHeader + frag);
    (void)qp_->PostRecv(wc->wr_id, RecvBuf(wc->wr_id), RecvBufSize());
    if (reassembly_.size() >= expected_total_) {
      rx_.Push(std::move(reassembly_));
      reassembly_.clear();
      expected_total_ = 0;
    }
  }
}

sim::Co<StatusOr<std::vector<uint8_t>>> OsuChannel::Recv() {
  bool had = !rx_.empty();
  auto item = co_await rx_.Pop();
  if (!item.has_value()) {
    co_return Status::Disconnected("OSU channel closed");
  }
  if (!had) {
    // OSU Kafka keeps Kafka's blocking network threads.
    co_await sim::Delay(sim_, fabric_.cost().cpu.wakeup_ns);
  }
  co_return std::move(*item);
}

sim::Co<StatusOr<net::MessageStreamPtr>> OsuConnect(
    sim::Simulator& sim, net::Fabric& fabric, rdma::Rnic& client_rnic,
    kd::KafkaDirectBroker* broker, OsuListener* listener, OsuConfig config) {
  // Connection establishment round trips.
  co_await sim::Delay(sim, 2 * fabric.cost().link.propagation_ns + 30000);
  auto client_cq = client_rnic.CreateCq();
  auto client_qp = client_rnic.CreateQp(client_cq, client_cq);
  auto broker_cq = broker->rnic().CreateCq();
  auto broker_qp = broker->rnic().CreateQp(broker_cq, broker_cq);
  KD_CO_RETURN_IF_ERROR(rdma::Connect(client_qp, broker_qp));
  auto client_side = std::make_shared<OsuChannel>(
      sim, fabric, client_qp, client_cq, client_cq, broker->node(), config);
  auto broker_side = std::make_shared<OsuChannel>(
      sim, fabric, broker_qp, broker_cq, broker_cq, client_rnic.node(),
      config);
  client_side->Start();
  broker_side->Start();
  listener->Deliver(broker_side);
  co_return net::MessageStreamPtr(client_side);
}

}  // namespace osu
}  // namespace kafkadirect
