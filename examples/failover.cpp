// Failure handling — the paper's §4.2.2 failure story in action:
//  1. an exclusive RDMA producer crashes (QP disconnect); the broker
//     detects it, revokes RDMA access to the head file, and a new producer
//     can take over with no holes in the log;
//  2. a shared producer claims a region with RDMA fetch-and-add and dies
//     before writing it; the broker's hole-prevention timeout aborts the
//     file and revokes access, and surviving producers re-request access
//     and continue.
//
//   $ ./build/examples/failover
#include <cstdio>

#include "harness/harness.h"
#include "sim/awaitable.h"

using namespace kafkadirect;

namespace {

sim::Co<void> ExclusiveFailover(harness::TestCluster* cluster, bool* done) {
  kafka::TopicPartitionId tp{"orders", 0};
  kd::KafkaDirectBroker* leader = cluster->Leader(tp);

  std::printf("--- exclusive producer failover ---\n");
  auto crasher = std::make_unique<kd::RdmaProducer>(
      cluster->sim(), cluster->fabric(), cluster->tcp(),
      cluster->AddClientNode("crasher"), kd::RdmaProducerConfig{});
  KD_CHECK_OK(co_await crasher->Connect(leader, tp));
  for (int i = 0; i < 3; i++) {
    KD_CHECK((co_await crasher->Produce(Slice("k", 1),
                                        Slice("pre-crash", 9))).ok());
  }
  std::printf("producer A appended 3 records, then crashes\n");
  crasher->Close();  // QP disconnect event reaches the broker
  crasher.reset();
  co_await sim::Delay(cluster->sim(), Millis(1));

  // A second exclusive producer takes over the partition.
  kd::RdmaProducer successor(
      cluster->sim(), cluster->fabric(), cluster->tcp(),
      cluster->AddClientNode("successor"), kd::RdmaProducerConfig{});
  KD_CHECK_OK(co_await successor.Connect(leader, tp));
  for (int i = 0; i < 3; i++) {
    auto off = co_await successor.Produce(Slice("k", 1),
                                          Slice("post-crash", 10));
    KD_CHECK(off.ok()) << off.status().ToString();
    std::printf("producer B appended offset %lld\n",
                static_cast<long long>(off.value()));
  }
  kafka::PartitionState* ps = leader->GetPartition(tp);
  KD_CHECK(ps->log.log_end_offset() == 6 && ps->log.high_watermark() == 6);
  std::printf("log end offset %lld, high watermark %lld — no holes\n\n",
              static_cast<long long>(ps->log.log_end_offset()),
              static_cast<long long>(ps->log.high_watermark()));
  *done = true;
}

// A raw protocol client playing the "ghost": it performs the access
// handshake and the FAA region claim exactly like RdmaProducer would, then
// dies without ever writing the claimed region — manufacturing the hole
// the broker's watchdog must fence.
sim::Co<void> GhostClaim(harness::TestCluster* cluster,
                         kafka::TopicPartitionId tp) {
  kd::KafkaDirectBroker* leader = cluster->Leader(tp);
  net::NodeId node = cluster->AddClientNode("ghost");
  rdma::Rnic& nic = cluster->ClientRnic(node);

  auto ctrl_or =
      co_await cluster->tcp().Connect(node, leader->node(), kafka::kKafkaPort);
  KD_CHECK(ctrl_or.ok());
  net::MessageStreamPtr ctrl = ctrl_or.value();
  auto cq = nic.CreateCq();
  auto qp = nic.CreateQp(cq, cq);
  auto broker_qp = co_await leader->AcceptRdma(qp);
  KD_CHECK(broker_qp.ok());

  kafka::RdmaProduceAccessRequest req;
  req.tp = tp;
  req.exclusive = false;
  req.broker_qp = broker_qp.value()->qp_num();
  KD_CHECK_OK(co_await ctrl->Send(Encode(req), false));
  auto frame = co_await ctrl->Recv();
  KD_CHECK(frame.ok());
  kafka::RdmaProduceAccessResponse resp;
  KD_CHECK_OK(kafka::Decode(Slice(frame.value()), &resp));
  KD_CHECK(resp.error == kafka::ErrorCode::kNone);

  // Claim 64 bytes of the file... and never write them.
  std::vector<uint8_t> result(8, 0);
  rdma::WorkRequest faa;
  faa.opcode = rdma::Opcode::kFetchAdd;
  faa.local_addr = result.data();
  faa.remote_addr = resp.atomic_addr;
  faa.rkey = resp.atomic_rkey;
  faa.compare_add = kd::FaaClaim(64);
  KD_CHECK_OK(qp->PostSend(faa));
  auto wc = co_await cq->Next();
  KD_CHECK(wc.has_value() && wc->ok());
  std::printf("ghost claimed order %u at file offset %llu, then died\n",
              kd::AtomicOrder(DecodeFixed64(result.data())),
              static_cast<unsigned long long>(
                  kd::AtomicOffset(DecodeFixed64(result.data()))));
  qp->Disconnect();
  ctrl->Close();
}

sim::Co<void> SharedHoleTimeout(harness::TestCluster* cluster, bool* done) {
  kafka::TopicPartitionId tp{"shared", 0};
  kd::KafkaDirectBroker* leader = cluster->Leader(tp);
  std::printf("--- shared produce hole timeout ---\n");

  kd::RdmaProducer survivor(
      cluster->sim(), cluster->fabric(), cluster->tcp(),
      cluster->AddClientNode("survivor"),
      kd::RdmaProducerConfig{.exclusive = false});
  KD_CHECK_OK(co_await survivor.Connect(leader, tp));
  KD_CHECK((co_await survivor.Produce(Slice("k", 1), Slice("one", 3))).ok());

  co_await GhostClaim(cluster, tp);

  // The survivor's next record lands AFTER the ghost's hole; the broker's
  // watchdog aborts the file and revokes access, and the client re-enables
  // the RDMA datapath by requesting access again (§4.2.2).
  auto off = co_await survivor.Produce(Slice("k", 1), Slice("two", 3));
  KD_CHECK(!off.ok()) << "the ghost's hole did not revoke access";
  std::printf("survivor produce aborted by revocation (%s); "
              "reconnecting...\n",
              off.status().ToString().c_str());
  kd::RdmaProducer retry(cluster->sim(), cluster->fabric(), cluster->tcp(),
                         cluster->AddClientNode("survivor-2"),
                         kd::RdmaProducerConfig{.exclusive = false});
  KD_CHECK_OK(co_await retry.Connect(leader, tp));
  off = co_await retry.Produce(Slice("k", 1), Slice("two", 3));
  KD_CHECK(off.ok()) << off.status().ToString();
  std::printf("recovered: record committed at offset %lld\n",
              static_cast<long long>(off.value()));
  kafka::PartitionState* ps = leader->GetPartition(tp);
  KD_CHECK(ps->log.log_end_offset() == 2);
  std::printf("after recovery: log end offset %lld (committed records "
              "only; the ghost's hole was discarded)\n",
              static_cast<long long>(ps->log.log_end_offset()));
  *done = true;
}

}  // namespace

int main() {
  harness::DeploymentConfig deploy;
  deploy.broker.rdma_produce = true;
  harness::TestCluster cluster(deploy);
  KD_CHECK_OK(cluster.CreateTopic("orders", 1, 1));
  KD_CHECK_OK(cluster.CreateTopic("shared", 1, 1));
  bool done1 = false, done2 = false;
  sim::Spawn(cluster.sim(), ExclusiveFailover(&cluster, &done1));
  cluster.RunToFlag(&done1);
  sim::Spawn(cluster.sim(), SharedHoleTimeout(&cluster, &done2));
  cluster.RunToFlag(&done2);
  return 0;
}
