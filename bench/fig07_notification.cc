// Figure 7: latency and write goodput of the two broker-notification
// approaches — WriteWithImm vs Write+Send with 4..512-byte metadata — the
// microbenchmark behind KafkaDirect's choice of WriteWithImm (§4.2.2).
#include "bench/microbench_util.h"
#include "direct/control.h"

namespace kafkadirect {
namespace bench {
namespace {

using kd::NotifyMode;
using kd::NotifyPlan;
using kd::PlanNotification;

// The production notification planner, driven per column: meta size 0 is
// the WriteWithImm scheme, anything else the Write+Send scheme.
NotifyPlan PlanFor(uint32_t send_meta_size) {
  return PlanNotification(send_meta_size == 0 ? NotifyMode::kWriteImm
                                              : NotifyMode::kWriteSend);
}

// One produce = the data write (+ the separate metadata Send when
// `send_meta_size` > 0). Latency = initiator round trip of the
// notification; the Send is ordered behind the Write by RC semantics.
sim::Co<void> NotifyOnce(MicroRig* rig, MicroClient* client,
                         uint32_t send_meta_size,
                         std::vector<uint8_t>* meta_buf, int* done) {
  NotifyPlan plan = PlanFor(send_meta_size);
  rdma::WorkRequest write;
  write.opcode = plan.data_opcode;
  write.signaled = !plan.separate_send;
  write.local_addr = client->payload.data();
  write.length = static_cast<uint32_t>(client->payload.size());
  write.remote_addr = rig->buffer_addr();
  write.rkey = rig->buffer_rkey();
  write.imm_data = 7;
  KD_CHECK_OK(client->qp->PostSend(write));
  if (plan.separate_send) {
    rdma::WorkRequest send;
    send.opcode = rdma::Opcode::kSend;
    send.local_addr = meta_buf->data();
    send.length = send_meta_size;
    KD_CHECK_OK(client->qp->PostSend(send));
  }
  auto wc = co_await client->cq->Next();
  KD_CHECK(wc.has_value() && wc->ok());
  (*done)++;
}

double LatencyPoint(size_t write_size, uint32_t send_meta_size) {
  MicroRig rig;
  MicroClient client = rig.AddClient(write_size);
  std::vector<uint8_t> meta(send_meta_size == 0 ? 1 : send_meta_size, 1);
  Histogram lat;
  const int iters = 100;
  int done = 0;
  auto driver = [](MicroRig* rig, MicroClient* client, uint32_t meta_size,
                   std::vector<uint8_t>* meta_buf, Histogram* lat, int iters,
                   int* done) -> sim::Co<void> {
    for (int i = 0; i < iters; i++) {
      sim::TimeNs start = rig->sim().Now();
      int one = 0;
      co_await NotifyOnce(rig, client, meta_size, meta_buf, &one);
      lat->Add(rig->sim().Now() - start);
    }
    (*done)++;
  };
  sim::Spawn(rig.sim(),
             driver(&rig, &client, send_meta_size, &meta, &lat, iters, &done));
  rig.sim().RunUntilDone([&]() { return done == 1; }, Seconds(60));
  return lat.Median() / 1000.0;
}

double BandwidthPoint(size_t write_size, uint32_t send_meta_size) {
  MicroRig rig;
  MicroClient client = rig.AddClient(write_size);
  std::vector<uint8_t> meta(send_meta_size == 0 ? 1 : send_meta_size, 1);
  uint64_t n = std::max<uint64_t>(500,
                                  std::min<uint64_t>(5000, (16 * kMiB) /
                                                               write_size));
  int done = 0;
  auto driver = [](MicroRig* rig, MicroClient* client, uint32_t meta_size,
                   std::vector<uint8_t>* meta_buf, uint64_t n,
                   int* done) -> sim::Co<void> {
    // Pipelined: up to 32 notifications in flight.
    NotifyPlan plan = PlanFor(meta_size);
    uint64_t completed = 0, posted = 0;
    while (completed < n) {
      while (posted < n && posted - completed < 32) {
        rdma::WorkRequest write;
        write.opcode = plan.data_opcode;
        write.signaled = !plan.separate_send;
        write.local_addr = client->payload.data();
        write.length = static_cast<uint32_t>(client->payload.size());
        write.remote_addr = rig->buffer_addr();
        write.rkey = rig->buffer_rkey();
        write.imm_data = 7;
        if (!client->qp->PostSend(write).ok()) break;
        if (plan.separate_send) {
          rdma::WorkRequest send;
          send.opcode = rdma::Opcode::kSend;
          send.local_addr = meta_buf->data();
          send.length = meta_size;
          if (!client->qp->PostSend(send).ok()) {
            co_await sim::Delay(rig->sim(), 500);
          }
        }
        posted++;
      }
      auto wc = co_await client->cq->Next();
      KD_CHECK(wc.has_value() && wc->ok());
      completed++;
    }
    (*done)++;
  };
  sim::Spawn(rig.sim(), driver(&rig, &client, send_meta_size, &meta, n,
                               &done));
  rig.sim().RunUntilDone([&]() { return done == 1; }, Seconds(600));
  // Goodput counts the data writes only (the paper's methodology).
  return RateGiBps(static_cast<double>(write_size) * n,
                   static_cast<double>(rig.sim().Now()));
}

void Run() {
  using harness::Cell;
  harness::PrintFigureHeader(
      "Figure 7 (left)", "Notification latency (us) vs write size",
      {"size", "WriteImm", "W+Send4B", "W+Send32B", "W+Send128B",
       "W+Send512B"});
  for (size_t size = 8; size <= 1024; size *= 2) {
    harness::PrintRow({FormatSize(size), Cell(LatencyPoint(size, 0), 2),
                       Cell(LatencyPoint(size, 4), 2),
                       Cell(LatencyPoint(size, 32), 2),
                       Cell(LatencyPoint(size, 128), 2),
                       Cell(LatencyPoint(size, 512), 2)});
  }
  harness::PrintFigureHeader(
      "Figure 7 (right)", "Write goodput (GiB/s) vs write size",
      {"size", "WriteImm", "W+Send4B", "W+Send32B", "W+Send128B",
       "W+Send512B"});
  for (size_t size = 256; size <= 32 * kKiB; size *= 2) {
    harness::PrintRow({FormatSize(size), Cell(BandwidthPoint(size, 0), 2),
                       Cell(BandwidthPoint(size, 4), 2),
                       Cell(BandwidthPoint(size, 32), 2),
                       Cell(BandwidthPoint(size, 128), 2),
                       Cell(BandwidthPoint(size, 512), 2)});
  }
  std::printf(
      "\nPaper: WriteWithImm ~1 us faster for small writes; goodput gap\n"
      "largest around 1 KiB and insignificant by 32 KiB.\n");
}

}  // namespace
}  // namespace bench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  kafkadirect::harness::InitObsFromArgs(argc, argv);
  kafkadirect::bench::Run();
  return 0;
}
