// §4.2.2 "the choice of notification method": the Write+Send produce
// notification must be functionally equivalent to WriteWithImm (the paper
// microbenchmarks both and picks WriteWithImm for latency; KafkaDirect "only
// implemented WriteWithImm" — we implement both).
#include <gtest/gtest.h>

#include "kd_test_util.h"

namespace kafkadirect {
namespace kd {
namespace {

using kafka::TopicPartitionId;

NotifyMode ModeFor(bool write_send) {
  return write_send ? NotifyMode::kWriteSend : NotifyMode::kWriteImm;
}

class NotificationModeTest : public KdClusterTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(NotificationModeTest, ExclusiveProduceEquivalent) {
  bool write_send = GetParam();
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  RdmaProducer producer(
      sim_, *fabric_, *tcpnet_, client_node_,
      RdmaProducerConfig{.exclusive = true, .max_inflight = 8,
                         .notify_mode = ModeFor(write_send)});
  bool done = false;
  auto run = [](KdClusterTest* t, RdmaProducer* p, TopicPartitionId tp,
                bool* done) -> sim::Co<void> {
    KD_CHECK((co_await p->Connect(t->Leader(tp), tp)).ok());
    for (int i = 0; i < 50; i++) {
      std::string v = "note-" + std::to_string(i);
      KD_CHECK((co_await p->ProduceAsync(Slice("k", 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p->Flush()).ok());
    *done = true;
  };
  sim::Spawn(sim_, run(this, &producer, tp, &done));
  RunToFlag(&done);
  EXPECT_EQ(producer.acked_records(), 50u);
  EXPECT_EQ(producer.errors(), 0u);
  kafka::PartitionState* ps = Leader(tp)->GetPartition(tp);
  EXPECT_EQ(ps->log.log_end_offset(), 50);
  // Committed data identical regardless of notification method.
  auto data = ps->log.Read(0, 1u << 20, 50).value();
  Slice rest(data);
  int64_t expect = 0;
  while (!rest.empty()) {
    auto view = kafka::RecordBatchView::Parse(rest).value();
    EXPECT_EQ(view.base_offset(), expect);
    expect = view.last_offset() + 1;
    rest.RemovePrefix(view.total_size());
  }
  EXPECT_EQ(expect, 50);
}

TEST_P(NotificationModeTest, SharedProduceEquivalent) {
  bool write_send = GetParam();
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  int done = 0;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, bool write_send,
                char tag, int* done) -> sim::Co<void> {
    RdmaProducer p(
        t->sim_, *t->fabric_, *t->tcpnet_, t->fabric_->AddNode("n"),
        RdmaProducerConfig{.exclusive = false, .max_inflight = 4,
                           .notify_mode = ModeFor(write_send)});
    KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
    std::string v(100, tag);
    for (int i = 0; i < 30; i++) {
      KD_CHECK((co_await p.ProduceAsync(Slice(&tag, 1), Slice(v))).ok());
    }
    KD_CHECK((co_await p.Flush()).ok());
    KD_CHECK(p.errors() == 0);
    (*done)++;
  };
  sim::Spawn(sim_, run(this, tp, write_send, 'a', &done));
  sim::Spawn(sim_, run(this, tp, write_send, 'b', &done));
  sim_.RunUntilDone([&]() { return done == 2; }, Seconds(120));
  ASSERT_EQ(done, 2);
  EXPECT_EQ(Leader(tp)->GetPartition(tp)->log.log_end_offset(), 60);
}

INSTANTIATE_TEST_SUITE_P(Modes, NotificationModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WriteSend" : "WriteWithImm";
                         });

TEST_F(KdClusterTest, WriteSendSlightlySlowerThanWriteWithImm) {
  // The paper's reason for picking WriteWithImm: lower latency.
  Boot(1, 1, 1);
  TopicPartitionId tp{"t", 0};
  Histogram imm_lat, send_lat;
  bool done = false;
  auto run = [](KdClusterTest* t, TopicPartitionId tp, Histogram* imm,
                Histogram* send, bool* done) -> sim::Co<void> {
    {
      RdmaProducer p(t->sim_, *t->fabric_, *t->tcpnet_,
                     t->fabric_->AddNode("imm"),
                     RdmaProducerConfig{.exclusive = true});
      KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
      for (int i = 0; i < 40; i++) {
        KD_CHECK((co_await p.Produce(Slice("k", 1), Slice("v", 1))).ok());
      }
      *imm = p.latencies();
      p.Close();
    }
    co_await sim::Delay(t->sim_, Millis(1));
    {
      RdmaProducer p(t->sim_, *t->fabric_, *t->tcpnet_,
                     t->fabric_->AddNode("ws"),
                     RdmaProducerConfig{.exclusive = true,
                                        .notify_mode = NotifyMode::kWriteSend});
      KD_CHECK((co_await p.Connect(t->Leader(tp), tp)).ok());
      for (int i = 0; i < 40; i++) {
        KD_CHECK((co_await p.Produce(Slice("k", 1), Slice("v", 1))).ok());
      }
      *send = p.latencies();
      p.Close();
    }
    *done = true;
  };
  sim::Spawn(sim_, run(this, tp, &imm_lat, &send_lat, &done));
  RunToFlag(&done);
  EXPECT_GE(send_lat.Median(), imm_lat.Median());
  EXPECT_LT(send_lat.Median(), imm_lat.Median() + Micros(5));
}

}  // namespace
}  // namespace kd
}  // namespace kafkadirect
