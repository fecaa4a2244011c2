// Figure 21: the streaming benchmark (§5.4) — an IoT traffic sensor
// publishes JSON events into two topics; the event-processing engine polls
// them and records the generation-to-read delay, under constant-rate and
// periodic-burst workloads, with and without 2x replication.
#include "harness/harness.h"
#include "sim/awaitable.h"
#include "stream/streaming.h"

namespace kafkadirect {
namespace bench {
namespace {

using harness::Cell;
using harness::SystemKind;

constexpr sim::TimeNs kDuration = Seconds(120);

sim::Co<void> Publisher(harness::TestCluster* cluster, SystemKind kind,
                        std::string topic, stream::SensorConfig sensor,
                        bool* done) {
  net::NodeId node = cluster->AddClientNode("sensor");
  kafka::TopicPartitionId tp0{topic, 0};
  kafka::TopicPartitionId tp1{topic, 1};
  std::unique_ptr<kafka::TcpProducer> tcp0, tcp1;
  std::unique_ptr<kd::RdmaProducer> rdma0, rdma1;
  if (kind == SystemKind::kKdExclusive) {
    rdma0 = std::make_unique<kd::RdmaProducer>(
        cluster->sim(), cluster->fabric(), cluster->tcp(), node,
        kd::RdmaProducerConfig{.max_inflight = 8});
    rdma1 = std::make_unique<kd::RdmaProducer>(
        cluster->sim(), cluster->fabric(), cluster->tcp(), node,
        kd::RdmaProducerConfig{.max_inflight = 8});
    kd::KafkaDirectBroker* l0 = cluster->Leader(tp0);
    kd::KafkaDirectBroker* l1 = cluster->Leader(tp1);
    KD_CHECK_OK(co_await rdma0->Connect(l0, tp0));
    KD_CHECK_OK(co_await rdma1->Connect(l1, tp1));
  } else {
    tcp0 = std::make_unique<kafka::TcpProducer>(
        cluster->sim(), cluster->tcp(), node,
        kafka::ProducerConfig{.max_inflight = 8});
    tcp1 = std::make_unique<kafka::TcpProducer>(
        cluster->sim(), cluster->tcp(), node,
        kafka::ProducerConfig{.max_inflight = 8});
    if (kind == SystemKind::kOsuKafka) {
      auto chan0 = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp0), cluster->OsuListenerOf(tp0));
      KD_CHECK(chan0.ok());
      KD_CHECK_OK(tcp0->ConnectWith(chan0.value()));
      auto chan1 = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp1), cluster->OsuListenerOf(tp1));
      KD_CHECK(chan1.ok());
      KD_CHECK_OK(tcp1->ConnectWith(chan1.value()));
    } else {
      KD_CHECK_OK(co_await tcp0->Connect(cluster->Leader(tp0)->node()));
      KD_CHECK_OK(co_await tcp1->Connect(cluster->Leader(tp1)->node()));
    }
  }
  auto publish = [&](int lane, std::string json) -> sim::Co<Status> {
    Slice payload(json);
    if (kind == SystemKind::kKdExclusive) {
      kd::RdmaProducer* target = lane == 0 ? rdma0.get() : rdma1.get();
      Status st = co_await target->ProduceAsync(Slice("s", 1), payload);
      co_return st;
    }
    const kafka::TopicPartitionId& tp = lane == 0 ? tp0 : tp1;
    kafka::TcpProducer* producer = lane == 0 ? tcp0.get() : tcp1.get();
    Status st = co_await producer->ProduceAsync(tp, Slice("s", 1), payload);
    co_return st;
  };
  co_await stream::RunSensor(cluster->sim(), sensor, kDuration, publish);
  if (rdma0 != nullptr) {
    (void)co_await rdma0->Flush();
    (void)co_await rdma1->Flush();
  } else {
    (void)co_await tcp0->Flush();
    (void)co_await tcp1->Flush();
  }
  *done = true;
}

sim::Co<void> Engine(harness::TestCluster* cluster, SystemKind kind,
                     std::string topic, stream::EventEngine* engine,
                     const bool* stop) {
  net::NodeId node = cluster->AddClientNode("engine");
  kafka::TopicPartitionId tp0{topic, 0};
  kafka::TopicPartitionId tp1{topic, 1};
  std::unique_ptr<kafka::TcpConsumer> c0, c1;
  // One RDMA consumer per partition leader (slot regions are per broker).
  std::unique_ptr<kd::RdmaConsumer> rc0, rc1;
  if (kind == SystemKind::kKdExclusive) {
    rc0 = std::make_unique<kd::RdmaConsumer>(cluster->sim(),
                                             cluster->fabric(),
                                             cluster->tcp(), node);
    KD_CHECK_OK(co_await rc0->Connect(cluster->Leader(tp0)));
    KD_CHECK_OK(co_await rc0->Subscribe(tp0, 0));
    rc1 = std::make_unique<kd::RdmaConsumer>(cluster->sim(),
                                             cluster->fabric(),
                                             cluster->tcp(), node);
    KD_CHECK_OK(co_await rc1->Connect(cluster->Leader(tp1)));
    KD_CHECK_OK(co_await rc1->Subscribe(tp1, 0));
  } else {
    c0 = std::make_unique<kafka::TcpConsumer>(cluster->sim(), cluster->tcp(),
                                              node);
    c1 = std::make_unique<kafka::TcpConsumer>(cluster->sim(), cluster->tcp(),
                                              node);
    if (kind == SystemKind::kOsuKafka) {
      auto chan0 = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp0), cluster->OsuListenerOf(tp0));
      KD_CHECK(chan0.ok());
      c0->ConnectWith(chan0.value());
      auto chan1 = co_await osu::OsuConnect(
          cluster->sim(), cluster->fabric(), cluster->ClientRnic(node),
          cluster->Leader(tp1), cluster->OsuListenerOf(tp1));
      KD_CHECK(chan1.ok());
      c1->ConnectWith(chan1.value());
    } else {
      KD_CHECK_OK(co_await c0->Connect(cluster->Leader(tp0)->node()));
      KD_CHECK_OK(co_await c1->Connect(cluster->Leader(tp1)->node()));
    }
  }
  // The engine also commits its offsets periodically (over TCP in every
  // system — the paper notes KafkaDirect keeps this request on TCP).
  kafka::TcpConsumer committer(cluster->sim(), cluster->tcp(), node);
  KD_CHECK_OK(co_await committer.Connect(cluster->Leader(tp0)->node()));
  sim::TimeNs next_commit = cluster->sim().Now() + Millis(100);
  int64_t committed_offset = 0;

  while (!*stop) {
    uint64_t got = 0;
    for (int lane = 0; lane < 2; lane++) {
      const kafka::TopicPartitionId& tp = lane == 0 ? tp0 : tp1;
      if (rc0 != nullptr) {
        kd::RdmaConsumer* rc = lane == 0 ? rc0.get() : rc1.get();
        auto records = co_await rc->Poll(tp);
        KD_CHECK(records.ok());
        for (const auto& record : records.value()) {
          KD_CHECK_OK(engine->Ingest(record.value, cluster->sim().Now()));
          committed_offset = record.offset;
        }
        got += records.value().size();
      } else {
        kafka::TcpConsumer* consumer = lane == 0 ? c0.get() : c1.get();
        auto records = co_await consumer->Poll(tp);
        KD_CHECK(records.ok()) << records.status().ToString() << " lane "
                               << lane;
        for (const auto& record : records.value()) {
          KD_CHECK_OK(engine->Ingest(record.value, cluster->sim().Now()));
          committed_offset = record.offset;
        }
        got += records.value().size();
      }
    }
    if (cluster->sim().Now() >= next_commit) {
      next_commit = cluster->sim().Now() + Millis(100);
      (void)co_await committer.CommitOffset(tp0, "engine", committed_offset);
    }
    if (got == 0) co_await sim::Delay(cluster->sim(), Micros(250));
  }
}

double RunConfig(SystemKind kind, stream::PublishPattern pattern, int rf) {
  harness::DeploymentConfig deploy;
  deploy.num_brokers = rf;
  deploy.broker.rdma_produce = true;
  deploy.broker.rdma_consume = true;
  deploy.broker.rdma_replicate = kind == SystemKind::kKdExclusive && rf > 1;
  harness::TestCluster cluster(deploy);
  static int topic_id = 0;
  std::string topic = "iot-" + std::to_string(topic_id++);
  KD_CHECK_OK(cluster.CreateTopic(topic, 2, rf));
  stream::SensorConfig sensor;
  sensor.pattern = pattern;
  sensor.base_rate_per_sec = 400;
  sensor.burst_size = 2000;
  stream::EventEngine engine;
  bool sensor_done = false;
  bool stop = false;
  sim::Spawn(cluster.sim(),
             Publisher(&cluster, kind, topic, sensor, &sensor_done));
  sim::Spawn(cluster.sim(), Engine(&cluster, kind, topic, &engine, &stop));
  cluster.RunToFlag(&sensor_done, kDuration * 3);
  cluster.sim().RunFor(Seconds(2));  // drain the tail
  stop = true;
  cluster.sim().RunFor(Millis(50));
  return engine.delays().Median() / 1e6;  // ms
}

void Run() {
  harness::PrintFigureHeader(
      "Figure 21", "Event delay (ms, median) for the IoT streaming workload",
      {"workload", "Kafka", "OSU-Kafka", "KafkaDirect"});
  struct Line {
    const char* name;
    stream::PublishPattern pattern;
    int rf;
  };
  for (const Line& line :
       {Line{"constant, no repl", stream::PublishPattern::kConstantRate, 1},
        Line{"constant, 2x repl", stream::PublishPattern::kConstantRate, 2},
        Line{"burst, no repl", stream::PublishPattern::kPeriodicBurst, 1},
        Line{"burst, 2x repl", stream::PublishPattern::kPeriodicBurst, 2}}) {
    harness::PrintRow(
        {line.name,
         Cell(RunConfig(SystemKind::kKafka, line.pattern, line.rf), 3),
         Cell(RunConfig(SystemKind::kOsuKafka, line.pattern, line.rf), 3),
         Cell(RunConfig(SystemKind::kKdExclusive, line.pattern, line.rf),
              3)});
  }
  std::printf(
      "\nPaper: KafkaDirect lowest delays in all four settings (~3.3x mean\n"
      "reduction), with the advantage largest under replication and bursts.\n");
}

}  // namespace
}  // namespace bench
}  // namespace kafkadirect

int main(int argc, char** argv) {
  kafkadirect::harness::InitObsFromArgs(argc, argv);
  kafkadirect::bench::Run();
  return 0;
}
