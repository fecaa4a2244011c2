#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>

#include "common/crc32c.h"
#include "common/random.h"
#include "direct/mux_producer.h"
#include "sim/awaitable.h"
#include "sim/semaphore.h"
#include "stream/streaming.h"

namespace kafkadirect {
namespace kdbench {

// ---------------------------------------------------------------------------
// The workloads. Every constant here is part of the benchmark definition;
// README.md explains each choice.
// ---------------------------------------------------------------------------

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w;
  {
    WorkloadSpec s;
    s.name = "iot_stream";
    s.brokers = 2;
    s.partitions = 2;
    s.rf = 2;
    s.broker.rdma_produce = true;
    s.broker.rdma_replicate = true;
    s.broker.rdma_consume = true;
    s.producer_kind = ProducerKind::kRdmaExclusive;
    s.producers = 2;  // one sensor producer per partition (lane)
    s.window = 8;
    s.records = 20000;
    s.nominal_rate = 60000;
    s.ladder = {400, 60000, 1000000};
    s.ladder_records = 2000;
    s.slo_p99_ns = Millis(1);
    s.readers = {ReaderSpec{ReaderKind::kRdma, false, true}};
    s.reader_backoff_ns = Micros(250);  // the fig21 engine's poll pause
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "bulk_replicated";
    s.open_loop = false;
    s.brokers = 3;
    s.partitions = 4;
    s.rf = 3;
    s.broker.rdma_produce = true;
    s.broker.rdma_replicate = true;
    s.broker.rdma_consume = true;
    s.producer_kind = ProducerKind::kRdmaShared;
    s.producers = 4;  // one per partition
    s.window = 3;
    // About 120 MiB per partition: every log rotates once, and the records
    // a rotation delays stay well under 1% of the total.
    s.records = 4 * 4400;
    s.sizes = {4096, 16384, 65536};
    s.readers = {ReaderSpec{ReaderKind::kRdma, false, false}};
    s.reader_backoff_ns = Micros(20);
    s.fetch_size = 256 * 1024;
    w.push_back(s);
  }
  {
    // Not in BENCHMARK.json: the bulk design with two shared producers per
    // partition, kept as the reproducer of a shared-produce failure at
    // file rotation (README.md, bulk_replicated).
    WorkloadSpec s = w.back();
    s.name = "bulk_shared_contended";
    s.producers = 8;
    s.window = 4;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "tcp_produce_fanout";
    s.brokers = 2;
    s.partitions = 2;
    s.rf = 2;  // TCP pull replication
    s.broker.rdma_consume = true;
    s.producer_kind = ProducerKind::kTcp;
    s.producers = 2;
    s.window = 8;
    s.records = 10000;
    s.nominal_rate = 10000;
    s.ladder = {1000, 10000, 100000};
    s.ladder_records = 2000;
    s.slo_p99_ns = Millis(5);
    s.sizes = {1024};
    s.preload = 10000;
    s.readers = {ReaderSpec{ReaderKind::kRdma, false, false},
                 ReaderSpec{ReaderKind::kRdma, false, false},
                 ReaderSpec{ReaderKind::kTcp, false, false},
                 ReaderSpec{ReaderKind::kRdma, true, false}};
    s.reader_backoff_ns = Micros(20);
    s.tcp_max_wait_ns = Millis(50);
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "mux_fanin";
    s.brokers = 1;
    s.partitions = 8;  // one exclusive head-file grant per endpoint
    s.rf = 1;
    s.broker.rdma_produce = true;
    // The four connection-layer settings together, sized as
    // tbl_client_scaling sizes them. A cache smaller than the number of
    // endpoints with open streams thrashes forever (README.md, findings).
    s.broker.use_srq = true;
    s.broker.cq_poll_batch = 16;
    s.broker.qp_mux = true;
    s.broker.connection_cache = true;
    s.broker.connection_cache_capacity = 16;
    s.broker.metadata_arena = true;
    s.broker.metadata_arena_slots = 8192;
    s.broker.admission_control = true;
    s.broker.admission_max_streams = 8192;
    s.producer_kind = ProducerKind::kMux;
    s.producers = 4096;  // logical streams
    s.mux_endpoints = 8;
    s.window = 1;
    s.records = 40000;
    s.nominal_rate = 300000;  // ~73 records/s per stream
    s.ladder = {30000, 300000, 5000000};
    s.ladder_records = 2000;
    s.slo_p99_ns = Millis(5);
    s.sizes = {256};
    s.readers = {ReaderSpec{ReaderKind::kTcp, false, false}};
    s.tcp_max_wait_ns = Millis(50);
    w.push_back(s);
  }
  return w;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> w = MakeWorkloads();
  return w;
}

// ---------------------------------------------------------------------------
// Records: inputs generated from the seed, and their on-wire checks.
// ---------------------------------------------------------------------------

/// One record of the plan. Record id = index; timed records come first.
struct Rec {
  uint32_t producer = 0;  // producer index (preloader = spec.producers)
  uint32_t partition = 0;
  uint32_t seq = 0;       // per-producer sequence number
  uint32_t size = 0;      // value bytes (JSON events: sensor id length)
  TimeNs due = 0;         // open loop: offset from the phase start
  uint64_t content = 0;   // seeds the value bytes
  bool timed = true;      // false for preloaded backlog records
};

/// The record key is a fixed header: producer id, sequence number, due
/// time, CRC32C of the value, partition.
constexpr size_t kKeyBytes = 24;

template <typename T>
void Put(std::string* s, size_t at, T v) {
  std::memcpy(s->data() + at, &v, sizeof(v));
}
template <typename T>
T Get(const std::string& s, size_t at) {
  T v;
  std::memcpy(&v, s.data() + at, sizeof(v));
  return v;
}

constexpr uint64_t kWeyl = 0x9E3779B97F4A7C15ull;

void FillBody(std::string* out, uint32_t size, uint64_t content) {
  out->resize(size);
  size_t words = size / 8;
  for (size_t i = 0; i < words; i++) {
    uint64_t w = content + (i + 1) * kWeyl;
    std::memcpy(out->data() + i * 8, &w, 8);
  }
  for (size_t i = words * 8; i < size; i++) {
    (*out)[i] = static_cast<char>(content >> ((i % 8) * 8));
  }
}

bool BodyMatches(const std::string& v, uint32_t size, uint64_t content) {
  if (v.size() != size) return false;
  size_t words = size / 8;
  for (size_t i = 0; i < words; i++) {
    uint64_t w;
    std::memcpy(&w, v.data() + i * 8, 8);
    if (w != content + (i + 1) * kWeyl) return false;
  }
  for (size_t i = words * 8; i < size; i++) {
    if (v[i] != static_cast<char>(content >> ((i % 8) * 8))) return false;
  }
  return true;
}

stream::TrafficEvent EventOf(const Rec& r, TimeNs due_abs) {
  stream::TrafficEvent e;
  e.lane = static_cast<int32_t>(r.partition);
  e.car_count = static_cast<int32_t>(r.content % 60);
  e.avg_speed_kmh =
      20.0 + static_cast<double>((r.content >> 8) % 11000) / 100.0;
  e.generated_at_ns = due_abs;
  return e;
}

// ---------------------------------------------------------------------------
// One iteration's state.
// ---------------------------------------------------------------------------

struct ReaderPart {
  kafka::TopicPartitionId tp;
  std::unique_ptr<kd::RdmaConsumer> rdma;
  std::unique_ptr<kafka::TcpConsumer> tcp;
  int64_t start_offset = 0;
  int64_t next_offset = 0;
  uint64_t expected = 0;
  uint64_t got = 0;
  int64_t last_hwm = 0;
};

struct Ctx {
  Ctx(const WorkloadSpec& s, harness::TestCluster* c, SpanLog* sp,
      IterationResult* r)
      : spec(s), cluster(c), spans(sp), res(r) {}

  sim::Simulator& sim() { return cluster->sim(); }
  TimeNs Now() { return cluster->sim().Now(); }
  kafka::TopicPartitionId Tp(uint32_t partition) const {
    return kafka::TopicPartitionId{topic, static_cast<int32_t>(partition)};
  }
  uint32_t PartitionOf(int p) const {
    if (spec.producer_kind == ProducerKind::kMux) {
      return static_cast<uint32_t>(p / (spec.producers / spec.mux_endpoints));
    }
    return static_cast<uint32_t>(p % spec.partitions);
  }
  bool Json() const { return spec.sizes.empty(); }

  void Fail(const std::string& why) {
    if (res->error.empty()) res->error = why;
    done = true;
  }
  void CheckDone() {
    if (remaining == 0 && live == 0) done = true;
  }

  const WorkloadSpec& spec;
  harness::TestCluster* cluster;
  SpanLog* spans;
  IterationResult* res;
  std::string topic;

  std::vector<Rec> recs;
  uint32_t timed = 0;
  std::vector<std::vector<uint32_t>> by_producer;  // ids in seq order
  std::vector<TimeNs> due_abs, ack_at, visible_at;

  std::vector<std::unique_ptr<kd::RdmaProducer>> rdma_producers;
  std::vector<std::unique_ptr<kafka::TcpProducer>> tcp_producers;
  std::vector<std::unique_ptr<kd::MuxProducer>> mux;
  std::vector<std::deque<uint32_t>> queues;
  std::vector<std::unique_ptr<sim::Semaphore>> items;

  std::vector<std::vector<ReaderPart>> readers;  // [reader][partition]
  std::vector<std::unique_ptr<stream::EventEngine>> engines;
  std::vector<std::vector<uint8_t>> seen;  // [reader][record]

  int connected = 0;
  int64_t remaining = 0;  // acks + deliveries still outstanding
  int live = 0;           // benchmark coroutines still running
  bool done = false;
  int64_t ingest_ns = 0;
  std::vector<int64_t> direct_poll_ns;
  uint64_t direct_polls = 0, direct_empty = 0, direct_records = 0;
};

void MakePlan(Ctx* c, uint64_t seed, double rate, int n) {
  const WorkloadSpec& s = c->spec;
  Random rng(seed);
  c->by_producer.assign(s.producers + 1, {});
  // JSON events come from a fleet of 64 sensors whose ids are 8..63
  // characters long; each event names a random sensor.
  std::vector<uint32_t> fleet(64);
  for (uint32_t& len : fleet) len = static_cast<uint32_t>(rng.Range(8, 63));
  double t = 0;
  auto add = [&](int p, TimeNs due, bool timed) {
    Rec r;
    r.producer = static_cast<uint32_t>(p);
    r.partition = p < s.producers ? c->PartitionOf(p)
                                  : static_cast<uint32_t>(
                                        c->by_producer[p].size() %
                                        static_cast<size_t>(s.partitions));
    r.seq = static_cast<uint32_t>(c->by_producer[p].size());
    r.size = s.sizes.empty() ? fleet[rng.Uniform(fleet.size())]
                             : s.sizes[rng.Uniform(s.sizes.size())];
    r.due = due;
    r.content = rng.Next();
    r.timed = timed;
    c->by_producer[p].push_back(static_cast<uint32_t>(c->recs.size()));
    c->recs.push_back(r);
  };
  for (int i = 0; i < n; i++) {
    if (s.open_loop) {
      // Poisson arrivals: independent sensors/users at `rate` in total.
      t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
      add(static_cast<int>(rng.Uniform(s.producers)),
          static_cast<TimeNs>(t), true);
    } else {
      add(i % s.producers, 0, true);
    }
  }
  c->timed = static_cast<uint32_t>(n);
  for (int i = 0; i < s.preload; i++) add(s.producers, 0, false);
  c->due_abs.assign(c->recs.size(), 0);
  c->ack_at.assign(c->recs.size(), -1);
  c->visible_at.assign(c->recs.size(), -1);
}

/// The IoT event: stream::ToJson's fields plus a variable-length sensor
/// id, which FromJson skips (about 100 B in all).
std::string EventJson(const Rec& r, TimeNs due_abs) {
  std::string json = stream::ToJson(EventOf(r, due_abs));
  json.pop_back();  // the closing brace
  json += ",\"sensor\":\"";
  for (uint32_t i = 0; i < r.size; i++) {
    json += static_cast<char>('a' + (r.content >> (i % 60)) % 26);
  }
  json += "\"}";
  return json;
}

void BuildValue(Ctx* c, uint32_t id, std::string* out) {
  const Rec& r = c->recs[id];
  if (c->Json()) {
    *out = EventJson(r, c->due_abs[id]);
  } else {
    FillBody(out, r.size, r.content);
  }
}

void BuildKey(Ctx* c, uint32_t id, const std::string& value,
              std::string* key) {
  const Rec& r = c->recs[id];
  key->assign(kKeyBytes, '\0');
  Put<uint32_t>(key, 0, r.producer);
  Put<uint32_t>(key, 4, r.seq);
  Put<int64_t>(key, 8, c->due_abs[id]);
  Put<uint32_t>(key, 16,
                crc32c::Value(reinterpret_cast<const uint8_t*>(value.data()),
                              value.size()));
  Put<uint32_t>(key, 20, r.partition);
}

// ---------------------------------------------------------------------------
// Producers.
// ---------------------------------------------------------------------------

sim::Co<StatusOr<int64_t>> CallProduce(Ctx* c, int p, Slice key,
                                       Slice value) {
  switch (c->spec.producer_kind) {
    case ProducerKind::kRdmaExclusive:
    case ProducerKind::kRdmaShared:
      co_return co_await c->rdma_producers[p]->Produce(key, value);
    case ProducerKind::kTcp: {
      kafka::TopicPartitionId tp = c->Tp(c->PartitionOf(p));
      co_return co_await c->tcp_producers[p]->Produce(tp, key, value);
    }
    case ProducerKind::kMux: {
      uint32_t stream = 1 + static_cast<uint32_t>(p);
      co_return co_await c->mux[c->PartitionOf(p)]->Produce(stream, key,
                                                            value);
    }
  }
  co_return Status::Internal("unknown producer kind");
}

/// Connects producer `p` (or, for kMux, endpoint `p`).
sim::Co<void> ConnectProducer(Ctx* c, int p) {
  const WorkloadSpec& s = c->spec;
  harness::TestCluster* cl = c->cluster;
  net::NodeId node = cl->AddClientNode("producer-" + std::to_string(p));
  int64_t sp = c->spans->Begin("Connect", c->Now());
  Status st;
  switch (s.producer_kind) {
    case ProducerKind::kRdmaExclusive:
    case ProducerKind::kRdmaShared: {
      kafka::TopicPartitionId tp = c->Tp(c->PartitionOf(p));
      c->rdma_producers[p] = std::make_unique<kd::RdmaProducer>(
          cl->sim(), cl->fabric(), cl->tcp(), node,
          kd::RdmaProducerConfig{
              .exclusive = s.producer_kind == ProducerKind::kRdmaExclusive,
              .max_inflight = s.window,
              .producer_id = static_cast<uint64_t>(p) + 1});
      st = co_await c->rdma_producers[p]->Connect(cl->Leader(tp), tp);
      break;
    }
    case ProducerKind::kTcp: {
      kafka::TopicPartitionId tp = c->Tp(c->PartitionOf(p));
      c->tcp_producers[p] = std::make_unique<kafka::TcpProducer>(
          cl->sim(), cl->tcp(), node,
          kafka::ProducerConfig{.acks = -1,
                                .producer_id = static_cast<uint64_t>(p) + 1,
                                .max_inflight = s.window});
      st = co_await c->tcp_producers[p]->Connect(cl->Leader(tp)->node());
      break;
    }
    case ProducerKind::kMux: {
      kafka::TopicPartitionId tp = c->Tp(static_cast<uint32_t>(p));
      c->mux[p] = std::make_unique<kd::MuxProducer>(
          cl->sim(), cl->fabric(), cl->tcp(), node,
          kd::MuxProducerConfig{.max_inflight = 16});
      st = co_await c->mux[p]->Connect(cl->Leader(tp), tp);
      if (!st.ok()) break;
      uint32_t per = static_cast<uint32_t>(s.producers / s.mux_endpoints);
      uint32_t base = 1 + static_cast<uint32_t>(p) * per;
      auto open = co_await c->mux[p]->OpenStreams(base, per);
      if (!open.ok()) {
        st = open.status();
      } else if (open.value().admitted != per) {
        c->res->refused += per - open.value().admitted;
        st = Status::ResourceExhausted("admission refused stream opens");
      }
      break;
    }
  }
  c->spans->End(sp, c->Now());
  if (!st.ok()) {
    c->Fail("producer " + std::to_string(p) + " connect: " + st.ToString());
  }
  c->connected++;
}

/// Writes the backlog the catch-up reader starts behind, through one
/// pipelined TCP producer per partition.
sim::Co<void> Preload(Ctx* c, bool* done) {
  harness::TestCluster* cl = c->cluster;
  net::NodeId node = cl->AddClientNode("preloader");
  std::vector<std::unique_ptr<kafka::TcpProducer>> producers;
  Status st;
  for (int q = 0; q < c->spec.partitions && st.ok(); q++) {
    producers.push_back(std::make_unique<kafka::TcpProducer>(
        cl->sim(), cl->tcp(), node,
        kafka::ProducerConfig{.acks = -1, .max_inflight = 32}));
    st = co_await producers.back()->Connect(
        cl->Leader(c->Tp(static_cast<uint32_t>(q)))->node());
  }
  std::string key, value;
  for (uint32_t id : c->by_producer[c->spec.producers]) {
    if (!st.ok()) break;
    uint32_t q = c->recs[id].partition;
    kafka::TopicPartitionId tp = c->Tp(q);
    c->due_abs[id] = c->Now();
    BuildValue(c, id, &value);
    BuildKey(c, id, value, &key);
    st = co_await producers[q]->ProduceAsync(tp, Slice(key), Slice(value));
  }
  for (auto& producer : producers) {
    if (st.ok()) st = co_await producer->Flush();
    producer->Close();
  }
  if (!st.ok()) c->Fail("preload: " + st.ToString());
  *done = true;
}

/// Open loop: hands each record to its producer's queue at its due time,
/// whether or not earlier produces have returned (no coordinated omission).
sim::Co<void> Generator(Ctx* c) {
  for (uint32_t id = 0; id < c->timed; id++) {
    TimeNs due = c->due_abs[id];
    TimeNs now = c->Now();
    if (due > now) co_await sim::Delay(c->sim(), due - now);
    int p = static_cast<int>(c->recs[id].producer);
    c->queues[p].push_back(id);
    c->items[p]->Release();
  }
  for (auto& sem : c->items) sem->Release(c->spec.window);
  c->live--;
  c->CheckDone();
}

/// One application thread of producer `p`: takes the next queued record,
/// produces it synchronously and records its acknowledgement.
sim::Co<void> Worker(Ctx* c, int p) {
  std::string key, value;
  IterationResult* res = c->res;
  for (;;) {
    co_await c->items[p]->Acquire();
    if (c->queues[p].empty() || c->done) break;
    uint32_t id = c->queues[p].front();
    c->queues[p].pop_front();
    TimeNs entry = c->Now();
    if (!c->spec.open_loop) c->due_abs[id] = entry;  // closed loop: due now
    res->lag_ns.push_back(entry - c->due_abs[id]);
    BuildValue(c, id, &value);
    BuildKey(c, id, value, &key);
    int64_t sp = c->spans->Begin("Produce", entry, id, id);
    StatusOr<int64_t> r = co_await CallProduce(c, p, Slice(key), Slice(value));
    TimeNs now = c->Now();
    c->spans->End(sp, now);
    if (c->spec.producer_kind != ProducerKind::kTcp) {
      res->produce_call_ns.push_back(now - entry);
    }
    if (!r.ok()) {
      res->failed_produce++;
      c->Fail("produce: " + r.status().ToString());
      break;
    }
    c->ack_at[id] = now;
    res->ack_ns.push_back(now - c->due_abs[id]);
    res->acked_bytes += value.size();
    c->remaining--;
    c->CheckDone();
  }
  c->live--;
  c->CheckDone();
}

// ---------------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------------

sim::Co<void> ConnectReader(Ctx* c, int r, int q) {
  harness::TestCluster* cl = c->cluster;
  ReaderPart& part = c->readers[r][q];
  net::NodeId node = cl->AddClientNode("reader-" + std::to_string(r) + "-" +
                                       std::to_string(q));
  kd::KafkaDirectBroker* leader = cl->Leader(part.tp);
  Status st;
  int64_t sp = c->spans->Begin("Connect", c->Now());
  if (c->spec.readers[r].kind == ReaderKind::kRdma) {
    part.rdma = std::make_unique<kd::RdmaConsumer>(
        cl->sim(), cl->fabric(), cl->tcp(), node,
        kd::RdmaConsumerConfig{.fetch_size = c->spec.fetch_size});
    st = co_await part.rdma->Connect(leader);
    c->spans->End(sp, c->Now());
    if (st.ok()) {
      sp = c->spans->Begin("Subscribe", c->Now());
      st = co_await part.rdma->Subscribe(part.tp, part.start_offset);
      c->spans->End(sp, c->Now());
    }
  } else {
    part.tcp = std::make_unique<kafka::TcpConsumer>(cl->sim(), cl->tcp(),
                                                     node);
    st = co_await part.tcp->Connect(leader->node());
    c->spans->End(sp, c->Now());
    part.tcp->Seek(part.start_offset);
  }
  if (!st.ok()) c->Fail("reader connect: " + st.ToString());
  c->connected++;
}

/// Checks one delivered record: contiguous offset, header, CRC, exact
/// bytes, exactly-once per reader. Returns the record id or -1.
int64_t Verify(Ctx* c, int r, ReaderPart* part,
               const kafka::OwnedRecord& rec) {
  IterationResult* res = c->res;
  if (rec.offset != part->next_offset) {
    res->reordered++;
    c->Fail("offset " + std::to_string(rec.offset) + " where " +
            std::to_string(part->next_offset) + " was due on " +
            part->tp.ToString());
    return -1;
  }
  part->next_offset++;
  if (rec.key.size() != kKeyBytes) {
    res->corrupted++;
    c->Fail("bad key length");
    return -1;
  }
  uint32_t producer = Get<uint32_t>(rec.key, 0);
  uint32_t seq = Get<uint32_t>(rec.key, 4);
  if (producer >= c->by_producer.size() ||
      seq >= c->by_producer[producer].size()) {
    res->corrupted++;
    c->Fail("unknown producer/sequence in key");
    return -1;
  }
  uint32_t id = c->by_producer[producer][seq];
  const Rec& spec = c->recs[id];
  uint32_t crc = crc32c::Value(
      reinterpret_cast<const uint8_t*>(rec.value.data()), rec.value.size());
  bool bytes_ok;
  if (c->Json()) {
    bytes_ok = rec.value == EventJson(spec, c->due_abs[id]);
    auto ev = stream::FromJson(rec.value);
    if (!ev.ok() || ev.value().generated_at_ns != c->due_abs[id] ||
        ev.value().lane != static_cast<int32_t>(spec.partition)) {
      res->parse_failures++;
      c->Fail("event does not parse back: " + rec.value);
      return -1;
    }
  } else {
    bytes_ok = BodyMatches(rec.value, spec.size, spec.content);
  }
  if (!bytes_ok || crc != Get<uint32_t>(rec.key, 16) ||
      Get<int64_t>(rec.key, 8) != c->due_abs[id] ||
      Get<uint32_t>(rec.key, 20) != spec.partition ||
      static_cast<int32_t>(spec.partition) != part->tp.partition) {
    res->corrupted++;
    c->Fail("record " + std::to_string(id) + " corrupted");
    return -1;
  }
  if (c->seen[r][id]++ != 0) {
    res->duplicated++;
    c->Fail("record " + std::to_string(id) + " delivered twice");
    return -1;
  }
  return id;
}

sim::Co<void> ReaderLoop(Ctx* c, int r, int q) {
  const ReaderSpec& rs = c->spec.readers[r];
  ReaderPart& part = c->readers[r][q];
  IterationResult* res = c->res;
  while (part.got < part.expected && !c->done) {
    TimeNs v0 = c->Now();
    int64_t h0 = c->spans->enabled() ? HostNowNs() : 0;
    int64_t sp = c->spans->Begin("Poll", v0);
    // (No co_await inside ?: -- GCC destroys the temporary early.)
    StatusOr<std::vector<kafka::OwnedRecord>> got =
        Status::Internal("not polled");
    if (rs.kind == ReaderKind::kRdma) {
      got = co_await part.rdma->Poll(part.tp);
    } else {
      got = co_await part.tcp->Poll(part.tp, 1 << 20,
                                    c->spec.tcp_max_wait_ns);
    }
    TimeNs now = c->Now();
    c->spans->End(sp, now);
    int64_t h1 = c->spans->enabled() ? HostNowNs() : 0;
    if (!got.ok()) {
      c->Fail("poll: " + got.status().ToString());
      break;
    }
    // Per-partition HWM monotonicity, read through the broker's public
    // API (the standard kafka.hwm_monotonic watcher mixes partitions).
    int64_t hwm =
        c->cluster->Leader(part.tp)->GetPartition(part.tp)->log
            .high_watermark();
    if (hwm < part.last_hwm) {
      c->Fail("HWM of " + part.tp.ToString() + " moved back from " +
              std::to_string(part.last_hwm) + " to " + std::to_string(hwm));
      break;
    }
    part.last_hwm = hwm;
    size_t n = got.value().size();
    if (rs.kind == ReaderKind::kRdma) {
      c->direct_polls++;
      c->direct_poll_ns.push_back(now - v0);
      if (n == 0) c->direct_empty++;
      c->direct_records += n;
    }
    if (n == 0) {
      if (rs.kind == ReaderKind::kRdma) {
        co_await sim::Delay(c->sim(), c->spec.reader_backoff_ns);
      }
      continue;
    }
    for (const kafka::OwnedRecord& rec : got.value()) {
      int64_t id = Verify(c, r, &part, rec);
      if (id < 0) break;
      part.got++;
      if (!c->recs[id].timed) continue;
      res->delivery_ns.push_back(now - c->due_abs[id]);
      c->visible_at[id] = std::max(c->visible_at[id], now);
      c->spans->Add("deliver", id, id, v0, now, h0, h1);
      if (rs.ingest) {
        int64_t ih0 = HostNowNs();
        Status st = c->engines[r]->Ingest(rec.value, now);
        int64_t ih1 = HostNowNs();
        c->ingest_ns += ih1 - ih0;
        res->ingest_calls++;
        c->spans->Add("Ingest", id, id, now, now, ih0, ih1);
        if (!st.ok()) {
          res->parse_failures++;
          c->Fail("ingest: " + st.ToString());
          break;
        }
      }
      c->remaining--;
    }
    c->CheckDone();
  }
  c->live--;
  c->CheckDone();
}

// ---------------------------------------------------------------------------
// Per-layer counts at the workload-end barrier.
// ---------------------------------------------------------------------------

using CounterMap = std::map<std::string, uint64_t>;

CounterMap Counters(const obs::MetricsRegistry& m) {
  CounterMap out;
  m.ForEachCounter([&](const std::string& name, const obs::Counter& ctr) {
    out[name] = ctr.value();
  });
  return out;
}

bool Matches(const std::string& name, const std::string& prefix,
             const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// Sum over counters matching prefix*suffix of (end - start).
double Delta(const CounterMap& start, const CounterMap& end,
             const std::string& prefix, const std::string& suffix = "") {
  double sum = 0;
  for (const auto& [name, v] : end) {
    if (!Matches(name, prefix, suffix)) continue;
    auto it = start.find(name);
    sum += static_cast<double>(v - (it == start.end() ? 0 : it->second));
  }
  return sum;
}

double GaugeHighWater(const obs::MetricsRegistry& m, const std::string& prefix,
                      const std::string& suffix) {
  int64_t hw = 0;
  m.ForEachGauge([&](const std::string& name, const obs::Gauge& g) {
    if (Matches(name, prefix, suffix)) hw = std::max(hw, g.high_water());
  });
  return static_cast<double>(hw);
}

/// p50/p99 in us of every histogram matching prefix*suffix, merged.
double HistUs(const obs::MetricsRegistry& m, const std::string& prefix,
              const std::string& suffix, double p) {
  obs::LogLinearHistogram merged;
  m.ForEachHistogram(
      [&](const std::string& name, const obs::LogLinearHistogram& h) {
        if (Matches(name, prefix, suffix)) merged.Merge(h);
      });
  return merged.count() == 0 ? 0.0
                             : static_cast<double>(merged.Percentile(p)) /
                                   1000.0;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double PctUs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

void SnapshotLayers(Ctx* c, const CounterMap& start, uint64_t events) {
  const obs::MetricsRegistry& m = c->cluster->fabric().obs().metrics;
  CounterMap end = Counters(m);
  IterationResult* res = c->res;
  std::map<std::string, double>& L = res->layer;
  const double n = static_cast<double>(c->timed);
  auto d = [&](const std::string& prefix, const std::string& suffix = "") {
    return Delta(start, end, prefix, suffix);
  };

  L["sim.events"] = static_cast<double>(events);
  L["sim.events_per_record"] = Ratio(static_cast<double>(events), n);

  L["rdma.wrs_per_record"] = Ratio(d("kd.rdma.wrs_posted"), n);
  L["rdma.signaled_ratio"] =
      Ratio(d("kd.rdma.wrs_signaled"), d("kd.rdma.wrs_posted"));
  L["rdma.cqes_per_record"] = Ratio(d("kd.rdma.cqes"), n);
  L["rdma.doorbells_per_record"] = Ratio(d("kd.rdma.doorbells"), n);
  L["rdma.reads_per_record"] = Ratio(d("kd.rdma.ops.read"), n);
  L["rdma.atomics_per_record"] = Ratio(d("kd.rdma.ops.atomic"), n);
  L["rdma.rnr_events"] = d("kd.rdma.rnr_events");
  L["rdma.cq_depth_hw"] = GaugeHighWater(m, "kd.rdma.cq.depth", "");
  L["rdma.srq_depth_hw"] = GaugeHighWater(m, "kd.rdma.srq.depth", "");
  L["rdma.cache_hit_ratio"] =
      Ratio(d("kd.rdma.cache.hits"),
            d("kd.rdma.cache.hits") + d("kd.rdma.cache.evictions"));
  L["rdma.cache_evictions"] = d("kd.rdma.cache.evictions");
  L["rdma.mux_credit_stalls"] = d("kd.rdma.mux.credit_stalls");

  L["tcpnet.syscalls_per_record"] = Ratio(d("kd.tcp.syscalls"), n);
  L["tcpnet.copied_bytes_per_record"] = Ratio(d("kd.tcp.copied_bytes"), n);
  L["tcpnet.messages_per_record"] = Ratio(d("kd.tcp.messages"), n);

  L["kafka.request_queue.wait_p50_us"] =
      HistUs(m, "kd.broker.", ".request_queue.wait_ns", 50);
  L["kafka.request_queue.wait_p99_us"] =
      HistUs(m, "kd.broker.", ".request_queue.wait_ns", 99);
  L["kafka.api.produce_p50_us"] =
      HistUs(m, "kd.broker.", ".api.produce.latency_ns", 50);
  L["kafka.api.fetch_p50_us"] =
      HistUs(m, "kd.broker.", ".api.fetch.latency_ns", 50);
  L["kafka.request_queue.depth_hw"] =
      GaugeHighWater(m, "kd.broker.", ".request_queue.depth");
  L["kafka.copied_bytes_per_record"] =
      Ratio(d("kd.broker.", ".produce.copied_bytes"), n);
  L["kafka.hwm_updates_per_record"] =
      Ratio(d("kd.broker.", ".hwm.updates"), n);

  L["direct.produce_call_p50_us"] = PctUs(res->produce_call_ns, 50);
  L["direct.produce_call_p99_us"] = PctUs(res->produce_call_ns, 99);
  L["direct.notifications_per_record"] =
      Ratio(d("kd.direct.notifications"), n);
  L["direct.ctrl_msgs_per_record"] = Ratio(d("kd.direct.ctrl_msgs"), n);
  L["direct.zero_copy_ratio"] =
      Ratio(d("kd.direct.rdma_produce.zero_copy_bytes"),
            d("kd.broker.", ".produce.bytes"));
  L["direct.poll_p50_us"] = PctUs(c->direct_poll_ns, 50);
  L["direct.empty_poll_ratio"] =
      Ratio(static_cast<double>(c->direct_empty),
            static_cast<double>(c->direct_polls));
  L["direct.records_per_poll"] =
      Ratio(static_cast<double>(c->direct_records),
            static_cast<double>(c->direct_polls - c->direct_empty));
  uint64_t meta_reads = 0, switches = 0;
  for (auto& reader : c->readers) {
    for (ReaderPart& part : reader) {
      if (part.rdma == nullptr) continue;
      meta_reads += part.rdma->metadata_reads();
      switches += part.rdma->file_switches();
    }
  }
  L["direct.metadata_reads_per_record"] =
      Ratio(static_cast<double>(meta_reads), n);
  L["direct.file_switches"] = static_cast<double>(switches);
  L["direct.repl_credits_outstanding_hw"] =
      GaugeHighWater(m, "kd.direct.repl.credits_outstanding", "");

  L["stream.parse_failures"] = static_cast<double>(res->parse_failures);
  L["harness.generator_lag_p99_us"] = PctUs(res->lag_ns, 99);
  L["harness.backlog_growth_records"] =
      static_cast<double>(res->backlog_growth);
}

/// Records due but not acknowledged at the generation midpoint and at its
/// end; growth > 0 means the offered rate outran the system.
int64_t BacklogGrowth(const Ctx& c) {
  if (c.timed < 2) return 0;
  std::vector<TimeNs> acks(c.ack_at.begin(), c.ack_at.begin() + c.timed);
  std::sort(acks.begin(), acks.end());
  auto backlog = [&](uint32_t due_index) {
    TimeNs t = c.due_abs[due_index];
    int64_t due = static_cast<int64_t>(due_index) + 1;
    int64_t acked = std::upper_bound(acks.begin(), acks.end(), t) -
                    acks.begin();
    return due - acked;
  };
  return backlog(c.timed - 1) - backlog(c.timed / 2);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Workloads()) names.push_back(s.name);
  return names;
}

IterationResult RunIteration(const WorkloadSpec& spec, uint64_t seed,
                             double rate, int records, SpanLog* spans) {
  IterationResult res;
  spans->ReserveRecords(records);  // record i's root span has index i
  const int64_t h_start = HostNowNs();

  // --- set-up: cluster, topic, backlog, client connects -------------------
  harness::DeploymentConfig deploy;
  deploy.num_brokers = spec.brokers;
  deploy.broker = spec.broker;
  deploy.seed = seed;
  int64_t sp = spans->Begin("TestCluster", 0);
  auto cluster = std::make_unique<harness::TestCluster>(deploy);
  spans->End(sp, cluster->sim().Now());
  res.cluster_s = static_cast<double>(HostNowNs() - h_start) / 1e9;

  Ctx c(spec, cluster.get(), spans, &res);
  // The harness arms the live invariant monitor (standard watchers, ticked
  // in virtual time) on every deployment. A violation dumps the flight
  // recorder and fails the run, except for the two watchers that state
  // their invariant wrongly at this commit (README.md, "Monitor"); the
  // benchmark checks those two invariants itself.
  obs::Observability& ob = cluster->fabric().obs();
  ob.monitor.set_violation_hook([&c, &ob](const obs::Monitor::Violation& v) {
    if (v.watcher == "kafka.hwm_monotonic" ||
        v.watcher == "kafka.byte_conservation") {
      c.res->monitor_false_positives++;
      return;
    }
    ob.flight.Record(0, v.at_ns, obs::FlightEventType::kViolation, 0, 0, 0);
    ob.flight.WriteChromeTraceFile("kd_flight_dump.json");
    c.Fail("monitor: " + v.watcher + ": " + v.detail);
  });
  c.topic = spec.name;
  MakePlan(&c, seed, rate, records);

  int64_t h = HostNowNs();
  sp = spans->Begin("CreateTopic", c.Now());
  Status st = cluster->CreateTopic(c.topic, spec.partitions, spec.rf);
  spans->End(sp, c.Now());
  res.create_topic_s = static_cast<double>(HostNowNs() - h) / 1e9;
  if (!st.ok()) c.Fail("create topic: " + st.ToString());

  if (spec.preload > 0 && !c.done) {
    bool loaded = false;
    sim::Spawn(c.sim(), Preload(&c, &loaded));
    sp = spans->Begin("RunToFlag", c.Now());
    cluster->RunToFlag(&loaded);
    spans->End(sp, c.Now());
  }

  h = HostNowNs();
  const int np = spec.producer_kind == ProducerKind::kMux ? spec.mux_endpoints
                                                          : spec.producers;
  c.rdma_producers.resize(spec.producers);
  c.tcp_producers.resize(spec.producers);
  c.mux.resize(spec.mux_endpoints);
  c.readers.resize(spec.readers.size());
  c.seen.assign(spec.readers.size(),
                std::vector<uint8_t>(c.recs.size(), 0));
  std::vector<uint64_t> preloaded(spec.partitions, 0), timed(spec.partitions,
                                                             0);
  for (const Rec& r : c.recs) (r.timed ? timed : preloaded)[r.partition]++;
  for (size_t r = 0; r < spec.readers.size(); r++) {
    c.engines.push_back(std::make_unique<stream::EventEngine>());
    c.readers[r].resize(spec.partitions);
    for (int q = 0; q < spec.partitions; q++) {
      ReaderPart& part = c.readers[r][q];
      part.tp = c.Tp(static_cast<uint32_t>(q));
      bool catch_up = spec.readers[r].catch_up;
      part.start_offset = catch_up ? 0 : static_cast<int64_t>(preloaded[q]);
      part.next_offset = part.start_offset;
      part.expected = timed[q] + (catch_up ? preloaded[q] : 0);
      c.remaining += static_cast<int64_t>(timed[q]);
    }
  }
  c.remaining += c.timed;  // acknowledgements
  if (!c.done) {
    for (int p = 0; p < np; p++) sim::Spawn(c.sim(), ConnectProducer(&c, p));
    for (size_t r = 0; r < spec.readers.size(); r++) {
      for (int q = 0; q < spec.partitions; q++) {
        sim::Spawn(c.sim(), ConnectReader(&c, static_cast<int>(r), q));
      }
    }
    cluster->RunUntilCount(
        &c.connected,
        np + static_cast<int>(spec.readers.size()) * spec.partitions);
  }
  res.connect_s = static_cast<double>(HostNowNs() - h) / 1e9;
  res.setup_s = static_cast<double>(HostNowNs() - h_start) / 1e9;

  // --- measured phase -----------------------------------------------------
  const obs::MetricsRegistry& metrics = cluster->fabric().obs().metrics;
  CounterMap start = Counters(metrics);
  const uint64_t events0 = cluster->engine().events_processed();
  const TimeNs t0 = c.Now();
  const int64_t h_measure = HostNowNs();
  if (!c.done) {
    c.queues.resize(spec.producers);
    for (int p = 0; p < spec.producers; p++) {
      c.items.push_back(std::make_unique<sim::Semaphore>(c.sim(), 0));
    }
    if (spec.open_loop) {
      for (uint32_t id = 0; id < c.timed; id++) {
        c.due_abs[id] = t0 + c.recs[id].due;
      }
      c.live++;
      sim::Spawn(c.sim(), Generator(&c));
    } else {
      for (uint32_t id = 0; id < c.timed; id++) {
        c.queues[c.recs[id].producer].push_back(id);
      }
      for (int p = 0; p < spec.producers; p++) {
        c.items[p]->Release(static_cast<int64_t>(c.queues[p].size()) +
                            spec.window);
      }
    }
    for (int p = 0; p < spec.producers; p++) {
      for (int w = 0; w < spec.window; w++) {
        c.live++;
        sim::Spawn(c.sim(), Worker(&c, p));
      }
    }
    for (size_t r = 0; r < spec.readers.size(); r++) {
      for (int q = 0; q < spec.partitions; q++) {
        c.live++;
        sim::Spawn(c.sim(), ReaderLoop(&c, static_cast<int>(r), q));
      }
    }
    sp = spans->Begin("RunToFlag", t0);
    cluster->RunToFlag(&c.done, Seconds(600));
    spans->End(sp, c.Now());
  }
  // --- workload-end barrier: read everything before teardown --------------
  res.measured_s = static_cast<double>(HostNowNs() - h_measure) / 1e9;
  // Byte conservation holds once no produce is in flight: every byte a
  // broker appended was either copied in or written zero-copy.
  uint64_t produced = metrics.SumCounters("kd.broker.", ".produce.bytes");
  uint64_t copied = metrics.SumCounters("kd.broker.", ".produce.copied_bytes");
  const obs::Counter* zero_copy =
      metrics.FindCounter("kd.direct.rdma_produce.zero_copy_bytes");
  if (produced != copied + (zero_copy == nullptr ? 0 : zero_copy->value())) {
    c.Fail("byte conservation: produce.bytes=" + std::to_string(produced) +
           " copied=" + std::to_string(copied));
  }
  res.sim_events = cluster->engine().events_processed() - events0;
  res.attempted = c.timed;
  TimeNs last = t0;
  for (uint32_t id = 0; id < c.timed; id++) {
    last = std::max({last, c.ack_at[id], c.visible_at[id]});
    spans->SetRecord(id, c.due_abs[id],
                     std::max(c.visible_at[id], c.due_abs[id]));
  }
  res.phase_ns = last - t0;
  if (spec.open_loop) res.backlog_growth = BacklogGrowth(c);
  for (size_t r = 0; r < c.seen.size(); r++) {
    for (int q = 0; q < spec.partitions; q++) {
      const ReaderPart& part = c.readers[r][q];
      res.lost += part.expected - std::min(part.expected, part.got);
    }
  }
  if (res.error.empty() && res.lost > 0) res.error = "records lost";
  res.ok = res.error.empty() && res.failures() == 0;
  res.ingest_s = static_cast<double>(c.ingest_ns) / 1e9;
  SnapshotLayers(&c, start, res.sim_events);
  if (!res.ok) {
    // Coroutines may still be parked on the failed path; the caller
    // reports and exits, so skip the teardown walk that would resume them.
    (void)cluster.release();
    return res;
  }

  // --- teardown (not measured) --------------------------------------------
  for (auto& m : c.mux) {
    if (m != nullptr) m->Close();
  }
  c.rdma_producers.clear();
  c.tcp_producers.clear();
  c.mux.clear();
  c.readers.clear();
  cluster.reset();  // the monitor's final sweep runs here
  if (!res.error.empty()) res.ok = false;
  return res;
}

}  // namespace kdbench
}  // namespace kafkadirect
