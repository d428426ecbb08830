// relay_max: the Figure-1 relay (source -> relay -> sink) over inproc
// channels between two resources, 50 B text payloads, 1 MB buffers and a
// 5 ms flush timer. It isolates the framework's per-packet path (serialize,
// buffer, flush, frame+CRC, channel hand-off, carving, batch-view dispatch
// and scheduler wakeups) with no operator work, TCP or checkpoints.
//
// Throughput, CPU and memory come from a closed loop: the source emits as
// fast as backpressure allows. A closed loop's latency only says how full
// its buffers are, so the latency (a per-layer figure) comes from a
// second, open-loop phase of the same relay: a paced source at a fixed
// rate, each packet timed from when it was due. Its buffers never fill, so
// the 5 ms flush timer drives it.
#include <chrono>
#include <thread>

#include "common/clock.hpp"
#include "neptune/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using neptune::now_ns;

namespace {

constexpr size_t kPayloadBytes = 50;
constexpr size_t kBatch = 512;
/// Offered rate of the latency phase, about a tenth of closed-loop capacity
/// on a 4-vCPU host.
constexpr double kPacedRatePps = 200'000;

/// Four ASCII digits that depend on (seed, seq); the sink recomputes them.
uint32_t payload_tag(uint64_t seed, uint64_t seq) {
  uint64_t x = (seq + 1) * 0x9E3779B97F4A7C15ULL ^ seed;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return static_cast<uint32_t>(x % 10000);
}

void fill_payload(uint64_t seed, uint64_t seq, std::vector<uint8_t>& out) {
  static constexpr char kTemplate[] = "id=0000,temp=21.5,hum=40.2,valve=open,flow=ok;";
  out.resize(kPayloadBytes);
  for (size_t i = 0; i < kPayloadBytes; ++i)
    out[i] = static_cast<uint8_t>(kTemplate[i % (sizeof kTemplate - 1)]);
  uint32_t tag = payload_tag(seed, seq);
  out[3] = static_cast<uint8_t>('0' + tag / 1000 % 10);
  out[4] = static_cast<uint8_t>('0' + tag / 100 % 10);
  out[5] = static_cast<uint8_t>('0' + tag / 10 % 10);
  out[6] = static_cast<uint8_t>('0' + tag % 10);
}

/// Open-loop input of the latency phase: the closed-loop source's packets,
/// one due every 1 / kPacedRatePps seconds.
PacketGen paced_gen(uint64_t seed) {
  struct State {
    uint64_t seq = 0;
    std::vector<uint8_t> payload;
  };
  auto st = std::make_shared<State>();
  return [st, seed](StreamPacket& p, int64_t& off) {
    p.clear();
    fill_payload(seed, st->seq, st->payload);
    p.add_i64(static_cast<int64_t>(st->seq));
    p.add_bytes(st->payload);
    off = static_cast<int64_t>(static_cast<double>(st->seq) * (1e9 / kPacedRatePps));
    ++st->seq;
    return true;
  };
}

struct RelayControl {
  uint64_t seed = 1;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> emitted{0};
  std::atomic<int64_t> gen_ns{0};
  std::shared_ptr<SpanLog> source_log;
  std::shared_ptr<SpanLog> sink_log;
  // sink side
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> order_errors{0};
  std::atomic<uint64_t> content_errors{0};
  SlicedLatency latency;  ///< sink thread only
};

/// Closed-loop generator: [seq (i64), payload (50 B text)]. Packets are
/// generated a batch at a time (timed as generator work), stamped when
/// generated, and emitted until backpressure.
class RelaySource final : public neptune::StreamSource {
 public:
  explicit RelaySource(std::shared_ptr<RelayControl> c)
      : c_(std::move(c)), next_name_(SpanLog::intern("source.next")) {}

  bool next(Emitter& out, size_t budget) override {
    if (cursor_ == pending_.size()) {
      if (c_->stop.load(std::memory_order_relaxed)) return false;
      int64_t t0 = now_ns();
      pending_.resize(std::max(budget, kBatch));
      std::vector<uint8_t> payload;
      for (auto& p : pending_) {
        p.clear();
        fill_payload(c_->seed, seq_, payload);
        p.add_i64(static_cast<int64_t>(seq_++));
        p.add_bytes(payload);
        p.set_event_time_ns(t0);
      }
      cursor_ = 0;
      c_->gen_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    }
    Emitter* em = &out;
    SpanLog* log = c_->source_log.get();
    bool sampled = log != nullptr && log->sample(next_name_, SpanLog::kEveryBatch);
    if (sampled) {
      timed_.inner = &out;
      timed_.log = log;
      timed_.span = log->open(next_name_, 0, now_ns());
      em = &timed_;
    }
    size_t n = 0;
    while (cursor_ < pending_.size() && n < budget) {
      ++n;
      c_->emitted.fetch_add(1, std::memory_order_relaxed);
      if (em->emit(std::move(pending_[cursor_++])) == EmitStatus::kBackpressured) break;
    }
    if (sampled) {
      log->close(timed_.span, now_ns());
      timed_.log = nullptr;
    }
    return true;
  }

 private:
  std::shared_ptr<RelayControl> c_;
  std::vector<StreamPacket> pending_;
  size_t cursor_ = 0;
  uint64_t seq_ = 0;
  uint32_t next_name_;
  TimedEmitter timed_;
};

/// Batch-view sink: decodes each batch (timed as "sink.decode" in traced
/// runs), then checks order and content and records latency.
class RelaySink final : public neptune::StreamProcessor {
 public:
  explicit RelaySink(std::shared_ptr<RelayControl> c)
      : c_(std::move(c)), decode_name_(SpanLog::intern("sink.decode")) {}

  void process(StreamPacket& packet, Emitter&) override {
    Row r{packet.i64(0), packet.event_time_ns(), 0};
    const auto& b = packet.bytes(1);
    r.tag = b.size() >= 7 ? digits(b.data() + 3) : ~0u;
    check(&r, 1, now_ns());
  }

  bool prefers_batches() const override { return true; }

  void on_batch(neptune::BatchView& batch, Emitter&) override {
    int64_t arrive = now_ns();
    SpanLog* log = c_->sink_log.get();
    bool sampled = log != nullptr && log->sample(decode_name_, SpanLog::kEveryBatch);
    size_t span = sampled ? log->open(decode_name_, 0, now_ns()) : 0;
    rows_.resize(batch.remaining());
    size_t n = 0;
    while (n < rows_.size() && batch.next(view_)) {
      auto b = view_.bytes(1);
      rows_[n++] = {view_.i64(0), view_.event_time_ns(), b.size() >= 7 ? digits(b.data() + 3) : ~0u};
    }
    if (sampled) log->close(span, now_ns());
    check(rows_.data(), n, arrive);
  }

 private:
  struct Row {
    int64_t seq;
    int64_t due;
    uint32_t tag;
  };

  static uint32_t digits(const uint8_t* d) {
    return (d[0] - '0') * 1000u + (d[1] - '0') * 100u + (d[2] - '0') * 10u + (d[3] - '0');
  }

  void check(const Row* rows, size_t n, int64_t arrive) {
    uint64_t bad_order = 0, bad_content = 0;
    for (size_t i = 0; i < n; ++i) {
      const Row& r = rows[i];
      if (r.seq != next_seq_) ++bad_order;
      next_seq_ = r.seq + 1;
      if (r.tag != payload_tag(c_->seed, static_cast<uint64_t>(r.seq))) ++bad_content;
      c_->latency.record(r.due, arrive - r.due);
    }
    if (bad_order) c_->order_errors.fetch_add(bad_order, std::memory_order_relaxed);
    if (bad_content) c_->content_errors.fetch_add(bad_content, std::memory_order_relaxed);
    c_->received.fetch_add(n, std::memory_order_relaxed);
  }

  std::shared_ptr<RelayControl> c_;
  uint32_t decode_name_;
  neptune::PacketView view_;
  std::vector<Row> rows_;
  int64_t next_seq_ = 0;
};

struct RelayDeployment {
  std::unique_ptr<neptune::Runtime> rt;
  std::shared_ptr<neptune::Job> job;
};

RelayDeployment deploy(const std::shared_ptr<RelayControl>& c, neptune::SourceFactory source,
                       SpanRegistry* spans) {
  neptune::GraphConfig cfg;
  cfg.buffer.capacity_bytes = 1 << 20;
  cfg.buffer.flush_interval_ns = 5'000'000;
  // Two buffers' worth in flight per edge. The closed loop keeps its
  // queues full, and a deeper channel only let the resident set swing
  // further with host noise.
  cfg.channel.capacity_bytes = 2 << 20;
  cfg.channel.low_watermark_bytes = 512 << 10;
  RelayDeployment d;
  d.rt = std::make_unique<neptune::Runtime>(
      2, neptune::granules::ResourceConfig{.worker_threads = 1, .io_threads = 1});
  neptune::StreamGraph g("relay_max", cfg);
  g.add_source("sender", std::move(source), 1, 0);
  g.add_processor(
      "relay", wrap([] { return std::make_unique<neptune::workload::RelayProcessor>(); }, "relay", spans),
      1, 1);
  g.add_processor("receiver", [c] { return std::make_unique<RelaySink>(c); }, 1, 0);
  g.connect("sender", "relay");
  g.connect("relay", "receiver");
  d.job = d.rt->submit(g);
  return d;
}

/// Check what the sink received against what the source emitted.
void check_delivery(const RelayControl& c, uint64_t emitted, const neptune::Job& job,
                    const std::string& label, RunResult& r) {
  uint64_t received = c.received.load();
  uint64_t seq_violations = job.metrics().total(&neptune::OperatorMetricsSnapshot::seq_violations);
  uint64_t order = c.order_errors.load() + c.content_errors.load() + seq_violations;
  r.expected += emitted;
  r.failed += failed_packets(emitted, received, order);
  if (received != emitted)
    r.fail(label + ": sink received " + std::to_string(received) + " of " + std::to_string(emitted));
  if (c.order_errors.load() || seq_violations) r.fail(label + ": sequence-order errors");
  if (c.content_errors.load()) r.fail(label + ": payload content errors");
}

/// Closed loop: throughput, CPU per packet and memory.
void run_closed(const Options& opt, double seconds, SpanRegistry* spans, RunResult& r) {
  auto c = std::make_shared<RelayControl>();
  c->seed = opt.seed;
  if (spans) {
    c->source_log = spans->make();
    c->sink_log = spans->make();
  }
  RelayDeployment d = deploy(c, [c] { return std::make_unique<RelaySource>(c); }, spans);
  const int slices = slices_in(seconds);
  const int64_t begin = now_ns() + 1'000'000'000;  // after a 1 s warm-up
  d.job->start();
  sleep_until_ns(begin);
  PeakRssProbe rss;
  std::vector<Edge> edges = sample_window(
      begin, slices, [&] { return take_edge(c->received.load(), c->gen_ns.load(), *d.job, *d.rt); },
      sleep_until_ns);
  c->stop = true;
  r.peak_rss_mb = rss.finish();
  account_slices(edges, {}, r);
  drain_or_stall(*d.job, 20.0, "relay_max", r);
  check_delivery(*c, c->emitted.load(), *d.job, "relay_max", r);
}

/// Open loop at kPacedRatePps: latency from each packet's due time.
/// Untraced: the spans describe the closed loop, whose window the
/// per-layer counters and CPU also come from.
void run_paced(const Options& opt, double seconds, RunResult& r) {
  auto c = std::make_shared<RelayControl>();
  c->seed = opt.seed;
  auto ctl = std::make_shared<SourceControl>();
  PacketGen gen = paced_gen(opt.seed);
  RelayDeployment d = deploy(c, [ctl, gen] { return std::make_unique<PacedSource>(ctl, gen); }, nullptr);
  const int slices = slices_in(seconds);
  ctl->start_ns = now_ns() + 20'000'000;
  const int64_t begin = ctl->start_ns + 500'000'000;  // after a 0.5 s warm-up
  c->latency.arm(begin, slices);
  d.job->start();
  std::vector<Edge> edges = sample_window(
      begin, slices, [&] { return take_edge(c->received.load(), ctl->gen_ns.load(), *d.job, *d.rt); },
      sleep_until_ns);
  ctl->stop = true;
  account_latency_slices(edges, {&c->latency}, r);
  r.lag.merge(ctl->lag);
  drain_or_stall(*d.job, 20.0, "relay_max/paced", r);
  check_delivery(*c, ctl->emitted.load(), *d.job, "relay_max/paced", r);
  r.untraced_packets += ctl->emitted.load();
}

}  // namespace

RunResult run_relay_max(const Options& opt, SpanRegistry* spans) {
  RunResult r;
  // Set-up: deploy until the first packet reaches the sink, several times.
  for (int i = 0; i < kSetupSamples; ++i) {
    auto c = std::make_shared<RelayControl>();
    c->seed = opt.seed;
    SetupTimer timer;
    int64_t t0 = now_ns();
    RelayDeployment d = deploy(c, [c] { return std::make_unique<RelaySource>(c); }, nullptr);
    d.job->start();
    while (c->received.load(std::memory_order_relaxed) == 0 && now_ns() - t0 < 10'000'000'000)
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    r.setups.push_back(timer.stop());
    c->stop = true;
    drain_setup(*d.job, "relay_max", r);
  }
  release_freed_memory();
  // Two thirds of the window measure the end-to-end metrics, one third
  // the latency.
  run_closed(opt, opt.seconds * 2 / 3, spans, r);
  run_paced(opt, opt.seconds / 3, r);
  return r;
}

}  // namespace perfbench
