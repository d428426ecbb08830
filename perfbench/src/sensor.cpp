// sensor_ckpt_tcp: low-entropy Figure-8 manufacturing readings (66 fields)
// at a fixed rate, open loop, over supervised TCP with selective LZ4
// compression, through source -> SensorStateExtractor -> sink, under a
// RecoveryCoordinator whose checkpoints the benchmark drives once a second
// through checkpoint_now(). It is the only workload that uses the compress
// layer and pause/quiesce checkpoints. Each pause holds back roughly 70 ms
// of readings, and longer when the host steals CPU. At a 250 ms cadence
// that was over a quarter of the stream, and at 500 ms a seventh, and the
// median moved with the length of the pauses. At one a second the median
// measures the unpaused path, and every 1 s slice holds one checkpoint.
#include <chrono>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "fault/recovery.hpp"
#include "neptune/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using neptune::now_ns;
using S = neptune::workload::ManufacturingSchema;

namespace {

constexpr double kRatePps = 80'000;
constexpr int64_t kCheckpointEveryNs = 1'000'000'000;

/// Manufacturing readings as in workload::ManufacturingSource (rare sensor
/// flips, lagged valve actuation, slowly drifting auxiliary channels), one
/// per millisecond of reading time; reading i is due at i / kRatePps.
PacketGen reading_gen(uint64_t seed) {
  struct State {
    neptune::Xoshiro256 rng;
    int64_t index = 0;
    bool sensors[S::kSensors] = {};
    bool valves[S::kSensors] = {};
    uint32_t pending[S::kSensors] = {};
    int32_t aux[S::kTotalFields] = {};
  };
  auto st = std::make_shared<State>(State{neptune::Xoshiro256(seed * 7919 + 11)});
  return [st](StreamPacket& p, int64_t& off) {
    State& s = *st;
    for (size_t i = 0; i < S::kSensors; ++i) {
      if (s.pending[i] > 0 && --s.pending[i] == 0) s.valves[i] = s.sensors[i];
      if (s.rng.next_bool(0.002)) {
        s.sensors[i] = !s.sensors[i];
        s.pending[i] = 5;
      }
    }
    for (size_t a = S::kAuxBase; a < S::kTotalFields; ++a)
      if (s.rng.next_bool(0.01)) s.aux[a] += static_cast<int32_t>(s.rng.next_below(3)) - 1;
    p.clear();
    p.add_i64(s.index);
    for (size_t i = 0; i < S::kSensors; ++i) p.add_bool(s.sensors[i]);
    for (size_t i = 0; i < S::kSensors; ++i) p.add_bool(s.valves[i]);
    for (size_t a = S::kAuxBase; a < S::kTotalFields; ++a) p.add_i32(s.aux[a]);
    off = static_cast<int64_t>(static_cast<double>(s.index) * (1e9 / kRatePps));
    ++s.index;
    return true;
  };
}

struct SensorDeployment {
  std::unique_ptr<neptune::Runtime> rt;
  std::unique_ptr<neptune::fault::RecoveryCoordinator> coord;
  std::shared_ptr<neptune::Job> job;
};

neptune::StreamGraph build_graph(neptune::SourceFactory source, std::shared_ptr<SinkState> sink,
                                 SpanRegistry* spans) {
  neptune::StreamGraph g("sensor_ckpt_tcp");
  g.add_source("readings", std::move(source), 1, 0);
  g.add_processor("extract", wrap([] {
    return std::make_unique<neptune::workload::SensorStateExtractor>();
  }, "sensor_extract", spans), 1, 1);
  g.add_processor("sink", [sink] { return std::make_unique<MeasuringSink>(sink); }, 1, 2);
  neptune::CompressionPolicy lz4{.mode = neptune::CompressionMode::kSelective};
  g.connect("readings", "extract", nullptr, lz4);
  g.connect("extract", "sink", nullptr, lz4);
  return g;
}

SensorDeployment deploy(neptune::StreamGraph g) {
  neptune::RuntimeOptions ro;
  ro.cross_resource_transport = neptune::EdgeTransport::kTcp;
  SensorDeployment d;
  d.rt = std::make_unique<neptune::Runtime>(
      3, neptune::granules::ResourceConfig{.worker_threads = 1, .io_threads = 1}, ro);
  neptune::fault::RecoveryOptions rec;
  rec.checkpoint_interval_ns = INT64_MAX / 2;  // checkpoints come from the benchmark
  d.coord = std::make_unique<neptune::fault::RecoveryCoordinator>(*d.rt, std::move(g), rec);
  return d;
}

}  // namespace

RunResult run_sensor_ckpt_tcp(const Options& opt, SpanRegistry* spans) {
  RunResult r;
  for (int i = 0; i < kSetupSamples; ++i) {
    auto ctl = std::make_shared<SourceControl>();
    ctl->paced = false;
    auto sink = std::make_shared<SinkState>();
    PacketGen gen = reading_gen(opt.seed);
    SetupTimer timer;
    int64_t t0 = now_ns();
    SensorDeployment d =
        deploy(build_graph([ctl, gen] { return std::make_unique<PacedSource>(ctl, gen); }, sink, nullptr));
    d.job = d.coord->start();
    while (sink->count.load(std::memory_order_relaxed) == 0 && now_ns() - t0 < 10'000'000'000)
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    r.setups.push_back(timer.stop());
    ctl->stop = true;
    drain_setup(*d.job, "sensor_ckpt_tcp", r);
    d.coord->stop();
  }

  release_freed_memory();
  auto ctl = std::make_shared<SourceControl>();
  if (spans) ctl->log = spans->make();
  auto sink = std::make_shared<SinkState>();
  sink->order_field = 0;
  PacketGen gen = reading_gen(opt.seed);
  SensorDeployment d =
      deploy(build_graph([ctl, gen] { return std::make_unique<PacedSource>(ctl, gen); }, sink, spans));
  std::shared_ptr<SpanLog> ckpt_log = spans ? spans->make() : nullptr;
  uint32_t ckpt_name = SpanLog::intern("checkpoint_now");

  const int slices = slices_in(opt.seconds);
  ctl->start_ns = now_ns() + 20'000'000;
  const int64_t begin = ctl->start_ns + 500'000'000;  // after a 0.5 s warm-up
  sink->latency.arm(begin, slices);
  d.job = d.coord->start();

  // Checkpoints run at a fixed cadence from the run start; the window's
  // edges are taken between them.
  int64_t next_ckpt = ctl->start_ns + kCheckpointEveryNs;
  auto checkpoint_until = [&](int64_t until) {
    while (next_ckpt < until) {
      sleep_until_ns(next_ckpt);
      int64_t c0 = now_ns();
      if (!d.coord->checkpoint_now()) r.fail("sensor_ckpt_tcp: checkpoint_now failed");
      int64_t c1 = now_ns();
      if (ckpt_log) ckpt_log->close(ckpt_log->open(ckpt_name, 0, c0), c1);
      next_ckpt += kCheckpointEveryNs;
    }
    sleep_until_ns(until);
  };
  checkpoint_until(begin);
  uint64_t ckpt_begin = d.coord->checkpoints_taken();
  uint64_t timeouts_begin = d.coord->quiesce_timeouts();
  PeakRssProbe rss;
  std::vector<Edge> edges = sample_window(
      begin, slices, [&] { return take_edge(sink->count.load(), ctl->gen_ns.load(), *d.job, *d.rt); },
      checkpoint_until);
  ctl->stop = true;
  r.peak_rss_mb = rss.finish();
  account_slices(edges, {&sink->latency}, r);
  r.checkpoints = d.coord->checkpoints_taken() - ckpt_begin;
  r.quiesce_timeouts = d.coord->quiesce_timeouts() - timeouts_begin;
  std::shared_ptr<neptune::Job> job = d.coord->job();
  drain_or_stall(*job, 20.0, "sensor_ckpt_tcp", r);
  neptune::JobMetricsSnapshot m = job->metrics();
  uint64_t seq_violations = m.total(&neptune::OperatorMetricsSnapshot::seq_violations);
  r.source_wire_bytes = m.total("readings", &neptune::OperatorMetricsSnapshot::bytes_out);
  d.coord->stop();
  if (d.coord->recoveries() != 0) r.fail("sensor_ckpt_tcp: unexpected recovery");
  if (r.quiesce_timeouts != 0) r.fail("sensor_ckpt_tcp: checkpoint quiesce timed out");

  // Expected outputs from the single-threaded reference.
  uint64_t inputs = ctl->emitted.load();
  auto ref_sink = std::make_shared<SinkState>();
  ReferenceResult ref = run_reference(build_graph(nullptr, ref_sink, nullptr), reading_gen(opt.seed), inputs);
  const auto& want = ref.sinks["sink"];
  uint64_t got = sink->count.load();
  uint64_t order = sink->order_errors.load() + seq_violations;
  r.expected += want.first;
  r.failed += failed_packets(want.first, got, order) + r.quiesce_timeouts;
  if (sink->digest.digest() != want.second)
    r.fail("sensor_ckpt_tcp: digest " + sink->digest.digest() + " != reference " + want.second);
  if (order) r.fail("sensor_ckpt_tcp: sequence-order errors");
  r.reference_ns = ref.ns;
  r.reference_packets = ref.inputs;
  r.source_bytes = ctl->bytes;
  r.lag.merge(ctl->lag);
  return r;
}

}  // namespace perfbench
