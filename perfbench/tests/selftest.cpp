// The benchmark's own tests: open-loop schedule and lateness accounting,
// percentile and sample-count reporting, the deadline / failed-packet path
// with a sink that never finishes, and reference-digest equality.
#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "scenarios/scenario.hpp"
#include "workloads.hpp"

using namespace perfbench;
using neptune::now_ns;

namespace {

/// Records what a source emitted and when.
class RecordingEmitter final : public neptune::Emitter {
 public:
  std::vector<int64_t> due, emitted_at;
  neptune::EmitStatus emit(neptune::StreamPacket&& p) override { return emit(size_t{0}, std::move(p)); }
  neptune::EmitStatus emit(size_t, neptune::StreamPacket&& p) override {
    due.push_back(p.event_time_ns());
    emitted_at.push_back(now_ns());
    return neptune::EmitStatus::kOk;
  }
  size_t output_link_count() const override { return 1; }
  uint32_t instance() const override { return 0; }
  uint64_t packets_emitted() const override { return due.size(); }
};

/// Packets due every `step_ns`, `n` of them.
PacketGen every(int64_t step_ns, uint64_t n) {
  auto i = std::make_shared<uint64_t>(0);
  return [=](neptune::StreamPacket& p, int64_t& off) {
    if (*i == n) return false;
    p.clear();
    p.add_i64(static_cast<int64_t>(*i));
    off = static_cast<int64_t>(*i) * step_ns;
    ++*i;
    return true;
  };
}

int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

}  // namespace

TEST(OpenLoop, PacketsCarryTheirDueTimeAndLeaveNoEarlier) {
  auto ctl = std::make_shared<SourceControl>();
  ctl->start_ns = now_ns() + 5'000'000;
  PacedSource src(ctl, every(2'000'000, 5));
  RecordingEmitter out;
  while (src.next(out, 64)) {
  }
  ASSERT_EQ(out.due.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.due[i], ctl->start_ns + static_cast<int64_t>(i) * 2'000'000);
    EXPECT_GE(out.emitted_at[i], out.due[i]);
  }
  EXPECT_EQ(ctl->lag.count(), 5u);
  EXPECT_EQ(ctl->emitted.load(), 5u);
}

TEST(OpenLoop, AStallMakesEveryLaterPacketLateFromItsDueTime) {
  // The generator was held up for 50 ms: packets due during the stall go
  // out at once, each timed from its own due time, not from the previous
  // emit.
  auto ctl = std::make_shared<SourceControl>();
  ctl->start_ns = now_ns() - 50'000'000;
  PacedSource src(ctl, every(10'000'000, 5));  // due at 0, 10, .., 40 ms
  RecordingEmitter out;
  while (src.next(out, 64)) {
  }
  ASSERT_EQ(out.due.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_GE(out.emitted_at[i] - out.due[i], 10'000'000 - 1);
  EXPECT_GE(ctl->lag.quantile(0.0), 10e6 * 0.99);  // the last one: 10 ms late
  EXPECT_GE(ctl->lag.quantile(1.0), 50e6 * 0.99);  // the first one: 50 ms late
}

TEST(OpenLoop, WaitingSourceSleepsInsteadOfSpinning) {
  auto ctl = std::make_shared<SourceControl>();
  ctl->start_ns = now_ns() + 30'000'000;
  PacedSource src(ctl, every(1, 1));
  RecordingEmitter out;
  int64_t cpu0 = thread_cpu_ns();
  while (src.next(out, 64)) {
  }
  EXPECT_EQ(out.due.size(), 1u);
  EXPECT_LT(thread_cpu_ns() - cpu0, 10'000'000);  // 30 ms wall, far less CPU
}

TEST(OpenLoop, UnpacedSourceStampsGenerationTime) {
  auto ctl = std::make_shared<SourceControl>();
  ctl->paced = false;
  int64_t t0 = now_ns();
  PacedSource src(ctl, every(1'000'000'000, 3));  // would take 2 s if paced
  RecordingEmitter out;
  while (src.next(out, 64)) {
  }
  ASSERT_EQ(out.due.size(), 3u);
  for (int64_t d : out.due) EXPECT_GE(d, t0);
  EXPECT_LT(now_ns() - t0, 500'000'000);
}

TEST(Latency, QuantilesAndSampleCounts) {
  LatencyRecorder r;
  EXPECT_EQ(r.quantile(0.5), 0.0);
  for (int64_t us = 1; us <= 1000; ++us) r.record(us * 1000);
  EXPECT_EQ(r.count(), 1000u);
  EXPECT_NEAR(r.quantile(0.50), 500e3, 500e3 * 0.005);
  EXPECT_NEAR(r.quantile(0.99), 990e3, 990e3 * 0.005);
  LatencyRecorder twice;
  twice.merge(r);
  twice.merge(r);
  EXPECT_EQ(twice.count(), 2000u);
  EXPECT_NEAR(twice.quantile(0.5), r.quantile(0.5), 500e3 * 0.005);
  r.record(-5);  // clock skew clamps to zero rather than wrapping
  EXPECT_EQ(r.quantile(0.0), 0.5);
}

TEST(Latency, SlicesKeepOnlyPacketsDueInTheWindow) {
  SlicedLatency s;
  const int64_t begin = 1'000'000'000'000;
  s.arm(begin, 3);
  s.record(begin - 1, 7);                // before the window
  s.record(begin, 1);                    // slice 0
  s.record(begin + kSliceNs + 5, 2);     // slice 1
  s.record(begin + 2 * kSliceNs, 3);     // slice 2
  s.record(begin + 3 * kSliceNs, 9);     // after the window
  ASSERT_EQ(s.slices().size(), 3u);
  for (const auto& slice : s.slices()) EXPECT_EQ(slice.count(), 1u);
}

TEST(Slices, MediansIgnoreOneDisturbedSliceAndLatencyPoolsEveryPacket) {
  std::vector<Edge> edges(6);
  int64_t t = 0;
  uint64_t n = 0;
  int64_t cpu = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    edges[i].proc.wall_ns = t;
    edges[i].delivered = n;
    edges[i].proc.cpu_ns = cpu;
    t += kSliceNs;
    uint64_t pkts = i == 2 ? 100 : 1000;  // one slow slice
    n += pkts;
    cpu += static_cast<int64_t>(pkts) * (i == 2 ? 5000 : 500);
  }
  SlicedLatency lat;
  lat.arm(0, 5);
  for (int i = 0; i < 5; ++i)
    for (int k = 0; k < 100; ++k) lat.record(i * kSliceNs, i == 2 ? 9'000'000 : 1'000'000);
  RunResult r;
  account_slices(edges, {&lat}, r);
  EXPECT_EQ(r.delivered, 4100u);
  EXPECT_NEAR(r.slice_throughput(), 1000.0, 1e-6);
  EXPECT_NEAR(r.slice_cpu_per_pkt(), 500.0, 1e-6);
  EXPECT_EQ(r.latency.count(), 500u);
  // Latency pools every packet of the kept slices: the slow slice holds a
  // fifth of them, so it sets the p99 and leaves the p50 alone.
  EXPECT_EQ(r.quiet_latency().count(), 500u);
  EXPECT_NEAR(r.quiet_latency().quantile(0.99), 9e6, 9e6 * 0.005);
  EXPECT_NEAR(r.quiet_latency().quantile(0.50), 1e6, 1e6 * 0.005);
  // A slice the host stole CPU from is left out, however it measured.
  {
    RunResult noisy = r;
    for (int i : {0, 1}) {
      noisy.slices[i].host_ticks = 400;
      noisy.slices[i].steal_ticks = 200;
      noisy.slices[i].delivered = 10;
    }
    EXPECT_EQ(noisy.quiet_slices().size(), 3u);
    EXPECT_NEAR(noisy.slice_throughput(), 1000.0, 1e-6);
    EXPECT_EQ(noisy.quiet_latency().count(), 300u);
  }
  // A latency-only window (a closed-loop workload's paced phase) replaces
  // the rate window's latency and leaves its rates alone.
  {
    RunResult split = r;
    SlicedLatency paced;
    paced.arm(0, 5);
    for (int i = 0; i < 5; ++i) paced.record(i * kSliceNs, 3'000'000);
    account_latency_slices(edges, {&paced}, split);
    EXPECT_EQ(split.quiet_latency().count(), 5u);
    EXPECT_NEAR(split.quiet_latency().quantile(0.99), 3e6, 3e6 * 0.005);
    EXPECT_NEAR(split.slice_throughput(), 1000.0, 1e-6);
    EXPECT_EQ(split.delivered, r.delivered);
  }
  // A second phase pools slice by slice.
  account_slices(edges, {&lat}, r);
  ASSERT_EQ(r.slices.size(), 5u);
  EXPECT_EQ(r.slices[0].delivered, 2000u);
  EXPECT_NEAR(r.slice_throughput(), 1000.0, 1e-6);  // twice the packets in twice the time
}

TEST(Slices, SetUpMedianLeavesOutDeploysTheHostStoleFrom) {
  RunResult r;
  auto sample = [](double secs, uint64_t steal) {
    SetupSample s;
    s.secs = secs;
    s.host_ticks = 100;
    s.steal_ticks = steal;
    return s;
  };
  for (double secs : {0.010, 0.011, 0.012}) r.setups.push_back(sample(secs, 0));
  for (double secs : {0.030, 0.040}) r.setups.push_back(sample(secs, 30));
  EXPECT_NEAR(r.setup_median(), 0.011, 1e-12);
  // Without steal every deploy counts.
  r.setups.resize(3);
  r.setups.push_back(sample(0.013, 0));
  EXPECT_NEAR(r.setup_median(), 0.0115, 1e-12);
}

TEST(Failures, CountsMissingDuplicatedAndOutOfOrder) {
  EXPECT_EQ(failed_packets(100, 100, 0), 0u);
  EXPECT_EQ(failed_packets(100, 60, 0), 40u);  // undelivered
  EXPECT_EQ(failed_packets(100, 103, 0), 3u);  // duplicated
  EXPECT_EQ(failed_packets(100, 100, 2), 2u);  // out of order
}

namespace {

/// A sink that never finishes on its own: it blocks on its first packet
/// until released.
class StuckSink final : public neptune::StreamProcessor {
 public:
  explicit StuckSink(std::shared_ptr<std::atomic<bool>> release) : release_(std::move(release)) {}
  void process(neptune::StreamPacket&, neptune::Emitter&) override {
    while (!release_->load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

 private:
  std::shared_ptr<std::atomic<bool>> release_;
};

}  // namespace

TEST(Deadline, StalledRunIsReportedWithItsCountersAndUndeliveredPackets) {
  auto release = std::make_shared<std::atomic<bool>>(false);
  neptune::Runtime rt(1, neptune::granules::ResourceConfig{.worker_threads = 2, .io_threads = 1});
  neptune::StreamGraph g("stuck");
  g.add_source("src", [] { return std::make_unique<neptune::workload::BytesSource>(100, 16); });
  g.add_processor("sink", [release] { return std::make_unique<StuckSink>(release); });
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  std::thread releaser([release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    release->store(true);
  });
  RunResult r;
  EXPECT_FALSE(drain_or_stall(*job, 0.3, "stuck", r));
  releaser.join();
  EXPECT_FALSE(r.correct);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("deadline"), std::string::npos);
  ASSERT_EQ(r.stall_dumps.size(), 1u);
  EXPECT_NE(r.stall_dumps[0].find("\"operator\":\"sink\""), std::string::npos);
  EXPECT_NE(r.stall_dumps[0].find("\"blocked_sends\""), std::string::npos);
  // At the deadline the sink had taken one packet of the hundred.
  EXPECT_NE(r.stall_dumps[0].find("\"operator\":\"sink\",\"instance\":0,\"packets_in\":1,"),
            std::string::npos)
      << r.stall_dumps[0];
  EXPECT_EQ(failed_packets(100, 1, 0), 99u);
}

TEST(Reference, ReproducesTheGoldenScenarioDigests) {
  for (const char* name : {"etl_taxi", "stats_grid", "pred_air"}) {
    auto spec = load_golden_scenario(name);
    neptune::scenarios::ScenarioContext ctx;
    auto graph = neptune::scenarios::build_scenario_graph(spec, spec.trace, ctx, false);
    auto gen = std::make_shared<neptune::scenarios::TraceGenerator>(spec.trace);
    PacketGen feed = [gen](neptune::StreamPacket& p, int64_t& off) {
      off = 0;
      return gen->next(p);
    };
    ReferenceResult ref = run_reference(graph, feed, spec.trace.events);
    EXPECT_EQ(ref.inputs, spec.trace.events) << name;
    ASSERT_EQ(ref.sinks.size(), spec.expect.size()) << name;
    for (const auto& [sink, want] : spec.expect) {
      EXPECT_EQ(ref.sinks[sink].first, want.packets) << name << "/" << sink;
      EXPECT_EQ(ref.sinks[sink].second, want.digest) << name << "/" << sink;
    }
  }
}

TEST(Workloads, ShortRunsMatchTheirReference) {
  // One-second windows of each workload: the runtime's sink outputs must
  // equal the single-threaded reference on the same seeded input.
  Options opt;
  opt.seed = 5;
  opt.seconds = 1;
  for (auto run : {run_relay_max, run_iot_mix_tcp, run_sensor_ckpt_tcp}) {
    RunResult r = run(opt, nullptr);
    EXPECT_TRUE(r.correct) << (r.errors.empty() ? "" : r.errors[0]);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_GT(r.latency.count(), 0u);
    EXPECT_FALSE(r.setups.empty());
  }
}

TEST(Workloads, MultiProcessDeploymentMatchesItsReference) {
  Options opt;
  opt.seed = 5;
  opt.work_dir = PERFBENCH_SELFTEST_WORK_DIR;
  RunResult r;
  run_mp_grid(opt, r);
  EXPECT_TRUE(r.correct) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.proc.packets, 0u);
  EXPECT_EQ(r.proc.packets, r.expected);
  EXPECT_GT(r.proc.workers_cpu_ns, 0);
  EXPECT_GT(r.proc.worker_peak_rss_mb, 0.0);
  EXPECT_GT(r.proc.checkpoints, 0u);
}

TEST(Tracing, SpansYieldPerOperatorSelfTime) {
  Options opt;
  opt.seed = 6;
  opt.seconds = 1;
  SpanRegistry spans;
  RunResult r = run_sensor_ckpt_tcp(opt, &spans);
  EXPECT_TRUE(r.correct);
  SpanTotals t = derive_totals(spans);
  EXPECT_GT(t.self_ns["sensor_extract"], 0.0);
  EXPECT_GT(t.emit_ns, 0.0);
  EXPECT_FALSE(t.checkpoint_ms.empty());
}
