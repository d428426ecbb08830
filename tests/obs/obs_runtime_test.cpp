// End-to-end observability integration: a real job on the real runtime,
// scraped over HTTP while it runs, with batch-flow traces collected across
// both hops of the Figure-1 relay.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "../support/gate.hpp"
#include "../support/poll.hpp"
#include "common/json.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/build_info.hpp"
#include "obs/http_server.hpp"
#include "obs/trace.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using workload::BytesSource;
using workload::CountingSink;
using workload::RelayProcessor;

StreamGraph relay_graph(uint64_t packets) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 4096;
  cfg.buffer.flush_interval_ns = 2'000'000;
  StreamGraph g("obs-relay", cfg);
  g.add_source("sender", [packets] { return std::make_unique<BytesSource>(packets, 50); }, 1, 0);
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("receiver", [] { return std::make_unique<CountingSink>(); }, 1, 0);
  g.connect("sender", "relay");
  g.connect("relay", "receiver");
  return g;
}

TEST(ObsRuntime, MetricsEndpointServesJobCounters) {
  RuntimeOptions opts;
  opts.obs.metrics_port = 0;  // ephemeral
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, opts);
  ASSERT_NE(rt.metrics_server(), nullptr);
  ASSERT_NE(rt.telemetry_sampler(), nullptr);
  uint16_t port = rt.metrics_server()->port();

  auto job = rt.submit(relay_graph(5000));
  job->start();
  ASSERT_TRUE(job->wait(60s));

  auto body = obs::http_get("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(body.has_value());
  // Per-operator counters with job/op/inst labels, sampled live.
  EXPECT_NE(body->find("neptune_packets_in_total{job=\"obs-relay\",op=\"receiver\",inst=\"0\"} "
                       "5000"),
            std::string::npos)
      << *body;
  EXPECT_NE(body->find("neptune_packets_out_total{job=\"obs-relay\",op=\"sender\""),
            std::string::npos);
  EXPECT_NE(body->find("neptune_flushes_total"), std::string::npos);
  EXPECT_NE(body->find("neptune_blocked_seconds_total"), std::string::npos);
  EXPECT_NE(body->find("neptune_edge_inflight_bytes"), std::string::npos);
  EXPECT_NE(body->find("neptune_sink_latency_p99_seconds"), std::string::npos);
  EXPECT_NE(body->find("granules_run_queue_depth"), std::string::npos);

  auto health = obs::http_get("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->find("ok"), std::string::npos);
}

TEST(ObsRuntime, SeriesUnregisterOnJobDestruction) {
  RuntimeOptions opts;
  opts.obs.metrics_port = 0;
  // Process-scoped identity series (neptune_build_info, uptime) register on
  // first Runtime construction and never unregister; fold them into the
  // baseline so only job-scoped series are measured.
  obs::ensure_build_info_registered();
  size_t before = obs::TelemetryRegistry::global().active_series();
  {
    Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, opts);
    auto job = rt.submit(relay_graph(100));
    EXPECT_GT(obs::TelemetryRegistry::global().active_series(), before);
    job->start();
    ASSERT_TRUE(job->wait(60s));
    rt.shutdown();
  }
  EXPECT_EQ(obs::TelemetryRegistry::global().active_series(), before);
}

TEST(ObsRuntime, TracedBatchesYieldSpansAcrossBothHops) {
  obs::TraceSampler::global().set_period(1);  // trace every batch
  obs::TraceCollector::global().clear();

  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(relay_graph(2000));
  job->start();
  ASSERT_TRUE(job->wait(60s));
  obs::TraceSampler::global().set_period(0);

  auto spans = obs::TraceCollector::global().spans();
  ASSERT_FALSE(spans.empty());
  std::set<std::string> hops;
  for (const auto& s : spans) {
    EXPECT_NE(s.trace_id, 0u);
    hops.insert(s.dst_operator);
    // Timestamps are monotone within a span; phases are non-negative.
    EXPECT_GE(s.buffer_wait_ns(), 0) << s.dst_operator;
    EXPECT_GE(s.wire_ns(), 0) << s.dst_operator;
    EXPECT_GE(s.queue_wait_ns(), 0) << s.dst_operator;
    EXPECT_GE(s.execute_ns(), 0) << s.dst_operator;
    EXPECT_GT(s.batch_count, 0u);
    EXPECT_GT(s.bytes, 0u);
  }
  // Both hops of the relay were observed: sender->relay and relay->receiver.
  EXPECT_TRUE(hops.count("relay")) << "missing sender->relay spans";
  EXPECT_TRUE(hops.count("receiver")) << "missing relay->receiver spans";

  // Trace inheritance: some trace id observed at the relay hop also shows up
  // at the receiver hop (the relay stamps its downstream batches).
  std::set<uint64_t> relay_ids, receiver_ids;
  for (const auto& s : spans) {
    if (s.dst_operator == "relay") relay_ids.insert(s.trace_id);
    if (s.dst_operator == "receiver") receiver_ids.insert(s.trace_id);
  }
  bool inherited = false;
  for (uint64_t id : relay_ids)
    if (receiver_ids.count(id)) inherited = true;
  EXPECT_TRUE(inherited) << "no trace id followed the data across both hops";
}

TEST(ObsRuntime, TracingDisabledRecordsNothing) {
  obs::TraceSampler::global().set_period(0);
  obs::TraceCollector::global().clear();
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(relay_graph(1000));
  job->start();
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(obs::TraceCollector::global().size(), 0u);
}

TEST(ObsRuntime, BlockedSecondsExposedForThrottledSource) {
  // A held consumer + small channels: the sender must stall, and the stall
  // must be visible both in format_metrics' blocked-ms and the telemetry
  // counter. The test holds "slow" until the source has blocked, so the
  // stall does not depend on relative speed.
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 1 << 10;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 4 << 10;
  cfg.channel.low_watermark_bytes = 1 << 10;
  cfg.source_batch_budget = 16;

  RuntimeOptions opts;
  opts.obs.metrics_port = 0;
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, opts);
  auto gate = std::make_shared<test_util::Gate>();
  StreamGraph g("obs-throttle", cfg);
  g.add_source("src", [] { return std::make_unique<BytesSource>(20'000, 100); }, 1, 0);
  g.add_processor("slow", [gate]() -> std::unique_ptr<StreamProcessor> {
    struct Held : StreamProcessor {
      std::shared_ptr<test_util::Gate> gate;
      explicit Held(std::shared_ptr<test_util::Gate> g) : gate(std::move(g)) {}
      void process(StreamPacket& p, Emitter& out) override {
        gate->wait();
        out.emit(std::move(p));
      }
    };
    return std::make_unique<Held>(gate);
  }, 1, 1);
  g.add_processor("sink", [] { return std::make_unique<CountingSink>(); }, 1, 0);
  g.connect("src", "slow");
  g.connect("slow", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(test_util::wait_until(
      [&] { return job->metrics().total("src", &OperatorMetricsSnapshot::blocked_sends) > 0; },
      60s));
  gate->open();  // the stall ends, and its length is accounted
  ASSERT_TRUE(job->wait(120s));

  auto m = job->metrics();
  EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::blocked_sends), 0u);
  EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::blocked_ns), 0u);
  EXPECT_NE(format_metrics(m).find("blocked-ms"), std::string::npos);
}

}  // namespace
}  // namespace neptune
