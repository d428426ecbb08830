// Flight recorder + incident reporter against the real runtime: the fig4
// backpressure topology (A -> B -> slow C, small buffers) runs with the
// recorder enabled, a watchdog stall escalated by a RecoveryCoordinator must
// produce a complete incident bundle, and offline attribution over a real bundle must name the
// slow stage. This suite also doubles as the TSan coverage for the recorder
// hot path (concurrent worker threads writing rings while bundles merge).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "../support/gate.hpp"
#include "../support/poll.hpp"
#include "fault/recovery.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/flight_decode.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/incident.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using obs::FlightEventType;
using obs::FlightRecorder;
using obs::IncidentReporter;
using obs::Journal;
using obs::JournalEvent;
using workload::BytesSource;
using workload::CountingSink;
using workload::RelayProcessor;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/nep_flight_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "/tmp";
}

void remove_tree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

/// fig4-style 3-stage graph with small buffers so backpressure propagates:
/// A (source) -> B (relay) -> C (slow sink, delay_ns per packet).
StreamGraph fig4_graph(uint64_t packets, std::shared_ptr<CountingSink> sink) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2 << 10;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 8 << 10;
  cfg.channel.low_watermark_bytes = 2 << 10;
  cfg.source_batch_budget = 16;

  StreamGraph g("fig4-flight", cfg);
  g.add_source("A", [packets] { return std::make_unique<BytesSource>(packets, 100); }, 1, 0);
  g.add_processor("B", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("C", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 0);
  g.connect("A", "B");
  g.connect("B", "C");
  return g;
}

TEST(FlightRuntime, BackpressureRunAttributesSlowOperator) {
  std::string dir = make_temp_dir();
  auto reporter = IncidentReporter::configure_global(
      {.dir = dir, .min_interval_ns = 0, .install_crash_handler = false});
  FlightRecorder::set_enabled(true);

  // C burns ~100 us per packet; B only forwards. C must dominate execute
  // time and the tiny buffers force A/B to block on the way there.
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/100'000);
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(fig4_graph(3000, sink));
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), 3000u);
  uint64_t blocked_sends = job->metrics().total(&OperatorMetricsSnapshot::blocked_sends);

  // Bundle while the worker threads (and their rings) are still alive.
  std::string path = IncidentReporter::trigger_global("fig4_check", "attribution test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(reporter->bundles_written(), 1u);

  Journal journal = Journal::from_bundle(path);
  EXPECT_EQ(journal.header.string_or("trigger", ""), "fig4_check");
  ASSERT_FALSE(journal.topologies.empty());

  // The run left dispatch activity for all three stages plus flush events
  // on the edges.
  uint64_t dispatches = 0, flushes = 0, blocks = 0;
  for (const JournalEvent& ev : journal.events) {
    if (ev.type == FlightEventType::kDispatchBegin) ++dispatches;
    if (ev.type == FlightEventType::kFlush) ++flushes;
    if (ev.type == FlightEventType::kBlock) ++blocks;
  }
  EXPECT_GT(dispatches, 10u);
  EXPECT_GT(flushes, 10u);
  // Blocking is timing-dependent (cf. BlockedSecondsExposedForThrottledSource)
  // — but whenever the metrics saw a blocked send, the recorder must have too.
  if (blocked_sends > 0) {
    EXPECT_GT(blocks, 0u) << "metrics counted blocked sends but no kBlock events recorded";
  }

  // The verdict: the slow stage, by name, from the bundle alone.
  EXPECT_EQ(obs::overall_bottleneck(journal), "C[0]");

  // Edge roll-up joins flushes to downstream dispatches via the topology.
  auto edges = obs::edge_latency(journal);
  EXPECT_FALSE(edges.empty());
  bool saw_queue_wait = false;
  for (const auto& e : edges) {
    if (e.queue_wait_samples > 0) saw_queue_wait = true;
  }
  EXPECT_TRUE(saw_queue_wait) << "no edge produced queue-wait samples";
  remove_tree(dir);
}

TEST(FlightRuntime, WatchdogStallProducesIncidentBundle) {
  std::string dir = make_temp_dir();
  auto reporter = IncidentReporter::configure_global(
      {.dir = dir, .min_interval_ns = 0, .install_crash_handler = false});
  FlightRecorder::set_enabled(true);

  // First packet wedges inside "proc" until the watchdog (200 ms timeout)
  // has escalated; escalation fires the incident trigger, and the recovery
  // it starts writes a bundle of its own.
  auto armed = std::make_shared<std::atomic<bool>>(true);
  auto gate = std::make_shared<test_util::Gate>();
  auto sink = std::make_shared<CountingSink>();
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  StreamGraph g("stall-flight", cfg);
  g.add_source("src", [] { return std::make_unique<BytesSource>(500, 64); });
  g.add_processor("proc", [armed, gate]() -> std::unique_ptr<StreamProcessor> {
    struct StallOnce : StreamProcessor {
      std::shared_ptr<std::atomic<bool>> armed;
      std::shared_ptr<test_util::Gate> gate;
      void process(StreamPacket& p, Emitter& out) override {
        if (armed->exchange(false)) gate->wait();
        StreamPacket copy = p;
        out.emit(std::move(copy));
      }
    };
    auto stall = std::make_unique<StallOnce>();
    stall->armed = armed;
    stall->gate = gate;
    return stall;
  });
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  });
  g.connect("src", "proc");
  g.connect("proc", "sink");

  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  fault::RecoveryOptions opt;
  opt.poll_interval_ns = 10'000'000;
  opt.watchdog.stall_timeout_ns = 200'000'000;
  fault::RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  const bool escalated = test_util::wait_until([&] { return coord.watchdog_stalls() >= 1; }, 60s);
  gate->open();
  ASSERT_TRUE(escalated) << "no stall escalated within 60 s";
  ASSERT_TRUE(coord.wait(60s));

  std::string stall_bundle;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    Journal j = Journal::from_bundle(entry.path().string());
    if (j.header.string_or("trigger", "") == "watchdog_stall") stall_bundle = entry.path();
  }
  ASSERT_FALSE(stall_bundle.empty()) << "watchdog escalation did not write a bundle";
  EXPECT_GE(reporter->bundles_written(), 2u);  // the stall's, then the recovery's
  Journal journal = Journal::from_bundle(stall_bundle);

  // The bundle's timeline contains the stall event, attributed to the
  // wedged operator instance by name.
  bool saw_stall = false;
  for (const JournalEvent& ev : journal.events) {
    if (ev.type == FlightEventType::kWatchdogStall &&
        journal.actor_name(ev.actor) == "proc[0]") {
      saw_stall = true;
      EXPECT_GE(ev.a, 200u) << "stalled-ms payload below the watchdog timeout";
    }
  }
  EXPECT_TRUE(saw_stall) << "no watchdog_stall event for proc[0] in the bundle";
  // Telemetry snapshot and topology rode along.
  EXPECT_TRUE(journal.telemetry.is_object());
  ASSERT_FALSE(journal.topologies.empty());
  remove_tree(dir);
}

}  // namespace
}  // namespace neptune
