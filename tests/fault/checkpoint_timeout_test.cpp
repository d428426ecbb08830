// A checkpoint epoch whose barriers cannot get through the pipeline within
// the checkpoint timeout (wedged operator, runaway backlog) must not be
// skipped silently: the coordinator counts the abandoned epoch, bumps
// neptune_checkpoint_quiesce_timeouts and drops an incident bundle. This
// test wedges a pipeline on purpose and asserts all three signals fire.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "../support/poll.hpp"
#include "fault/recovery.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/incident.hpp"
#include "obs/telemetry.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using fault::RecoveryCoordinator;
using fault::RecoveryOptions;
using workload::BytesSource;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/nep_ckpt_timeout_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "/tmp";
}

std::vector<std::string> dir_entries(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    out.push_back(e->d_name);
  }
  ::closedir(d);
  return out;
}

void remove_tree(const std::string& dir) {
  for (const std::string& name : dir_entries(dir)) std::remove((dir + "/" + name).c_str());
  ::rmdir(dir.c_str());
}

/// A sink that cannot keep up while wedged: every packet costs 20 ms, so
/// with an unbounded source a barrier queues behind a backlog the sink
/// needs far longer than the timeout to work through. Released (sped up)
/// at the end of the test so the backlog drains and teardown stays fast.
std::atomic<bool> g_wedged{true};

class WedgedSink : public StreamProcessor {
 public:
  void process(StreamPacket&, Emitter&) override {
    if (g_wedged.load(std::memory_order_relaxed)) std::this_thread::sleep_for(20ms);
  }
};

TEST(CheckpointTimeout, AbandonedEpochIsCountedAndReported) {
  std::string incident_dir = make_temp_dir();
  auto reporter = obs::IncidentReporter::configure_global(
      {.dir = incident_dir, .min_interval_ns = 0, .install_crash_handler = false});

  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  StreamGraph g("wedged");
  g.add_source("src", [] { return std::make_unique<BytesSource>(/*unbounded*/ 0, 32); }, 1, 0);
  g.add_processor("sink", [] { return std::make_unique<WedgedSink>(); }, 1, 0);
  g.connect("src", "sink");

  RecoveryOptions opts;
  opts.checkpoint_interval_ns = int64_t(1) << 60;  // manual checkpoints only
  opts.checkpoint_timeout = 100ms;
  RecoveryCoordinator coordinator(rt, std::move(g), opts);
  auto job = coordinator.start();
  ASSERT_NE(job, nullptr);

  g_wedged.store(true, std::memory_order_relaxed);
  // Let the pipeline wedge itself: a backlog of 1000 packets is 20 s of
  // work for the 50 pkt/s sink, and the barrier queues behind all of it.
  ASSERT_TRUE(test_util::wait_until(
      [&] {
        JobMetricsSnapshot m = job->metrics();
        return m.total("sink", &OperatorMetricsSnapshot::packets_in) >= 1 &&
               m.total("src", &OperatorMetricsSnapshot::packets_out) >= 1000;
      },
      60s));

  EXPECT_FALSE(coordinator.checkpoint_now());
  EXPECT_EQ(coordinator.quiesce_timeouts(), 1u);
  EXPECT_EQ(coordinator.checkpoints_taken(), 0u);

  // The incident bundle names the trigger so an operator grepping the
  // incident directory can tell "barrier stuck" from a crash.
  ASSERT_GE(reporter->bundles_written(), 1u);
  bool found = false;
  for (const std::string& name : dir_entries(incident_dir)) {
    std::ifstream in(incident_dir + "/" + name);
    std::string body((std::istreambuf_iterator<char>(in)), {});
    if (body.find("checkpoint-timeout") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "no incident bundle mentions checkpoint-timeout";

  // Telemetry: the abandoned epoch is visible as a counter series.
  std::string prom = obs::TelemetryRegistry::global().render_prometheus();
  EXPECT_NE(prom.find("neptune_checkpoint_quiesce_timeouts"), std::string::npos);

  g_wedged.store(false, std::memory_order_relaxed);  // let the backlog drain
  coordinator.stop();
  remove_tree(incident_dir);
}

}  // namespace
}  // namespace neptune
