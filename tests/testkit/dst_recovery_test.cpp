// Crash/recovery under DST: periodic barrier checkpoints (sources inject
// barrier(epoch), every instance snapshots at alignment, the epoch commits
// through the real JobSnapshot wire format) and whole-job crashes at chosen
// virtual times or steps. After every crash the job redeploys, restores the
// last committed epoch and must converge to exactly the fault-free final
// state — sources neither lose nor replay packets into downstream state.
#include "testkit/dst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "testkit/invariants.hpp"
#include "testkit/workloads.hpp"

namespace neptune::testkit {
namespace {

constexpr uint64_t kTotal = 6000;

/// src(2) --fields-hash--> relay(2) --shuffle--> sink(1), pinned to
/// resources 0, 1 and 2, so DstJob's EpochController has three parts and
/// an epoch commits only once all three acked it. The fields-hash link
/// keeps per-instance relay state deterministic across recovery (a shuffle
/// cursor would resume mid-rotation after redeploy, which is the real
/// runtime's resubmit behaviour but makes per-instance counts diverge from
/// the reference run).
StreamGraph recovery_graph(std::shared_ptr<Collected> bin) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 512;
  cfg.buffer.flush_interval_ns = 500'000;
  cfg.source_batch_budget = 32;
  StreamGraph g("dst-recovery", cfg);
  g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal, /*payload_bytes=*/16); },
               2, 0);
  g.add_processor("relay", [] { return std::make_unique<EveryNthProcessor>(1); }, 2, 1);
  g.add_processor("sink", [bin] { return std::make_unique<CollectorSink>(bin); }, 1, 2);
  g.connect("src", "relay", std::make_shared<FieldsHashPartitioning>(0));
  g.connect("relay", "sink");
  return g;
}

JobSnapshot reference_state(uint64_t seed) {
  DstOptions opts;
  opts.seed = seed;
  DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
  DstReport r = job.run();
  EXPECT_TRUE(r.completed) << r.summary();
  return job.state_snapshot();
}

/// Steps at which checkpoints 1..`epochs` began and committed in a
/// crash-free run (0 when the trace has no such line), and the run's total
/// steps.
std::tuple<std::vector<uint64_t>, std::vector<uint64_t>, uint64_t> epoch_steps(
    uint64_t seed, int64_t interval_ns, uint64_t epochs) {
  DstOptions opts;
  opts.seed = seed;
  opts.checkpoint_interval_ns = interval_ns;
  DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
  DstReport r = job.run();
  EXPECT_TRUE(r.ok()) << r.summary();
  auto step_of = [&](const std::string& what, uint64_t epoch) -> uint64_t {
    const std::string key = "checkpoint " + what + " epoch=" + std::to_string(epoch) + " step=";
    for (const std::string& line : r.trace) {
      size_t at = line.find(key);
      if (at != std::string::npos) return std::stoull(line.substr(at + key.size()));
    }
    return 0;
  };
  std::vector<uint64_t> begins, commits;
  for (uint64_t e = 1; e <= epochs; ++e) {
    begins.push_back(step_of("begin", e));
    commits.push_back(step_of("committed", e));
    const std::string ack = "checkpoint acked epoch=" + std::to_string(e) + " part=";
    EXPECT_EQ(std::count_if(r.trace.begin(), r.trace.end(),
                            [&](const std::string& l) { return l.find(ack) != std::string::npos; }),
              3)
        << "epoch " << e << " should commit on one ack per resource pin";
  }
  return {begins, commits, r.steps};
}

TEST(DstRecovery, PeriodicBarrierCheckpointsCommit) {
  DstOptions opts;
  opts.seed = 21;
  opts.checkpoint_interval_ns = 300'000;
  DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
  DstReport r = job.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_GE(r.checkpoints, 1u);
  EXPECT_EQ(r.recoveries, 0u);
}

TEST(DstRecovery, CrashesAtManyVirtualTimesConvergeToExactlyOnceState) {
  const uint64_t seed = 21;
  JobSnapshot expected = reference_state(seed);
  uint64_t crashes_landed_mid_run = 0;
  for (int64_t crash_ns : {200'000, 500'000, 900'000, 1'400'000, 2'000'000}) {
    DstOptions opts;
    opts.seed = seed;
    opts.checkpoint_interval_ns = 400'000;
    DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
    job.add_checker(make_exactly_once_checker(expected));
    job.add_checker(make_sequence_checker());
    job.add_checker(make_backpressure_checker());
    job.schedule_crash(crash_ns);
    DstReport r = job.run();
    EXPECT_TRUE(r.ok()) << "crash at " << crash_ns << ":\n" << r.summary();
    if (r.recoveries > 0) ++crashes_landed_mid_run;
  }
  // At least some of the chosen times must hit a live job (deterministic,
  // so this is a guard against all crashes landing after completion).
  EXPECT_GE(crashes_landed_mid_run, 2u);
}

TEST(DstRecovery, CrashAtEveryStepOfABarrierEpochConverges) {
  // Three epochs over the graph's three parts: crash after each step from
  // epoch 1's Begin to epoch 3's Commit. Before epoch 1 commits the job
  // replays from scratch; from then on it rolls back to the last committed
  // epoch. Either way it must reach exactly the crash-free final state.
  const uint64_t seed = 21;
  const int64_t interval_ns = 300'000;
  JobSnapshot expected = reference_state(seed);
  auto [begins, commits, steps] = epoch_steps(seed, interval_ns, 3);
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_GT(begins[e], 0u) << "epoch " << e + 1;
    ASSERT_GT(commits[e], begins[e] + 4) << "the barriers should take several steps to travel";
  }
  ASSERT_LT(commits[2], steps) << "the third epoch must commit before the job ends";
  for (uint64_t step = begins[0]; step <= commits[2]; ++step) {
    DstOptions opts;
    opts.seed = seed;
    opts.checkpoint_interval_ns = interval_ns;
    DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
    job.add_checker(make_exactly_once_checker(expected));
    job.add_checker(make_sequence_checker());
    job.schedule_crash_after_step(step);
    DstReport r = job.run();
    ASSERT_TRUE(r.ok()) << "crash after step " << step << ":\n" << r.summary();
    ASSERT_EQ(r.recoveries, 1u) << "crash after step " << step;
    const std::string rollback = step < commits[0] ? " from scratch" : " from checkpoint";
    bool found = false;
    for (const std::string& line : r.trace)
      found |= line.find("recovered epoch=1" + rollback) != std::string::npos;
    EXPECT_TRUE(found) << "crash after step " << step << " should recover" << rollback;
  }
}

TEST(DstRecovery, CrashBeforeFirstCheckpointReplaysFromScratch) {
  const uint64_t seed = 33;
  JobSnapshot expected = reference_state(seed);
  DstOptions opts;
  opts.seed = seed;
  opts.checkpoint_interval_ns = 50'000'000;  // far beyond the crash
  DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
  job.add_checker(make_exactly_once_checker(expected));
  job.schedule_crash(150'000);
  DstReport r = job.run();
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_EQ(r.checkpoints, 0u);
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(DstRecovery, CrashRecoveryIsDeterministicToo) {
  auto run_once = [] {
    DstOptions opts;
    opts.seed = 77;
    opts.checkpoint_interval_ns = 400'000;
    DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
    job.schedule_crash(600'000);
    return job.run();
  };
  DstReport a = run_once();
  DstReport b = run_once();
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(DstRecovery, DoubleCrashStillConverges) {
  const uint64_t seed = 55;
  JobSnapshot expected = reference_state(seed);
  DstOptions opts;
  opts.seed = seed;
  opts.checkpoint_interval_ns = 300'000;
  DstJob job(recovery_graph(std::make_shared<Collected>()), opts);
  job.add_checker(make_exactly_once_checker(expected));
  job.schedule_crash(400'000);
  job.schedule_crash(1'100'000);
  DstReport r = job.run();
  EXPECT_TRUE(r.ok()) << r.summary();
}

}  // namespace
}  // namespace neptune::testkit
