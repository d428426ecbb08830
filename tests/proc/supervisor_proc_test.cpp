// Real-process resilience acceptance suite. Every test here fork/execs the
// actual `neptuned` binary (one OS process per resource, real TCP between
// them, real SIGKILL/SIGSTOP against real pids) through the
// ResourceSupervisor library, then holds the runs to the paper's
// correctness contract: sink digests byte-identical to the single-process
// golden run and zero sequence violations — *through* worker deaths, gray
// failures and full-deployment rollbacks.
//
// NEPTUNE_NEPTUNED_PATH and NEPTUNE_SCENARIO_DIR are injected by the build.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "proc/supervisor.hpp"
#include "scenarios/scenario.hpp"

namespace neptune::proc {
namespace {

namespace fs = std::filesystem;

std::string scenario_path(const std::string& name) {
  return std::string(NEPTUNE_SCENARIO_DIR) + "/" + name + ".json";
}

struct ProcTest : ::testing::Test {
  void SetUp() override {
    char tmpl[] = "/tmp/nep_proc_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    work_dir = dir;
  }
  void TearDown() override { fs::remove_all(work_dir); }

  SupervisorOptions base_options(const std::string& scenario) {
    SupervisorOptions opts;
    opts.neptuned_path = NEPTUNE_NEPTUNED_PATH;
    opts.scenario_path = scenario_path(scenario);
    opts.work_dir = work_dir;
    opts.timeout_ms = 120'000;
    return opts;
  }

  /// Every expected sink must report the golden digest — the digests in the
  /// scenario files were recorded from single-process fault-free runs, so
  /// equality here is the exactly-once proof for the multi-process path.
  void expect_golden(const SupervisorReport& report, const std::string& scenario) {
    scenarios::ScenarioSpec spec = scenarios::load_scenario(scenario_path(scenario));
    for (const auto& [id, want] : spec.expect) {
      auto it = report.sinks.find(id);
      ASSERT_NE(it, report.sinks.end()) << "sink " << id << " missing from report";
      EXPECT_EQ(it->second.digest, want.digest) << "sink " << id << " digest diverged";
      EXPECT_EQ(it->second.packets, want.packets) << "sink " << id;
    }
    EXPECT_EQ(report.seq_violations, 0u);
  }

  std::string work_dir;
};

TEST_F(ProcTest, CleanMultiProcessRunMatchesGolden) {
  SupervisorOptions opts = base_options("etl_taxi");
  opts.checkpoint_interval_ns = 30'000'000;  // the fault-free run lasts ~100 ms
  SupervisorReport report = ResourceSupervisor(std::move(opts)).run();
  ASSERT_TRUE(report.completed) << report.failure;
  expect_golden(report, "etl_taxi");
  EXPECT_EQ(report.recoveries, 0u);
  EXPECT_EQ(report.generations, 1u);
  EXPECT_GE(report.checkpoints, 1u) << "periodic coordinated checkpoints should have run";
}

TEST_F(ProcTest, SigkillTwoResourcesRecoversByteIdentical) {
  // The headline acceptance criterion: SIGKILL two different resources
  // mid-stream; the deployment must roll back to the last committed epoch
  // each time and still produce byte-identical golden output.
  SupervisorOptions opts = base_options("etl_taxi");
  opts.checkpoint_interval_ns = 30'000'000;
  opts.incident_dir = work_dir + "/incidents";
  opts.chaos = ChaosPlan::from_json(JsonValue::parse(R"({"actions": [
    {"action": "kill", "resource": 1, "at_events": 15000},
    {"action": "kill", "resource": 0, "at_events": 45000}
  ]})"),
                                    2);
  SupervisorReport report = ResourceSupervisor(std::move(opts)).run();

  ASSERT_TRUE(report.completed) << report.failure;
  EXPECT_EQ(report.chaos_fired, 2u);
  EXPECT_GE(report.worker_deaths, 2u);
  EXPECT_GE(report.recoveries, 2u);
  EXPECT_EQ(report.recovery_ms.size(), report.recoveries);
  EXPECT_GE(report.generations, 3u) << "each rollback bumps the deployment generation";
  expect_golden(report, "etl_taxi");

  // Every worker death leaves a forensic trail.
  size_t bundles = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(work_dir + "/incidents"))
    ++bundles;
  EXPECT_GE(bundles, 2u);
}

TEST_F(ProcTest, SigstopGrayFailureEscalatesWithinBudget) {
  // A SIGSTOPped worker keeps its pid alive — waitpid sees nothing. Only
  // heartbeat silence can catch it. Budget: detection is bounded by
  // heartbeat_timeout_ms, and the rollback itself must be quick.
  SupervisorOptions opts = base_options("etl_taxi");
  opts.checkpoint_interval_ns = 30'000'000;
  opts.heartbeat_timeout_ms = 400;
  opts.chaos = ChaosPlan::from_json(
      JsonValue::parse(
          R"({"actions": [{"action": "stop", "resource": 1, "at_events": 15000}]})"),
      2);
  SupervisorReport report = ResourceSupervisor(std::move(opts)).run();

  ASSERT_TRUE(report.completed) << report.failure;
  EXPECT_GE(report.gray_failures, 1u);
  EXPECT_GE(report.recoveries, 1u);
  ASSERT_FALSE(report.recovery_ms.empty());
  EXPECT_LT(report.recovery_ms.front(), 5000.0) << "detection -> rejoined budget";
  expect_golden(report, "etl_taxi");
}

TEST_F(ProcTest, SigcontResumedWorkerDeliversNoDuplicates) {
  // Gray window shorter than the heartbeat timeout: the worker freezes for
  // 150 ms and is SIGCONTed back *into the live deployment*. No rollback
  // may happen, and the kernel-buffered frames it flushes on resume must
  // not double-deliver (per-edge seq dedup + digest equality prove it).
  SupervisorOptions opts = base_options("etl_taxi");
  opts.checkpoint_interval_ns = 30'000'000;
  opts.heartbeat_timeout_ms = 10'000;
  opts.chaos = ChaosPlan::from_json(
      JsonValue::parse(
          R"({"actions": [{"action": "stop", "resource": 1, "at_events": 15000,
                           "duration_ms": 150}]})"),
      2);
  SupervisorReport report = ResourceSupervisor(std::move(opts)).run();

  ASSERT_TRUE(report.completed) << report.failure;
  EXPECT_EQ(report.gray_failures, 0u) << "a sub-timeout stall must not trigger rollback";
  EXPECT_EQ(report.recoveries, 0u);
  expect_golden(report, "etl_taxi");
}

TEST_F(ProcTest, RecoveryBudgetExhaustionFailsDeployment) {
  // max_recoveries = 0: the first kill must fail the deployment cleanly
  // (reported failure, not a hang or a partial digest).
  SupervisorOptions opts = base_options("etl_taxi");
  opts.max_recoveries = 0;
  opts.chaos = ChaosPlan::from_json(
      JsonValue::parse(R"({"actions": [{"action": "kill", "resource": 0, "at_events": 15000}]})"),
      2);
  SupervisorReport report = ResourceSupervisor(std::move(opts)).run();
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.failure.empty());
  EXPECT_GE(report.worker_deaths, 1u);
}

TEST_F(ProcTest, ResourcesOfReadsExplicitPins) {
  EXPECT_EQ(ResourceSupervisor::resources_of(scenario_path("etl_taxi")), 2u);
  EXPECT_EQ(ResourceSupervisor::resources_of(scenario_path("stats_grid")), 2u);
}

// Nightly chaos matrix: every golden scenario under the same two-kill plan.
// PR runs skip it (no env); the nightly ctest entry sets
// NEPTUNE_CHAOS_SCENARIOS=etl_taxi,stats_grid,pred_air.
TEST_F(ProcTest, ChaosMatrixAllScenarios) {
  const char* env = ::getenv("NEPTUNE_CHAOS_SCENARIOS");
  if (env == nullptr || *env == '\0')
    GTEST_SKIP() << "set NEPTUNE_CHAOS_SCENARIOS=etl_taxi,stats_grid,... to run";
  std::string list = env;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string scenario = list.substr(pos, comma - pos);
    pos = comma + 1;

    fs::path dir = fs::path(work_dir) / scenario;
    fs::create_directories(dir);
    SupervisorOptions opts = base_options(scenario);
    opts.work_dir = dir.string();
    opts.checkpoint_interval_ns = 30'000'000;
    opts.chaos = ChaosPlan::from_json(JsonValue::parse(R"({"actions": [
      {"action": "kill", "resource": 1, "at_events": 15000},
      {"action": "kill", "resource": 0, "at_events": 45000}
    ]})"),
                                      2);
    SupervisorReport report = ResourceSupervisor(std::move(opts)).run();
    ASSERT_TRUE(report.completed) << scenario << ": " << report.failure;
    EXPECT_GE(report.recoveries, 1u) << scenario;
    expect_golden(report, scenario);
  }
}

}  // namespace
}  // namespace neptune::proc
