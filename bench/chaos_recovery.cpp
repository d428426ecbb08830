// Chaos-recovery bench: real multi-process deployments (one OS process per
// resource, exec'd from the neptuned binary) measured fault-free and under
// a seeded two-SIGKILL chaos plan. Reports the two headline numbers of the
// process-resilience tentpole:
//
//   * recovery latency — fault detection to every worker re-joined, per
//     rollback (mean/max over the chaos runs);
//   * throughput dip — how much of the fault-free event rate the chaos run
//     loses to rollbacks and replay.
//
// Every run is held to the golden contract: byte-identical sink digests
// and zero sequence violations, so the numbers can't be bought with
// correctness. BENCH_chaos_recovery.json lands in $NEPTUNE_BENCH_OUT.
//
// Usage: chaos_recovery [--short] [--scenario NAME] [--runs N]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "proc/supervisor.hpp"
#include "scenarios/scenario.hpp"

using namespace neptune;
using namespace neptune::bench;

namespace {

std::string scenario_path(const std::string& name) {
  return std::string(NEPTUNE_SCENARIO_DIR) + "/" + name + ".json";
}

proc::ChaosPlan two_kill_plan() {
  return proc::ChaosPlan::from_json(JsonValue::parse(R"({"seed": 7, "actions": [
    {"action": "kill", "resource": 1, "at_events": 15000},
    {"action": "kill", "resource": 0, "at_events": 45000}
  ]})"),
                                    2);
}

struct RunResult {
  proc::SupervisorReport report;
  double events_per_s = 0;
};

RunResult run_once(const std::string& scenario, uint64_t trace_events, bool chaos,
                   const std::string& work_dir) {
  std::filesystem::remove_all(work_dir);
  proc::SupervisorOptions opts;
  opts.neptuned_path = NEPTUNE_NEPTUNED_PATH;
  opts.scenario_path = scenario_path(scenario);
  opts.work_dir = work_dir;
  opts.checkpoint_interval_ns = 30'000'000;
  if (chaos) opts.chaos = two_kill_plan();
  RunResult r;
  r.report = proc::ResourceSupervisor(std::move(opts)).run();
  if (r.report.seconds > 0) r.events_per_s = double(trace_events) / r.report.seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "etl_taxi";
  int runs = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) runs = 2;
    else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) scenario = argv[++i];
    else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) runs = std::atoi(argv[++i]);
  }

  scenarios::ScenarioSpec spec = scenarios::load_scenario(scenario_path(scenario));
  const uint64_t trace_events = spec.trace.events;
  const std::string work_dir = "/tmp/nep_chaos_bench_" + std::to_string(::getpid());

  BenchReport report("chaos_recovery");
  report.set("scenario", scenario);
  report.set("trace_events", trace_events);
  report.set("runs", int64_t(runs));

  std::printf("chaos_recovery: %s, %d fault-free + %d chaos runs\n", scenario.c_str(), runs,
              runs);
  std::printf("%-12s %-10s %-12s %-11s %-12s %s\n", "mode", "run", "seconds", "events/s",
              "recoveries", "recovery_ms");

  // Fault-free baseline: best-of-N (the honest denominator for the dip —
  // scheduler noise only ever slows a run down).
  double baseline_eps = 0;
  for (int i = 0; i < runs; ++i) {
    RunResult r = run_once(scenario, trace_events, /*chaos=*/false, work_dir);
    if (!r.report.completed) {
      std::fprintf(stderr, "fault-free run failed: %s\n", r.report.failure.c_str());
      return 1;
    }
    baseline_eps = std::max(baseline_eps, r.events_per_s);
    std::printf("%-12s %-10d %-12.3f %-11.0f %-12llu -\n", "fault-free", i, r.report.seconds,
                r.events_per_s, (unsigned long long)r.report.recoveries);
    JsonObject row;
    row["mode"] = JsonValue(std::string("fault_free"));
    row["seconds"] = JsonValue(r.report.seconds);
    row["events_per_s"] = JsonValue(r.events_per_s);
    report.add_row(std::move(row));
  }

  // Chaos runs: every one must survive both SIGKILLs with golden digests.
  std::vector<double> all_recovery_ms;
  double chaos_eps_sum = 0;
  uint64_t checkpoints = 0;
  for (int i = 0; i < runs; ++i) {
    RunResult r = run_once(scenario, trace_events, /*chaos=*/true, work_dir);
    if (!r.report.completed || r.report.seq_violations != 0) {
      std::fprintf(stderr, "chaos run failed: %s (%llu seq violations)\n",
                   r.report.failure.c_str(), (unsigned long long)r.report.seq_violations);
      return 1;
    }
    for (const auto& [id, want] : spec.expect) {
      auto it = r.report.sinks.find(id);
      if (it == r.report.sinks.end() || it->second.digest != want.digest) {
        std::fprintf(stderr, "chaos run diverged on sink '%s'\n", id.c_str());
        return 1;
      }
    }
    chaos_eps_sum += r.events_per_s;
    checkpoints += r.report.checkpoints;
    all_recovery_ms.insert(all_recovery_ms.end(), r.report.recovery_ms.begin(),
                           r.report.recovery_ms.end());
    std::string recs;
    for (double ms : r.report.recovery_ms)
      recs += (recs.empty() ? "" : ",") + std::to_string(int64_t(ms));
    std::printf("%-12s %-10d %-12.3f %-11.0f %-12llu %s\n", "chaos", i, r.report.seconds,
                r.events_per_s, (unsigned long long)r.report.recoveries, recs.c_str());
    JsonObject row;
    row["mode"] = JsonValue(std::string("chaos"));
    row["seconds"] = JsonValue(r.report.seconds);
    row["events_per_s"] = JsonValue(r.events_per_s);
    row["recoveries"] = JsonValue(int64_t(r.report.recoveries));
    JsonArray rec;
    for (double ms : r.report.recovery_ms) rec.push_back(JsonValue(ms));
    row["recovery_ms"] = JsonValue(std::move(rec));
    report.add_row(std::move(row));
  }
  std::filesystem::remove_all(work_dir);

  double mean_recovery = 0, max_recovery = 0;
  for (double ms : all_recovery_ms) {
    mean_recovery += ms;
    max_recovery = std::max(max_recovery, ms);
  }
  if (!all_recovery_ms.empty()) mean_recovery /= double(all_recovery_ms.size());
  const double chaos_eps = chaos_eps_sum / runs;
  const double dip_pct = baseline_eps > 0 ? 100.0 * (1.0 - chaos_eps / baseline_eps) : 0;

  report.set("baseline_events_per_s", baseline_eps);
  report.set("chaos_events_per_s", chaos_eps);
  report.set("throughput_dip_pct", dip_pct);
  report.set("recovery_latency_ms_mean", mean_recovery);
  report.set("recovery_latency_ms_max", max_recovery);
  report.set("recoveries_total", uint64_t(all_recovery_ms.size()));
  report.set("checkpoints_total", checkpoints);

  std::printf("\nbaseline %.0f ev/s, chaos %.0f ev/s -> dip %.1f%%\n", baseline_eps, chaos_eps,
              dip_pct);
  std::printf("recovery latency: mean %.1f ms, max %.1f ms over %zu rollbacks\n", mean_recovery,
              max_recovery, all_recovery_ms.size());
  if (!report.write()) return 1;
  std::printf("wrote %s\n", report.path().c_str());
  return 0;
}
