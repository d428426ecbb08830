// The multi-process deployment, measured in traced iot_mix_tcp runs:
// stats_grid deployed by an in-process ResourceSupervisor that runs one
// `neptuned` per resource, closed loop, with the supervisor's default
// checkpoints (pause -> global drain -> save -> commit -> resume). It
// measures the proc layer (supervisor, control plane, cross-process
// slices, global drain) from outside: RUSAGE_SELF for the supervisor,
// RUSAGE_CHILDREN for the reaped workers, and the supervisor's report.
// Workers report their sinks only when they finish, so the supervisor
// sees neither a deploy's first sink packet nor any packet's latency, and
// this is not a workload of its own.
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "proc/supervisor.hpp"
#include "scenarios/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sc = neptune::scenarios;

namespace {

/// Trace events the deployment processes: a few seconds of closed-loop
/// work on a 4-vCPU host.
constexpr uint64_t kEvents = 1'000'000;

int64_t cpu_ns(const rusage& ru) {
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000'000LL +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1000LL;
}

}  // namespace

void run_mp_grid(const Options& opt, RunResult& r) {
  const std::string label = "iot_mix_tcp/mp_grid";
  namespace fs = std::filesystem;
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);

  // The golden stats_grid file with the trace seeded from --seed: workers
  // read the scenario from a file.
  std::ifstream in(std::string(PERFBENCH_SCENARIO_DIR) + "/stats_grid.json");
  std::stringstream text;
  text << in.rdbuf();
  neptune::JsonValue doc = neptune::JsonValue::parse(text.str());
  doc.as_object().at("trace").as_object()["seed"] =
      neptune::JsonValue(static_cast<int64_t>(opt.seed * 1000003 + 2));
  const std::string scenario = opt.work_dir + "/stats_grid.json";
  std::ofstream(scenario) << doc.dump(2);

  neptune::proc::SupervisorOptions so;
  so.neptuned_path = PERFBENCH_NEPTUNED;
  so.scenario_path = scenario;
  so.events_override = kEvents;
  so.work_dir = opt.work_dir + "/deploy";
  so.timeout_ms = 60'000;
  rusage self0{}, children0{}, self1{}, children1{};
  getrusage(RUSAGE_SELF, &self0);
  getrusage(RUSAGE_CHILDREN, &children0);
  neptune::proc::ResourceSupervisor supervisor(so);
  neptune::proc::SupervisorReport report = supervisor.run();
  getrusage(RUSAGE_SELF, &self1);
  getrusage(RUSAGE_CHILDREN, &children1);

  // Expected sink outputs from the single-threaded reference.
  sc::ScenarioSpec spec = sc::load_scenario(scenario);
  spec.trace.events = kEvents;
  sc::ScenarioContext ctx;
  neptune::StreamGraph graph = sc::build_scenario_graph(spec, spec.trace, ctx, false);
  auto trace = std::make_shared<sc::TraceGenerator>(spec.trace);
  ReferenceResult ref = run_reference(
      graph,
      [trace](StreamPacket& p, int64_t& off) {
        off = 0;
        return trace->next(p);
      },
      kEvents);

  if (!report.completed) r.fail(label + ": deployment failed: " + report.failure);
  if (report.recoveries != 0) r.fail(label + ": unexpected recovery");
  if (report.seq_violations != 0)
    r.fail(label + ": " + std::to_string(report.seq_violations) + " sequence violations");
  uint64_t delivered = 0;
  for (const auto& [id, want] : ref.sinks) {
    auto it = report.sinks.find(id);
    uint64_t got = it == report.sinks.end() ? 0 : it->second.packets;
    delivered += got;
    r.expected += want.first;
    r.untraced_packets += want.first;
    r.failed += failed_packets(want.first, got, 0);
    if (it == report.sinks.end() || it->second.digest != want.second) {
      r.fail(label + "/" + id + ": digest " +
             (it == report.sinks.end() ? std::string("(none)") : it->second.digest) +
             " != reference " + want.second);
      if (got == want.first) ++r.failed;  // same count, wrong content
    }
  }
  r.failed += report.quiesce_timeouts;  // a quiesce timeout is a failed checkpoint

  ProcLayer& p = r.proc;
  p.packets += delivered;
  p.supervisor_cpu_ns += cpu_ns(self1) - cpu_ns(self0);
  p.workers_cpu_ns += cpu_ns(children1) - cpu_ns(children0);
  p.worker_peak_rss_mb = std::max(p.worker_peak_rss_mb, children1.ru_maxrss / 1024.0);
  p.checkpoints += report.checkpoints;
  p.quiesce_timeouts += report.quiesce_timeouts;
  fs::remove_all(opt.work_dir);
}

}  // namespace perfbench
