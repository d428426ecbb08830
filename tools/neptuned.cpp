// neptuned — the NEPTUNE multi-process deployment daemon.
//
// Two modes, one binary (so the supervisor can exec itself for workers):
//
//   neptuned --supervise --scenario S [--work-dir D] [--chaos plan.json] ...
//     Parent: plans the deployment, spawns one worker per resource,
//     supervises (heartbeats, checkpoints, chaos, recovery), prints a
//     summary and exits 0 iff the run completed with matching digests.
//
//   neptuned --worker --scenario S --resource K --resources N ...
//     Child: deploys resource K's slice and serves the control protocol on
//     fd 3. Spawned by --supervise; runnable by hand for debugging.
#include <limits.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "proc/chaos.hpp"
#include "proc/supervisor.hpp"
#include "proc/worker.hpp"
#include "scenarios/scenario.hpp"

using namespace neptune;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: neptuned --supervise --scenario FILE [options]\n"
               "       neptuned --worker --scenario FILE --resource K --resources N [options]\n"
               "\n"
               "supervise options:\n"
               "  --work-dir DIR        manifest + snapshots (default /tmp/neptuned-<pid>)\n"
               "  --events N            override the trace's event count\n"
               "  --chaos FILE          JSON chaos plan to execute against the workers\n"
               "  --checkpoint-ms N     coordinated checkpoint cadence (default 200)\n"
               "  --timeout-ms N        deployment wall-clock budget (default 120000)\n"
               "  --incident-dir DIR    write incident bundles here\n"
               "  --report FILE         write the JSON report here\n"
               "  --threads N           worker threads per process\n"
               "  --verbose             narrate chaos + recovery\n"
               "\n"
               "worker options (normally passed by --supervise):\n"
               "  --ports P1,P2,...     cross-edge ports in plan order\n"
               "  --snapshot-dir DIR    epoch-tagged snapshots\n"
               "  --restore-epoch E     restore this epoch before starting\n"
               "  --generation G        deployment generation\n"
               "  --heartbeat-ms N      control heartbeat cadence\n"
               "  --partition AT:DUR    sender-stall window (ms), repeatable\n");
}

std::string self_path(const char* argv0) {
  char buf[PATH_MAX];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

std::vector<uint16_t> parse_ports(const std::string& s) {
  std::vector<uint16_t> ports;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    ports.push_back(static_cast<uint16_t>(std::stoul(s.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return ports;
}

int run_supervise(proc::SupervisorOptions opts, const std::string& chaos_path,
                  const std::string& report_path) {
  if (opts.work_dir.empty())
    opts.work_dir = "/tmp/neptuned-" + std::to_string(::getpid());
  size_t total = proc::ResourceSupervisor::resources_of(opts.scenario_path);
  if (!chaos_path.empty()) opts.chaos = proc::ChaosPlan::load(chaos_path, total);

  proc::ResourceSupervisor supervisor(opts);
  proc::SupervisorReport report = supervisor.run();

  JsonObject doc;
  doc["completed"] = JsonValue(report.completed);
  doc["failure"] = JsonValue(report.failure);
  doc["checkpoints"] = JsonValue(static_cast<int64_t>(report.checkpoints));
  doc["recoveries"] = JsonValue(static_cast<int64_t>(report.recoveries));
  doc["worker_deaths"] = JsonValue(static_cast<int64_t>(report.worker_deaths));
  doc["gray_failures"] = JsonValue(static_cast<int64_t>(report.gray_failures));
  doc["chaos_fired"] = JsonValue(static_cast<int64_t>(report.chaos_fired));
  doc["seq_violations"] = JsonValue(static_cast<int64_t>(report.seq_violations));
  doc["seconds"] = JsonValue(report.seconds);
  JsonArray rec;
  for (double ms : report.recovery_ms) rec.push_back(JsonValue(ms));
  doc["recovery_ms"] = JsonValue(std::move(rec));
  JsonObject sinks;
  for (const auto& [id, s] : report.sinks) {
    JsonObject o;
    o["packets"] = JsonValue(static_cast<int64_t>(s.packets));
    o["digest"] = JsonValue(s.digest);
    sinks[id] = JsonValue(std::move(o));
  }
  doc["sinks"] = JsonValue(std::move(sinks));
  std::string body = JsonValue(std::move(doc)).dump(2);
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << body << "\n";
  }
  std::printf("%s\n", body.c_str());

  if (!report.completed) {
    std::fprintf(stderr, "neptuned: deployment failed: %s\n", report.failure.c_str());
    return 1;
  }
  // Digest verification against the scenario's golden expectations — only
  // meaningful at the spec's full event count.
  if (opts.events_override == 0) {
    scenarios::ScenarioSpec spec = scenarios::load_scenario(opts.scenario_path);
    for (const auto& [id, want] : spec.expect) {
      auto it = report.sinks.find(id);
      if (it == report.sinks.end()) {
        std::fprintf(stderr, "neptuned: sink '%s' missing from report\n", id.c_str());
        return 1;
      }
      if (!want.digest.empty() && it->second.digest != want.digest) {
        std::fprintf(stderr, "neptuned: sink '%s' digest %s != expected %s\n", id.c_str(),
                     it->second.digest.c_str(), want.digest.c_str());
        return 1;
      }
    }
  }
  if (report.seq_violations != 0) {
    std::fprintf(stderr, "neptuned: %llu sequence violations\n",
                 static_cast<unsigned long long>(report.seq_violations));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false, supervise = false, verbose = false;
  proc::WorkerOptions wopts;
  proc::SupervisorOptions sopts;
  std::string scenario, chaos_path, report_path;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "neptuned: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--worker") {
      worker = true;
    } else if (a == "--supervise") {
      supervise = true;
    } else if (a == "--scenario") {
      scenario = next();
    } else if (a == "--resource") {
      wopts.resource = std::stoul(next());
    } else if (a == "--resources") {
      wopts.total_resources = std::stoul(next());
    } else if (a == "--ports") {
      wopts.ports = parse_ports(next());
    } else if (a == "--snapshot-dir") {
      wopts.snapshot_dir = next();
    } else if (a == "--restore-epoch") {
      wopts.restore_epoch = std::stoll(next());
    } else if (a == "--generation") {
      wopts.generation = std::stoull(next());
    } else if (a == "--heartbeat-ms") {
      wopts.heartbeat_interval_ms = std::stoll(next());
      sopts.worker_heartbeat_ms = wopts.heartbeat_interval_ms;
    } else if (a == "--partition") {
      std::string spec = next();
      size_t colon = spec.find(':');
      proc::WorkerOptions::Partition p;
      p.at_ms = std::stoll(spec.substr(0, colon));
      if (colon != std::string::npos) p.duration_ms = std::stoll(spec.substr(colon + 1));
      wopts.partitions.push_back(p);
    } else if (a == "--events") {
      wopts.events_override = std::stoull(next());
      sopts.events_override = wopts.events_override;
    } else if (a == "--threads") {
      wopts.worker_threads = std::stoul(next());
      sopts.worker_threads = wopts.worker_threads;
    } else if (a == "--work-dir") {
      sopts.work_dir = next();
    } else if (a == "--chaos") {
      chaos_path = next();
    } else if (a == "--checkpoint-ms") {
      sopts.checkpoint_interval_ns = std::stoll(next()) * 1'000'000;
    } else if (a == "--timeout-ms") {
      sopts.timeout_ms = std::stoll(next());
    } else if (a == "--incident-dir") {
      sopts.incident_dir = next();
    } else if (a == "--report") {
      report_path = next();
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "neptuned: unknown option %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (worker == supervise || scenario.empty()) {
    usage();
    return 2;
  }

  try {
    if (worker) {
      wopts.scenario_path = scenario;
      return proc::run_worker(wopts);
    }
    sopts.scenario_path = scenario;
    sopts.neptuned_path = self_path(argv[0]);
    sopts.verbose = verbose;
    return run_supervise(std::move(sopts), chaos_path, report_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neptuned: %s\n", e.what());
    return 1;
  }
}
