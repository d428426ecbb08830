#include "proc/supervisor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/incident.hpp"
#include "proc/control.hpp"
#include "proc/slice.hpp"
#include "proc/worker.hpp"
#include "scenarios/scenario.hpp"

namespace neptune::proc {

namespace {

using fault::EpochAction;

/// Restart backoff base: the n-th rollback respawns after 50 ms << (n-1).
constexpr int64_t kRestartBackoffNs = 50'000'000;

// One-shot free-port probe: bind an ephemeral port, record it, close. The
// close-to-reuse window is racy in principle, but a lost race just makes
// the worker's bind fail, which it reports as a death — and the recovery
// path re-probes fresh ports, so the deployment self-heals.
uint16_t alloc_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

void ensure_dir(const std::string& path) {
  ::mkdir(path.c_str(), 0755);  // EEXIST is fine; worker surfaces real failures
}

std::string exit_description(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    int sig = WTERMSIG(status);
    return std::string("signal ") + std::to_string(sig) + " (" + strsignal(sig) + ")";
  }
  return "status " + std::to_string(status);
}

}  // namespace

struct ResourceSupervisor::Impl {
  explicit Impl(SupervisorOptions o) : opts(std::move(o)) {}

  struct WorkerState {
    size_t resource = 0;
    pid_t pid = -1;
    std::unique_ptr<ControlChannel> ctl;
    bool hello = false;
    bool completed = false;
    bool failed = false;
    std::string fail_reason;
    int64_t last_msg_ms = 0;
    uint64_t in = 0, seq = 0;
    bool held = false;  ///< chaos killed or stopped it; not yet seen dead or resumed
    std::map<std::string, SupervisorSink> sinks;
  };

  SupervisorOptions opts;
  SupervisorReport report;
  size_t total = 0;
  SlicePlan plan;
  std::vector<WorkerState> workers;
  std::unique_ptr<ChaosController> chaos;
  /// Partition actions resolved into per-resource worker args at spawn.
  std::map<size_t, std::vector<WorkerOptions::Partition>> partitions;
  uint64_t generation = 0;
  /// One part per worker; built once the resource count is known.
  std::optional<fault::EpochController> epochs;
  /// Set between a rollback and the respawn it waits for (the backoff).
  std::optional<EpochAction> restart;
  int64_t recovery_detect_ms = -1;  ///< >=0: waiting for all hellos to close a recovery
  struct PendingCont {
    size_t resource;
    uint64_t generation;
    int64_t fire_at_ms;
  };
  std::vector<PendingCont> pending_conts;
  std::vector<obs::TelemetryRegistry::Handle> telemetry;

  std::string manifest_path() const { return opts.work_dir + "/MANIFEST.json"; }
  std::string snapshot_dir_of(size_t r) const { return opts.work_dir + "/r" + std::to_string(r); }

  void register_telemetry() {
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    auto counter = [&](const char* name, const char* help, const uint64_t* value) {
      telemetry.push_back(reg.register_series(
          {name, {{"scenario", opts.scenario_path}}, obs::SeriesKind::kCounter, help},
          [value] { return static_cast<double>(*value); }));
    };
    counter("neptune_supervisor_recoveries_total",
            "Full-deployment rollbacks executed by the resource supervisor",
            &report.recoveries);
    counter("neptune_supervisor_worker_deaths_total",
            "Worker processes observed dead via waitpid", &report.worker_deaths);
    counter("neptune_supervisor_gray_failures_total",
            "Workers declared dead on heartbeat silence (process still had a pid)",
            &report.gray_failures);
    counter("neptune_supervisor_checkpoints_total",
            "Coordinated epochs committed to the manifest", &report.checkpoints);
    counter("neptune_supervisor_quiesce_timeouts_total",
            "Coordinated checkpoint epochs abandoned past the checkpoint timeout",
            &report.quiesce_timeouts);
  }

  bool write_manifest(uint64_t epoch) {
    std::string tmp = manifest_path() + ".tmp";
    JsonObject m;
    m["epoch"] = JsonValue(static_cast<int64_t>(epoch));
    m["generation"] = JsonValue(static_cast<int64_t>(generation));
    std::string body = JsonValue(std::move(m)).dump();
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (!f) return false;
    bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (ok) ok = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!ok) return false;
    return ::rename(tmp.c_str(), manifest_path().c_str()) == 0;
  }

  void spawn_worker(size_t r, int64_t restore_epoch) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
      throw std::runtime_error("socketpair failed");
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      // Child. dup2 onto fd 3 clears CLOEXEC on the duplicate; every other
      // control fd (including peers') closes across exec.
      ::dup2(sv[1], 3);
      std::vector<std::string> args;
      args.push_back(opts.neptuned_path);
      args.push_back("--worker");
      args.push_back("--scenario");
      args.push_back(opts.scenario_path);
      args.push_back("--resource");
      args.push_back(std::to_string(r));
      args.push_back("--resources");
      args.push_back(std::to_string(total));
      std::string ports;
      for (size_t i = 0; i < plan.ports.size(); ++i) {
        if (i) ports.push_back(',');
        ports += std::to_string(plan.ports[i]);
      }
      if (!ports.empty()) {
        args.push_back("--ports");
        args.push_back(ports);
      }
      args.push_back("--snapshot-dir");
      args.push_back(snapshot_dir_of(r));
      args.push_back("--generation");
      args.push_back(std::to_string(generation));
      args.push_back("--heartbeat-ms");
      args.push_back(std::to_string(opts.worker_heartbeat_ms));
      if (opts.events_override > 0) {
        args.push_back("--events");
        args.push_back(std::to_string(opts.events_override));
      }
      if (opts.worker_threads > 0) {
        args.push_back("--threads");
        args.push_back(std::to_string(opts.worker_threads));
      }
      if (restore_epoch >= 0) {
        args.push_back("--restore-epoch");
        args.push_back(std::to_string(restore_epoch));
      }
      auto pit = partitions.find(r);
      if (pit != partitions.end()) {
        for (const auto& p : pit->second) {
          args.push_back("--partition");
          args.push_back(std::to_string(p.at_ms) + ":" + std::to_string(p.duration_ms));
        }
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(opts.neptuned_path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(sv[1]);
    WorkerState w;
    w.resource = r;
    w.pid = pid;
    w.ctl = std::make_unique<ControlChannel>(sv[0]);
    w.last_msg_ms = now_ms();
    workers.push_back(std::move(w));
  }

  void spawn_all(int64_t restore_epoch) {
    // Fresh ephemeral ports every generation: a SIGCONT'd zombie sender of
    // an old generation reconnects into nothing, never into the new
    // deployment. (The runtime's edge-sequence dedup is the backstop.)
    plan.ports.clear();
    for (size_t i = 0; i < plan.cross_edges.size(); ++i) {
      uint16_t p = alloc_port();
      if (p == 0) throw std::runtime_error("port allocation failed");
      plan.ports.push_back(p);
    }
    workers.clear();
    for (size_t r = 0; r < total; ++r) spawn_worker(r, restore_epoch);
    if (opts.verbose)
      NEPTUNE_LOG_INFO("supervisor: generation %llu up (%zu workers, restore epoch %lld)",
                       static_cast<unsigned long long>(generation), total,
                       static_cast<long long>(restore_epoch));
  }

  void kill_all() {
    for (WorkerState& w : workers) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);  // also kills SIGSTOPped workers
    }
    for (WorkerState& w : workers) {
      if (w.pid > 0) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
      }
    }
    workers.clear();
    pending_conts.clear();
  }

  void broadcast(const JsonValue& msg) {
    for (WorkerState& w : workers) w.ctl->send(msg);
  }

  void handle_message(WorkerState& w, const JsonValue& msg) {
    w.last_msg_ms = now_ms();
    const std::string type = msg.as_object().at("type").as_string();
    if (type == "hello") {
      w.hello = true;
    } else if (type == "hb") {
      w.in = static_cast<uint64_t>(msg.number_or("in", 0));
      w.seq = static_cast<uint64_t>(msg.number_or("seq", 0));
    } else if (type == "checkpointed") {
      if (auto a = epochs->acked(w.resource, static_cast<uint64_t>(msg.number_or("epoch", 0)),
                                 msg.as_object().at("ok").as_bool()))
        apply(*a);
    } else if (type == "completed") {
      w.completed = true;
      w.in = static_cast<uint64_t>(msg.number_or("in", 0));
      w.seq = static_cast<uint64_t>(msg.number_or("seq", 0));
      if (msg.contains("sinks")) {
        for (const auto& [id, s] : msg.as_object().at("sinks").as_object()) {
          SupervisorSink sink;
          sink.packets = static_cast<uint64_t>(s.number_or("packets", 0));
          sink.digest = s.string_or("digest", "");
          w.sinks[id] = sink;
        }
      }
    } else if (type == "failed") {
      w.failed = true;
      w.fail_reason = msg.string_or("error", "unknown");
    }
  }

  void poll_workers(int timeout_ms) {
    std::vector<struct pollfd> fds;
    fds.reserve(workers.size());
    for (WorkerState& w : workers) fds.push_back({w.ctl->fd(), POLLIN, 0});
    ::poll(fds.data(), fds.size(), timeout_ms);  // no workers (a restart backoff): a plain wait
    for (WorkerState& w : workers) {
      while (auto msg = w.ctl->poll(0)) handle_message(w, *msg);
    }
  }

  /// Carry out a Begin, Commit or Abandon, and mirror the counters.
  void apply(const EpochAction& a) {
    const std::string epoch = "epoch " + std::to_string(a.epoch);
    if (a.kind == EpochAction::Kind::kBegin) {
      JsonValue msg = control_message("checkpoint");
      msg.as_object()["epoch"] = JsonValue(static_cast<int64_t>(a.epoch));
      broadcast(msg);
    } else if (a.kind == EpochAction::Kind::kCommit) {
      if (!write_manifest(a.epoch))
        obs::IncidentReporter::trigger_global("checkpoint-failed",
                                              epoch + " committed; manifest not written");
    } else if (a.kind == EpochAction::Kind::kAbandon) {
      obs::IncidentReporter::trigger_global(
          "checkpoint-timeout", epoch + " abandoned: acks missing at the timeout, or not ok");
    }
    report.checkpoints = epochs->committed();
    report.quiesce_timeouts = epochs->abandoned();
    report.recoveries = epochs->rollbacks();
  }

  /// Full-deployment rollback: kill every worker now; the loop respawns
  /// them once the controller's backoff has passed. Returns false when the
  /// budget is exhausted (report.failure is set).
  bool recover(const std::string& trigger, const std::string& detail) {
    obs::IncidentReporter::trigger_global(trigger, detail);
    EpochAction a = epochs->part_failed(detail);
    apply(a);
    recovery_detect_ms = now_ms();
    kill_all();
    if (a.kind == EpochAction::Kind::kGiveUp) {
      report.failure = epochs->failure();
      NEPTUNE_LOG_ERROR("supervisor: %s — %s", trigger.c_str(), report.failure.c_str());
      return false;
    }
    NEPTUNE_LOG_WARN("supervisor: %s — %s; rolling deployment back (recovery %llu/%u)",
                     trigger.c_str(), detail.c_str(),
                     static_cast<unsigned long long>(report.recoveries), opts.max_recoveries);
    ++generation;
    ++report.generations;
    restart = a;
    return true;
  }

  void execute_chaos(int64_t elapsed_ms) {
    if (!chaos) return;
    uint64_t generation_events = 0;
    for (const WorkerState& w : workers) generation_events += w.in;
    for (ChaosAction* a : chaos->due(elapsed_ms, generation, generation_events)) {
      ++report.chaos_fired;
      WorkerState* target = nullptr;
      for (WorkerState& w : workers) {
        if (w.resource == a->resource && w.pid > 0) target = &w;
      }
      if (opts.verbose)
        NEPTUNE_LOG_INFO("chaos: %s resource %zu (t=%lldms, generation %llu events=%llu)",
                         to_string(a->kind), a->resource, static_cast<long long>(elapsed_ms),
                         static_cast<unsigned long long>(generation),
                         static_cast<unsigned long long>(generation_events));
      if (!target) continue;
      target->held = a->kind == ChaosAction::Kind::kKill || a->kind == ChaosAction::Kind::kStop;
      switch (a->kind) {
        case ChaosAction::Kind::kKill:
          ::kill(target->pid, SIGKILL);
          break;
        case ChaosAction::Kind::kStop:
          ::kill(target->pid, SIGSTOP);
          if (a->duration_ms > 0)
            pending_conts.push_back({a->resource, generation, now_ms() + a->duration_ms});
          break;
        case ChaosAction::Kind::kCont:
          ::kill(target->pid, SIGCONT);
          break;
        case ChaosAction::Kind::kPartition:
          break;  // resolved into worker --partition args at spawn time
      }
    }
    int64_t now = now_ms();
    for (auto it = pending_conts.begin(); it != pending_conts.end();) {
      if (it->generation == generation && now >= it->fire_at_ms) {
        for (WorkerState& w : workers) {
          if (w.resource == it->resource && w.pid > 0) {
            ::kill(w.pid, SIGCONT);
            w.held = false;
          }
        }
        it = pending_conts.erase(it);
      } else if (it->generation != generation) {
        it = pending_conts.erase(it);
      } else {
        ++it;
      }
    }
  }

  SupervisorReport run() {
    const int64_t t_start = now_ms();
    if (!opts.incident_dir.empty() && !obs::IncidentReporter::active()) {
      obs::IncidentOptions io;
      io.dir = opts.incident_dir;
      io.install_crash_handler = false;
      io.min_interval_ns = 0;  // chaos runs trigger in bursts by design
      obs::IncidentReporter::configure_global(io);
    }
    register_telemetry();
    ensure_dir(opts.work_dir);

    try {
      scenarios::ScenarioSpec spec = scenarios::load_scenario(opts.scenario_path);
      scenarios::TraceSpec trace = spec.trace;
      if (opts.events_override > 0) trace.events = opts.events_override;
      scenarios::ScenarioContext ctx;
      StreamGraph graph = scenarios::build_scenario_graph(spec, trace, ctx, false);
      int64_t max_r = -1;
      for (const OperatorDecl& op : graph.operators())
        max_r = std::max<int64_t>(max_r, op.resource);
      if (max_r < 0) throw GraphError("supervisor: topology has no resource pins");
      total = static_cast<size_t>(max_r) + 1;
      plan = plan_slices(graph, total);
      for (size_t r = 0; r < total; ++r) ensure_dir(snapshot_dir_of(r));

      // Split the chaos plan: partitions become worker-side fault-injector
      // windows (fixed at spawn); process signals stay with the controller.
      ChaosPlan signals;
      signals.seed = opts.chaos.seed;
      for (const ChaosAction& a : opts.chaos.actions) {
        if (a.kind == ChaosAction::Kind::kPartition) {
          partitions[a.resource].push_back({a.at_ms < 0 ? 0 : a.at_ms, a.duration_ms});
        } else {
          signals.actions.push_back(a);
        }
      }
      if (!signals.empty()) chaos = std::make_unique<ChaosController>(std::move(signals));

      epochs.emplace(&SteadyClock::instance(), opts, total, kRestartBackoffNs);
      spawn_all(/*restore_epoch=*/-1);

      for (;;) {
        int64_t now = now_ms();
        if (now - t_start > opts.timeout_ms) {
          report.failure = "deployment timed out after " + std::to_string(opts.timeout_ms) + " ms";
          kill_all();
          break;
        }
        if (restart && neptune::now_ns() >= restart->not_before_ns) {
          spawn_all(restart->epoch != 0 ? static_cast<int64_t>(restart->epoch) : -1);
          restart.reset();
        }
        poll_workers(5);
        now = now_ms();

        // Any fault is one rollback: a real death (waitpid, the primary
        // liveness signal); a gray failure, the pid alive but its heartbeat
        // stopped (SIGSTOP, runaway dispatch, scheduler wedge...); or a
        // worker-reported permanent failure (edge budget, restore error).
        std::string trigger, detail;
        for (WorkerState& w : workers) {
          const std::string who = "worker r" + std::to_string(w.resource) + " (pid " +
                                  std::to_string(w.pid) + ")";
          int status = 0;
          if (w.pid > 0 && ::waitpid(w.pid, &status, WNOHANG) == w.pid) {
            ++report.worker_deaths;
            trigger = "worker-death";
            detail = who + " died: " + exit_description(status);
            w.pid = -1;
          } else if (w.pid > 0 && now - w.last_msg_ms > opts.heartbeat_timeout_ms) {
            ++report.gray_failures;
            trigger = "gray-failure";
            detail = who + " silent for " + std::to_string(now - w.last_msg_ms) +
                     " ms (gray failure)";
          } else if (w.failed) {
            trigger = "worker-failed";
            detail = who + " reported failure: " + w.fail_reason;
          }
          if (!trigger.empty()) break;
        }
        if (!trigger.empty()) {
          if (!recover(trigger, detail)) return report;  // recover() killed every worker
          continue;
        }

        bool up = !workers.empty() && std::all_of(workers.begin(), workers.end(),
                                                  [](const WorkerState& w) { return w.hello; });
        // Close out a recovery's latency once the new generation is up.
        if (up && recovery_detect_ms >= 0) {
          report.recovery_ms.push_back(static_cast<double>(now_ms() - recovery_detect_ms));
          recovery_detect_ms = -1;
        }
        // Fault a generation only once it is up: a kill during the respawn
        // would fold two rollbacks into one.
        if (up) execute_chaos(now - t_start);

        // Tick only with every worker up: a rollback dropped any open epoch.
        if (up && std::all_of(workers.begin(), workers.end(),
                              [](const WorkerState& w) { return w.completed; }))
          epochs->all_done();
        if (up) {
          if (auto a = epochs->tick()) apply(*a);
        }

        // A chaos fault landing at the very end still takes effect first.
        if (!workers.empty() && std::all_of(workers.begin(), workers.end(), [](const WorkerState& w) {
              return w.completed && !w.held;
            })) {
          return finish_success(t_start);
        }
      }
    } catch (const std::exception& e) {
      report.failure = e.what();
      kill_all();
    }
    report.seconds = static_cast<double>(now_ms() - t_start) / 1000.0;
    return report;
  }

  SupervisorReport finish_success(int64_t t_start) {
    for (const WorkerState& w : workers) {
      report.seq_violations += w.seq;
      for (const auto& [id, sink] : w.sinks) report.sinks[id] = sink;
    }
    broadcast(control_message("stop"));
    int64_t deadline = now_ms() + 5000;
    for (WorkerState& w : workers) {
      while (w.pid > 0) {
        int status = 0;
        pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid) {
          w.pid = -1;
        } else if (now_ms() > deadline) {
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, &status, 0);
          w.pid = -1;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    }
    workers.clear();
    report.completed = true;
    report.seconds = static_cast<double>(now_ms() - t_start) / 1000.0;
    return report;
  }
};

ResourceSupervisor::ResourceSupervisor(SupervisorOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

ResourceSupervisor::~ResourceSupervisor() {
  if (impl_) impl_->kill_all();
}

SupervisorReport ResourceSupervisor::run() { return impl_->run(); }

size_t ResourceSupervisor::resources_of(const std::string& scenario_path) {
  scenarios::ScenarioSpec spec = scenarios::load_scenario(scenario_path);
  int64_t max_r = -1;
  for (const JsonValue& op : spec.topology.at("operators").as_array()) {
    int64_t r = static_cast<int64_t>(op.number_or("resource", -1));
    if (r < 0)
      throw std::runtime_error("operator '" + op.at("id").as_string() +
                               "' has no resource pin — required for multi-process deployment");
    max_r = std::max(max_r, r);
  }
  if (max_r < 0) throw std::runtime_error("scenario has no operators");
  return static_cast<size_t>(max_r) + 1;
}

}  // namespace neptune::proc
