// ResourceSupervisor: the parent of a multi-process deployment. It
// fork/execs one `neptuned` worker per resource and monitors their
// liveness three ways (waitpid for real deaths, control-channel heartbeats
// for gray failures, explicit "failed" reports for edge-budget
// exhaustion). Recovery is decided by fault::EpochController, with one
// part per worker; the supervisor carries out its actions.
//
// Recovery model — crash-consistent full rollback. Per-worker restart
// cannot preserve exactly-once: the survivors' operator state would be
// ahead of the restarted worker's snapshot. Instead, any worker fault
// kills every worker and bumps the deployment generation; once the
// controller's backoff has passed (the loop keeps polling) it allocates
// fresh ports, so a SIGCONT'd zombie of an old generation can never
// deliver stale frames into the new one, and respawns everything
// restoring the last committed epoch.
//
// Checkpoint protocol (in-band barriers; nothing pauses): checkpoint{e} to
// all -> barriers travel with the data, across processes over the
// supervised TCP edges -> each worker saves its slice and acks -> once
// every worker acked ok the epoch commits and the supervisor records it in
// the manifest (tmp + rename). A crash mid-checkpoint therefore always
// rolls back to a complete, consistent cut.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/epoch_controller.hpp"
#include "obs/telemetry.hpp"
#include "proc/chaos.hpp"

namespace neptune::proc {

/// The epoch options (interval, timeout, budget) with the supervisor's own
/// defaults, plus the deployment's.
struct SupervisorOptions : fault::EpochOptions {
  /// A checkpoint every 200 ms, 10 s for all acks, 8 rollbacks.
  SupervisorOptions() : fault::EpochOptions{200'000'000, std::chrono::seconds(10), 8} {}

  /// Path to the worker binary (`neptuned`); argv[0] when self-superving.
  std::string neptuned_path;
  std::string scenario_path;
  uint64_t events_override = 0;
  /// Manifest + per-resource snapshot dirs live here (created if missing).
  std::string work_dir;
  /// Heartbeat silence from a live pid beyond this = gray failure.
  int64_t heartbeat_timeout_ms = 1500;
  /// Whole-deployment wall-clock budget.
  int64_t timeout_ms = 120'000;
  size_t worker_threads = 0;
  int64_t worker_heartbeat_ms = 25;
  /// Non-empty: install the process-global IncidentReporter here.
  std::string incident_dir;
  ChaosPlan chaos;
  bool verbose = false;
};

struct SupervisorSink {
  uint64_t packets = 0;
  std::string digest;
};

struct SupervisorReport {
  bool completed = false;
  std::string failure;  ///< empty on success
  std::map<std::string, SupervisorSink> sinks;
  uint64_t checkpoints = 0;       ///< epochs committed
  uint64_t quiesce_timeouts = 0;  ///< epochs abandoned (acks missing, or a save failed)
  uint64_t recoveries = 0;        ///< rollbacks
  uint64_t worker_deaths = 0;
  uint64_t gray_failures = 0;
  uint64_t chaos_fired = 0;
  uint64_t seq_violations = 0;
  uint64_t generations = 1;
  double seconds = 0;
  /// Fault detection -> all workers re-joined, per recovery.
  std::vector<double> recovery_ms;
};

class ResourceSupervisor {
 public:
  explicit ResourceSupervisor(SupervisorOptions opts);
  ~ResourceSupervisor();
  ResourceSupervisor(const ResourceSupervisor&) = delete;
  ResourceSupervisor& operator=(const ResourceSupervisor&) = delete;

  /// Deploy, supervise to completion (or failure/timeout), return the
  /// aggregated report. Blocking; call once.
  SupervisorReport run();

  /// Resource count a scenario file needs: max explicit pin + 1. Throws on
  /// unreadable files or unpinned operators.
  static size_t resources_of(const std::string& scenario_path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace neptune::proc
