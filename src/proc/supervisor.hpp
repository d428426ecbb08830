// ResourceSupervisor: the parent of a multi-process deployment. It
// fork/execs one `neptuned` worker per resource, monitors their liveness
// three ways (waitpid for real deaths, control-channel heartbeats for gray
// failures, explicit "failed" reports for edge-budget exhaustion), drives
// coordinated epoch checkpoints, and recovers from any fault by rolling
// the *whole* deployment back to the last committed epoch.
//
// Recovery model — crash-consistent full rollback. Per-worker restart
// cannot preserve exactly-once: the survivors' operator state would be
// ahead of the restarted worker's snapshot. Instead, any worker fault
// kills every worker, bumps the deployment generation, allocates fresh
// ports (so a SIGCONT'd zombie of an old generation can never deliver
// stale frames into the new one), and respawns everything restoring the
// manifest's epoch. The manifest is committed (tmp + rename) only after
// every worker has durably acked the epoch, so a crash mid-checkpoint
// always rolls back to a complete, consistent cut.
//
// Checkpoint protocol (in-band barriers; nothing pauses): checkpoint{epoch}
// to all -> each worker's Job starts the epoch and barriers travel with
// the data, across processes over the supervised TCP edges -> each worker
// saves its slice once every local instance has snapshotted, and acks ->
// all acked: commit the manifest. An epoch still missing acks after
// checkpoint_timeout_ms is abandoned (counted, incident bundle), as in the
// in-process RecoveryCoordinator; epoch numbers are never reused.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "proc/chaos.hpp"

namespace neptune::proc {

struct SupervisorOptions {
  /// Path to the worker binary (`neptuned`); argv[0] when self-superving.
  std::string neptuned_path;
  std::string scenario_path;
  uint64_t events_override = 0;
  /// Manifest + per-resource snapshot dirs live here (created if missing).
  std::string work_dir;
  int64_t checkpoint_interval_ms = 200;
  /// Heartbeat silence from a live pid beyond this = gray failure.
  int64_t heartbeat_timeout_ms = 1500;
  /// Barrier-to-all-acks budget per checkpoint epoch.
  int64_t checkpoint_timeout_ms = 10'000;
  /// Recovery budget; exceeding it fails the deployment.
  uint32_t max_recoveries = 8;
  int64_t restart_backoff_ms = 50;
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
  uint64_t checkpoints = 0;
  uint64_t quiesce_timeouts = 0;
  uint64_t recoveries = 0;
  uint64_t worker_deaths = 0;
  uint64_t gray_failures = 0;
  uint64_t chaos_fired = 0;
  uint64_t seq_violations = 0;
  uint64_t last_epoch = 0;  ///< last committed checkpoint epoch (0 = none)
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
