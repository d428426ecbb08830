// Automatic checkpoint-based job recovery (tentpole layer 3).
//
// The RecoveryCoordinator wraps one submitted job and keeps it alive across
// permanent failures — the cases the supervised channel cannot repair:
// a reconnect budget exhausted, a corrupt frame on an unsupervised edge, or
// a killed resource. It implements the paper's §VI "failure recovery" future
// work on top of the existing checkpoint/restore prototype:
//
//   * every `checkpoint_interval_ns` it takes a barrier checkpoint
//     (Job::checkpoint; nothing pauses) and keeps the latest complete
//     JobSnapshot (operator state + source replay positions);
//   * it watches for failure — Job::report_failure (wired into every
//     supervised edge and the corrupt-frame path) plus a liveness poll over
//     the runtime's resources — and executes any scheduled resource kills
//     from the fault injector (the harness side of crash testing);
//   * on failure it recovers automatically: stop the wreck, restart dead
//     resources, resubmit the same graph, restore the latest snapshot, and
//     start again. Sources replay from their recorded positions, so with
//     checkpoint-aware (Checkpointable) operators no data is lost and
//     nothing is double-counted.
//
// Recovery is bounded by `max_recoveries`; exceeding it marks the job
// permanently failed (`permanently_failed()`), so a persistent fault cannot
// loop forever.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "fault/snapshot_store.hpp"
#include "fault/watchdog.hpp"
#include "neptune/graph.hpp"
#include "neptune/runtime.hpp"
#include "neptune/state.hpp"

namespace neptune::fault {

struct RecoveryOptions {
  int64_t checkpoint_interval_ns = 500'000'000;  ///< automatic checkpoint period
  int64_t poll_interval_ns = 20'000'000;         ///< failure / completion poll period
  /// Barrier-to-complete budget for one epoch; past it the epoch is abandoned.
  std::chrono::nanoseconds checkpoint_timeout = std::chrono::seconds(30);
  uint32_t max_recoveries = 16;                  ///< then permanently_failed()
  /// Non-empty: persist each checkpoint crash-safely into this directory
  /// (temp file + fsync + atomic rename, CRC-32 footer) and seed the first
  /// incarnation from the newest valid snapshot found there. Empty keeps
  /// the previous in-memory-only behaviour.
  std::string snapshot_dir;
  /// Watchdog over the current incarnation: detects stuck operators (a
  /// dispatch that never returns, or pending input with no executions) and
  /// escalates through the normal failure -> recover path.
  WatchdogOptions watchdog;
};

class RecoveryCoordinator {
 public:
  /// Takes its own copy of the graph so it can resubmit after a failure.
  RecoveryCoordinator(Runtime& runtime, StreamGraph graph, RecoveryOptions options = {});
  ~RecoveryCoordinator();
  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Submit + start the job and the monitor thread. Returns the first job
  /// incarnation (use job() after recoveries).
  std::shared_ptr<Job> start();

  /// Current job incarnation (changes after each recovery).
  std::shared_ptr<Job> job() const;

  /// Wait until the job completes (surviving recoveries along the way) or
  /// fails permanently. True iff it completed.
  bool wait(std::chrono::nanoseconds timeout = std::chrono::hours(1));

  /// Stop monitoring and the current job.
  void stop();

  /// Force a checkpoint outside the periodic schedule. True on success.
  bool checkpoint_now();

  uint64_t checkpoints_taken() const { return checkpoints_.load(std::memory_order_relaxed); }
  uint64_t recoveries() const { return recoveries_.load(std::memory_order_relaxed); }
  /// Stalls the watchdog escalated (0 when the watchdog is disabled).
  uint64_t watchdog_stalls() const { return watchdog_stalls_.load(std::memory_order_relaxed); }
  /// Checkpoint epochs abandoned past checkpoint_timeout. Each one also
  /// bumps the neptune_checkpoint_quiesce_timeouts series and triggers an
  /// incident bundle — a stuck barrier is a health signal.
  uint64_t quiesce_timeouts() const { return quiesce_timeouts_.load(std::memory_order_relaxed); }
  /// Checkpoints durably persisted to snapshot_dir (0 when not configured).
  uint64_t snapshots_persisted() const {
    return snapshots_persisted_.load(std::memory_order_relaxed);
  }
  /// True when the first incarnation restored state found on disk.
  bool restored_from_disk() const { return restored_from_disk_; }
  /// Total wall time spent inside recover() across all recoveries.
  int64_t recovery_ns() const { return recovery_ns_.load(std::memory_order_relaxed); }
  bool permanently_failed() const;

  /// Current job's metrics with the coordinator's robustness fields
  /// (checkpoints_taken / recoveries / recovery_ns) filled in.
  JobMetricsSnapshot metrics() const;

 private:
  void monitor();                                  // monitor thread body
  void attach(const std::shared_ptr<Job>& job);    // install failure hook
  void arm_watchdog(const std::shared_ptr<Job>& job);
  bool take_checkpoint(const std::shared_ptr<Job>& job);
  void execute_due_kills();
  bool any_resource_down() const;
  void recover();

  Runtime& runtime_;
  StreamGraph graph_;  // owned copy; submit() keeps pointers into it
  RecoveryOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::mutex checkpoint_mu_;  // one epoch at a time (monitor vs checkpoint_now)
  uint64_t epoch_ = 0;        // last epoch begun; under checkpoint_mu_
  std::shared_ptr<Job> job_;
  JobSnapshot snapshot_;
  bool have_snapshot_ = false;
  bool done_ = false;
  bool completed_ = false;
  bool permanent_failure_ = false;

  // Shared with the per-job failure handlers so a report from a channel that
  // outlives this coordinator touches only the flag, never freed memory.
  std::shared_ptr<std::atomic<bool>> failure_flag_ =
      std::make_shared<std::atomic<bool>>(false);

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> recoveries_{0};
  std::atomic<int64_t> recovery_ns_{0};
  std::atomic<uint64_t> watchdog_stalls_{0};
  std::atomic<uint64_t> snapshots_persisted_{0};
  std::atomic<uint64_t> quiesce_timeouts_{0};
  bool restored_from_disk_ = false;
  std::unique_ptr<SnapshotStore> store_;      // set iff options_.snapshot_dir
  std::unique_ptr<OperatorWatchdog> watchdog_;  // follows the current incarnation
  int64_t start_ns_ = 0;
  std::thread monitor_;
  // Declared last: destroyed first, so samplers capturing `this` are
  // unregistered (blocking out in-flight samples) before members die.
  std::vector<obs::TelemetryRegistry::Handle> telemetry_;
};

}  // namespace neptune::fault
