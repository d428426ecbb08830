// Automatic checkpoint-based job recovery (tentpole layer 3).
//
// The RecoveryCoordinator wraps one submitted job and keeps it alive across
// permanent failures — the cases the supervised channel cannot repair:
// a reconnect budget exhausted, a corrupt frame on an unsupervised edge, or
// a killed resource. It implements the paper's §VI "failure recovery" future
// work as the in-process adapter of fault::EpochController, which decides
// when epochs begin, commit or are abandoned and whether a failure rolls
// back or gives up (permanently_failed()). Its one part is the local Job;
// a Begin runs the barrier checkpoint (Job::checkpoint; nothing pauses)
// and the snapshot, kept in memory, acks it. A monitor thread ticks the
// controller, watches for failure — Job::report_failure (wired into every
// supervised edge and the corrupt-frame path) plus a liveness poll over
// the runtime's resources — and executes scheduled resource kills from the
// fault injector. A rollback is immediate (backoff base 0): stop the
// wreck, wait until none of its executions is in flight, restart dead
// resources, resubmit the graph, restore the last committed epoch, start.
// Sources replay from their recorded positions, so with Checkpointable
// operators no data is lost and nothing is double-counted.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "fault/epoch_controller.hpp"
#include "fault/watchdog.hpp"
#include "neptune/graph.hpp"
#include "neptune/runtime.hpp"
#include "neptune/state.hpp"

namespace neptune::fault {

/// The epoch options (interval, timeout, budget) plus the coordinator's own
/// poll period and watchdog.
struct RecoveryOptions : EpochOptions {
  int64_t poll_interval_ns = 20'000'000;  ///< failure / completion poll period
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

  uint64_t checkpoints_taken() const { return read(&EpochController::committed); }
  uint64_t recoveries() const { return read(&EpochController::rollbacks); }
  /// Stalls the watchdog escalated (0 when the watchdog is disabled).
  uint64_t watchdog_stalls() const { return watchdog_stalls_.load(std::memory_order_relaxed); }
  /// Checkpoint epochs abandoned past checkpoint_timeout. Each one also
  /// bumps the neptune_checkpoint_quiesce_timeouts series and triggers an
  /// incident bundle — a stuck barrier is a health signal.
  uint64_t quiesce_timeouts() const { return read(&EpochController::abandoned); }
  /// Total wall time spent inside recover() across all recoveries.
  int64_t recovery_ns() const { return recovery_ns_.load(std::memory_order_relaxed); }
  bool permanently_failed() const { return read(&EpochController::gave_up); }

  /// Current job's metrics with the coordinator's robustness fields
  /// (checkpoints_taken / recoveries / recovery_ns) filled in.
  JobMetricsSnapshot metrics() const;

 private:
  void monitor();                                  // monitor thread body
  void attach(const std::shared_ptr<Job>& job);    // install failure hook
  void arm_watchdog(const std::shared_ptr<Job>& job);
  template <typename T>
  T read(T (EpochController::*get)() const) const {
    std::lock_guard<std::mutex> lk(epochs_mu_);
    return (epochs_.*get)();
  }
  bool take_checkpoint(const std::shared_ptr<Job>& job, bool manual);
  void report(const EpochAction& action);  // record a commit, surface an abandon
  void execute_due_kills();
  bool any_resource_down() const;
  void recover(const std::shared_ptr<Job>& old);

  Runtime& runtime_;
  StreamGraph graph_;  // owned copy; submit() keeps pointers into it
  RecoveryOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Job> job_;
  bool done_ = false;
  bool completed_ = false;

  // The controller and the snapshot of its last committed epoch. Telemetry
  // samplers read the controller's counters under it, and an incident
  // trigger runs the samplers, so it is never held across a trigger or a
  // blocking wait.
  mutable std::mutex epochs_mu_;
  EpochController epochs_;
  JobSnapshot snapshot_;

  // Shared with the per-job failure handlers so a report from a channel that
  // outlives this coordinator touches only the flag, never freed memory.
  std::shared_ptr<std::atomic<bool>> failure_flag_ =
      std::make_shared<std::atomic<bool>>(false);

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> recovery_ns_{0};
  std::atomic<uint64_t> watchdog_stalls_{0};
  std::unique_ptr<OperatorWatchdog> watchdog_;  // follows the current incarnation
  int64_t start_ns_ = 0;
  std::thread monitor_;
  // Declared last: destroyed first, so samplers capturing `this` are
  // unregistered (blocking out in-flight samples) before members die.
  std::vector<obs::TelemetryRegistry::Handle> telemetry_;
};

}  // namespace neptune::fault
