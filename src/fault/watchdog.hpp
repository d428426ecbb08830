// Operator watchdog (overload-resilience subsystem): detects operator
// instances that are stuck — an execution that entered the operator and
// never returned, or pending input with no executions for a whole stall
// window — so the topology is restarted instead of left hanging.
//
// A pure, single-threaded detector over metrics snapshots: no thread, no
// clock, no Job. The RecoveryCoordinator's monitor hands it a snapshot and
// the time, and escalates what it returns. Its two rules:
//
//   * stuck inside a dispatch: exec_begin_ns (set while an execution is
//     inside the instance) is older than the stall timeout.
//   * no progress: inbound_ready_batches > 0 while the executions counter
//     has not moved for a stall window. A backpressured instance does not
//     trip this — its flush-timer re-notifies keep executions moving.
//
// Each stall is reported once; the instance re-arms when its executions
// counter moves. The coordinator replaces the detector at each rollback.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "neptune/metrics.hpp"

namespace neptune::fault {

struct WatchdogOptions {
  /// How long an instance may sit inside one dispatch, or hold pending
  /// input without an execution, before it is declared stuck. 0: no
  /// watchdog.
  int64_t stall_timeout_ns = 0;
};

/// One newly stuck operator instance.
struct OperatorStall {
  std::string operator_id;
  uint32_t instance = 0;
  int64_t stalled_ms = 0;
  std::string what;  ///< the failure reason to report
};

class OperatorWatchdog {
 public:
  explicit OperatorWatchdog(WatchdogOptions options = {}) : options_(options) {}

  /// The instances of `snap` that are stuck at `now_ns` and were not
  /// already reported for this stall.
  std::vector<OperatorStall> check(const JobMetricsSnapshot& snap, int64_t now_ns);

 private:
  struct Progress {
    uint64_t executions = 0;
    int64_t last_change_ns = 0;
    bool flagged = false;  ///< already reported; re-armed when progress resumes
  };

  WatchdogOptions options_;
  std::map<std::string, Progress> progress_;
};

}  // namespace neptune::fault
