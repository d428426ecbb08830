// Chaos plans: a JSON schedule of *real* process faults executed by the
// ResourceSupervisor against live worker processes — SIGKILL mid-stream,
// SIGSTOP/SIGCONT gray failures, and TCP partitions (sender-side stall
// windows injected through the workers' FaultInjector). Plans are either
// fully explicit ("actions") or seeded-random ("random"), and both expand
// deterministically, so a chaos run is reproducible from its plan file.
//
// Plan shape:
// {
//   "seed": 42,
//   "actions": [
//     {"action": "kill", "resource": 1, "at_ms": 150},
//     {"action": "stop", "resource": 0, "at_events": 4000, "duration_ms": 300},
//     {"action": "partition", "resource": 1, "at_ms": 80, "duration_ms": 200}
//   ],
//   "random": {"kills": 2, "window_ms": [100, 900]}
// }
//
// Triggers: "at_ms" fires on wall-clock time since deployment start;
// "at_events" fires when the packets-in count, summed per generation over
// worker heartbeats and then over generations, crosses the threshold — the
// reliable trigger for golden runs, whose trace generation is
// simulated-time, not wall-clock paced. An action with both fires on
// whichever comes first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace neptune::proc {

struct ChaosAction {
  enum class Kind { kKill, kStop, kCont, kPartition };
  Kind kind = Kind::kKill;
  size_t resource = 0;
  int64_t at_ms = -1;       ///< wall-clock trigger (ms since start); -1 = unused
  uint64_t at_events = 0;   ///< deployment packets-in trigger; 0 = unused
  int64_t duration_ms = 0;  ///< kStop: auto-SIGCONT after; kPartition: stall window
  bool fired = false;
};

const char* to_string(ChaosAction::Kind kind);

struct ChaosPlan {
  uint64_t seed = 1;
  std::vector<ChaosAction> actions;

  bool empty() const { return actions.empty(); }
  /// Parse a plan document; the "random" generator (if present) is expanded
  /// into concrete kill actions here, seeded by "seed". Throws JsonError.
  static ChaosPlan from_json(const JsonValue& doc, size_t total_resources);
  /// Read + parse a plan file. Throws std::runtime_error when unreadable.
  static ChaosPlan load(const std::string& path, size_t total_resources);
};

/// Replays a plan. The supervisor's monitor loop calls due() every tick and
/// executes whatever comes back (kill/stop/cont the matching pid); each
/// action fires exactly once.
class ChaosController {
 public:
  explicit ChaosController(ChaosPlan plan) : plan_(std::move(plan)) {}

  /// Actions whose trigger has been crossed and that have not fired yet.
  /// `generation_events` counts deployment `generation` alone; it fires one
  /// kill per generation. Marks them fired — execute everything returned.
  std::vector<ChaosAction*> due(int64_t elapsed_ms, uint64_t generation,
                                uint64_t generation_events);

  const ChaosPlan& plan() const { return plan_; }
  uint64_t fired() const { return fired_; }
  /// True once every action has fired (chaos exhausted).
  bool exhausted() const { return fired_ == plan_.actions.size(); }

 private:
  ChaosPlan plan_;
  uint64_t fired_ = 0;
  uint64_t generation_ = 0;
  uint64_t earlier_events_ = 0;     // the generations before, summed
  uint64_t generation_events_ = 0;  // the current one
  uint64_t killed_generation_ = ~0ULL;  // none yet
};

}  // namespace neptune::proc
