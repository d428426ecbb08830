#include "fault/watchdog.hpp"

namespace neptune::fault {

std::vector<OperatorStall> OperatorWatchdog::check(const JobMetricsSnapshot& snap,
                                                   int64_t now_ns) {
  std::vector<OperatorStall> stalls;
  for (const auto& op : snap.operators) {
    std::string key = op.operator_id + "#" + std::to_string(op.instance);
    auto [it, first_seen] = progress_.try_emplace(key);
    Progress& p = it->second;
    if (first_seen || op.executions != p.executions) {
      p.executions = op.executions;
      p.last_change_ns = now_ns;
      p.flagged = false;
      // Fall through: a dispatch can still be wedged *inside* the
      // execution that bumped the counter.
    }

    OperatorStall stall{op.operator_id, op.instance, 0, {}};
    if (op.exec_begin_ns != 0 && now_ns - op.exec_begin_ns > options_.stall_timeout_ns) {
      stall.stalled_ms = (now_ns - op.exec_begin_ns) / 1'000'000;
      stall.what = "watchdog: " + key + " stuck inside a dispatch for " +
                   std::to_string(stall.stalled_ms) + " ms";
    } else if (op.inbound_ready_batches > 0 &&
               now_ns - p.last_change_ns > options_.stall_timeout_ns) {
      stall.stalled_ms = (now_ns - p.last_change_ns) / 1'000'000;
      stall.what = "watchdog: " + key + " made no progress for " +
                   std::to_string(stall.stalled_ms) + " ms with " +
                   std::to_string(op.inbound_ready_batches) + " batches pending";
    }
    if (!stall.what.empty() && !p.flagged) {
      p.flagged = true;
      stalls.push_back(std::move(stall));
    }
  }
  return stalls;
}

}  // namespace neptune::fault
