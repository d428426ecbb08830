// EpochController: the one recovery driver. A single-threaded, pure state
// machine over an injected Clock; it does no I/O and owns no thread. The
// RecoveryCoordinator (one part: the local Job), the ResourceSupervisor
// (one part per `neptuned` worker) and testkit::DstJob (one part per
// resource pin) feed it events and carry out the actions it returns.
//
// Its rules, stated here and nowhere else:
//   * interval: with no epoch open, a tick at or after the last close
//     (commit, abandon, or rollback restart) + checkpoint_interval_ns
//     begins the next epoch. An interval <= 0 leaves only request().
//   * numbering: epochs count up from 1 and are never reused, not even
//     across a rollback, so a late ack never counts for a later epoch.
//   * commit: every part acked the epoch ok.
//   * abandon: the epoch is still open at begin + checkpoint_timeout, or a
//     part acked it not-ok. It is counted once; later acks are ignored. A
//     timeout <= 0 never abandons. A failure drops the open epoch uncounted.
//   * budget: max_recoveries rollbacks are allowed; the next failure gives
//     up. Giving up is terminal: every later event is ignored.
//   * backoff: the n-th rollback restarts no earlier than
//     base << min(n-1, 5) after the failure, capped at 2 s.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace neptune::fault {

/// The settable part of the recovery driver (RecoveryOptions and
/// proc::SupervisorOptions derive from it).
struct EpochOptions {
  int64_t checkpoint_interval_ns = 500'000'000;
  std::chrono::nanoseconds checkpoint_timeout = std::chrono::seconds(30);
  uint32_t max_recoveries = 16;
};

struct EpochAction {
  enum class Kind { kBegin, kCommit, kAbandon, kRollBack, kGiveUp };
  Kind kind = Kind::kBegin;
  /// The epoch begun, committed or abandoned; for RollBack the last
  /// committed epoch to restore (0: none, restart from scratch).
  uint64_t epoch = 0;
  int64_t not_before_ns = 0;  ///< RollBack: earliest restart time (Clock ns)
};

class EpochController {
 public:
  /// An epoch commits once all `parts` acked it. A `backoff_base_ns` of 0
  /// restarts immediately after every rollback.
  EpochController(const Clock* clock, EpochOptions options, size_t parts,
                  int64_t backoff_base_ns = 0);

  /// Abandon the open epoch past its deadline, or begin one when due.
  std::optional<EpochAction> tick();
  /// Begin an epoch now, unless one is open, all parts are done, or the
  /// controller gave up.
  std::optional<EpochAction> request();
  std::optional<EpochAction> acked(size_t part, uint64_t epoch, bool ok);
  /// Any part failed: roll back, or give up once the budget is spent.
  EpochAction part_failed(const std::string& reason);
  /// Every part finished: begin no epoch until the next rollback.
  void all_done() { done_ = true; }

  /// When tick() next has something to do (INT64_MAX: never).
  int64_t next_deadline() const;

  uint64_t open_epoch() const { return open_; }  ///< 0: none
  uint64_t last_committed() const { return last_committed_; }
  uint64_t committed() const { return committed_; }
  uint64_t abandoned() const { return abandoned_; }
  uint64_t rollbacks() const { return rollbacks_; }
  bool gave_up() const { return gave_up_; }
  /// Why it gave up ("" until then).
  const std::string& failure() const { return failure_; }

 private:
  EpochAction begin(int64_t now);
  EpochAction close(EpochAction::Kind kind, int64_t now);

  const Clock* clock_;
  EpochOptions opts_;
  int64_t backoff_base_ns_;
  std::vector<bool> acked_;  // per part, for the open epoch
  size_t acks_ = 0;
  uint64_t next_epoch_ = 1;
  uint64_t open_ = 0;
  int64_t deadline_ns_ = 0;
  int64_t next_begin_ns_ = 0;
  uint64_t last_committed_ = 0, committed_ = 0, abandoned_ = 0, rollbacks_ = 0;
  bool done_ = false;
  bool gave_up_ = false;
  std::string failure_;
};

}  // namespace neptune::fault
