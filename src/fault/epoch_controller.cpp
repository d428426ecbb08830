#include "fault/epoch_controller.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace neptune::fault {

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
constexpr int64_t kMaxBackoffNs = 2'000'000'000;

int64_t saturating_add(int64_t t, int64_t d) { return t > kNever - d ? kNever : t + d; }

}  // namespace

EpochController::EpochController(const Clock* clock, EpochOptions options, size_t parts,
                                 int64_t backoff_base_ns)
    : clock_(clock),
      opts_(options),
      backoff_base_ns_(std::min(backoff_base_ns, kMaxBackoffNs)),
      acked_(parts, false),
      next_begin_ns_(saturating_add(clock->now_ns(), options.checkpoint_interval_ns)) {}

EpochAction EpochController::begin(int64_t now) {
  open_ = next_epoch_++;
  std::fill(acked_.begin(), acked_.end(), false);
  acks_ = 0;
  const int64_t timeout = opts_.checkpoint_timeout.count();
  deadline_ns_ = timeout > 0 ? saturating_add(now, timeout) : kNever;
  return {EpochAction::Kind::kBegin, open_, 0};
}

EpochAction EpochController::close(EpochAction::Kind kind, int64_t now) {
  if (kind == EpochAction::Kind::kCommit) {
    last_committed_ = open_;
    ++committed_;
  } else {
    ++abandoned_;
  }
  next_begin_ns_ = saturating_add(now, opts_.checkpoint_interval_ns);
  return {kind, std::exchange(open_, 0), 0};
}

std::optional<EpochAction> EpochController::tick() {
  const int64_t now = clock_->now_ns();
  if (now < next_deadline()) return std::nullopt;  // also: gave up, done, or no interval
  if (open_ != 0) return close(EpochAction::Kind::kAbandon, now);
  return begin(now);
}

std::optional<EpochAction> EpochController::request() {
  if (gave_up_ || done_ || open_ != 0) return std::nullopt;
  return begin(clock_->now_ns());
}

std::optional<EpochAction> EpochController::acked(size_t part, uint64_t epoch, bool ok) {
  if (gave_up_ || open_ == 0 || epoch != open_ || part >= acked_.size()) return std::nullopt;
  if (!ok) return close(EpochAction::Kind::kAbandon, clock_->now_ns());
  if (acked_[part]) return std::nullopt;
  acked_[part] = true;
  if (++acks_ < acked_.size()) return std::nullopt;
  return close(EpochAction::Kind::kCommit, clock_->now_ns());
}

EpochAction EpochController::part_failed(const std::string& reason) {
  open_ = 0;
  if (gave_up_ || rollbacks_ >= opts_.max_recoveries) {
    if (!gave_up_)
      failure_ = "recovery budget exhausted (" + std::to_string(opts_.max_recoveries) +
                 "): " + reason;
    gave_up_ = true;
    return {EpochAction::Kind::kGiveUp, last_committed_, 0};
  }
  const int shift = static_cast<int>(std::min<uint64_t>(rollbacks_++, 5));
  const int64_t not_before =
      saturating_add(clock_->now_ns(), std::min(backoff_base_ns_ << shift, kMaxBackoffNs));
  next_begin_ns_ = saturating_add(not_before, opts_.checkpoint_interval_ns);
  done_ = false;
  return {EpochAction::Kind::kRollBack, last_committed_, not_before};
}

int64_t EpochController::next_deadline() const {
  if (gave_up_) return kNever;
  if (open_ != 0) return deadline_ns_;
  return done_ || opts_.checkpoint_interval_ns <= 0 ? kNever : next_begin_ns_;
}

}  // namespace neptune::fault
