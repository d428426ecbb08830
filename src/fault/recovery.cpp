#include "fault/recovery.hpp"

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/incident.hpp"

namespace neptune::fault {

RecoveryCoordinator::RecoveryCoordinator(Runtime& runtime, StreamGraph graph,
                                         RecoveryOptions options)
    : runtime_(runtime),
      graph_(std::move(graph)),
      options_(std::move(options)),
      epochs_(&SteadyClock::instance(), options_, /*parts=*/1) {
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
  auto counter = [&](const char* name, const char* help, auto read) {
    telemetry_.push_back(reg.register_series(
        {name, {{"job", graph_.name()}}, obs::SeriesKind::kCounter, help},
        [read] { return static_cast<double>(read()); }));
  };
  counter("neptune_checkpoints_total",
          "Automatic checkpoints captured by the recovery coordinator",
          [this] { return checkpoints_taken(); });
  counter("neptune_recoveries_total", "Checkpoint restores after detected failures",
          [this] { return recoveries(); });
  counter("neptune_recovery_seconds_total", "Cumulative failure-to-restored wall time",
          [this] { return static_cast<double>(recovery_ns()) * 1e-9; });
  counter("neptune_watchdog_stalls_total",
          "Stuck-operator detections escalated by the watchdog",
          [this] { return watchdog_stalls(); });
  counter("neptune_checkpoint_quiesce_timeouts",
          "Checkpoint epochs abandoned because their barriers did not complete within the "
          "checkpoint timeout",
          [this] { return quiesce_timeouts(); });
}

RecoveryCoordinator::~RecoveryCoordinator() { stop(); }

void RecoveryCoordinator::attach(const std::shared_ptr<Job>& job) {
  // The handler may fire from an IO loop thread long after this
  // coordinator is gone (old jobs and their channels are kept alive by the
  // runtime), so it owns the flag it touches and nothing else. The monitor
  // polls the flag every poll_interval.
  job->set_failure_handler(
      [flag = failure_flag_](const std::string&) { flag->store(true, std::memory_order_release); });
}

std::shared_ptr<Job> RecoveryCoordinator::start() {
  auto job = runtime_.submit(graph_);
  attach(job);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
  }
  start_ns_ = now_ns();
  job->start();
  if (options_.watchdog.enabled) arm_watchdog(job);
  monitor_ = std::thread([this] { monitor(); });
  return job;
}

void RecoveryCoordinator::arm_watchdog(const std::shared_ptr<Job>& job) {
  watchdog_.reset();  // joins the previous incarnation's watch thread
  watchdog_ = std::make_unique<OperatorWatchdog>(
      job, options_.watchdog, [this, weak = std::weak_ptr<Job>(job)](const std::string& what) {
        watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
        if (auto j = weak.lock()) j->report_failure(what);
      });
}

std::shared_ptr<Job> RecoveryCoordinator::job() const {
  std::lock_guard<std::mutex> lk(mu_);
  return job_;
}

bool RecoveryCoordinator::wait(std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(lk, timeout, [&] { return done_; });
  return completed_;
}

void RecoveryCoordinator::stop() {
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  watchdog_.reset();  // after the monitor: recover() re-arms it
  std::shared_ptr<Job> job = this->job();
  if (job && !job->completed()) job->stop();
}

bool RecoveryCoordinator::checkpoint_now() {
  std::shared_ptr<Job> job = this->job();
  return job && take_checkpoint(job, /*manual=*/true);
}

JobMetricsSnapshot RecoveryCoordinator::metrics() const {
  std::shared_ptr<Job> job = this->job();
  JobMetricsSnapshot m = job ? job->metrics() : JobMetricsSnapshot{};
  m.checkpoints_taken = checkpoints_taken();
  m.recoveries = recoveries();
  m.recovery_ns = recovery_ns();
  return m;
}

bool RecoveryCoordinator::take_checkpoint(const std::shared_ptr<Job>& job, bool manual) {
  // A failing job or a dead resource could not complete the barriers.
  if (job->failed() || job->completed() || any_resource_down()) return false;
  // The controller keeps one epoch open at a time, so a manual checkpoint
  // and the monitor's never overlap.
  std::optional<EpochAction> a;
  {
    std::lock_guard<std::mutex> lk(epochs_mu_);
    a = manual ? epochs_.request() : epochs_.tick();
  }
  if (a && a->kind == EpochAction::Kind::kBegin) {
    std::optional<JobSnapshot> snap = job->checkpoint(a->epoch, options_.checkpoint_timeout);
    // A failing job leaves the epoch to the rollback, which drops it.
    // Otherwise an incomplete epoch still open has run out its timeout:
    // the tick abandons it.
    if (!snap && (job->failed() || failure_flag_->load(std::memory_order_acquire))) return false;
    std::lock_guard<std::mutex> lk(epochs_mu_);
    if (snap) {
      a = epochs_.acked(0, a->epoch, true);
    } else {
      a = epochs_.open_epoch() == a->epoch ? epochs_.tick() : std::nullopt;
    }
    if (a && a->kind == EpochAction::Kind::kCommit) snapshot_ = std::move(*snap);
  }
  if (a) report(*a);
  return a && a->kind == EpochAction::Kind::kCommit;
}

void RecoveryCoordinator::report(const EpochAction& action) {
  if (action.kind == EpochAction::Kind::kCommit) {
    obs::FlightRecorder::record(obs::FlightRecorder::register_actor("job " + graph_.name()),
                                obs::FlightEventType::kCheckpoint, checkpoints_taken());
  } else if (action.kind == EpochAction::Kind::kAbandon) {
    // A barrier that cannot get through within the budget (wedged
    // operator, runaway backlog) is a health signal: surface it.
    std::string what = graph_.name() + ": checkpoint epoch " + std::to_string(action.epoch) +
                       " incomplete after " +
                       std::to_string(options_.checkpoint_timeout.count() / 1'000'000) +
                       " ms; abandoned";
    NEPTUNE_LOG_WARN("%s", what.c_str());
    obs::IncidentReporter::trigger_global("checkpoint-timeout", what);
  }
}

void RecoveryCoordinator::execute_due_kills() {
  auto injector = runtime_.options().fault_injector;
  if (!injector) return;
  const int64_t elapsed = now_ns() - start_ns_;
  for (const ResourceKill& kill : injector->resource_kills()) {
    if (kill.executed || elapsed < kill.at_ns_after_start) continue;
    if (kill.resource_index >= runtime_.resource_count()) continue;
    NEPTUNE_LOG_WARN("fault: killing resource %zu (scheduled at t+%.3fs)", kill.resource_index,
                     static_cast<double>(kill.at_ns_after_start) * 1e-9);
    injector->mark_kill_executed(kill.resource_index);
    runtime_.resource(kill.resource_index)->stop();
  }
}

bool RecoveryCoordinator::any_resource_down() const {
  for (size_t i = 0; i < runtime_.resource_count(); ++i) {
    if (!runtime_.resource(i)->running()) return true;
  }
  return false;
}

void RecoveryCoordinator::monitor() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, std::chrono::nanoseconds(options_.poll_interval_ns),
                   [&] { return stop_.load(std::memory_order_acquire); });
    }
    if (stop_.load(std::memory_order_acquire)) break;

    std::shared_ptr<Job> job = this->job();
    if (!job) break;

    execute_due_kills();

    if (failure_flag_->load(std::memory_order_acquire) || job->failed() || any_resource_down()) {
      recover(job);
      continue;
    }

    if (job->completed()) {
      {
        std::lock_guard<std::mutex> lk(epochs_mu_);
        epochs_.all_done();
      }
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
      completed_ = true;
      cv_.notify_all();
      break;
    }

    take_checkpoint(job, /*manual=*/false);
  }
}

void RecoveryCoordinator::recover(const std::shared_ptr<Job>& old) {
  const std::string reason = old->failed() ? old->failure_reason() : "resource down";
  EpochAction rollback;
  {
    std::lock_guard<std::mutex> lk(epochs_mu_);
    rollback = epochs_.part_failed(reason);
  }
  if (rollback.kind == EpochAction::Kind::kGiveUp) {  // failure() is only written here
    NEPTUNE_LOG_ERROR("recovery: job '%s': %s; giving up", old->name().c_str(),
                      epochs_.failure().c_str());
    std::lock_guard<std::mutex> lk(mu_);
    done_ = true;
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
    return;
  }

  const int64_t t0 = now_ns();
  failure_flag_->store(false, std::memory_order_release);
  watchdog_.reset();  // stop watching the wreck; re-armed on the fresh incarnation
  NEPTUNE_LOG_WARN("recovery: job '%s' failed (%s) — restoring from %s", old->name().c_str(),
                   reason.c_str(),
                   rollback.epoch != 0 ? "latest checkpoint" : "scratch (no checkpoint yet)");
  // Bundle the wreck before teardown wipes the evidence.
  obs::FlightRecorder::record(obs::FlightRecorder::register_actor("job " + graph_.name()),
                              obs::FlightEventType::kRecovery, recoveries());
  obs::IncidentReporter::trigger_global("recovery", old->name() + ": " + reason);

  // Tear the wreck down (best effort — dead resources never run the stop
  // notifications, which is fine; the runtime keeps the old job's carcass
  // alive so late edge-failure callbacks stay safe), then wait until none of
  // its executions is in flight: workers on live resources may still be
  // draining a batch into operators shared with the next incarnation.
  old->stop();
  if (!old->wait_idle(std::chrono::seconds(2)))
    NEPTUNE_LOG_WARN("recovery: job '%s' still executing after 2 s; restoring anyway",
                     old->name().c_str());

  // Restart any dead resource: fresh IO loops + worker pools. Old task
  // entries stay terminated/idle and are never rescheduled.
  for (size_t i = 0; i < runtime_.resource_count(); ++i) {
    if (!runtime_.resource(i)->running()) {
      NEPTUNE_LOG_INFO("recovery: restarting resource %zu", i);
      runtime_.resource(i)->start();
    }
  }

  // Resubmit the same graph and restore the last committed epoch; sources
  // rewind to their recorded replay positions.
  auto fresh = runtime_.submit(graph_);
  attach(fresh);
  if (rollback.epoch != 0) {
    std::lock_guard<std::mutex> lk(epochs_mu_);
    fresh->restore_state(snapshot_);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = fresh;
  }
  fresh->start();
  if (options_.watchdog.enabled) arm_watchdog(fresh);

  recovery_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  NEPTUNE_LOG_INFO("recovery: job '%s' restored in %.1f ms", fresh->name().c_str(),
                   static_cast<double>(now_ns() - t0) * 1e-6);
}

}  // namespace neptune::fault
