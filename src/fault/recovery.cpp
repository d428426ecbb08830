#include "fault/recovery.hpp"

#include <algorithm>
#include <utility>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/incident.hpp"

namespace neptune::fault {

namespace {

void answer(std::vector<std::promise<bool>>& callers, bool ok) {
  for (std::promise<bool>& c : callers) c.set_value(ok);
  callers.clear();
}

}  // namespace

RecoveryCoordinator::RecoveryCoordinator(Runtime& runtime, StreamGraph graph,
                                         RecoveryOptions options)
    : runtime_(runtime),
      graph_(std::move(graph)),
      options_(std::move(options)),
      epochs_(&SteadyClock::instance(), options_, /*parts=*/1),
      watchdog_(options_.watchdog) {
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
  // reads the flag at every step.
  job->set_failure_handler(
      [flag = failure_flag_](const std::string&) { flag->store(true, std::memory_order_release); });
}

std::shared_ptr<Job> RecoveryCoordinator::start() {
  auto job = runtime_.submit(graph_);
  attach(job);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    snapshot_ = job->initial_state();
  }
  start_ns_ = now_ns();
  job->start();
  monitor_ = std::thread([this] { monitor(); });
  return job;
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
  {
    std::lock_guard<std::mutex> lk(mu_);  // an idle monitor waits on cv_ under it
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  std::shared_ptr<Job> job = this->job();
  if (job && !job->completed()) job->stop();
}

bool RecoveryCoordinator::checkpoint_now() {
  std::future<bool> result;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!job_ || done_) return false;  // not started, or the monitor has exited
    requests_.emplace_back();
    result = requests_.back().get_future();
  }
  cv_.notify_all();
  return result.get();
}

JobMetricsSnapshot RecoveryCoordinator::metrics() const {
  std::shared_ptr<Job> job = this->job();
  JobMetricsSnapshot m = job ? job->metrics() : JobMetricsSnapshot{};
  m.checkpoints_taken = checkpoints_taken();
  m.recoveries = recoveries();
  m.recovery_ns = recovery_ns();
  return m;
}

void RecoveryCoordinator::apply(Job& job, const EpochAction& action) {
  if (action.kind == EpochAction::Kind::kBegin) {
    job.begin_checkpoint(action.epoch);
    return;
  }
  // Only Commit and Abandon reach here: the controller's rollbacks are
  // carried out by recover().
  const bool committed = action.kind == EpochAction::Kind::kCommit;
  if (committed) {
    obs::FlightRecorder::record(obs::FlightRecorder::register_actor("job " + graph_.name()),
                                obs::FlightEventType::kCheckpoint, checkpoints_taken());
  } else {
    // A barrier that cannot get through within the budget (wedged
    // operator, runaway backlog) is a health signal: surface it.
    std::string what = graph_.name() + ": checkpoint epoch " + std::to_string(action.epoch) +
                       " incomplete after " +
                       std::to_string(options_.checkpoint_timeout.count() / 1'000'000) +
                       " ms; abandoned";
    NEPTUNE_LOG_WARN("%s", what.c_str());
    obs::IncidentReporter::trigger_global("checkpoint-timeout", what);
  }
  std::lock_guard<std::mutex> lk(mu_);
  answer(epoch_callers_, committed);
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
    std::shared_ptr<Job> job = this->job();
    execute_due_kills();
    if (failure_flag_->load(std::memory_order_acquire) || job->failed() || any_resource_down()) {
      recover(job);
      continue;
    }
    if (job->completed()) {
      std::lock_guard<std::mutex> lk(mu_);
      epochs_.all_done();
      completed_ = true;
      break;
    }
    if (escalate_stalls(*job)) continue;  // the next step rolls back
    advance_epoch(*job);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    done_ = true;
    answer(requests_, false);
    answer(epoch_callers_, false);
  }
  cv_.notify_all();
}

bool RecoveryCoordinator::escalate_stalls(Job& job) {
  if (options_.watchdog.stall_timeout_ns <= 0) return false;
  std::vector<OperatorStall> stalls = watchdog_.check(job.metrics(), now_ns());
  for (const OperatorStall& s : stalls) {
    // Stamp the timeline, then snapshot it: the bundle written by the
    // trigger below contains this very event as its newest entry.
    obs::FlightRecorder::record(
        obs::FlightRecorder::register_actor(s.operator_id + "[" + std::to_string(s.instance) +
                                            "]"),
        obs::FlightEventType::kWatchdogStall, static_cast<uint64_t>(s.stalled_ms));
    obs::IncidentReporter::trigger_global("watchdog_stall", s.what);
    job.note_watchdog_stall(s.operator_id, s.instance);
    watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
    job.report_failure(s.what);
  }
  return !stalls.empty();
}

void RecoveryCoordinator::advance_epoch(Job& job) {
  std::optional<EpochAction> a;
  uint64_t open = 0;
  int64_t wait_ns = options_.poll_interval_ns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    a = epochs_.tick();
    if (!a && !requests_.empty()) a = epochs_.request();
    if (a && a->kind == EpochAction::Kind::kBegin) epoch_callers_ = std::exchange(requests_, {});
    open = epochs_.open_epoch();
    if (open != 0)
      wait_ns = std::clamp(epochs_.next_deadline() - now_ns(), int64_t{0}, wait_ns);
  }
  if (a) apply(job, *a);

  if (open == 0) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::nanoseconds(wait_ns),
                 [&] { return stop_.load(std::memory_order_acquire) || !requests_.empty(); });
    return;
  }
  // A wait that runs out leaves the epoch open for tick(), which abandons it
  // at its deadline; a failure drops it at the rollback.
  std::optional<JobSnapshot> snap = job.await_checkpoint(open, std::chrono::nanoseconds(wait_ns));
  if (!snap) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    a = epochs_.acked(0, open, true);
    if (a && a->kind == EpochAction::Kind::kCommit) snapshot_ = std::move(*snap);
  }
  if (a) apply(job, *a);
}

void RecoveryCoordinator::recover(const std::shared_ptr<Job>& old) {
  const std::string reason = old->failed() ? old->failure_reason() : "resource down";
  EpochAction rollback;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rollback = epochs_.part_failed(reason);
    answer(requests_, false);  // a failure drops the open epoch and every request
    answer(epoch_callers_, false);
  }
  if (rollback.kind == EpochAction::Kind::kGiveUp) {  // failure() is only written here
    NEPTUNE_LOG_ERROR("recovery: job '%s': %s; giving up", old->name().c_str(),
                      epochs_.failure().c_str());
    stop_.store(true, std::memory_order_release);  // the monitor exits
    return;
  }

  const int64_t t0 = now_ns();
  failure_flag_->store(false, std::memory_order_release);
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
  {
    std::lock_guard<std::mutex> lk(mu_);
    fresh->restore_state(snapshot_);
    job_ = fresh;
  }
  watchdog_ = OperatorWatchdog(options_.watchdog);  // no timestamps from the wreck
  fresh->start();

  recovery_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  NEPTUNE_LOG_INFO("recovery: job '%s' restored in %.1f ms", fresh->name().c_str(),
                   static_cast<double>(now_ns() - t0) * 1e-6);
}

}  // namespace neptune::fault
