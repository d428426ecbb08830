#include "fault/recovery.hpp"

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/incident.hpp"

namespace neptune::fault {

RecoveryCoordinator::RecoveryCoordinator(Runtime& runtime, StreamGraph graph,
                                         RecoveryOptions options)
    : runtime_(runtime), graph_(std::move(graph)), options_(std::move(options)) {
  if (!options_.snapshot_dir.empty()) store_ = std::make_unique<SnapshotStore>(options_.snapshot_dir);
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
  auto counter = [&](const char* name, const char* help, auto read) {
    telemetry_.push_back(reg.register_series(
        {name, {{"job", graph_.name()}}, obs::SeriesKind::kCounter, help}, read));
  };
  auto count = [](const std::atomic<uint64_t>& c) {
    return [&c] { return static_cast<double>(c.load(std::memory_order_relaxed)); };
  };
  counter("neptune_checkpoints_total",
          "Automatic checkpoints captured by the recovery coordinator", count(checkpoints_));
  counter("neptune_recoveries_total", "Checkpoint restores after detected failures",
          count(recoveries_));
  counter("neptune_recovery_seconds_total", "Cumulative failure-to-restored wall time", [this] {
    return static_cast<double>(recovery_ns_.load(std::memory_order_relaxed)) * 1e-9;
  });
  counter("neptune_watchdog_stalls_total",
          "Stuck-operator detections escalated by the watchdog", count(watchdog_stalls_));
  counter("neptune_snapshots_persisted_total",
          "Checkpoints durably written to the snapshot store", count(snapshots_persisted_));
  counter("neptune_checkpoint_quiesce_timeouts",
          "Checkpoint epochs abandoned because their barriers did not complete within the "
          "checkpoint timeout",
          count(quiesce_timeouts_));
}

RecoveryCoordinator::~RecoveryCoordinator() { stop(); }

void RecoveryCoordinator::attach(const std::shared_ptr<Job>& job) {
  // The handler may fire from a supervisor thread long after this
  // coordinator is gone (old jobs and their channels are kept alive by the
  // runtime), so it owns the flag it touches and nothing else. The monitor
  // polls the flag every poll_interval.
  job->set_failure_handler(
      [flag = failure_flag_](const std::string&) { flag->store(true, std::memory_order_release); });
}

std::shared_ptr<Job> RecoveryCoordinator::start() {
  auto job = runtime_.submit(graph_);
  attach(job);
  // Crash restart: seed the first incarnation from the newest valid on-disk
  // snapshot (a torn or bit-flipped current file falls back to the previous
  // good one inside SnapshotStore::load).
  if (store_) {
    if (auto snap = store_->load()) {
      job->restore_state(*snap);
      std::lock_guard<std::mutex> lk(mu_);
      snapshot_ = std::move(*snap);
      have_snapshot_ = true;
      restored_from_disk_ = true;
    }
  }
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
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job = job_;
  }
  if (job && !job->completed()) job->stop();
}

bool RecoveryCoordinator::permanently_failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return permanent_failure_;
}

bool RecoveryCoordinator::checkpoint_now() {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job = job_;
  }
  return job && take_checkpoint(job);
}

JobMetricsSnapshot RecoveryCoordinator::metrics() const {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job = job_;
  }
  JobMetricsSnapshot m = job ? job->metrics() : JobMetricsSnapshot{};
  m.checkpoints_taken = checkpoints_.load(std::memory_order_relaxed);
  m.recoveries = recoveries_.load(std::memory_order_relaxed);
  m.recovery_ns = recovery_ns_.load(std::memory_order_relaxed);
  return m;
}

bool RecoveryCoordinator::take_checkpoint(const std::shared_ptr<Job>& job) {
  // A failing job or a dead resource could not complete the barriers.
  if (job->failed() || job->completed() || any_resource_down()) return false;
  std::lock_guard<std::mutex> ckpt(checkpoint_mu_);
  std::optional<JobSnapshot> snap = job->checkpoint(++epoch_, options_.checkpoint_timeout);
  if (!snap) {
    if (job->failed() || failure_flag_->load(std::memory_order_acquire)) return false;
    // A barrier that cannot get through within the budget (wedged
    // operator, runaway backlog) is a health signal: surface it.
    quiesce_timeouts_.fetch_add(1, std::memory_order_relaxed);
    std::string what = job->name() + ": checkpoint epoch " + std::to_string(epoch_) +
                       " incomplete after " +
                       std::to_string(options_.checkpoint_timeout.count() / 1'000'000) +
                       " ms; abandoned";
    NEPTUNE_LOG_WARN("%s", what.c_str());
    obs::IncidentReporter::trigger_global("checkpoint-timeout", what);
    return false;
  }
  // A complete epoch is a consistent cut even if a fault follows it.
  if (store_ && store_->save(*snap)) snapshots_persisted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_ = std::move(*snap);
    have_snapshot_ = true;
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  obs::FlightRecorder::record(obs::FlightRecorder::register_actor("job " + graph_.name()),
                              obs::FlightEventType::kCheckpoint,
                              checkpoints_.load(std::memory_order_relaxed));
  return true;
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
  int64_t last_checkpoint_ns = now_ns();
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, std::chrono::nanoseconds(options_.poll_interval_ns),
                   [&] { return stop_.load(std::memory_order_acquire); });
    }
    if (stop_.load(std::memory_order_acquire)) break;

    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lk(mu_);
      job = job_;
    }
    if (!job) break;

    execute_due_kills();

    const bool failed = failure_flag_->load(std::memory_order_acquire) || job->failed() ||
                        any_resource_down();
    if (failed) {
      recover();
      if (stop_.load(std::memory_order_acquire)) break;
      last_checkpoint_ns = now_ns();
      continue;
    }

    if (job->completed()) {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
      completed_ = true;
      cv_.notify_all();
      break;
    }

    if (now_ns() - last_checkpoint_ns >= options_.checkpoint_interval_ns) {
      take_checkpoint(job);
      last_checkpoint_ns = now_ns();  // even on failure: don't retry back to back
    }
  }
}

void RecoveryCoordinator::recover() {
  if (recoveries_.load(std::memory_order_relaxed) >= options_.max_recoveries) {
    NEPTUNE_LOG_ERROR("recovery: budget exhausted (%u), giving up", options_.max_recoveries);
    std::lock_guard<std::mutex> lk(mu_);
    permanent_failure_ = true;
    done_ = true;
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
    return;
  }

  const int64_t t0 = now_ns();
  std::shared_ptr<Job> old;
  bool from_snapshot = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    old = job_;
    from_snapshot = have_snapshot_;
  }
  failure_flag_->store(false, std::memory_order_release);
  watchdog_.reset();  // stop watching the wreck; re-armed on the fresh incarnation
  NEPTUNE_LOG_WARN("recovery: job '%s' failed (%s) — restoring from %s", old->name().c_str(),
                   old->failed() ? old->failure_reason().c_str() : "resource down",
                   from_snapshot ? "latest checkpoint" : "scratch (no checkpoint yet)");
  // Bundle the wreck before teardown wipes the evidence.
  obs::FlightRecorder::record(
      obs::FlightRecorder::register_actor("job " + graph_.name()),
      obs::FlightEventType::kRecovery, recoveries_.load(std::memory_order_relaxed) + 1);
  obs::IncidentReporter::trigger_global(
      "recovery", old->name() + ": " +
                      (old->failed() ? old->failure_reason() : "resource down"));

  // Tear the wreck down (best effort — dead resources never run the stop
  // notifications, which is fine; the runtime keeps the old job's carcass
  // alive so late supervisor callbacks stay safe).
  old->stop();
  // Wait until the wreck stops moving before restoring state: workers may
  // still be draining in-flight batches into operators that are shared with
  // the next incarnation (Job::wait would hang on a dead resource, so watch
  // packet movement instead — frozen instantly there, drained in ms here).
  auto moved = [&] {
    JobMetricsSnapshot m = old->metrics();
    return m.total(&OperatorMetricsSnapshot::packets_in) +
           m.total(&OperatorMetricsSnapshot::packets_out) +
           m.total(&OperatorMetricsSnapshot::executions);
  };
  uint64_t prev = moved();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    uint64_t cur = moved();
    if (cur == prev) break;
    prev = cur;
  }

  // Restart any dead resource: fresh IO loops + worker pools. Old task
  // entries stay terminated/idle and are never rescheduled.
  for (size_t i = 0; i < runtime_.resource_count(); ++i) {
    if (!runtime_.resource(i)->running()) {
      NEPTUNE_LOG_INFO("recovery: restarting resource %zu", i);
      runtime_.resource(i)->start();
    }
  }

  // Resubmit the same graph and restore the latest consistent snapshot;
  // sources rewind to their recorded replay positions.
  auto fresh = runtime_.submit(graph_);
  attach(fresh);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (have_snapshot_) fresh->restore_state(snapshot_);
    job_ = fresh;
  }
  fresh->start();
  if (options_.watchdog.enabled) arm_watchdog(fresh);

  recoveries_.fetch_add(1, std::memory_order_relaxed);
  recovery_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  NEPTUNE_LOG_INFO("recovery: job '%s' restored in %.1f ms", fresh->name().c_str(),
                   static_cast<double>(now_ns() - t0) * 1e-6);
}

}  // namespace neptune::fault
