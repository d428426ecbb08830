#include "granules/resource.hpp"

#include "common/log.hpp"
#include "common/thread_util.hpp"

namespace neptune::granules {

void Resource::TaskEntry::request_reschedule() { owner->notify_data(id); }

void Resource::TaskEntry::request_termination() {
  terminate_requested.store(true, std::memory_order_release);
}

Resource::Resource(ResourceConfig config)
    : config_(std::move(config)), run_queue_(config_.run_queue_capacity) {
  if (config_.worker_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    config_.worker_threads = hw == 0 ? 1 : hw;
  }
  if (config_.io_threads == 0) config_.io_threads = 1;
}

Resource::~Resource() { stop(); }

uint64_t Resource::deploy(std::shared_ptr<ComputationalTask> task, ScheduleSpec schedule) {
  auto entry = std::make_unique<TaskEntry>();
  entry->id = next_task_id_.fetch_add(1, std::memory_order_relaxed);
  entry->task = std::move(task);
  entry->schedule = schedule;
  entry->owner = this;
  TaskEntry* raw = entry.get();
  {
    std::lock_guard lk(tasks_mu_);
    tasks_.push_back(std::move(entry));
  }
  if (running_.load(std::memory_order_acquire)) arm_periodic_timer(raw);
  return raw->id;
}

void Resource::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  run_queue_.reopen();  // stop() closed it; a restart needs live workers

  for (size_t i = 0; i < config_.io_threads; ++i) {
    io_loops_.push_back(std::make_unique<EventLoop>());
  }
  for (size_t i = 0; i < config_.io_threads; ++i) {
    EventLoop* loop = io_loops_[i].get();
    io_threads_.emplace_back([this, loop, i] {
      set_thread_name(config_.name + "-io" + std::to_string(i));
      loop->run();
    });
  }
  for (size_t i = 0; i < config_.worker_threads; ++i) {
    worker_threads_.emplace_back([this, i] {
      set_thread_name(config_.name + "-w" + std::to_string(i));
      worker_main(i);
    });
  }
  {
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    std::vector<std::pair<std::string, std::string>> labels{{"resource", config_.name}};
    telemetry_.push_back(reg.register_series(
        {"granules_run_queue_depth", labels, obs::SeriesKind::kGauge,
         "Runnable tasks queued on the resource"},
        [this] { return static_cast<double>(run_queue_.size_approx()); }));
    telemetry_.push_back(reg.register_series(
        {"granules_task_executions_total", labels, obs::SeriesKind::kCounter,
         "Scheduled task executions on the resource"},
        [this] {
          return static_cast<double>(task_executions_.load(std::memory_order_relaxed));
        }));
    telemetry_.push_back(reg.register_series(
        {"granules_scheduler_wakeups_total", labels, obs::SeriesKind::kCounter,
         "Worker dequeue operations on the resource"},
        [this] {
          return static_cast<double>(scheduler_wakeups_.load(std::memory_order_relaxed));
        }));
  }

  std::lock_guard lk(tasks_mu_);
  for (auto& e : tasks_) arm_periodic_timer(e.get());
}

void Resource::arm_periodic_timer(TaskEntry* entry) {
  if (entry->schedule.period_ns <= 0 || entry->timer_id != 0) return;
  entry->timer_id =
      io_loop(0)->run_every(entry->schedule.period_ns, [this, id = entry->id] { notify_data(id); });
}

void Resource::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  telemetry_.clear();  // blocks out in-flight samples before teardown
  run_queue_.close();
  for (auto& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  for (auto& loop : io_loops_) loop->stop();
  for (auto& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
  // Retire (don't destroy) the loops: channels inside surviving task entries
  // hold raw EventLoop* and post to them during their own teardown. A post
  // to a stopped loop just parks the task; posting to a freed loop is UB.
  for (auto& loop : io_loops_) retired_loops_.push_back(std::move(loop));
  io_loops_.clear();

  // Terminate tasks that were initialized.
  std::lock_guard lk(tasks_mu_);
  for (auto& e : tasks_) {
    if (e->initialized.load(std::memory_order_acquire) &&
        e->state.load(std::memory_order_acquire) != RunState::kTerminated) {
      e->state.store(RunState::kTerminated, std::memory_order_release);
      try {
        e->task->terminate();
      } catch (const std::exception& ex) {
        NEPTUNE_LOG_ERROR("task %s terminate() threw: %s", e->task->name().c_str(), ex.what());
      }
    }
  }
  running_.store(false, std::memory_order_release);
}

void Resource::notify_data(uint64_t task_id) {
  TaskEntry* entry = nullptr;
  {
    std::lock_guard lk(tasks_mu_);
    for (auto& e : tasks_) {
      if (e->id == task_id) {
        entry = e.get();
        break;
      }
    }
  }
  if (!entry) return;
  enqueue(entry);
}

void Resource::enqueue(TaskEntry* entry) {
  // Loop on the observed state: a failed CAS reloads `cur`, so a worker
  // moving Running -> Idle between our two attempts is retried as Idle
  // instead of dropping the notify.
  RunState cur = entry->state.load(std::memory_order_acquire);
  for (;;) {
    if (cur == RunState::kIdle) {
      if (entry->state.compare_exchange_weak(cur, RunState::kQueued, std::memory_order_acq_rel)) {
        if (run_queue_.push(entry) != QueueResult::kOk) {
          // Shutting down; leave the task in Queued — workers are gone anyway.
        }
        return;
      }
    } else if (cur == RunState::kRunning) {
      // Mark dirty so the worker re-enqueues after the current execution.
      if (entry->state.compare_exchange_weak(cur, RunState::kRunningDirty,
                                             std::memory_order_acq_rel))
        return;
    } else {
      return;  // Queued / RunningDirty / Terminated: nothing to do.
    }
  }
}

void Resource::worker_main(size_t) {
  for (;;) {
    auto popped = run_queue_.pop();
    if (!popped) return;  // closed and drained
    scheduler_wakeups_.fetch_add(1, std::memory_order_relaxed);
    run_task(*popped);
  }
}

void Resource::run_task(TaskEntry* entry) {
  RunState expected = RunState::kQueued;
  if (!entry->state.compare_exchange_strong(expected, RunState::kRunning,
                                            std::memory_order_acq_rel))
    return;  // terminated meanwhile

  if (!entry->initialized.exchange(true, std::memory_order_acq_rel)) {
    try {
      entry->task->initialize(*entry);
    } catch (const std::exception& ex) {
      NEPTUNE_LOG_ERROR("task %s initialize() threw: %s", entry->task->name().c_str(), ex.what());
    }
  }

  try {
    entry->task->execute(*entry);
  } catch (const std::exception& ex) {
    NEPTUNE_LOG_ERROR("task %s execute() threw: %s", entry->task->name().c_str(), ex.what());
  }
  uint64_t execs = entry->executions.fetch_add(1, std::memory_order_acq_rel) + 1;
  task_executions_.fetch_add(1, std::memory_order_relaxed);

  bool done = entry->terminate_requested.load(std::memory_order_acquire) ||
              (entry->schedule.max_executions != 0 && execs >= entry->schedule.max_executions);
  if (done) {
    entry->state.store(RunState::kTerminated, std::memory_order_release);
    if (entry->timer_id != 0) io_loop(0)->cancel_timer(entry->timer_id);
    try {
      entry->task->terminate();
    } catch (const std::exception& ex) {
      NEPTUNE_LOG_ERROR("task %s terminate() threw: %s", entry->task->name().c_str(), ex.what());
    }
    return;
  }

  // Running -> Idle, or RunningDirty -> re-enqueue (a notify arrived
  // mid-execution; losing it would strand buffered data).
  RunState cur = RunState::kRunning;
  if (entry->state.compare_exchange_strong(cur, RunState::kIdle, std::memory_order_acq_rel))
    return;
  if (cur == RunState::kRunningDirty) {
    entry->state.store(RunState::kQueued, std::memory_order_release);
    run_queue_.push(entry);
  }
}

ResourceStats Resource::stats() const {
  ResourceStats s;
  s.task_executions = task_executions_.load(std::memory_order_relaxed);
  s.scheduler_wakeups = scheduler_wakeups_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace neptune::granules
