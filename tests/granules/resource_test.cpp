#include "granules/resource.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

namespace neptune::granules {
namespace {

using namespace std::chrono_literals;

class CountingTask : public ComputationalTask {
 public:
  explicit CountingTask(std::string task_name = "counting") : name_(std::move(task_name)) {}
  const std::string& name() const override { return name_; }
  void initialize(TaskContext&) override { init_count.fetch_add(1); }
  void execute(TaskContext&) override { exec_count.fetch_add(1); }
  void terminate() override { term_count.fetch_add(1); }

  std::atomic<int> init_count{0};
  std::atomic<int> exec_count{0};
  std::atomic<int> term_count{0};

 private:
  std::string name_;
};

template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 2000) {
  for (int i = 0; i < timeout_ms / 5; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

TEST(Resource, DataDrivenTaskRunsOncePerNotify) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  EXPECT_EQ(task->exec_count.load(), 0);  // nothing until data arrives
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() == 1; }));
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() == 2; }));
  res.stop();
  EXPECT_EQ(task->init_count.load(), 1);
  EXPECT_EQ(task->term_count.load(), 1);
}

TEST(Resource, NotifyUnknownTaskIsNoop) {
  Resource res({.name = "t", .worker_threads = 1});
  res.start();
  res.notify_data(9999);
  res.stop();
  SUCCEED();
}

TEST(Resource, PeriodicTaskFiresRepeatedly) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  res.deploy(task, ScheduleSpec::every_ns(5'000'000));  // 5 ms
  res.start();
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() >= 5; }));
  res.stop();
}

TEST(Resource, CountBasedTaskStopsAfterN) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::count(3));
  res.start();
  for (int i = 0; i < 10; ++i) {
    res.notify_data(id);
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(eventually([&] { return task->term_count.load() == 1; }));
  EXPECT_EQ(task->exec_count.load(), 3);
  res.stop();
  EXPECT_EQ(task->term_count.load(), 1);  // not terminated twice
}

TEST(Resource, CountBasedPeriodicCombination) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  res.deploy(task, ScheduleSpec::count(4, /*period_ns=*/3'000'000));
  res.start();
  ASSERT_TRUE(eventually([&] { return task->term_count.load() == 1; }));
  EXPECT_EQ(task->exec_count.load(), 4);
  res.stop();
}

class RescheduleNTimes : public ComputationalTask {
 public:
  explicit RescheduleNTimes(int n) : n_(n) {}
  const std::string& name() const override { return name_; }
  void execute(TaskContext& ctx) override {
    count.fetch_add(1);
    if (count.load() < n_) ctx.request_reschedule();
  }
  std::atomic<int> count{0};

 private:
  int n_;
  std::string name_ = "reschedule";
};

TEST(Resource, SelfRescheduleRunsUntilQuiescent) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<RescheduleNTimes>(50);
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->count.load() == 50; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(task->count.load(), 50);  // quiescent after the last run
  res.stop();
}

class SerializationProbe : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    // The framework guarantees one thread at a time per task instance.
    int in_flight = concurrent.fetch_add(1) + 1;
    if (in_flight > max_concurrent.load()) max_concurrent.store(in_flight);
    std::this_thread::sleep_for(1ms);
    concurrent.fetch_sub(1);
    runs.fetch_add(1);
  }
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int> runs{0};

 private:
  std::string name_ = "probe";
};

TEST(Resource, TaskNeverRunsConcurrentlyWithItself) {
  Resource res({.name = "t", .worker_threads = 4, .io_threads = 1});
  auto task = std::make_shared<SerializationProbe>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  // Hammer with notifies from several threads *while* executions happen, so
  // notifications overlap running state.
  std::atomic<bool> stop{false};
  std::vector<std::thread> notifiers;
  for (int t = 0; t < 4; ++t) {
    notifiers.emplace_back([&] {
      while (!stop.load()) res.notify_data(id);
    });
  }
  ASSERT_TRUE(eventually([&] { return task->runs.load() >= 10; }, 5000));
  stop.store(true);
  for (auto& t : notifiers) t.join();
  EXPECT_EQ(task->max_concurrent.load(), 1);
  res.stop();
}

class GatedTask : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    in_execute.store(true);
    while (!gate_open.load()) std::this_thread::yield();
    in_execute.store(false);
    runs.fetch_add(1);
  }
  std::atomic<bool> gate_open{false};
  std::atomic<bool> in_execute{false};
  std::atomic<int> runs{0};

 private:
  std::string name_ = "gated";
};

TEST(Resource, NotifyDuringRunIsNotLost) {
  // Running -> RunningDirty -> re-enqueue: a notify that lands mid-execution
  // must produce another execution even with no further notifies.
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<GatedTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->in_execute.load(); }));  // definitely mid-run
  res.notify_data(id);  // lands while running
  task->gate_open.store(true);
  ASSERT_TRUE(eventually([&] { return task->runs.load() >= 2; }));
  res.stop();
}

// Reads what the producer published, runs a short tail, then records what
// it read. Like a channel consumer, it re-arms the producer's wakeup before
// it looks, so a producer that finds `armed` taken skips the notify and a
// lost notify is never repaired by a later one.
class PublishedCounterTask : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    armed.store(true);
    const uint64_t seen = published.load();
    for (uint64_t i = 0, n = seen % 32; i < n; ++i) tail.fetch_add(1, std::memory_order_relaxed);
    consumed.store(seen);
  }
  std::atomic<bool> armed{true};
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> tail{0};

 private:
  std::string name_ = "published-counter";
};

TEST(Resource, NotifyRacingTheEndOfAnExecutionIsNotLost) {
  // A notify that sees Running and then finds the worker already back at
  // Idle must still queue the task, or the published value is stranded.
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<PublishedCounterTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  constexpr uint64_t kRounds = 1'000'000;
  std::atomic<uint64_t> phase_sink{0};
  for (uint64_t round = 1; round <= kRounds; ++round) {
    task->published.store(round);
    if (task->armed.exchange(false)) res.notify_data(id);
    // Vary where the next publish lands relative to the execution's tail.
    for (uint64_t i = 0, n = (round * 7) % 41; i < n; ++i)
      phase_sink.fetch_add(1, std::memory_order_relaxed);
    if (round % 64 == 0) {
      // Usually caught up within microseconds; `eventually` bounds the wait.
      auto caught_up = [&] { return task->consumed.load() == round; };
      for (int i = 0; i < 10000 && !caught_up(); ++i) std::this_thread::yield();
      ASSERT_TRUE(eventually(caught_up)) << "round " << round << ": consumed "
                                         << task->consumed.load();
    }
  }
  res.stop();
}

TEST(Resource, MultipleTasksShareWorkers) {
  Resource res({.name = "t", .worker_threads = 2, .io_threads = 1});
  std::vector<std::shared_ptr<CountingTask>> tasks;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(std::make_shared<CountingTask>("task" + std::to_string(i)));
    ids.push_back(res.deploy(tasks.back(), ScheduleSpec::on_data()));
  }
  res.start();
  for (int round = 0; round < 5; ++round) {
    for (uint64_t id : ids) res.notify_data(id);
  }
  ASSERT_TRUE(eventually([&] {
    for (auto& t : tasks) {
      if (t->exec_count.load() == 0) return false;
    }
    return true;
  }));
  res.stop();
  auto stats = res.stats();
  EXPECT_GT(stats.task_executions, 0u);
  EXPECT_GE(stats.scheduler_wakeups, stats.task_executions);
}

TEST(Resource, StopIsIdempotentAndRestartless) {
  Resource res({.name = "t", .worker_threads = 1});
  auto task = std::make_shared<CountingTask>();
  res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.stop();
  res.stop();  // second stop is a no-op
  SUCCEED();
}

TEST(Resource, DeployAfterStartWorks) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  res.start();
  auto task = std::make_shared<CountingTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() >= 1; }));
  res.stop();
}

TEST(Resource, WorkerCountDefaultsToHardware) {
  Resource res({.name = "t", .worker_threads = 0, .io_threads = 1});
  res.start();
  EXPECT_GE(res.worker_count(), 1u);
  res.stop();
}

class ThrowingTask : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    runs.fetch_add(1);
    throw std::runtime_error("deliberate");
  }
  std::atomic<int> runs{0};

 private:
  std::string name_ = "thrower";
};

TEST(Resource, TaskExceptionsAreContained) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto bad = std::make_shared<ThrowingTask>();
  auto good = std::make_shared<CountingTask>();
  uint64_t bad_id = res.deploy(bad, ScheduleSpec::on_data());
  uint64_t good_id = res.deploy(good, ScheduleSpec::on_data());
  res.start();
  res.notify_data(bad_id);
  res.notify_data(good_id);
  ASSERT_TRUE(eventually([&] { return good->exec_count.load() >= 1; }));
  EXPECT_GE(bad->runs.load(), 1);  // threw but the worker survived
  res.notify_data(bad_id);
  ASSERT_TRUE(eventually([&] { return bad->runs.load() >= 2; }));
  res.stop();
}

}  // namespace
}  // namespace neptune::granules
