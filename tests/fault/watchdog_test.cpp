// Operator watchdog: detects an execution wedged inside an operator from
// outside the worker threads (metrics-only) and escalates so the recovery
// coordinator can restart the job instead of letting the topology hang.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "../support/gate.hpp"
#include "../support/poll.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using fault::OperatorWatchdog;
using fault::RecoveryCoordinator;
using fault::RecoveryOptions;
using fault::WatchdogOptions;
using workload::BytesSource;
using workload::CountingSink;

GraphConfig small_batches() {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  return cfg;
}

ProcessorFactory forward_to(std::shared_ptr<CountingSink> sink) {
  return [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  };
}

/// Runs `hold` inside its dispatch of the first packet it sees (the test
/// decides how long the operator stays stuck; it must return so that
/// stop()/join still work), then behaves normally.
class StallOnce : public StreamProcessor {
 public:
  StallOnce(std::shared_ptr<std::atomic<bool>> armed, std::function<void()> hold)
      : armed_(std::move(armed)), hold_(std::move(hold)) {}
  void process(StreamPacket& p, Emitter& out) override {
    if (armed_->exchange(false)) hold_();
    StreamPacket copy = p;
    out.emit(std::move(copy));
  }

 private:
  std::shared_ptr<std::atomic<bool>> armed_;
  const std::function<void()> hold_;
};

TEST(Watchdog, DetectsDispatchStuckInsideAnOperator) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  static constexpr uint64_t kTotal = 500;
  auto sink = std::make_shared<CountingSink>();
  auto armed = std::make_shared<std::atomic<bool>>(true);
  auto gate = std::make_shared<test_util::Gate>();

  StreamGraph g("stall", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("proc", [armed, gate] {
    return std::make_unique<StallOnce>(armed, [gate] { gate->wait(); });
  });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "proc");
  g.connect("proc", "sink");

  auto job = rt.submit(g);

  std::mutex mu;
  std::vector<std::string> reports;
  WatchdogOptions opt;
  opt.stall_timeout_ns = 200'000'000;  // 200 ms
  opt.poll_interval_ns = 50'000'000;
  OperatorWatchdog dog(job, opt, [&](const std::string& what) {
    std::lock_guard lk(mu);
    reports.push_back(what);
  });

  job->start();
  // The operator stays inside its dispatch until the watchdog has reported
  // (or a generous bound has passed), so detection does not hang on how far
  // a fixed sleep outlasts the poll.
  const bool reported = test_util::wait_until(
      [&] {
        std::lock_guard lk(mu);
        return !reports.empty();
      },
      30s);
  gate->open();
  ASSERT_TRUE(reported) << "no stall reported within 30 s";
  ASSERT_TRUE(job->wait(60s));
  dog.stop();

  // Detection, not disruption: the stall was flagged while the job still
  // completed and delivered everything.
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_GE(dog.stalls_detected(), 1u);
  EXPECT_GE(job->metrics().total("proc", &OperatorMetricsSnapshot::watchdog_stalls), 1u);
  std::lock_guard lk(mu);
  ASSERT_GE(reports.size(), 1u);
  EXPECT_NE(reports[0].find("proc"), std::string::npos);
  EXPECT_NE(reports[0].find("stuck inside a dispatch"), std::string::npos);
}

TEST(Watchdog, HealthyJobTriggersNoStalls) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  static constexpr uint64_t kTotal = 2000;
  auto sink = std::make_shared<CountingSink>();
  StreamGraph g("healthy", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "sink");

  auto job = rt.submit(g);
  WatchdogOptions opt;
  opt.stall_timeout_ns = 500'000'000;
  opt.poll_interval_ns = 20'000'000;
  OperatorWatchdog dog(job, opt);

  job->start();
  ASSERT_TRUE(job->wait(60s));
  dog.stop();
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_EQ(dog.stalls_detected(), 0u);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::watchdog_stalls), 0u);
}

TEST(Watchdog, EscalatesThroughRecoveryCoordinator) {
  // The first incarnation wedges inside the operator; the watchdog reports
  // it as a failure and the coordinator restarts the job, whose second
  // incarnation (the armed flag is spent) runs clean to completion.
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  static constexpr uint64_t kTotal = 3000;
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/20'000);
  auto armed = std::make_shared<std::atomic<bool>>(true);

  StreamGraph g("stuck-recovery", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("proc",
                  [armed] {
                    return std::make_unique<StallOnce>(
                        armed, [] { std::this_thread::sleep_for(2s); });
                  });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "proc");
  g.connect("proc", "sink");

  RecoveryOptions opt;
  opt.checkpoint_interval_ns = 40'000'000;
  opt.poll_interval_ns = 10'000'000;
  opt.watchdog.enabled = true;
  opt.watchdog.stall_timeout_ns = 200'000'000;
  opt.watchdog.poll_interval_ns = 50'000'000;

  RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  ASSERT_TRUE(coord.wait(120s));

  EXPECT_GE(coord.watchdog_stalls(), 1u);
  EXPECT_GE(coord.recoveries(), 1u);
  EXPECT_FALSE(coord.permanently_failed());
  // The sink is not checkpoint-aware, so replay after recovery may recount
  // packets — but nothing may be lost.
  EXPECT_GE(sink->count(), kTotal);
}

}  // namespace
}  // namespace neptune
