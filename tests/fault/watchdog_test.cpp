// Operator watchdog: a detector over metrics snapshots that flags an
// execution wedged inside an operator, or pending input that no execution
// consumes, so the recovery coordinator can restart the job instead of
// letting the topology hang. The detector cases feed hand-built snapshots
// at explicit times; the last case escalates a real stall through a
// RecoveryCoordinator.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>

#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "../support/gate.hpp"
#include "../support/poll.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using fault::OperatorStall;
using fault::OperatorWatchdog;
using fault::RecoveryCoordinator;
using fault::RecoveryOptions;
using workload::BytesSource;
using workload::CountingSink;

constexpr int64_t kTimeout = 200'000'000;  // 200 ms
constexpr int64_t kMs = 1'000'000;

/// A one-instance snapshot of operator "proc".
JobMetricsSnapshot proc_at(uint64_t executions, int64_t pending, int64_t exec_begin_ns = 0) {
  OperatorMetricsSnapshot op;
  op.operator_id = "proc";
  op.executions = executions;
  op.inbound_ready_batches = pending;
  op.exec_begin_ns = exec_begin_ns;
  JobMetricsSnapshot snap;
  snap.operators.push_back(op);
  return snap;
}

TEST(Watchdog, DetectsDispatchStuckInsideAnOperator) {
  OperatorWatchdog dog({.stall_timeout_ns = kTimeout});
  const int64_t entered = 1'000 * kMs;
  EXPECT_TRUE(dog.check(proc_at(3, 0, entered), entered).empty());
  EXPECT_TRUE(dog.check(proc_at(3, 0, entered), entered + kTimeout).empty());

  std::vector<OperatorStall> stalls = dog.check(proc_at(3, 0, entered), entered + kTimeout + kMs);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].operator_id, "proc");
  EXPECT_EQ(stalls[0].instance, 0u);
  EXPECT_EQ(stalls[0].stalled_ms, 201);
  EXPECT_NE(stalls[0].what.find("proc#0"), std::string::npos);
  EXPECT_NE(stalls[0].what.find("stuck inside a dispatch"), std::string::npos);
}

TEST(Watchdog, DetectsNoProgressWhileBatchesPending) {
  OperatorWatchdog dog({.stall_timeout_ns = kTimeout});
  const int64_t t0 = 5'000 * kMs;
  EXPECT_TRUE(dog.check(proc_at(7, 2), t0).empty());
  EXPECT_TRUE(dog.check(proc_at(7, 2), t0 + kTimeout).empty());

  std::vector<OperatorStall> stalls = dog.check(proc_at(7, 2), t0 + kTimeout + kMs);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].stalled_ms, 201);
  EXPECT_NE(stalls[0].what.find("made no progress"), std::string::npos);
  EXPECT_NE(stalls[0].what.find("2 batches pending"), std::string::npos);
}

TEST(Watchdog, HealthyJobTriggersNoStalls) {
  OperatorWatchdog dog({.stall_timeout_ns = kTimeout});
  // Pending input that executions keep consuming, dispatches that return
  // within the timeout, and an idle instance with nothing pending: none of
  // them is stuck, however long it runs.
  uint64_t executions = 0;
  for (int64_t t = kTimeout; t <= 10 * kTimeout; t += kTimeout / 2) {
    JobMetricsSnapshot snap = proc_at(++executions, 4, t - kTimeout / 4);
    OperatorMetricsSnapshot idle;
    idle.operator_id = "idle";
    idle.executions = 9;
    snap.operators.push_back(idle);
    EXPECT_TRUE(dog.check(snap, t).empty()) << "at t=" << t;
  }
}

TEST(Watchdog, FlagsOnceAndRearmsWhenProgressResumes) {
  OperatorWatchdog dog({.stall_timeout_ns = kTimeout});
  const int64_t t0 = 1'000 * kMs;
  dog.check(proc_at(1, 0, t0), t0);
  EXPECT_EQ(dog.check(proc_at(1, 0, t0), t0 + kTimeout + kMs).size(), 1u);
  // Still the same stall: not reported again.
  EXPECT_TRUE(dog.check(proc_at(1, 0, t0), t0 + 3 * kTimeout).empty());

  // The dispatch returns and the next one runs: re-armed, and the next
  // stall is a new one.
  const int64_t t1 = t0 + 4 * kTimeout;
  EXPECT_TRUE(dog.check(proc_at(2, 0, t1), t1).empty());
  EXPECT_EQ(dog.check(proc_at(2, 0, t1), t1 + kTimeout + kMs).size(), 1u);
}

TEST(Watchdog, FreshDetectorCarriesNothingOver) {
  // The coordinator replaces its detector at each rollback. A new
  // incarnation whose counter reads what the old one's last did must get
  // a whole stall window, not the wreck's timestamps.
  OperatorWatchdog dog({.stall_timeout_ns = kTimeout});
  const int64_t t0 = 1'000 * kMs;
  const int64_t later = t0 + 5 * kTimeout;
  EXPECT_TRUE(dog.check(proc_at(7, 0), t0).empty());
  OperatorWatchdog kept = dog;  // what keeping the detector would report
  EXPECT_EQ(kept.check(proc_at(7, 1), later).size(), 1u);

  dog = OperatorWatchdog({.stall_timeout_ns = kTimeout});  // the reset at a rollback
  EXPECT_TRUE(dog.check(proc_at(7, 1), later).empty());
  EXPECT_EQ(dog.check(proc_at(7, 1), later + kTimeout + kMs).size(), 1u);
}

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

TEST(Watchdog, EscalatesThroughRecoveryCoordinator) {
  // The first incarnation wedges inside the operator until the watchdog has
  // escalated; the coordinator restarts the job, whose second incarnation
  // (the armed flag is spent) runs clean to completion.
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  static constexpr uint64_t kTotal = 3000;
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/20'000);
  auto armed = std::make_shared<std::atomic<bool>>(true);
  auto gate = std::make_shared<test_util::Gate>();

  StreamGraph g("stuck-recovery", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("proc", [armed, gate] {
    return std::make_unique<StallOnce>(armed, [gate] { gate->wait(); });
  });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "proc");
  g.connect("proc", "sink");

  RecoveryOptions opt;
  opt.checkpoint_interval_ns = 40'000'000;
  opt.poll_interval_ns = 10'000'000;
  opt.watchdog.stall_timeout_ns = kTimeout;

  RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  const bool escalated = test_util::wait_until([&] { return coord.watchdog_stalls() >= 1; }, 60s);
  gate->open();
  ASSERT_TRUE(escalated) << "no stall escalated within 60 s";
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
