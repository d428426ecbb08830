// The recovery driver's rules, one at a time, on a ManualClock: no thread,
// no sleep, every time an exact number.
#include "fault/epoch_controller.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace neptune::fault {
namespace {

using Kind = EpochAction::Kind;

constexpr int64_t kMs = 1'000'000;

EpochOptions options(int64_t interval_ms, int64_t timeout_ms, uint32_t max_recoveries) {
  EpochOptions o;
  o.checkpoint_interval_ns = interval_ms * kMs;
  o.checkpoint_timeout = std::chrono::milliseconds(timeout_ms);
  o.max_recoveries = max_recoveries;
  return o;
}

TEST(EpochController, BeginsEveryIntervalAfterTheLastClose) {
  ManualClock clock;
  EpochController c(&clock, options(100, 1000, 8), 1);
  EXPECT_EQ(c.next_deadline(), 100 * kMs);
  clock.set_ns(99 * kMs);
  EXPECT_FALSE(c.tick());
  clock.set_ns(100 * kMs);
  auto begin = c.tick();
  ASSERT_TRUE(begin);
  EXPECT_EQ(begin->kind, Kind::kBegin);
  EXPECT_EQ(begin->epoch, 1u);
  EXPECT_EQ(c.next_deadline(), 1100 * kMs) << "an open epoch's deadline";

  clock.set_ns(130 * kMs);
  auto commit = c.acked(0, 1, true);
  ASSERT_TRUE(commit);
  EXPECT_EQ(commit->kind, Kind::kCommit);
  EXPECT_EQ(c.last_committed(), 1u);
  EXPECT_EQ(c.next_deadline(), 230 * kMs) << "the interval runs from the commit";
  clock.set_ns(229 * kMs);
  EXPECT_FALSE(c.tick());
  clock.set_ns(230 * kMs);
  auto next = c.tick();
  ASSERT_TRUE(next);
  EXPECT_EQ(next->epoch, 2u);
}

TEST(EpochController, NoIntervalLeavesOnlyRequests) {
  ManualClock clock;
  EpochController c(&clock, options(0, 1000, 8), 1);
  clock.set_ns(3600'000 * kMs);
  EXPECT_FALSE(c.tick());
  auto begin = c.request();
  ASSERT_TRUE(begin);
  EXPECT_EQ(begin->epoch, 1u);
  EXPECT_FALSE(c.request()) << "one epoch at a time";
}

TEST(EpochController, CommitsOnlyWhenEveryPartAckedOk) {
  ManualClock clock;
  EpochController c(&clock, options(10, 1000, 8), 3);
  ASSERT_TRUE(c.request());
  EXPECT_FALSE(c.acked(0, 1, true));
  EXPECT_FALSE(c.acked(0, 1, true)) << "a repeated ack counts once";
  EXPECT_FALSE(c.acked(2, 1, true));
  EXPECT_FALSE(c.acked(7, 1, true)) << "no such part";
  auto commit = c.acked(1, 1, true);
  ASSERT_TRUE(commit);
  EXPECT_EQ(commit->kind, Kind::kCommit);
  EXPECT_EQ(c.committed(), 1u);
}

TEST(EpochController, AbandonsAtTheDeadlineCountedOnce) {
  ManualClock clock;
  EpochController c(&clock, options(10, 50, 8), 2);
  ASSERT_TRUE(c.request());
  ASSERT_FALSE(c.acked(0, 1, true));
  clock.set_ns(49 * kMs);
  EXPECT_FALSE(c.tick());
  clock.set_ns(50 * kMs);
  auto abandon = c.tick();
  ASSERT_TRUE(abandon);
  EXPECT_EQ(abandon->kind, Kind::kAbandon);
  EXPECT_EQ(abandon->epoch, 1u);
  EXPECT_EQ(c.abandoned(), 1u);
  EXPECT_EQ(c.open_epoch(), 0u);
  EXPECT_FALSE(c.tick()) << "the interval runs from the abandon";
  EXPECT_EQ(c.abandoned(), 1u);
  EXPECT_EQ(c.committed(), 0u);
}

TEST(EpochController, NotOkAckAbandonsTheEpoch) {
  ManualClock clock;
  EpochController c(&clock, options(10, 50, 8), 2);
  ASSERT_TRUE(c.request());
  auto abandon = c.acked(1, 1, false);
  ASSERT_TRUE(abandon);
  EXPECT_EQ(abandon->kind, Kind::kAbandon);
  EXPECT_EQ(c.abandoned(), 1u);
  EXPECT_FALSE(c.acked(0, 1, true));
  EXPECT_EQ(c.committed(), 0u);
}

TEST(EpochController, LateAckForAnAbandonedEpochIsIgnored) {
  ManualClock clock;
  EpochController c(&clock, options(10, 50, 8), 2);
  ASSERT_TRUE(c.request());
  ASSERT_FALSE(c.acked(0, 1, true));
  clock.set_ns(50 * kMs);
  ASSERT_EQ(c.tick()->kind, Kind::kAbandon);
  clock.set_ns(60 * kMs);
  auto begin = c.tick();
  ASSERT_TRUE(begin);
  EXPECT_EQ(begin->epoch, 2u) << "an abandoned epoch's number is spent";
  EXPECT_FALSE(c.acked(1, 1, true)) << "late ack for epoch 1";
  EXPECT_FALSE(c.acked(0, 2, true));
  auto commit = c.acked(1, 2, true);
  ASSERT_TRUE(commit) << "part 1's late ack must not have counted for epoch 2";
  EXPECT_EQ(commit->epoch, 2u);
  EXPECT_EQ(c.abandoned(), 1u);
  EXPECT_EQ(c.committed(), 1u);
}

TEST(EpochController, EpochsAreNeverReusedAcrossRollback) {
  ManualClock clock;
  EpochController c(&clock, options(10, 1000, 8), 1);
  ASSERT_TRUE(c.request());
  ASSERT_EQ(c.acked(0, 1, true)->kind, Kind::kCommit);
  ASSERT_EQ(c.request()->epoch, 2u);
  auto rollback = c.part_failed("crash");
  EXPECT_EQ(rollback.kind, Kind::kRollBack);
  EXPECT_EQ(rollback.epoch, 1u) << "back to the last committed epoch";
  EXPECT_EQ(c.open_epoch(), 0u) << "the open epoch dies with the failure";
  EXPECT_EQ(c.abandoned(), 0u) << "and is not an abandon";
  EXPECT_FALSE(c.acked(0, 2, true)) << "an ack from the wreck";
  auto begin = c.request();
  ASSERT_TRUE(begin);
  EXPECT_EQ(begin->epoch, 3u);
  EXPECT_EQ(c.last_committed(), 1u);
}

TEST(EpochController, RollbackWithoutACommitRestartsFromScratch) {
  ManualClock clock;
  EpochController c(&clock, options(10, 1000, 8), 1);
  EpochAction rollback = c.part_failed("crash");
  EXPECT_EQ(rollback.kind, Kind::kRollBack);
  EXPECT_EQ(rollback.epoch, 0u);
}

TEST(EpochController, ZeroBudgetGivesUpOnTheFirstFailure) {
  ManualClock clock;
  EpochController c(&clock, options(10, 1000, 0), 1);
  EpochAction a = c.part_failed("worker r1 died");
  EXPECT_EQ(a.kind, Kind::kGiveUp);
  EXPECT_EQ(c.rollbacks(), 0u);
  EXPECT_TRUE(c.gave_up());
  EXPECT_EQ(c.failure(), "recovery budget exhausted (0): worker r1 died");
}

TEST(EpochController, BudgetOfNAllowsExactlyNRollbacks) {
  ManualClock clock;
  EpochController c(&clock, options(10, 1000, 3), 1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(c.part_failed("crash").kind, Kind::kRollBack) << i;
  EXPECT_EQ(c.rollbacks(), 3u);
  EXPECT_EQ(c.part_failed("crash").kind, Kind::kGiveUp);
  EXPECT_EQ(c.rollbacks(), 3u) << "giving up is not a rollback";
}

TEST(EpochController, BackoffDoublesFromItsBaseAndCapsAtTwoSeconds) {
  ManualClock clock(1000 * kMs);
  EpochController c(&clock, options(10, 1000, 100), 1, 100 * kMs);
  std::vector<int64_t> delays_ms;
  for (int i = 0; i < 8; ++i) {
    EpochAction a = c.part_failed("crash");
    ASSERT_EQ(a.kind, Kind::kRollBack);
    delays_ms.push_back((a.not_before_ns - clock.now_ns()) / kMs);
  }
  EXPECT_EQ(delays_ms, (std::vector<int64_t>{100, 200, 400, 800, 1600, 2000, 2000, 2000}));

  EpochController small(&clock, options(10, 1000, 100), 1, 50 * kMs);
  std::vector<int64_t> small_ms;
  for (int i = 0; i < 7; ++i)
    small_ms.push_back((small.part_failed("crash").not_before_ns - clock.now_ns()) / kMs);
  EXPECT_EQ(small_ms, (std::vector<int64_t>{50, 100, 200, 400, 800, 1600, 1600}))
      << "the shift stops at 5";
}

TEST(EpochController, ZeroBackoffBaseRestartsImmediately) {
  ManualClock clock(5 * kMs);
  EpochController c(&clock, options(10, 1000, 8), 1);
  EXPECT_EQ(c.part_failed("crash").not_before_ns, 5 * kMs);
  EXPECT_EQ(c.next_deadline(), 15 * kMs) << "the interval runs from the restart";
}

TEST(EpochController, GiveUpIsTerminal) {
  ManualClock clock;
  EpochController c(&clock, options(10, 50, 0), 1);
  ASSERT_TRUE(c.request());
  ASSERT_EQ(c.part_failed("crash").kind, Kind::kGiveUp);
  clock.set_ns(10'000 * kMs);
  EXPECT_FALSE(c.tick());
  EXPECT_FALSE(c.request());
  EXPECT_FALSE(c.acked(0, 1, true));
  EXPECT_EQ(c.part_failed("again").kind, Kind::kGiveUp);
  EXPECT_EQ(c.next_deadline(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(c.rollbacks(), 0u);
  EXPECT_EQ(c.abandoned(), 0u);
  EXPECT_EQ(c.failure(), "recovery budget exhausted (0): crash");
}

TEST(EpochController, AllDoneStopsBeginningUntilTheNextRollback) {
  ManualClock clock;
  EpochController c(&clock, options(10, 1000, 8), 1);
  c.all_done();
  clock.set_ns(100 * kMs);
  EXPECT_FALSE(c.tick());
  EXPECT_FALSE(c.request());
  EXPECT_EQ(c.next_deadline(), std::numeric_limits<int64_t>::max());
  c.part_failed("a completed worker was killed");
  clock.set_ns(110 * kMs);
  auto begin = c.tick();
  ASSERT_TRUE(begin);
  EXPECT_EQ(begin->kind, Kind::kBegin);
}

}  // namespace
}  // namespace neptune::fault
