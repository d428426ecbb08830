// Unit tests of the fault-injection harness (tentpole layer 1): the
// deterministic schedule, the randomized mode, and the decorating
// sender/receiver applied over the in-process pipe.
#include <gtest/gtest.h>

#include <thread>

#include "../support/poll.hpp"
#include "fault/fault_injector.hpp"
#include "net/inproc_transport.hpp"

namespace neptune::fault {
namespace {

using namespace std::chrono_literals;
using test_util::receive_within;

const EdgeId kEdgeA{1, 0, 0};
const EdgeId kEdgeB{2, 0, 0};

TEST(FaultSchedule, DeterministicRuleFiresAtExactFrame) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 2, .action = {FaultKind::kReset}});
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kNone);  // frame 0
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kNone);  // frame 1
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kReset); // frame 2
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kNone);  // frame 3
}

TEST(FaultSchedule, RuleIsPerEdge) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 0, .action = {FaultKind::kCorrupt}});
  EXPECT_EQ(inj.next_send_action(kEdgeB).kind, FaultKind::kNone);
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kCorrupt);
}

TEST(FaultSchedule, AnyEdgeMatchesEveryEdge) {
  FaultInjector inj;
  inj.add_rule({.any_edge = true, .at_frame = 0, .action = {FaultKind::kReset}});
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kReset);
  EXPECT_EQ(inj.next_send_action(kEdgeB).kind, FaultKind::kReset);
}

TEST(FaultSchedule, RepeatEveryReFires) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 1, .repeat_every = 3,
                .action = {FaultKind::kReset}});
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    if (inj.next_send_action(kEdgeA).kind == FaultKind::kReset) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 4, 7}));
}

TEST(FaultSchedule, DelayRulesMatchReceiveSideOnly) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 0,
                .action = {FaultKind::kDelay, /*delay_ns=*/1'000'000}});
  // Delay is a receive-side fault: the send path must not consume it.
  EXPECT_EQ(inj.next_send_action(kEdgeA).kind, FaultKind::kNone);
  EXPECT_EQ(inj.next_receive_action(kEdgeA).kind, FaultKind::kDelay);
  // And send-side faults are invisible to the receive path.
  FaultInjector inj2;
  inj2.add_rule({.edge = kEdgeA, .at_frame = 0, .action = {FaultKind::kReset}});
  EXPECT_EQ(inj2.next_receive_action(kEdgeA).kind, FaultKind::kNone);
  EXPECT_EQ(inj2.next_send_action(kEdgeA).kind, FaultKind::kReset);
}

TEST(FaultSchedule, RandomModeIsSeedDeterministic) {
  auto draw = [](uint64_t seed) {
    FaultInjector inj;
    inj.set_random({.seed = seed, .reset_probability = 0.3, .corrupt_probability = 0.3});
    std::vector<FaultKind> kinds;
    for (int i = 0; i < 64; ++i) kinds.push_back(inj.next_send_action(kEdgeA).kind);
    return kinds;
  };
  EXPECT_EQ(draw(7), draw(7));          // reproducible
  EXPECT_NE(draw(7), draw(8));          // seed actually matters
  auto kinds = draw(7);
  EXPECT_TRUE(std::any_of(kinds.begin(), kinds.end(),
                          [](FaultKind k) { return k != FaultKind::kNone; }));
}

TEST(FaultSchedule, ResourceKillLifecycle) {
  FaultInjector inj;
  inj.schedule_resource_kill(1, 5'000'000);
  auto kills = inj.resource_kills();
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_EQ(kills[0].resource_index, 1u);
  EXPECT_FALSE(kills[0].executed);
  inj.mark_kill_executed(1);
  EXPECT_TRUE(inj.resource_kills()[0].executed);
}

// --- decorators over the in-process pipe -----------------------------------

FrameBufRef frame_of(std::initializer_list<uint8_t> bytes) {
  FrameBufRef f = FrameBufPool::global().acquire();
  for (uint8_t b : bytes) f->buffer().write_u8(b);
  return f;
}

std::vector<uint8_t> bytes_of(const FrameBufRef& f) {
  return {f.contents().begin(), f.contents().end()};
}

TEST(FaultDecorator, NullInjectorLeavesTheChannelBare) {
  auto pipe = make_inproc_pipe();
  EXPECT_EQ(wrap_sender(nullptr, kEdgeA, pipe.sender), pipe.sender);
  EXPECT_EQ(wrap_receiver(nullptr, kEdgeA, pipe.receiver), pipe.receiver);
}

TEST(FaultDecorator, PassThroughHandsOverTheSameBuffer) {
  FaultInjector inj;
  auto pipe = make_inproc_pipe();
  auto sender = wrap_sender(&inj, kEdgeA, pipe.sender);
  auto receiver = wrap_receiver(&inj, kEdgeA, pipe.receiver);
  FrameBufRef frame = frame_of({1, 2, 3});
  ASSERT_EQ(sender->try_send(frame), SendStatus::kOk);
  auto got = receiver->try_receive_buf();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->get(), frame.get());  // no copy on the unfaulted path
}

TEST(FaultDecorator, ResetClosesTheCarryingChannel) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 1, .action = {FaultKind::kReset}});
  auto pipe = make_inproc_pipe();
  auto sender = wrap_sender(&inj, kEdgeA, pipe.sender);

  FrameBufRef frame = frame_of({1, 2, 3, 4});
  EXPECT_EQ(sender->try_send(frame), SendStatus::kOk);
  EXPECT_EQ(sender->try_send(frame), SendStatus::kClosed);
  EXPECT_EQ(inj.stats().resets, 1u);
  // The frame sent before the fault is still readable, then the pipe ends.
  EXPECT_TRUE(pipe.receiver->try_receive_buf().has_value());
  EXPECT_TRUE(pipe.receiver->closed());
}

TEST(FaultDecorator, CorruptFlipsExactlyOneByte) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 0,
                .action = {FaultKind::kCorrupt, 0, /*byte_offset=*/2}});
  auto pipe = make_inproc_pipe();
  auto sender = wrap_sender(&inj, kEdgeA, pipe.sender);

  FrameBufRef frame = frame_of({10, 20, 30, 40});
  EXPECT_EQ(sender->try_send(frame), SendStatus::kOk);
  auto got = pipe.receiver->try_receive_buf();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(bytes_of(*got), (std::vector<uint8_t>{10, 20, 30 ^ 0x5A, 40}));  // the injected flip
  // The flip lands in a copy: the sender's own buffer (which a supervised
  // sender retains for retransmission) is untouched.
  EXPECT_NE(got->get(), frame.get());
  EXPECT_EQ(bytes_of(frame), (std::vector<uint8_t>{10, 20, 30, 40}));
  EXPECT_EQ(inj.stats().corruptions, 1u);
}

TEST(FaultDecorator, PartialWriteDeliversPrefixThenCloses) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 0,
                .action = {FaultKind::kPartialWrite, 0, /*byte_offset=*/3}});
  auto pipe = make_inproc_pipe();
  auto sender = wrap_sender(&inj, kEdgeA, pipe.sender);

  FrameBufRef frame = frame_of({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(sender->try_send(frame), SendStatus::kClosed);
  auto got = pipe.receiver->try_receive_buf();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(bytes_of(*got), (std::vector<uint8_t>{1, 2, 3}));  // only the prefix made it out
  EXPECT_TRUE(pipe.receiver->closed());
  EXPECT_EQ(inj.stats().partial_writes, 1u);
}

TEST(FaultDecorator, StallBlocksThenExpires) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 0,
                .action = {FaultKind::kStall, /*delay_ns=*/5'000'000}});
  auto pipe = make_inproc_pipe();
  auto sender = wrap_sender(&inj, kEdgeA, pipe.sender);

  FrameBufRef frame = frame_of({1, 2, 3});
  EXPECT_EQ(sender->try_send(frame), SendStatus::kBlocked);
  EXPECT_FALSE(sender->writable(1));
  std::this_thread::sleep_for(10ms);  // lazy expiry (no loop attached)
  EXPECT_EQ(sender->try_send(frame), SendStatus::kOk);
  EXPECT_EQ(inj.stats().stalls, 1u);
}

TEST(FaultDecorator, DelayHoldsChunksAndPreservesOrder) {
  FaultInjector inj;
  inj.add_rule({.edge = kEdgeA, .at_frame = 0,
                .action = {FaultKind::kDelay, /*delay_ns=*/20'000'000}});
  auto pipe = make_inproc_pipe();
  auto receiver = wrap_receiver(&inj, kEdgeA, pipe.receiver);

  pipe.sender->try_send(frame_of({1}));
  pipe.sender->try_send(frame_of({2}));
  // Frame 0 is held for 20 ms; frame 1 must not jump the queue.
  EXPECT_FALSE(receiver->try_receive_buf().has_value());
  auto first = receive_within(*receiver, 2s);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->contents()[0], 1);
  auto second = receive_within(*receiver, 2s);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->contents()[0], 2);
  EXPECT_EQ(inj.stats().delays, 1u);
}

}  // namespace
}  // namespace neptune::fault
