// Chaos plans: parsing, seeded-random expansion determinism, and the
// fire-exactly-once replay semantics of ChaosController. Reproducibility is
// the point of the whole design — a chaos run must be re-runnable from its
// plan file alone, so expansion may depend on nothing but (plan, seed).
#include <gtest/gtest.h>

#include "proc/chaos.hpp"

namespace neptune::proc {
namespace {

ChaosPlan parse(const std::string& text, size_t total = 2) {
  return ChaosPlan::from_json(JsonValue::parse(text), total);
}

TEST(ChaosPlan, ParsesExplicitActions) {
  ChaosPlan plan = parse(R"({"actions": [
    {"action": "kill", "resource": 1, "at_ms": 150},
    {"action": "stop", "resource": 0, "at_events": 4000, "duration_ms": 300},
    {"action": "partition", "resource": 1, "at_ms": 80, "duration_ms": 200}
  ]})");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].kind, ChaosAction::Kind::kKill);
  EXPECT_EQ(plan.actions[0].resource, 1u);
  EXPECT_EQ(plan.actions[0].at_ms, 150);
  EXPECT_EQ(plan.actions[1].kind, ChaosAction::Kind::kStop);
  EXPECT_EQ(plan.actions[1].at_events, 4000u);
  EXPECT_EQ(plan.actions[1].duration_ms, 300);
  EXPECT_EQ(plan.actions[2].kind, ChaosAction::Kind::kPartition);
}

TEST(ChaosPlan, RejectsActionWithoutTrigger) {
  EXPECT_THROW(parse(R"({"actions": [{"action": "kill", "resource": 0}]})"), JsonError);
}

TEST(ChaosPlan, RejectsResourceOutOfRange) {
  EXPECT_THROW(parse(R"({"actions": [{"action": "kill", "resource": 9, "at_ms": 1}]})"),
               JsonError);
}

TEST(ChaosPlan, RandomExpansionIsDeterministicInSeed) {
  const std::string text =
      R"({"seed": 42, "random": {"kills": 4, "window_ms": [100, 900]}})";
  ChaosPlan a = parse(text, 3);
  ChaosPlan b = parse(text, 3);
  ASSERT_EQ(a.actions.size(), 4u);
  ASSERT_EQ(b.actions.size(), 4u);
  for (size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_EQ(a.actions[i].kind, ChaosAction::Kind::kKill);
    EXPECT_EQ(a.actions[i].resource, b.actions[i].resource);
    EXPECT_EQ(a.actions[i].at_ms, b.actions[i].at_ms);
    EXPECT_GE(a.actions[i].at_ms, 100);
    EXPECT_LE(a.actions[i].at_ms, 900);
    EXPECT_LT(a.actions[i].resource, 3u);
  }
  // A different seed must (for this seed pair) shuffle the schedule.
  ChaosPlan c = parse(R"({"seed": 43, "random": {"kills": 4, "window_ms": [100, 900]}})", 3);
  bool differs = false;
  for (size_t i = 0; i < c.actions.size(); ++i)
    differs |= c.actions[i].at_ms != a.actions[i].at_ms ||
               c.actions[i].resource != a.actions[i].resource;
  EXPECT_TRUE(differs);
}

TEST(ChaosController, FiresEachActionExactlyOnce) {
  ChaosPlan plan = parse(R"({"actions": [
    {"action": "kill", "resource": 0, "at_ms": 100},
    {"action": "kill", "resource": 1, "at_events": 5000}
  ]})");
  ChaosController ctl(std::move(plan));

  EXPECT_TRUE(ctl.due(50, 0, 0).empty());
  auto due = ctl.due(120, 0, 0);  // wall-clock trigger crossed
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0]->resource, 0u);
  EXPECT_TRUE(due[0]->fired);
  EXPECT_TRUE(ctl.due(200, 0, 0).empty()) << "an action fires once";
  EXPECT_FALSE(ctl.exhausted());

  due = ctl.due(200, 1, 6000);  // event trigger crossed in the next generation
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0]->resource, 1u);
  EXPECT_EQ(ctl.fired(), 2u);
  EXPECT_TRUE(ctl.exhausted());
}

TEST(ChaosController, CountsEventsPerGenerationAcrossRollbacks) {
  // The two-kill plan of the multi-process acceptance test. Each
  // generation's heartbeat count restarts at zero after a rollback; the
  // controller adds the generations up, and never fires a second kill into
  // a generation that is already being rolled back.
  ChaosPlan plan = parse(R"({"actions": [
    {"action": "kill", "resource": 1, "at_events": 15000},
    {"action": "kill", "resource": 0, "at_events": 45000}
  ]})");
  ChaosController ctl(std::move(plan));
  EXPECT_TRUE(ctl.due(10, 0, 9000).empty());
  auto due = ctl.due(20, 0, 50000);  // one late heartbeat crosses both
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0]->resource, 1u);
  EXPECT_TRUE(ctl.due(30, 0, 60000).empty()) << "generation 0 already lost a worker";

  // Generation 1 starts counting at zero; the 60000 of generation 0 carry.
  due = ctl.due(40, 1, 0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0]->resource, 0u);
  EXPECT_TRUE(ctl.exhausted());
}

TEST(ChaosController, EventTriggerCountsEarlierGenerations) {
  ChaosPlan plan = parse(R"({"actions": [{"action": "stop", "resource": 0, "at_events": 100}]})");
  ChaosController ctl(std::move(plan));
  EXPECT_TRUE(ctl.due(10, 0, 60).empty());
  EXPECT_TRUE(ctl.due(20, 1, 30).empty()) << "60 + 30 < 100";
  EXPECT_EQ(ctl.due(30, 1, 45).size(), 1u) << "60 + 45 crosses 100";
}

TEST(ChaosController, EitherTriggerFiresCombinedAction) {
  // An action with both triggers fires on whichever crosses first.
  ChaosPlan plan = parse(
      R"({"actions": [{"action": "stop", "resource": 0, "at_ms": 500, "at_events": 100}]})");
  ChaosController ctl(std::move(plan));
  EXPECT_TRUE(ctl.due(10, 0, 50).empty());
  EXPECT_EQ(ctl.due(20, 0, 150).size(), 1u) << "event trigger beats the clock";
}

}  // namespace
}  // namespace neptune::proc
