// DST integration for the scenario suite: the ETL taxi scenario runs on the
// simulated virtual clock under seeded schedule exploration. Every
// interleaving must (a) satisfy the stock runtime invariants, (b) account
// for every emitted packet as delivered or shed, and (c) — because the ETL
// topology is lossless and order-independent per key — produce the exact
// sink digest the real runtime produces.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "scenarios/scenario.hpp"
#include "testkit/explorer.hpp"
#include "testkit/invariants.hpp"
#include "testkit/workloads.hpp"

using namespace neptune;
using namespace neptune::scenarios;
using namespace neptune::testkit;

namespace {

// Small event count: exploration multiplies one run by N interleavings.
constexpr uint64_t kDstEvents = 2000;

ScenarioSpec etl_spec() {
  ScenarioSpec spec = load_scenario(std::string(NEPTUNE_SCENARIO_DIR) + "/etl_taxi.json");
  spec.trace.events = kDstEvents;
  spec.expect.clear();  // golden digests are for the full-size trace
  return spec;
}

GraphFactory etl_graph_factory(const ScenarioSpec& spec,
                               std::shared_ptr<ScenarioContext> ctx = nullptr) {
  return [spec, ctx] {
    ScenarioContext scratch;
    ScenarioContext& target = ctx ? *ctx : scratch;
    target.sinks.clear();
    return build_scenario_graph(spec, spec.trace, target, /*fastlane=*/true);
  };
}

/// delivered + shed == emitted, per edge, once the run completes. sent_seq
/// counts every packet the sender buffered; the receiver saw each position
/// either as an accepted packet (received_seq) or as a shed-induced
/// sequence gap (shed_gap_packets). Nothing may vanish without a trace.
class DeliveryAccountingChecker : public InvariantChecker {
 public:
  const char* name() const override { return "delivery-accounting"; }
  void on_step(const DstView&, std::vector<std::string>&) override {}
  void on_finish(const DstView& view, std::vector<std::string>& violations) override {
    if (!view.completed) return;  // guard trips are someone else's violation
    for (const auto& e : view.edges) {
      if (e.received_seq + e.shed_gap_packets != e.sent_seq) {
        violations.push_back("edge " + e.src_op + "->" + e.dst_op + ": delivered " +
                             std::to_string(e.received_seq) + " + shed " +
                             std::to_string(e.shed_gap_packets) + " != emitted " +
                             std::to_string(e.sent_seq));
      }
      if (!e.lossy && e.shed_gap_packets != 0) {
        violations.push_back("edge " + e.src_op + "->" + e.dst_op +
                             " shed packets without a shed policy");
      }
    }
  }
};

CheckerSetFactory etl_checkers() {
  return [] {
    CapacityLimits limits;
    limits.max_packet_bytes = 512;  // annotated taxi rows stay well under
    limits.source_batch_budget = 512;
    auto checkers = default_checkers(limits);
    checkers.push_back(std::make_unique<DeliveryAccountingChecker>());
    return checkers;
  };
}

}  // namespace

TEST(ScenarioDst, EtlSurvivesScheduleExploration) {
  ScenarioSpec spec = etl_spec();
  ExplorerOptions opts;
  opts.base_seed = 900;
  opts.runs = env_runs(12);
  opts.check_determinism = true;
  opts.dst.record_trace = false;  // big sweep; the hash is enough

  ExplorerResult result = explore(etl_graph_factory(spec), opts, etl_checkers());
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.runs, opts.runs);
}

TEST(ScenarioDst, ReplayingASeedIsBitIdentical) {
  ScenarioSpec spec = etl_spec();
  ExplorerOptions opts;
  opts.dst.seed = 4711;

  DstReport a = run_seed(etl_graph_factory(spec), 4711, opts, etl_checkers());
  DstReport b = run_seed(etl_graph_factory(spec), 4711, opts, etl_checkers());
  ASSERT_TRUE(a.ok()) << a.summary();
  ASSERT_TRUE(b.ok()) << b.summary();
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.virtual_ns, b.virtual_ns);
}

TEST(ScenarioDst, VirtualClockRunMatchesRealRuntimeDigest) {
  ScenarioSpec spec = etl_spec();

  // Reference digest from the real runtime (fastlane, wall clock).
  RunOptions real;
  real.transport = Transport::kFastlane;
  ScenarioResult wall = run_scenario(spec, real);
  ASSERT_EQ(wall.check(spec), "");
  ASSERT_EQ(wall.sinks.count("sink"), 1u);

  // Same graph under the simulated clock at two different schedules.
  for (uint64_t seed : {uint64_t{1}, uint64_t{77}}) {
    auto ctx = std::make_shared<ScenarioContext>();
    ExplorerOptions opts;
    opts.dst.record_trace = false;
    DstReport report = run_seed(etl_graph_factory(spec, ctx), seed, opts, etl_checkers());
    ASSERT_TRUE(report.ok()) << report.summary();
    ASSERT_EQ(ctx->sinks.count("sink"), 1u);
    EXPECT_EQ(ctx->sinks.at("sink")->digest(), wall.sinks.at("sink").digest)
        << "DST seed " << seed << " diverged from the real runtime";
  }
}

namespace {

/// src(2) --fields-hash--> digest sink(2): two sink instances that reach
/// each checkpoint barrier at different times.
StreamGraph parallel_digest_graph(std::shared_ptr<DigestAccumulator> acc) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 512;
  cfg.buffer.flush_interval_ns = 500'000;
  cfg.source_batch_budget = 32;
  StreamGraph g("parallel-digest", cfg);
  g.add_source("src", [] { return std::make_unique<SeqSource>(6000, /*payload_bytes=*/16); }, 2,
               0);
  g.add_processor("sink", [acc] { return std::make_unique<DigestSink>(acc); }, 2, 1);
  g.connect("src", "sink", std::make_shared<FieldsHashPartitioning>(0));
  return g;
}

}  // namespace

TEST(ScenarioDst, ParallelDigestSinkRollbackMatchesCrashFreeDigest) {
  // Each sink instance must snapshot and restore only its own share of the
  // totals. Restoring one shared total per instance would count one
  // instance's packets between the two barrier times twice (or lose them).
  for (uint64_t seed : {1, 2, 3}) {
    DstOptions opts;
    opts.seed = seed;
    opts.checkpoint_interval_ns = 300'000;

    auto clean = std::make_shared<DigestAccumulator>();
    DstJob reference(parallel_digest_graph(clean), opts);
    DstReport ref = reference.run();
    ASSERT_TRUE(ref.ok()) << ref.summary();
    const std::string key = "checkpoint committed epoch=1 step=";
    uint64_t committed_at = 0;
    for (const std::string& line : ref.trace) {
      size_t at = line.find(key);
      if (at != std::string::npos) committed_at = std::stoull(line.substr(at + key.size()));
    }
    ASSERT_GT(committed_at, 0u) << "seed " << seed;
    ASSERT_LT(committed_at + 40, ref.steps) << "seed " << seed << ": epoch 1 must commit mid-run";

    auto crashed = std::make_shared<DigestAccumulator>();
    DstJob job(parallel_digest_graph(crashed), opts);
    job.schedule_crash_after_step(committed_at + 40);
    DstReport r = job.run();
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
    ASSERT_EQ(r.recoveries, 1u) << "seed " << seed;
    bool rolled_back = false;
    for (const std::string& line : r.trace)
      rolled_back |= line.find("from checkpoint") != std::string::npos;
    ASSERT_TRUE(rolled_back) << "seed " << seed << ": the crash should roll back to epoch 1";
    EXPECT_EQ(crashed->count(), 6000u) << "seed " << seed;
    EXPECT_EQ(crashed->digest(), clean->digest()) << "seed " << seed;
  }
}
