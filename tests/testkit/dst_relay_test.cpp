// The paper's Figure-1 relay (BytesSource -> RelayProcessor -> CountingSink)
// under DST. Relay and sink prefer batches, so this runs the shipping view
// path — on_batch dispatch, zero-copy re-emit of wire bytes, arena reset —
// with every invariant checker active, on a plain and on an LZ4 link.
#include "testkit/dst.hpp"

#include <gtest/gtest.h>

#include "neptune/workload.hpp"
#include "testkit/invariants.hpp"

namespace neptune::testkit {
namespace {

constexpr uint64_t kTotal = 4000;

struct RelayRun {
  DstReport report;
  std::vector<OperatorMetricsSnapshot> metrics;
  uint64_t sink_count = 0;
};

RelayRun run_figure1_relay(CompressionPolicy compression) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 8192;
  cfg.channel.low_watermark_bytes = 2048;
  cfg.source_batch_budget = 64;
  StreamGraph g("dst-figure1", cfg);
  workload::CountingSink* sink = nullptr;
  g.add_source("sender", [] { return std::make_unique<workload::BytesSource>(kTotal, 50); });
  g.add_processor("relay", [] { return std::make_unique<workload::RelayProcessor>(); });
  g.add_processor("receiver", [&sink]() -> std::unique_ptr<StreamProcessor> {
    auto s = std::make_unique<workload::CountingSink>();
    sink = s.get();
    return s;
  });
  g.connect("sender", "relay");
  g.connect("relay", "receiver", nullptr, compression);

  DstOptions opts;
  opts.seed = 17;
  DstJob job(g, opts);
  CapacityLimits limits;
  limits.source_batch_budget = cfg.source_batch_budget;
  job.add_checkers(default_checkers(limits));
  RelayRun run;
  run.report = job.run();
  run.metrics = job.metrics();
  run.sink_count = sink ? sink->count() : 0;
  return run;
}

uint64_t total(const RelayRun& run, const std::string& op,
               uint64_t OperatorMetricsSnapshot::*field) {
  uint64_t sum = 0;
  for (const auto& m : run.metrics) {
    if (op.empty() || m.operator_id == op) sum += m.*field;
  }
  return sum;
}

void expect_view_path_delivers_everything(const RelayRun& run) {
  EXPECT_TRUE(run.report.ok()) << run.report.summary();
  EXPECT_EQ(run.sink_count, kTotal);
  EXPECT_EQ(total(run, "receiver", &OperatorMetricsSnapshot::packets_in), kTotal);
  EXPECT_GT(total(run, "relay", &OperatorMetricsSnapshot::batch_dispatches), 0u);
  EXPECT_GT(total(run, "receiver", &OperatorMetricsSnapshot::batch_dispatches), 0u);
  EXPECT_EQ(total(run, "", &OperatorMetricsSnapshot::serde_alloc_bytes), 0u);
  EXPECT_EQ(total(run, "", &OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(DstRelay, Figure1RelayRunsTheBatchViewPathOnAPlainLink) {
  RelayRun run = run_figure1_relay({});
  expect_view_path_delivers_everything(run);
}

TEST(DstRelay, Figure1RelayRunsTheBatchViewPathOnAnLz4Link) {
  CompressionPolicy lz4;
  lz4.mode = CompressionMode::kAlways;
  RelayRun run = run_figure1_relay(lz4);
  expect_view_path_delivers_everything(run);
  // The relay -> receiver frames really went through LZ4: the same packets
  // cost fewer wire bytes than on the plain link.
  RelayRun plain = run_figure1_relay({});
  EXPECT_LT(total(run, "relay", &OperatorMetricsSnapshot::bytes_out),
            total(plain, "relay", &OperatorMetricsSnapshot::bytes_out));
}

}  // namespace
}  // namespace neptune::testkit
