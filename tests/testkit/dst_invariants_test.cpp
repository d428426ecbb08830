// Negative tests for the invariant checkers: inject real faults (frame
// theft, frame corruption) into a running DST job via schedule_fault and
// assert the checkers actually catch the damage — a checker that can't fail
// verifies nothing.
#include "testkit/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "testkit/workloads.hpp"

namespace neptune::testkit {
namespace {

constexpr uint64_t kTotal = 2000;

StreamGraph relay_graph(std::shared_ptr<Collected> bin) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 512;
  cfg.buffer.flush_interval_ns = 500'000;
  cfg.source_batch_budget = 32;
  StreamGraph g("dst-faults", cfg);
  g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal, /*payload_bytes=*/32); });
  g.add_processor("sink", [bin] { return std::make_unique<CollectorSink>(bin); });
  g.connect("src", "sink");
  return g;
}

bool any_violation_contains(const DstReport& r, const std::string& needle) {
  for (const auto& v : r.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(DstInvariants, CleanRunHasNoViolations) {
  auto bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 5;
  DstJob job(relay_graph(bin), opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  DstReport r = job.run();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(bin->count, kTotal);
}

TEST(DstInvariants, StolenFrameTripsSequenceChecker) {
  auto bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 5;
  DstJob job(relay_graph(bin), opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  // Steal the first frame found in flight on the single edge: the receiver
  // observes a sequence gap — data was lost in "transit".
  auto stolen = std::make_shared<int>(0);
  for (int64_t t = 100'000; t <= 3'000'000; t += 100'000) {
    job.schedule_fault(t, [&job, stolen] {
      if (*stolen > 0) return;
      if (job.edge_channel(0)->try_receive_buf()) ++*stolen;
    });
  }
  DstReport r = job.run();
  ASSERT_GT(*stolen, 0) << "fault never landed; tune fault times";
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "seq_violations")) << r.summary();
}

TEST(DstInvariants, CorruptedFrameIsDetectedAndReported) {
  auto bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 5;
  DstJob job(relay_graph(bin), opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  // Pull a frame off the wire, flip a payload byte, and push it back: the
  // receiver's CRC must reject it and the harness must surface the drop.
  auto corrupted = std::make_shared<int>(0);
  for (int64_t t = 100'000; t <= 3'000'000; t += 100'000) {
    job.schedule_fault(t, [&job, corrupted] {
      if (*corrupted > 0) return;
      auto ch = job.edge_channel(0);
      auto frame = ch->try_receive_buf();
      if (!frame || frame->size() < 30) return;
      FrameBufRef bad = FrameBufPool::global().acquire();
      bad->buffer().write_bytes(frame->contents());
      bad->buffer().data()[25] ^= 0xFF;  // payload byte: CRC mismatch, framing intact
      ch->try_send(bad);
      ++*corrupted;
    });
  }
  DstReport r = job.run();
  ASSERT_GT(*corrupted, 0) << "fault never landed; tune fault times";
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "corrupt frame")) << r.summary();
}

TEST(DstInvariants, ExactlyOnceCheckerFlagsStateDrift) {
  // Reference state from a clean run...
  auto ref_bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 11;
  DstJob ref(relay_graph(ref_bin), opts);
  ASSERT_TRUE(ref.run().completed);
  JobSnapshot expected = ref.state_snapshot();

  // ...must match another clean run of the same workload...
  {
    DstJob job(relay_graph(std::make_shared<Collected>()), opts);
    job.add_checker(make_exactly_once_checker(expected));
    DstReport r = job.run();
    EXPECT_TRUE(r.ok()) << r.summary();
  }

  // ...and must NOT match a run that lost a frame.
  {
    DstJob job(relay_graph(std::make_shared<Collected>()), opts);
    job.add_checker(make_exactly_once_checker(expected));
    auto stolen = std::make_shared<int>(0);
    for (int64_t t = 100'000; t <= 3'000'000; t += 100'000) {
      job.schedule_fault(t, [&job, stolen] {
        if (*stolen > 0) return;
        if (job.edge_channel(0)->try_receive_buf()) ++*stolen;
      });
    }
    DstReport r = job.run();
    ASSERT_GT(*stolen, 0);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(any_violation_contains(r, "exactly-once")) << r.summary();
  }
}

}  // namespace
}  // namespace neptune::testkit
