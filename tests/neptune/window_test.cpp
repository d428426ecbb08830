#include "neptune/window.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "common/rng.hpp"
#include "neptune/runtime.hpp"

namespace neptune::window {
namespace {

using namespace std::chrono_literals;

class CaptureEmitter : public Emitter {
 public:
  EmitStatus emit(StreamPacket&& p) override { return emit(0, std::move(p)); }
  EmitStatus emit(size_t, StreamPacket&& p) override {
    packets.push_back(std::move(p));
    return EmitStatus::kOk;
  }
  size_t output_link_count() const override { return 1; }
  uint32_t instance() const override { return 0; }
  uint64_t packets_emitted() const override { return packets.size(); }
  std::vector<StreamPacket> packets;
};

StreamPacket reading(int64_t ts_ms, double value, const std::string& key = "") {
  StreamPacket p;
  p.add_i64(ts_ms);
  p.add_f64(value);
  if (!key.empty()) p.add_string(key);
  return p;
}

TEST(NumericField, HandlesAllNumericTypes) {
  StreamPacket p;
  p.add_i32(4);
  p.add_i64(5);
  p.add_f32(1.5f);
  p.add_f64(2.5);
  p.add_bool(true);
  p.add_string("no");
  EXPECT_DOUBLE_EQ(numeric_field(p, 0), 4);
  EXPECT_DOUBLE_EQ(numeric_field(p, 1), 5);
  EXPECT_DOUBLE_EQ(numeric_field(p, 2), 1.5);
  EXPECT_DOUBLE_EQ(numeric_field(p, 3), 2.5);
  EXPECT_DOUBLE_EQ(numeric_field(p, 4), 1.0);
  EXPECT_THROW(numeric_field(p, 5), PacketFormatError);
}

TEST(TumblingAggregator, EmitsWhenWatermarkPassesWindowEnd) {
  TumblingAggregator agg({.window_ms = 100, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  auto p1 = reading(10, 1.0);
  auto p2 = reading(50, 3.0);
  agg.process(p1, out);
  agg.process(p2, out);
  EXPECT_TRUE(out.packets.empty());  // window [0,100) still open
  auto p3 = reading(100, 10.0);      // watermark reaches 100: closes [0,100)
  agg.process(p3, out);
  ASSERT_EQ(out.packets.size(), 1u);
  const StreamPacket& w = out.packets[0];
  EXPECT_EQ(w.i64(0), 0);           // window start
  EXPECT_EQ(w.i64(2), 2);           // count
  EXPECT_DOUBLE_EQ(w.f64(3), 4.0);  // sum
  EXPECT_DOUBLE_EQ(w.f64(4), 2.0);  // mean
  EXPECT_DOUBLE_EQ(w.f64(5), 1.0);  // min
  EXPECT_DOUBLE_EQ(w.f64(6), 3.0);  // max
}

TEST(TumblingAggregator, WindowsAlignToMultiples) {
  TumblingAggregator agg({.window_ms = 100, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  auto p1 = reading(250, 5.0);
  agg.process(p1, out);
  auto p2 = reading(400, 1.0);
  agg.process(p2, out);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].i64(0), 200);  // [200,300)
}

TEST(TumblingAggregator, KeyedWindowsAreIndependent) {
  TumblingAggregator agg(
      {.window_ms = 100, .time_field = 0, .value_field = 1, .key_field = 2});
  CaptureEmitter out;
  auto a1 = reading(10, 1.0, "a");
  auto b1 = reading(20, 100.0, "b");
  auto a2 = reading(30, 3.0, "a");
  agg.process(a1, out);
  agg.process(b1, out);
  agg.process(a2, out);
  auto tick = reading(150, 0.0, "a");  // advances watermark past 100
  agg.process(tick, out);
  ASSERT_EQ(out.packets.size(), 2u);
  double mean_a = 0, mean_b = 0;
  for (const auto& p : out.packets) {
    if (p.str(1) == "a") mean_a = p.f64(4);
    if (p.str(1) == "b") mean_b = p.f64(4);
  }
  EXPECT_DOUBLE_EQ(mean_a, 2.0);
  EXPECT_DOUBLE_EQ(mean_b, 100.0);
}

TEST(TumblingAggregator, LatePacketsAreCountedAndDropped) {
  TumblingAggregator agg({.window_ms = 100, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  auto p1 = reading(250, 1.0);
  agg.process(p1, out);
  auto late = reading(50, 99.0);  // window [0,100) long closed
  agg.process(late, out);
  EXPECT_EQ(agg.late_packets(), 1u);
  agg.close(out);
  // The late value must not contaminate any emitted window.
  for (const auto& p : out.packets) EXPECT_LT(p.f64(6), 99.0);
}

TEST(TumblingAggregator, CloseFlushesOpenWindows) {
  TumblingAggregator agg({.window_ms = 1000, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  auto p1 = reading(1, 7.0);
  agg.process(p1, out);
  EXPECT_TRUE(out.packets.empty());
  agg.close(out);
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].i64(2), 1);
  EXPECT_EQ(agg.windows_emitted(), 1u);
}

TEST(TumblingAggregator, ManyWindowsStatisticallySane) {
  TumblingAggregator agg({.window_ms = 10, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  Xoshiro256 rng(3);
  uint64_t n = 0;
  for (int64_t t = 0; t < 1000; ++t) {
    auto p = reading(t, rng.next_range(0, 1));
    agg.process(p, out);
    ++n;
  }
  agg.close(out);
  EXPECT_EQ(out.packets.size(), 100u);  // 1000ms / 10ms
  uint64_t counted = 0;
  for (const auto& p : out.packets) {
    counted += static_cast<uint64_t>(p.i64(2));
    EXPECT_GE(p.f64(4), 0.0);
    EXPECT_LE(p.f64(4), 1.0);
  }
  EXPECT_EQ(counted, n);  // every packet in exactly one window
}

TEST(SlidingAggregator, TracksWindowStatsPerPacket) {
  SlidingAggregator agg({.window_ms = 100, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  auto p1 = reading(0, 5.0);
  agg.process(p1, out);
  auto p2 = reading(50, 1.0);
  agg.process(p2, out);
  auto p3 = reading(90, 9.0);
  agg.process(p3, out);
  ASSERT_EQ(out.packets.size(), 3u);
  // After the third packet: window covers all three.
  const StreamPacket& w = out.packets[2];
  EXPECT_EQ(w.i64(1), 3);
  EXPECT_DOUBLE_EQ(w.f64(2), 15.0);
  EXPECT_DOUBLE_EQ(w.f64(3), 5.0);
  EXPECT_DOUBLE_EQ(w.f64(4), 1.0);  // min
  EXPECT_DOUBLE_EQ(w.f64(5), 9.0);  // max
}

TEST(SlidingAggregator, EvictsOldSamplesIncludingExtremes) {
  SlidingAggregator agg({.window_ms = 100, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  auto p1 = reading(0, 100.0);  // the max — must fall out of the window
  agg.process(p1, out);
  auto p2 = reading(50, 1.0);
  agg.process(p2, out);
  auto p3 = reading(140, 2.0);  // t=0 sample now outside [40, 140]
  agg.process(p3, out);
  const StreamPacket& w = out.packets[2];
  EXPECT_EQ(w.i64(1), 2);
  EXPECT_DOUBLE_EQ(w.f64(5), 2.0);  // old max evicted from the monotonic deque
  EXPECT_DOUBLE_EQ(w.f64(4), 1.0);
  EXPECT_EQ(agg.in_window(), 2u);
}

TEST(SlidingAggregator, MatchesBruteForceOnRandomStream) {
  SlidingAggregator agg({.window_ms = 50, .time_field = 0, .value_field = 1});
  CaptureEmitter out;
  Xoshiro256 rng(21);
  std::vector<std::pair<int64_t, double>> history;
  int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<int64_t>(rng.next_below(20));
    double v = rng.next_range(-10, 10);
    history.emplace_back(t, v);
    auto p = reading(t, v);
    agg.process(p, out);
    // Brute-force reference over the same window.
    double sum = 0, mn = 1e18, mx = -1e18;
    int64_t n = 0;
    for (auto& [ht, hv] : history) {
      if (ht >= t - 50) {
        sum += hv;
        mn = std::min(mn, hv);
        mx = std::max(mx, hv);
        ++n;
      }
    }
    const StreamPacket& w = out.packets.back();
    ASSERT_EQ(w.i64(1), n) << "i=" << i;
    ASSERT_NEAR(w.f64(2), sum, 1e-9);
    ASSERT_NEAR(w.f64(4), mn, 1e-12);
    ASSERT_NEAR(w.f64(5), mx, 1e-12);
  }
}

TEST(CountWindowAggregator, EmitsEveryNPackets) {
  CountWindowAggregator agg(/*count=*/3, /*value_field=*/1);
  CaptureEmitter out;
  for (int i = 1; i <= 7; ++i) {
    auto p = reading(i, static_cast<double>(i));
    agg.process(p, out);
  }
  ASSERT_EQ(out.packets.size(), 2u);  // after 3 and 6
  EXPECT_EQ(out.packets[0].i64(1), 3);
  EXPECT_DOUBLE_EQ(out.packets[0].f64(3), 2.0);  // mean of 1,2,3
  EXPECT_DOUBLE_EQ(out.packets[1].f64(3), 5.0);  // mean of 4,5,6
  agg.close(out);                                // flush the partial (just 7)
  ASSERT_EQ(out.packets.size(), 3u);
  EXPECT_EQ(out.packets[2].i64(1), 1);
  EXPECT_DOUBLE_EQ(out.packets[2].f64(3), 7.0);
}

TEST(CountWindowAggregator, KeyedBucketsAreIndependent) {
  CountWindowAggregator agg(/*count=*/2, /*value_field=*/1, /*key_field=*/2);
  CaptureEmitter out;
  auto a1 = reading(1, 10.0, "a");
  auto b1 = reading(2, 100.0, "b");
  auto a2 = reading(3, 20.0, "a");
  agg.process(a1, out);
  agg.process(b1, out);
  agg.process(a2, out);
  ASSERT_EQ(out.packets.size(), 1u);  // only "a" filled its bucket
  EXPECT_EQ(out.packets[0].str(0), "a");
  EXPECT_DOUBLE_EQ(out.packets[0].f64(3), 15.0);
  agg.close(out);
  ASSERT_EQ(out.packets.size(), 2u);  // "b"'s partial flushes
  EXPECT_EQ(out.packets[1].str(0), "b");
}

TEST(SlidingChangeDetector, EmitsOnlyOnSignificantChange) {
  SlidingChangeDetector det({.window_ms = 100, .time_field = 0, .value_field = 1},
                            /*threshold=*/0.5);
  CaptureEmitter out;
  // Stable stream: one initial emission, then silence.
  for (int64_t t = 0; t < 50; ++t) {
    auto p = reading(t, 10.0);
    det.process(p, out);
  }
  EXPECT_EQ(out.packets.size(), 1u);
  // A level shift moves the windowed mean -> new emission(s).
  for (int64_t t = 50; t < 200; ++t) {
    auto p = reading(t, 20.0);
    det.process(p, out);
  }
  EXPECT_GT(out.packets.size(), 1u);
  EXPECT_NEAR(out.packets.back().f64(1), 20.0, 1.0);  // converges to new level
  EXPECT_EQ(det.emissions(), out.packets.size());
}

TEST(SlidingChangeDetector, WindowSlidesOldSamplesOut) {
  SlidingChangeDetector det({.window_ms = 10, .time_field = 0, .value_field = 1}, 1000.0);
  CaptureEmitter out;
  auto p1 = reading(0, 100.0);
  det.process(p1, out);
  auto p2 = reading(100, 0.0);  // the t=0 sample is out of the window now
  det.process(p2, out);
  ASSERT_TRUE(det.current_mean().has_value());
  EXPECT_DOUBLE_EQ(*det.current_mean(), 0.0);
}

TEST(SlidingChangeDetector, InsideRuntimeProducesLowRateStream) {
  // The §III-B1 scenario end-to-end: a fast source, a change detector
  // producing a low-rate stream, and flush timers keeping latency bounded.
  // The source stays open (emitting nothing) until the sink has seen the
  // detections, so the detector cannot finish and force-drain its buffer:
  // only the flush timer can have delivered them.
  auto detections = std::make_shared<std::atomic<uint64_t>>(0);
  class StepSource : public StreamSource {
   public:
    explicit StepSource(std::shared_ptr<std::atomic<uint64_t>> seen) : seen_(std::move(seen)) {}
    bool next(Emitter& out, size_t budget) override {
      for (size_t i = 0; i < budget && t_ < 20000; ++i) {
        StreamPacket p;
        p.add_i64(t_);
        p.add_f64(t_ < 10000 ? 1.0 : 5.0);  // one level shift
        ++t_;
        if (out.emit(std::move(p)) == EmitStatus::kBackpressured) break;
      }
      return t_ < 20000 || seen_->load() < 2;
    }

   private:
    std::shared_ptr<std::atomic<uint64_t>> seen_;
    int64_t t_ = 0;
  };
  class DetectionSink : public StreamProcessor {
   public:
    explicit DetectionSink(std::shared_ptr<std::atomic<uint64_t>> seen) : seen_(std::move(seen)) {}
    void process(StreamPacket&, Emitter&) override { seen_->fetch_add(1); }

   private:
    std::shared_ptr<std::atomic<uint64_t>> seen_;
  };

  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 1 << 20;  // huge buffer: only timer flushes fire
  cfg.buffer.flush_interval_ns = 1'000'000;
  StreamGraph g("sliding", cfg);
  g.add_source("src", [detections] { return std::make_unique<StepSource>(detections); });
  g.add_processor("detect", [] {
    return std::make_unique<SlidingChangeDetector>(
        WindowConfig{.window_ms = 100, .time_field = 0, .value_field = 1}, 0.5);
  });
  g.add_processor("sink", [detections] { return std::make_unique<DetectionSink>(detections); });
  g.connect("src", "detect");
  g.connect("detect", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  auto m = job->metrics();
  uint64_t received = m.total("sink", &OperatorMetricsSnapshot::packets_in);
  EXPECT_EQ(received, detections->load());
  EXPECT_GE(received, 2u);    // initial level + the shift
  EXPECT_LT(received, 100u);  // low-rate output stream
  // Low-rate stream + big buffer => the latency-bound timer did the flushing.
  EXPECT_GT(m.total("detect", &OperatorMetricsSnapshot::timer_flushes), 0u);
}

}  // namespace
}  // namespace neptune::window
