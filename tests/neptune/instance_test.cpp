// InstanceRuntime driven by hand on one thread: a ManualClock, an inline
// task context, and in-process channels. Covers the flush flag (the IO-loop
// timer only signals; the owner flushes at its next packet boundary) and
// the single CRC check per frame on edges whose receiver verifies frames.
#include "neptune/instance.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "neptune/partitioning.hpp"

namespace neptune {
namespace {

struct RecordingHost final : detail::InstanceHost {
  std::vector<std::string> failures;
  void report_failure(const std::string& what) override { failures.push_back(what); }
  void on_barrier(const detail::InstanceRuntime&, uint64_t) override {}
  void on_instance_done(const detail::InstanceRuntime&) override {}
};

struct InlineContext final : granules::TaskContext {
  uint64_t task_id() const override { return 0; }
  uint64_t execution_count() const override { return 0; }
  void request_reschedule() override {}
  void request_termination() override {}
};

LinkDecl link_of(uint32_t id) {
  LinkDecl link;
  link.link_id = id;
  link.partitioning = std::make_shared<ShufflePartitioning>();
  return link;
}

StreamPacket numbered(int64_t i) {
  StreamPacket p;
  p.set_event_time_ns(1);
  p.add_i64(i);
  return p;
}

/// Frames queued on `rx`, decoded: packet count of each.
std::vector<uint32_t> frame_counts(ChannelReceiver& rx) {
  std::vector<uint32_t> counts;
  while (auto f = rx.try_receive_buf()) {
    auto d = decode_whole_frame(f->contents());
    EXPECT_TRUE(d.has_value());
    if (d) counts.push_back(d->header.batch_count);
  }
  return counts;
}

constexpr int64_t kFlushNs = 5'000'000;
constexpr int kBatch = 100;
constexpr int kTimerAt = 40;  // packet index at which the flush interval passes

/// Forwards every packet. At packet kTimerAt the clock passes the flush
/// interval and the IO loop's timer fires, as it would mid-execution on
/// another thread; every later packet, once emitted, records what has
/// reached the channel.
struct TimerMidBatch final : StreamProcessor {
  ManualClock* clock = nullptr;
  detail::InstanceRuntime* rt = nullptr;
  InprocChannel* out = nullptr;
  bool views = false;
  int seen = 0;
  std::vector<size_t> frames_after;  // queued frames once packet i > kTimerAt is emitted
  std::vector<uint64_t> timer_flushes_after;

  bool prefers_batches() const override { return views; }
  void observe() {
    if (seen > kTimerAt) {
      frames_after.push_back(out->queued_frames());
      timer_flushes_after.push_back(rt->metrics().timer_flushes.load());
    }
  }
  void fire_timer_if_due() {
    if (seen == kTimerAt) {
      clock->advance_ns(kFlushNs + 1'000'000);
      rt->on_flush_timer();
    }
    ++seen;
  }
  void process(StreamPacket& p, Emitter& e) override {
    e.emit(StreamPacket(p));
    observe();
    fire_timer_if_due();
  }
  void on_batch(BatchView& batch, Emitter& e) override {
    PacketView v;
    while (batch.next(v)) {
      e.emit(v);
      observe();
      fire_timer_if_due();
    }
  }
};

void run_timer_mid_batch(bool views) {
  ManualClock clock(1'000'000);
  RecordingHost host;
  GraphConfig cfg;
  cfg.buffer = StreamBufferConfig{.capacity_bytes = 1 << 20, .flush_interval_ns = kFlushNs};
  int wakes = 0;
  detail::InstanceRuntime rt("relay", 0, 1, OperatorKind::kProcessor, cfg, &host, &clock,
                             [&wakes] { ++wakes; });
  auto in = std::make_shared<InprocChannel>(ChannelConfig{});
  auto out = std::make_shared<InprocChannel>(ChannelConfig{});
  auto proc = std::make_unique<TimerMidBatch>();
  TimerMidBatch* p = proc.get();
  p->clock = &clock;
  p->rt = &rt;
  p->out = out.get();
  p->views = views;
  rt.processor = std::move(proc);
  rt.add_input(link_of(1), 0, in);
  rt.add_output(link_of(2), out);

  // One large inbound batch.
  StreamBuffer up(1, 0, in, std::make_shared<SelectiveCodec>(),
                  {.capacity_bytes = 1 << 20, .flush_interval_ns = 0}, nullptr, &clock);
  for (int i = 0; i < kBatch; ++i) up.add(numbered(i));
  ASSERT_TRUE(up.drain(/*force=*/true));

  InlineContext ctx;
  rt.initialize(ctx);
  const int wakes_before = wakes;
  rt.execute(ctx);

  ASSERT_EQ(p->seen, kBatch);
  EXPECT_EQ(wakes - wakes_before, 1) << "the timer signals the owner once";
  // The packets emitted before the interval passed left at the next packet
  // boundary, inside the same execution: one timer flush, one frame.
  ASSERT_EQ(p->frames_after.size(), static_cast<size_t>(kBatch - kTimerAt - 1));
  for (size_t i = 0; i < p->frames_after.size(); ++i) {
    EXPECT_EQ(p->frames_after[i], 1u) << "packet " << kTimerAt + 1 + i;
    EXPECT_EQ(p->timer_flushes_after[i], 1u) << "packet " << kTimerAt + 1 + i;
  }
  EXPECT_EQ(frame_counts(*out), (std::vector<uint32_t>{kTimerAt + 1}));
  // The rest waits for its own interval.
  EXPECT_GT(rt.outputs[0].dst[0]->buffered_bytes(), 0u);
  EXPECT_EQ(rt.metrics().flushes.load(), 1u);
  EXPECT_TRUE(host.failures.empty());
}

TEST(InstanceFlush, LatencyBoundHoldsInsideOneExecution) { run_timer_mid_batch(false); }

TEST(InstanceFlush, LatencyBoundHoldsInsideOneBatchOfViews) { run_timer_mid_batch(true); }

TEST(InstanceFlush, TimerSignalsOnlyWhenSomethingIsDue) {
  ManualClock clock(1'000'000);
  RecordingHost host;
  GraphConfig cfg;
  cfg.buffer = StreamBufferConfig{.capacity_bytes = 1 << 20, .flush_interval_ns = kFlushNs};
  int wakes = 0;
  detail::InstanceRuntime src("src", 0, 1, OperatorKind::kProcessor, cfg, &host, &clock,
                              [&wakes] { ++wakes; });
  auto out = std::make_shared<InprocChannel>(ChannelConfig{});
  src.add_output(link_of(2), out);

  src.on_flush_timer();  // empty buffer: nothing due
  EXPECT_EQ(wakes, 0);
  src.emit(numbered(7));
  clock.advance_ns(kFlushNs - 1);
  src.on_flush_timer();  // not yet
  EXPECT_EQ(wakes, 0);
  EXPECT_EQ(out->queued_frames(), 0u);
  clock.advance_ns(1);
  src.on_flush_timer();  // due: the timer only signals, it flushes nothing
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(out->queued_frames(), 0u);
  EXPECT_EQ(src.metrics().timer_flushes.load(), 0u);

  src.emit(numbered(8));  // the owner's next packet boundary flushes the due batch first
  EXPECT_EQ(src.metrics().timer_flushes.load(), 1u);
  EXPECT_EQ(frame_counts(*out), (std::vector<uint32_t>{1}));
  EXPECT_EQ(src.outputs[0].dst[0]->next_seq(), 2u);
}

// --- one CRC check per frame ---------------------------------------------------

/// An in-process channel whose receiver claims to have verified every frame
/// it hands over, as a supervised TCP receiver does.
struct VerifyingReceiver final : ChannelReceiver {
  std::shared_ptr<InprocChannel> inner;
  std::optional<FrameBufRef> try_receive_buf() override { return inner->try_receive_buf(); }
  void set_data_callback(std::function<void()> cb) override {
    inner->set_data_callback(std::move(cb));
  }
  bool closed() const override { return inner->closed(); }
  uint64_t bytes_received() const override { return inner->bytes_received(); }
  bool verifies_frames() const override { return true; }
};

struct CountingProcessor final : StreamProcessor {
  int packets = 0;
  void process(StreamPacket&, Emitter&) override { ++packets; }
};

/// Send one 3-packet frame whose payload CRC field is wrong into a sink
/// reading `rx`; return how many packets the sink processed.
int packets_through_bad_crc(std::shared_ptr<InprocChannel> ch,
                            std::shared_ptr<ChannelReceiver> rx, RecordingHost& host) {
  ManualClock clock(1000);
  detail::InstanceRuntime sink("sink", 0, 1, OperatorKind::kProcessor, GraphConfig{}, &host,
                               &clock, [] {});
  auto proc = std::make_unique<CountingProcessor>();
  CountingProcessor* count = proc.get();
  sink.processor = std::move(proc);
  sink.add_input(link_of(1), 0, std::move(rx));

  auto stage = std::make_shared<InprocChannel>(ChannelConfig{});
  StreamBuffer up(1, 0, stage, std::make_shared<SelectiveCodec>(),
                  {.capacity_bytes = 1 << 20, .flush_interval_ns = 0}, nullptr, &clock);
  for (int i = 0; i < 3; ++i) up.add(numbered(i));
  EXPECT_TRUE(up.drain(true));
  auto frame = stage->try_receive_buf();
  EXPECT_TRUE(frame.has_value());
  // Flip a CRC bit: the payload itself stays well-formed.
  FrameBufRef bad = FrameBufPool::global().acquire();
  bad->buffer().write_bytes(frame->contents());
  bad->buffer().data()[FrameHeader::kSize - 1] ^= 0x01;
  EXPECT_EQ(ch->try_send(bad), SendStatus::kOk);

  InlineContext ctx;
  sink.initialize(ctx);
  sink.execute(ctx);
  return count->packets;
}

TEST(InstanceIngest, UnverifiedEdgeChecksTheCrc) {
  RecordingHost host;
  auto ch = std::make_shared<InprocChannel>(ChannelConfig{});
  EXPECT_EQ(packets_through_bad_crc(ch, ch, host), 0);
  ASSERT_EQ(host.failures.size(), 1u);
  EXPECT_NE(host.failures[0].find("corrupt frame"), std::string::npos);
}

TEST(InstanceIngest, VerifiedEdgeIsNotChecksummedAgain) {
  // The wrong CRC goes unnoticed only because the runtime trusts the
  // receiver's check: proof that it does not compute a second one.
  RecordingHost host;
  auto ch = std::make_shared<InprocChannel>(ChannelConfig{});
  auto rx = std::make_shared<VerifyingReceiver>();
  rx->inner = ch;
  EXPECT_EQ(packets_through_bad_crc(ch, rx, host), 3);
  EXPECT_TRUE(host.failures.empty());
}

}  // namespace
}  // namespace neptune
