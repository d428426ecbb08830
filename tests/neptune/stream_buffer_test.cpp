#include "neptune/stream_buffer.hpp"

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "obs/trace.hpp"

namespace neptune {
namespace {

StreamPacket packet_of(size_t payload, int64_t id = 0) {
  StreamPacket p;
  p.set_event_time_ns(1);  // non-zero so latency logic would engage
  p.add_i64(id);
  p.add_bytes(std::vector<uint8_t>(payload, 0x5C));
  return p;
}

struct BufferFixture : ::testing::Test {
  void make(size_t capacity, int64_t flush_ns = 0,
            CompressionPolicy comp = {}, ChannelConfig ch = {}) {
    pipe = make_inproc_pipe(ch);
    codec = std::make_shared<SelectiveCodec>(comp);
    buf = std::make_unique<StreamBuffer>(/*link_id=*/3, /*src_instance=*/1, pipe.sender, codec,
                                         StreamBufferConfig{capacity, flush_ns}, &metrics,
                                         &clock);
  }

  /// Decode all frames currently in the pipe.
  struct Got {
    FrameHeader header;
    uint32_t src_instance;
    uint64_t base_seq;
    uint64_t trace_id;
    int64_t trace_origin_ns;
    int64_t batch_start_ns;
    int64_t flush_ns;
    std::vector<StreamPacket> packets;
  };
  std::vector<Got> drain_frames() {
    std::vector<Got> all;
    while (auto raw = pipe.receiver->try_receive_buf()) {
      auto frame = decode_whole_frame(raw->contents());
      EXPECT_TRUE(frame.has_value()) << "a flush must be exactly one valid frame";
      if (!frame) break;
      const FrameHeader& h = frame->header;
      std::span<const uint8_t> payload = frame->payload;
      Got g;
      g.header = h;
      std::vector<uint8_t> plain;
      if (h.compressed()) {
        SelectiveCodec c;
        EXPECT_TRUE(c.decode(payload, true, h.raw_size, plain));
      } else {
        plain.assign(payload.begin(), payload.end());
      }
      ByteReader r(plain);
      g.src_instance = r.read_u32();
      g.base_seq = r.read_u64();
      g.trace_id = r.read_u64();
      g.trace_origin_ns = r.read_i64();
      g.batch_start_ns = r.read_i64();
      g.flush_ns = r.read_i64();
      for (uint32_t i = 0; i < h.batch_count; ++i) {
        StreamPacket p;
        p.deserialize(r);
        g.packets.push_back(std::move(p));
      }
      all.push_back(std::move(g));
    }
    return all;
  }

  InprocPipe pipe;
  std::shared_ptr<SelectiveCodec> codec;
  std::unique_ptr<StreamBuffer> buf;
  OperatorMetrics metrics;
  ManualClock clock{1000};
};

TEST_F(BufferFixture, BuffersUntilCapacityThenFlushes) {
  make(/*capacity=*/1000);
  auto p = packet_of(100);
  size_t per_packet = p.serialized_size();
  size_t needed = 1000 / per_packet + 1;
  for (size_t i = 0; i + 1 < needed; ++i) {
    EXPECT_TRUE(buf->add(packet_of(100, static_cast<int64_t>(i))));
    EXPECT_FALSE(pipe.receiver->try_receive_buf().has_value()) << "flushed early at " << i;
    // try_receive_buf consumed nothing (empty), buffer still accumulating
  }
  EXPECT_TRUE(buf->add(packet_of(100, 99)));  // crosses the threshold
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].packets.size(), needed);
  EXPECT_EQ(frames[0].src_instance, 1u);
  EXPECT_EQ(frames[0].base_seq, 0u);
  EXPECT_EQ(frames[0].header.link_id, 3u);
  EXPECT_EQ(metrics.flushes.load(), 1u);
}

TEST_F(BufferFixture, CapacityIsBytesNotMessages) {
  // One big packet crosses a small byte threshold immediately (paper:
  // "irrespective of the number of the messages in the buffer").
  make(/*capacity=*/500);
  EXPECT_TRUE(buf->add(packet_of(600)));
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].packets.size(), 1u);
}

TEST_F(BufferFixture, SequenceNumbersAreContiguousAcrossFlushes) {
  make(/*capacity=*/400);
  for (int i = 0; i < 30; ++i) buf->add(packet_of(100, i));
  buf->drain(/*force=*/true);
  auto frames = drain_frames();
  ASSERT_GE(frames.size(), 2u);
  uint64_t expected = 0;
  int64_t id = 0;
  for (const auto& f : frames) {
    EXPECT_EQ(f.base_seq, expected);
    expected += f.packets.size();
    for (const auto& p : f.packets) EXPECT_EQ(p.i64(0), id++);
  }
  EXPECT_EQ(expected, 30u);
  EXPECT_EQ(buf->next_seq(), 30u);
}

TEST_F(BufferFixture, TimerFlushAfterInterval) {
  make(/*capacity=*/1 << 20, /*flush_ns=*/1'000'000);
  buf->add(packet_of(50));
  buf->on_timer();  // clock hasn't advanced: no flush yet
  EXPECT_TRUE(drain_frames().empty());
  clock.advance_ns(2'000'000);
  buf->on_timer();
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(metrics.timer_flushes.load(), 1u);
}

TEST_F(BufferFixture, TimerMeasuresFromFirstPacket) {
  make(/*capacity=*/1 << 20, /*flush_ns=*/1'000'000);
  buf->add(packet_of(50, 1));
  clock.advance_ns(800'000);
  buf->add(packet_of(50, 2));  // second arrival does NOT reset the clock
  clock.advance_ns(300'000);   // 1.1 ms since FIRST packet
  buf->on_timer();
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].packets.size(), 2u);
}

TEST_F(BufferFixture, EmptyBufferTimerIsNoop) {
  make(1 << 20, 1'000'000);
  clock.advance_ns(10'000'000);
  buf->on_timer();
  EXPECT_TRUE(drain_frames().empty());
  EXPECT_FALSE(buf->has_unflushed());
}

TEST_F(BufferFixture, BlockedFlushParksFrameWithoutLoss) {
  ChannelConfig tiny{.capacity_bytes = 200, .low_watermark_bytes = 50};
  make(/*capacity=*/100, 0, {}, tiny);
  // First flush fills the channel (frame ~150B > 200? it's under; next blocks).
  EXPECT_TRUE(buf->add(packet_of(120, 1)));   // flush 1 -> channel
  bool second = buf->add(packet_of(120, 2));  // flush 2 -> blocked
  EXPECT_FALSE(second);
  EXPECT_TRUE(buf->blocked());
  EXPECT_TRUE(buf->has_unflushed());
  EXPECT_GE(metrics.blocked_sends.load(), 1u);

  // Drain the channel; retry succeeds; nothing lost, order kept.
  auto first_frames = drain_frames();
  ASSERT_EQ(first_frames.size(), 1u);
  EXPECT_TRUE(buf->drain(false));
  EXPECT_FALSE(buf->blocked());
  auto second_frames = drain_frames();
  ASSERT_EQ(second_frames.size(), 1u);
  EXPECT_EQ(second_frames[0].base_seq, 1u);
  EXPECT_EQ(second_frames[0].packets[0].i64(0), 2);
}

TEST_F(BufferFixture, ForceDrainFlushesPartialBuffer) {
  make(/*capacity=*/1 << 20);
  buf->add(packet_of(10, 7));
  EXPECT_TRUE(buf->has_unflushed());
  EXPECT_TRUE(buf->drain(/*force=*/true));
  EXPECT_FALSE(buf->has_unflushed());
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].packets.size(), 1u);
}

TEST_F(BufferFixture, CompressionAppliedToLowEntropyBatch) {
  make(/*capacity=*/4000, 0, {.mode = CompressionMode::kSelective, .entropy_threshold = 6.0});
  for (int i = 0; i < 40; ++i) buf->add(packet_of(100, 0));  // repetitive
  buf->drain(true);
  auto frames = drain_frames();
  ASSERT_GE(frames.size(), 1u);
  EXPECT_TRUE(frames[0].header.compressed());
  EXPECT_LT(frames[0].header.payload_size, frames[0].header.raw_size);
  // Payload decoded identically (checked inside drain_frames).
  EXPECT_EQ(frames[0].packets[0].bytes(1).size(), 100u);
}

TEST_F(BufferFixture, MetricsCountBytesOut) {
  make(/*capacity=*/100);
  buf->add(packet_of(200, 1));
  EXPECT_GT(metrics.bytes_out.load(), 200u);  // frame overhead included
  EXPECT_EQ(metrics.flushes.load(), 1u);
}

TEST_F(BufferFixture, BlockedTimeAccumulatesIntoMetrics) {
  ChannelConfig tiny{.capacity_bytes = 200, .low_watermark_bytes = 50};
  make(/*capacity=*/100, 0, {}, tiny);
  EXPECT_TRUE(buf->add(packet_of(120, 1)));   // flush 1 fills the channel
  EXPECT_FALSE(buf->add(packet_of(120, 2)));  // flush 2 blocks
  EXPECT_TRUE(buf->blocked());
  EXPECT_EQ(metrics.blocked_ns.load(), 0u);  // still blocked: not settled yet

  clock.advance_ns(5'000'000);  // 5 ms stalled
  drain_frames();               // free channel space
  EXPECT_TRUE(buf->drain(false));
  EXPECT_FALSE(buf->blocked());
  EXPECT_EQ(metrics.blocked_ns.load(), 5'000'000u);

  // A second stall accumulates on top of the first.
  drain_frames();  // consume the retried frame so the channel is empty again
  EXPECT_TRUE(buf->add(packet_of(120, 3)));
  EXPECT_FALSE(buf->add(packet_of(120, 4)));
  clock.advance_ns(2'000'000);
  drain_frames();
  EXPECT_TRUE(buf->drain(false));
  EXPECT_EQ(metrics.blocked_ns.load(), 7'000'000u);
}

TEST_F(BufferFixture, UntracedBatchCarriesZeroedTraceBlock) {
  obs::TraceSampler::global().set_period(0);  // deterministic: never sampled
  make(/*capacity=*/100);
  buf->add(packet_of(200, 1));
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].trace_id, 0u);
  EXPECT_EQ(frames[0].trace_origin_ns, 0);
  EXPECT_EQ(frames[0].batch_start_ns, 0);
  EXPECT_EQ(frames[0].flush_ns, 0);
}

TEST_F(BufferFixture, NoteTraceStampsHeaderAtFlush) {
  obs::TraceSampler::global().set_period(0);
  make(/*capacity=*/1 << 20);
  buf->note_trace(obs::TraceContext{42, 900});
  buf->add(packet_of(50, 1));
  clock.advance_ns(1'000);
  buf->drain(/*force=*/true);
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].trace_id, 42u);
  EXPECT_EQ(frames[0].trace_origin_ns, 900);
  EXPECT_EQ(frames[0].batch_start_ns, 1000);  // ManualClock start
  EXPECT_EQ(frames[0].flush_ns, 2000);

  // The trace does not leak into the next batch.
  buf->add(packet_of(50, 2));
  buf->drain(true);
  auto next = drain_frames();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].trace_id, 0u);
}

TEST_F(BufferFixture, FirstNoteTraceWinsForABatch) {
  obs::TraceSampler::global().set_period(0);
  make(/*capacity=*/1 << 20);
  buf->note_trace(obs::TraceContext{7, 100});
  buf->note_trace(obs::TraceContext{8, 200});  // ignored: batch already traced
  buf->note_trace(obs::TraceContext{});        // inactive: ignored
  buf->add(packet_of(50, 1));
  buf->drain(true);
  auto frames = drain_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].trace_id, 7u);
  EXPECT_EQ(frames[0].trace_origin_ns, 100);
}

TEST_F(BufferFixture, TraceSurvivesCompression) {
  obs::TraceSampler::global().set_period(0);
  make(/*capacity=*/4000, 0, {.mode = CompressionMode::kSelective, .entropy_threshold = 6.0});
  buf->note_trace(obs::TraceContext{99, 500});
  for (int i = 0; i < 40; ++i) buf->add(packet_of(100, 0));  // repetitive payload
  buf->drain(true);
  auto frames = drain_frames();
  ASSERT_GE(frames.size(), 1u);
  EXPECT_TRUE(frames[0].header.compressed());
  EXPECT_EQ(frames[0].trace_id, 99u);  // patched before the codec ran
  EXPECT_EQ(frames[0].trace_origin_ns, 500);
}

TEST_F(BufferFixture, BufferedBytesTracksOccupancy) {
  make(/*capacity=*/1 << 20);
  EXPECT_EQ(buf->buffered_bytes(), 0u);
  buf->add(packet_of(100, 1));
  size_t after_one = buf->buffered_bytes();
  EXPECT_GT(after_one, 100u);  // packet + batch header
  buf->add(packet_of(100, 2));
  EXPECT_GT(buf->buffered_bytes(), after_one);
  buf->drain(true);
  drain_frames();
  EXPECT_EQ(buf->buffered_bytes(), 0u);
}

TEST_F(BufferFixture, CloseChannelPropagates) {
  make(100);
  buf->close_channel();
  EXPECT_TRUE(pipe.receiver->closed());
  // Adds after close are dropped at flush without wedging.
  buf->add(packet_of(300, 1));
  EXPECT_FALSE(buf->blocked());
}

}  // namespace
}  // namespace neptune
