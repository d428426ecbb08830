// InprocChannel: the one in-process lane, a lock-free SPSC ring of pooled
// frame refs. FIFO, byte-budget and ring-slot backpressure, edge-triggered
// (coalesced) callbacks, close semantics — and the *same* FrameBuf the
// sender handed in surfaces at the receiver (pointer identity = zero
// payload copies).
#include "net/inproc_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../support/poll.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using test_util::receive_within;

FrameBufRef frame_of(size_t n, uint8_t fill = 0xAB) {
  FrameBufRef f = FrameBufPool::global().acquire();
  for (size_t i = 0; i < n; ++i) f->buffer().write_u8(fill);
  return f;
}

TEST(InprocChannel, SendReceiveFifo) {
  auto pipe = make_inproc_pipe();
  for (uint8_t i = 0; i < 100; ++i) {
    ASSERT_EQ(pipe.sender->try_send(frame_of(10 + i, i)), SendStatus::kOk);
  }
  for (uint8_t i = 0; i < 100; ++i) {
    auto got = pipe.receiver->try_receive_buf();
    ASSERT_TRUE(got.has_value()) << "frame " << int(i);
    EXPECT_EQ(got->size(), 10u + i);
    EXPECT_EQ(got->contents()[0], i);
  }
  EXPECT_FALSE(pipe.receiver->try_receive_buf().has_value());
}

TEST(InprocChannel, PooledFramePassesByReference) {
  auto pipe = make_inproc_pipe();
  FrameBufRef sent = frame_of(32, 0x5A);
  const FrameBuf* identity = sent.get();
  ASSERT_EQ(pipe.sender->try_send(sent), SendStatus::kOk);
  auto got = pipe.receiver->try_receive_buf();
  ASSERT_TRUE(got.has_value());
  // Zero-copy: the receiver sees the very same buffer object, not a copy.
  EXPECT_EQ(got->get(), identity);
  EXPECT_EQ(got->size(), 32u);
  EXPECT_EQ(got->contents()[0], 0x5A);
}

TEST(InprocChannel, BlocksAtCapacity) {
  ChannelConfig cfg{.capacity_bytes = 100, .low_watermark_bytes = 40};
  auto pipe = make_inproc_pipe(cfg);
  EXPECT_EQ(pipe.sender->try_send(frame_of(60)), SendStatus::kOk);
  EXPECT_EQ(pipe.sender->try_send(frame_of(60)), SendStatus::kBlocked);
  EXPECT_FALSE(pipe.sender->writable(60));
  // Draining frees budget.
  ASSERT_TRUE(pipe.receiver->try_receive_buf().has_value());
  EXPECT_EQ(pipe.sender->try_send(frame_of(60)), SendStatus::kOk);
}

TEST(InprocChannel, OversizedFrameAcceptedWhenEmpty) {
  ChannelConfig cfg{.capacity_bytes = 100, .low_watermark_bytes = 40};
  auto pipe = make_inproc_pipe(cfg);
  // A frame bigger than the whole budget must still pass when the pipe is
  // empty, or it could never be sent.
  EXPECT_EQ(pipe.sender->try_send(frame_of(500)), SendStatus::kOk);
  EXPECT_EQ(pipe.sender->try_send(frame_of(1)), SendStatus::kBlocked);
}

TEST(InprocChannel, RingFullBlocksEvenWithByteBudget) {
  // Tiny frames: the frame-slot limit binds long before the 4 MB budget.
  auto pipe = make_inproc_pipe();
  std::atomic<int> writable_calls{0};
  pipe.sender->set_writable_callback([&] { writable_calls.fetch_add(1); });
  for (size_t i = 0; i < InprocChannel::kSpscFrames; ++i) {
    ASSERT_EQ(pipe.sender->try_send(frame_of(1, 0)), SendStatus::kOk) << "frame " << i;
  }
  EXPECT_EQ(pipe.sender->try_send(frame_of(1, 0)), SendStatus::kBlocked);
  EXPECT_FALSE(pipe.sender->writable(1));
  // Draining relieves the ring: the writable wakeup fires, sends resume.
  while (pipe.receiver->try_receive_buf().has_value()) {
  }
  EXPECT_EQ(writable_calls.load(), 1);
  EXPECT_EQ(pipe.sender->try_send(frame_of(1, 0)), SendStatus::kOk);
}

TEST(InprocChannel, WritableCallbackFiresAtLowWatermark) {
  ChannelConfig cfg{.capacity_bytes = 100, .low_watermark_bytes = 30};
  auto pipe = make_inproc_pipe(cfg);
  std::atomic<int> writable_calls{0};
  pipe.sender->set_writable_callback([&] { writable_calls.fetch_add(1); });

  ASSERT_EQ(pipe.sender->try_send(frame_of(40)), SendStatus::kOk);
  ASSERT_EQ(pipe.sender->try_send(frame_of(40)), SendStatus::kOk);
  ASSERT_EQ(pipe.sender->try_send(frame_of(40)), SendStatus::kBlocked);

  pipe.receiver->try_receive_buf();  // 40 in flight: still above low watermark=30
  EXPECT_EQ(writable_calls.load(), 0);
  pipe.receiver->try_receive_buf();  // 0 in flight: at/below low watermark
  EXPECT_EQ(writable_calls.load(), 1);

  // No spurious refires without another blocked send.
  ASSERT_EQ(pipe.sender->try_send(frame_of(10)), SendStatus::kOk);
  pipe.receiver->try_receive_buf();
  EXPECT_EQ(writable_calls.load(), 1);
}

TEST(InprocChannel, DataCallbackFiresOnEmptyToNonEmpty) {
  auto pipe = make_inproc_pipe();
  std::atomic<int> data_calls{0};
  pipe.receiver->set_data_callback([&] { data_calls.fetch_add(1); });

  pipe.sender->try_send(frame_of(5));
  EXPECT_EQ(data_calls.load(), 1);
  pipe.sender->try_send(frame_of(5));  // consumer never observed empty: coalesced
  EXPECT_EQ(data_calls.load(), 1);
  pipe.receiver->try_receive_buf();
  pipe.receiver->try_receive_buf();    // queue empty: wakeup re-armed
  pipe.sender->try_send(frame_of(5));  // empty -> non-empty again
  EXPECT_EQ(data_calls.load(), 2);
}

TEST(InprocChannel, ReArmsWhenConsumerSeesEmpty) {
  auto pipe = make_inproc_pipe();
  std::atomic<int> data_calls{0};
  pipe.receiver->set_data_callback([&] { data_calls.fetch_add(1); });
  // A failed poll must re-arm the wakeup even though nothing was popped —
  // otherwise the next send after an empty scan would be lost.
  EXPECT_FALSE(pipe.receiver->try_receive_buf().has_value());
  pipe.sender->try_send(frame_of(5, 1));
  EXPECT_EQ(data_calls.load(), 1);
}

TEST(InprocChannel, DataCallbackFiresOnClose) {
  auto pipe = make_inproc_pipe();
  std::atomic<int> data_calls{0};
  pipe.receiver->set_data_callback([&] { data_calls.fetch_add(1); });
  pipe.sender->close();
  EXPECT_EQ(data_calls.load(), 1);  // receiver wakes to observe end-of-stream
}

TEST(InprocChannel, CloseSemantics) {
  auto pipe = make_inproc_pipe();
  pipe.sender->try_send(frame_of(8));
  pipe.sender->close();
  EXPECT_EQ(pipe.sender->try_send(frame_of(8)), SendStatus::kClosed);
  EXPECT_FALSE(pipe.receiver->closed());  // not drained yet
  EXPECT_TRUE(pipe.receiver->try_receive_buf().has_value());
  EXPECT_TRUE(pipe.receiver->closed());
  EXPECT_FALSE(pipe.receiver->try_receive_buf().has_value());
}

TEST(InprocChannel, BlockingReceiveTimesOut) {
  auto pipe = make_inproc_pipe();
  auto got = receive_within(*pipe.receiver, 20ms);
  EXPECT_FALSE(got.has_value());
}

TEST(InprocChannel, BlockingReceiveWakesOnSend) {
  auto pipe = make_inproc_pipe();
  std::thread t([&] {
    std::this_thread::sleep_for(10ms);
    pipe.sender->try_send(frame_of(3, 9));
  });
  auto got = receive_within(*pipe.receiver, 2s);
  t.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->contents()[0], 9);
}

TEST(InprocChannel, ByteCountersTrack) {
  auto pipe = make_inproc_pipe();
  pipe.sender->try_send(frame_of(100));
  pipe.sender->try_send(frame_of(50));
  EXPECT_EQ(pipe.sender->bytes_sent(), 150u);
  pipe.receiver->try_receive_buf();
  EXPECT_EQ(pipe.receiver->bytes_received(), 100u);
}

TEST(InprocChannel, CrossThreadFlowControlStress) {
  ChannelConfig cfg{.capacity_bytes = 4096, .low_watermark_bytes = 1024};
  auto pipe = make_inproc_pipe(cfg);
  constexpr int kFrames = 20000;
  std::atomic<bool> writable{true};
  pipe.sender->set_writable_callback([&] { writable.store(true); });

  std::thread producer([&] {
    int sent = 0;
    while (sent < kFrames) {
      FrameBufRef f = FrameBufPool::global().acquire();
      f->buffer().write_u32(static_cast<uint32_t>(sent));
      f->buffer().resize(64);
      auto s = pipe.sender->try_send(f);
      if (s == SendStatus::kOk) {
        ++sent;
      } else {
        writable.store(false);
        while (!writable.load() && !pipe.sender->writable(64)) std::this_thread::yield();
      }
    }
    pipe.sender->close();
  });

  int received = 0;
  while (true) {
    auto got = receive_within(*pipe.receiver, 2s);
    if (!got) break;
    ByteReader r(got->contents());
    ASSERT_EQ(r.read_u32(), static_cast<uint32_t>(received)) << "frame " << received;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kFrames);  // lossless, in order, under backpressure
}

}  // namespace
}  // namespace neptune
