#include "net/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <future>
#include <thread>

#include "../support/poll.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using test_util::receive_within;

struct TcpFixture : ::testing::Test {
  void SetUp() override {
    loop_thread = std::thread([this] { loop.run(); });
    auto accepted_promise = std::make_shared<std::promise<std::shared_ptr<TcpConnection>>>();
    accepted_future = accepted_promise->get_future();
    listener = std::make_unique<TcpListener>(&loop, 0, [this, accepted_promise](int fd) {
      auto conn = TcpConnection::create(&loop, fd);
      conn->start();
      accepted_promise->set_value(conn);
    });
    // Listener registration is posted to the loop; give it a beat.
    std::this_thread::sleep_for(20ms);
    int fd = tcp_connect_blocking(listener->port());
    ASSERT_GE(fd, 0);
    client = TcpConnection::create(&loop, fd);
    client->start();
    ASSERT_EQ(accepted_future.wait_for(2s), std::future_status::ready);
    server = accepted_future.get();
  }

  void TearDown() override {
    if (client) client->close();
    if (server) server->close();
    std::this_thread::sleep_for(20ms);
    listener.reset();
    std::this_thread::sleep_for(20ms);
    loop.stop();
    loop_thread.join();
  }

  /// One wire frame whose payload is `payload_bytes` bytes derived from
  /// `seq` (link_id carries `seq`).
  static FrameBufRef make_frame(uint32_t seq, size_t payload_bytes) {
    std::vector<uint8_t> payload(payload_bytes);
    for (size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<uint8_t>(seq * 131 + i);
    return frame_with(seq, payload);
  }

  static FrameBufRef frame_with(uint32_t seq, std::span<const uint8_t> payload) {
    FrameHeader h;
    h.link_id = seq;
    h.batch_count = 1;
    h.raw_size = static_cast<uint32_t>(payload.size());
    FrameBufRef wire = FrameBufPool::global().acquire();
    encode_frame(h, payload, wire->buffer());
    return wire;
  }

  static void expect_frame(const FrameBufRef& view, uint32_t seq, size_t payload_bytes) {
    FrameDecodeStatus s;
    auto f = decode_whole_frame(view.contents(), &s);
    ASSERT_TRUE(f.has_value()) << "view is not exactly one frame (seq " << seq << ")";
    EXPECT_EQ(f->header.link_id, seq);
    ASSERT_EQ(f->payload.size(), payload_bytes);
    for (size_t i = 0; i < f->payload.size(); ++i)
      ASSERT_EQ(f->payload[i], static_cast<uint8_t>(seq * 131 + i)) << "byte " << i;
  }

  /// The next frame from `rx`, checked against make_frame(seq, payload_bytes).
  static void expect_next_frame(ChannelReceiver& rx, uint32_t seq, size_t payload_bytes) {
    auto view = receive_within(rx, 5s);
    ASSERT_TRUE(view.has_value()) << "timed out waiting for frame " << seq;
    expect_frame(*view, seq, payload_bytes);
  }

  /// try_send with kBlocked retry (the receiving side drains concurrently).
  void send_pinned(const FrameBufRef& frame) {
    for (;;) {
      SendStatus s = client->try_send(frame);
      if (s == SendStatus::kOk) return;
      ASSERT_EQ(s, SendStatus::kBlocked);
      std::this_thread::sleep_for(1ms);
    }
  }

  EventLoop loop;
  std::thread loop_thread;
  std::unique_ptr<TcpListener> listener;
  std::shared_ptr<TcpConnection> client;
  std::shared_ptr<TcpConnection> server;
  std::future<std::shared_ptr<TcpConnection>> accepted_future;
};

TEST_F(TcpFixture, RoundTripSmallMessage) {
  ASSERT_EQ(client->try_send(make_frame(1, 5)), SendStatus::kOk);
  expect_next_frame(*server, 1, 5);
}

TEST_F(TcpFixture, BidirectionalTraffic) {
  ASSERT_EQ(client->try_send(make_frame(10, 2)), SendStatus::kOk);
  ASSERT_EQ(server->try_send(make_frame(20, 3)), SendStatus::kOk);
  expect_next_frame(*server, 10, 2);
  expect_next_frame(*client, 20, 3);
}

TEST_F(TcpFixture, LargeTransferIsLossless) {
  // 2 MB of random bytes in 64 KB frames through the default budgets: the
  // sender blocks and resumes, the payloads reassemble byte-exact.
  Xoshiro256 rng(3);
  std::vector<uint8_t> big(2 << 20);
  for (auto& x : big) x = static_cast<uint8_t>(rng.next_u64());
  constexpr size_t kChunk = 64 * 1024;
  // Shared, not a local: the connection keeps the callback past this body
  // and fires it once more when TearDown closes it.
  auto writable = std::make_shared<std::atomic<bool>>(true);
  client->set_writable_callback([writable] { writable->store(true); });

  std::vector<uint8_t> got;
  std::thread reader_thread([&] {
    while (got.size() < big.size()) {
      auto view = receive_within(*server, 2s);
      if (!view) break;
      auto f = decode_whole_frame(view->contents());
      if (!f) break;
      got.insert(got.end(), f->payload.begin(), f->payload.end());
    }
  });

  size_t sent = 0;
  while (sent < big.size()) {
    size_t chunk = std::min(big.size() - sent, kChunk);
    auto s = client->try_send(frame_with(static_cast<uint32_t>(sent / kChunk),
                                         std::span(big.data() + sent, chunk)));
    if (s == SendStatus::kOk) {
      sent += chunk;
    } else if (s == SendStatus::kBlocked) {
      writable->store(false);
      while (!writable->load() && !client->writable(chunk)) std::this_thread::yield();
    } else {
      FAIL() << "connection closed mid-send";
    }
  }
  reader_thread.join();
  EXPECT_EQ(got, big);
}

TEST_F(TcpFixture, SenderBlocksWhenReceiverStopsDraining) {
  // One 256 KB frame pinned over and over: the receiver never drains, so
  // within the default budgets the sender must eventually observe kBlocked
  // (kernel buffers + inbound cap fill).
  FrameBufRef frame = make_frame(7, 256 * 1024);
  SendStatus s = SendStatus::kOk;
  int sends = 0;
  while (sends < 1024) {
    s = client->try_send(frame);
    if (s != SendStatus::kOk) break;
    ++sends;
  }
  EXPECT_EQ(s, SendStatus::kBlocked);

  // Draining the receiver eventually restores writability.
  auto writable = std::make_shared<std::atomic<bool>>(false);
  client->set_writable_callback([writable] { writable->store(true); });
  while (auto f = server->try_receive_buf()) {
  }
  for (int i = 0; i < 400 && !writable->load(); ++i) {
    std::this_thread::sleep_for(5ms);
    while (auto f = server->try_receive_buf()) {
    }
  }
  EXPECT_TRUE(writable->load());
}

TEST_F(TcpFixture, CloseIsSynchronousAndIdempotent) {
  // Regression: close() used to defer the closed_ flip to the loop thread,
  // so a send racing a cross-thread close could still enqueue bytes into a
  // dying connection. closed() must hold the moment close() returns, from
  // any thread, and double-close must be harmless.
  client->close();
  EXPECT_TRUE(client->closed());
  EXPECT_EQ(client->try_send(make_frame(1, 3)), SendStatus::kClosed);
  client->close();  // idempotent
  EXPECT_TRUE(client->closed());
}

TEST_F(TcpFixture, ConcurrentSendAndCloseDoNotRace) {
  // Hammer try_send from two threads while a third closes the connection;
  // every sender must settle on kClosed promptly and nothing may crash or
  // deadlock (run under -DNEPTUNE_SANITIZE to check the old race).
  std::atomic<int> settled{0};
  auto hammer = [&] {
    FrameBufRef frame = make_frame(1, 4096);
    for (int i = 0; i < 200'000; ++i) {
      if (client->try_send(frame) == SendStatus::kClosed) break;
      if ((i & 0xFF) == 0) std::this_thread::yield();
    }
    settled.fetch_add(1);
  };
  std::thread t1(hammer), t2(hammer);
  std::this_thread::sleep_for(5ms);
  client->close();
  t1.join();
  t2.join();
  EXPECT_EQ(settled.load(), 2);
  EXPECT_TRUE(client->closed());
  EXPECT_EQ(client->try_send(make_frame(9, 1)), SendStatus::kClosed);
}

TEST_F(TcpFixture, PeerCloseObservedAsEndOfStream) {
  ASSERT_EQ(client->try_send(make_frame(42, 1)), SendStatus::kOk);
  expect_next_frame(*server, 42, 1);
  client->close();
  // Server eventually reports closed-and-drained; sends fail.
  for (int i = 0; i < 400 && !server->closed(); ++i) {
    std::this_thread::sleep_for(5ms);
    while (server->try_receive_buf()) {
    }
  }
  EXPECT_TRUE(server->closed());
  EXPECT_EQ(server->try_send(make_frame(42, 1)), SendStatus::kClosed);
}

TEST_F(TcpFixture, FramesSurviveTcpChunking) {
  // Many frames of growing size: however the kernel segments and the
  // receiver's recv() calls split the stream, every frame comes back whole.
  constexpr uint32_t kFrames = 200;
  for (uint32_t i = 0; i < kFrames; ++i) send_pinned(make_frame(i, 100 + i));
  for (uint32_t i = 0; i < kFrames; ++i) expect_next_frame(*server, i, 100 + i);
}

TEST(TcpStandalone, ConnectToClosedPortFails) {
  int fd = tcp_connect_blocking(1, /*timeout_ms=*/100);  // port 1: nothing listening
  EXPECT_LT(fd, 0);
}

// --- zero-copy paths: framed receive + pinned scatter-gather send -----------

/// The zero-copy paths: frames carved at the socket, pinned frames
/// gathered into sendmsg.
struct FramedTcpFixture : TcpFixture {};

TEST_F(FramedTcpFixture, FramedRxDeliversWholeCarvedFrames) {
  // Many small frames sent back to back land several to a recv(): the
  // server must hand back one exactly-one-frame view per frame, in order,
  // byte-exact.
  constexpr uint32_t kFrames = 300;
  for (uint32_t i = 0; i < kFrames; ++i) send_pinned(make_frame(i, 1 + i));
  for (uint32_t i = 0; i < kFrames; ++i) expect_next_frame(*server, i, 1 + i);
}

TEST_F(FramedTcpFixture, PinnedFrameSendSkipsTheStagingCopy) {
  TcpTransportStats& ts = TcpTransportStats::global();
  const uint64_t tx_frames0 = ts.tx_frames.load();

  constexpr uint32_t kFrames = 100;
  for (uint32_t i = 0; i < kFrames; ++i) send_pinned(make_frame(i, 64));
  for (uint32_t i = 0; i < kFrames; ++i) expect_next_frame(*server, i, 64);

  // Each pinned frame entered the out queue as itself: one queued entry per
  // frame, no staging buffer in between.
  EXPECT_EQ(ts.tx_frames.load() - tx_frames0, kFrames);
  // sendmsg gathered at least one iovec per call; with the burst enqueued
  // faster than the wire drains it, strictly more on average.
  EXPECT_GE(ts.sendmsg_iovecs.load(), ts.sendmsg_calls.load());
}

TEST_F(FramedTcpFixture, PartialWritesMidIovecPreserveByteStream) {
  // Force short writes and EAGAIN mid-drain: shrink the kernel send buffer,
  // then enqueue far more pinned frames than it holds while the receiver
  // drains slowly. The retire loop must track partial-frame offsets across
  // sendmsg calls, and the carve must reassemble frames that straddle recv
  // chunk boundaries — including one frame larger than the 256 KB chunk.
  int small = 4096;
  ASSERT_EQ(setsockopt(client->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);

  constexpr uint32_t kFrames = 2000;
  constexpr size_t kPayload = 1000;
  constexpr uint32_t kBigSeq = 1000;             // one oversized frame mid-stream
  constexpr size_t kBigPayload = 300 * 1024;     // > kRxChunkBytes

  const uint64_t rx_copies0 = TcpTransportStats::global().rx_copies.load();

  std::thread sender([&] {
    for (uint32_t i = 0; i < kFrames; ++i)
      send_pinned(make_frame(i, i == kBigSeq ? kBigPayload : kPayload));
  });

  for (uint32_t i = 0; i < kFrames; ++i) {
    expect_next_frame(*server, i, i == kBigSeq ? kBigPayload : kPayload);
    if ((i & 0x3F) == 0) std::this_thread::sleep_for(1ms);  // keep the window tight
  }
  sender.join();

  // 2 MB through 256 KB chunks: some frames straddled chunk boundaries and
  // were spliced forward — the counter must have seen them.
  EXPECT_GT(TcpTransportStats::global().rx_copies.load(), rx_copies0);
}

TEST_F(FramedTcpFixture, CorruptHeaderClosesTheConnection) {
  // The stream cannot be re-synchronized past a corrupt header, so the
  // connection delivers every frame carved before it and then closes;
  // the garbage itself never reaches the consumer. (Supervised edges then
  // reconnect and retransmit.)
  send_pinned(make_frame(1, 16));
  FrameBufRef garbage = FrameBufPool::global().acquire();
  for (int i = 0; i < 64; ++i) garbage->buffer().write_u8(0xFF);
  send_pinned(garbage);

  expect_next_frame(*server, 1, 16);
  for (int i = 0; i < 400 && !server->closed(); ++i) {
    EXPECT_FALSE(server->try_receive_buf().has_value()) << "garbage was delivered";
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(server->closed());
}

}  // namespace
}  // namespace neptune
