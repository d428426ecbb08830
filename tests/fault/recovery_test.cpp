// End-to-end fault-tolerance tests (the acceptance suite of the subsystem):
// deterministic fault injection under real TCP edges, failure detection, and
// automatic checkpoint-based recovery. The invariant throughout is the
// paper's correctness contract — every packet delivered exactly once, in
// order, zero seq_violations — now required to hold *through* connection
// resets, corrupt frames, partial writes and killed resources.
#include <gtest/gtest.h>

#include <unistd.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "../support/gate.hpp"
#include "../support/poll.hpp"
#include "../support/threads.hpp"
#include "fault/recovery.hpp"
#include "fault/supervised_channel.hpp"
#include "net/frame.hpp"
#include "net/tcp_transport.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using test_util::receive_within;
using fault::FaultInjector;
using fault::FaultKind;
using fault::RecoveryCoordinator;
using fault::RecoveryOptions;
using workload::BytesSource;
using workload::CountingSink;

/// Order-checking sink: records ids and delegates checkpointing. An
/// optional per-packet delay paces the job so checkpoints and faults can
/// land mid-stream deterministically.
class RecordingSink : public StreamProcessor, public Checkpointable {
 public:
  explicit RecordingSink(int64_t delay_ns = 0) : delay_ns_(delay_ns) {}
  void process(StreamPacket& p, Emitter&) override {
    if (delay_ns_ > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns_));
    std::lock_guard lk(mu_);
    ids_.push_back(p.i64(0));
  }
  void snapshot_state(ByteBuffer& out) const override {
    std::lock_guard lk(mu_);
    out.write_varint(ids_.size());
    for (int64_t id : ids_) out.write_varint(static_cast<uint64_t>(id));
  }
  void restore_state(ByteReader& in) override {
    std::lock_guard lk(mu_);
    ids_.resize(in.read_varint());
    for (auto& id : ids_) id = static_cast<int64_t>(in.read_varint());
  }
  std::vector<int64_t> ids() const {
    std::lock_guard lk(mu_);
    return ids_;
  }
  size_t count() const {
    std::lock_guard lk(mu_);
    return ids_.size();
  }

 private:
  const int64_t delay_ns_;
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
};

/// Forwarding wrapper so a shared sink survives graph re-instantiation
/// (both the plain restart and the recovery path create fresh operators).
template <typename Sink>
std::function<std::unique_ptr<StreamProcessor>()> forward_to(std::shared_ptr<Sink> sink) {
  struct Fwd : StreamProcessor, Checkpointable {
    std::shared_ptr<Sink> inner;
    explicit Fwd(std::shared_ptr<Sink> s) : inner(std::move(s)) {}
    void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    void snapshot_state(ByteBuffer& out) const override { inner->snapshot_state(out); }
    void restore_state(ByteReader& in) override { inner->restore_state(in); }
  };
  return [sink]() -> std::unique_ptr<StreamProcessor> { return std::make_unique<Fwd>(sink); };
}

GraphConfig small_batches() {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 64 << 10;
  cfg.channel.low_watermark_bytes = 16 << 10;
  return cfg;
}

RuntimeOptions tcp_with(std::shared_ptr<FaultInjector> injector) {
  RuntimeOptions opt;
  opt.cross_resource_transport = EdgeTransport::kTcp;
  opt.fault_injector = std::move(injector);
  // Tight supervisor timings so tests converge fast.
  opt.supervisor.heartbeat_interval_ns = 10'000'000;
  opt.supervisor.peer_timeout_ns = 200'000'000;
  opt.supervisor.reconnect_backoff_ns = 2'000'000;
  opt.supervisor.reconnect_backoff_max_ns = 50'000'000;
  return opt;
}

/// Build src --tcp--> sink across two resources.
StreamGraph two_resource_relay(uint64_t total, std::shared_ptr<RecordingSink> sink) {
  StreamGraph g("fault-relay", small_batches());
  g.add_source("src", [total] { return std::make_unique<BytesSource>(total, 64); }, 1, 0);
  g.add_processor("sink", forward_to(sink), 1, 1);
  g.connect("src", "sink");
  return g;
}

void expect_exactly_once_in_order(const std::vector<int64_t>& ids, uint64_t total) {
  ASSERT_EQ(ids.size(), total);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i));
}

/// A BytesSource that counts its snapshots: one for the initial state a
/// RecoveryCoordinator keeps at start, then one per epoch whose barrier it
/// has sent.
class SnapshotCountingSource : public StreamSource, public Checkpointable {
 public:
  SnapshotCountingSource(uint64_t total, std::shared_ptr<std::atomic<uint64_t>> snapshots)
      : inner_(total, 64), snapshots_(std::move(snapshots)) {}
  void open(uint32_t instance, uint32_t parallelism) override {
    inner_.open(instance, parallelism);
  }
  bool next(Emitter& out, size_t budget) override { return inner_.next(out, budget); }
  void snapshot_state(ByteBuffer& out) const override {
    snapshots_->fetch_add(1);
    inner_.snapshot_state(out);
  }
  void restore_state(ByteReader& in) override { inner_.restore_state(in); }

 private:
  BytesSource inner_;
  std::shared_ptr<std::atomic<uint64_t>> snapshots_;
};

/// An operator that, while `on` is set, holds each packet on `gate` until
/// the test opens it, so a barrier behind it cannot pass, then forwards it
/// if it has an output. Counts the packets it held.
struct Hold {
  std::shared_ptr<test_util::Gate> gate = std::make_shared<test_util::Gate>();
  std::shared_ptr<std::atomic<bool>> on = std::make_shared<std::atomic<bool>>(true);
  std::shared_ptr<std::atomic<uint64_t>> entered = std::make_shared<std::atomic<uint64_t>>(0);

  ProcessorFactory factory() const {
    return [h = *this]() -> std::unique_ptr<StreamProcessor> {
      struct Held : StreamProcessor {
        Hold h;
        explicit Held(Hold hold) : h(std::move(hold)) {}
        void process(StreamPacket& p, Emitter& out) override {
          if (h.on->load()) {
            h.entered->fetch_add(1);
            h.gate->wait();
          }
          if (out.output_link_count() == 0) return;
          StreamPacket copy = p;
          out.emit(std::move(copy));
        }
      };
      return std::make_unique<Held>(h);
    };
  }
};

// --- supervised channel: self-healing link faults ---------------------------

TEST(SupervisedTcp, SurvivesConnectionResetMidStream) {
  auto injector = std::make_shared<FaultInjector>();
  // Reset the wire on data frame 5 and then every 40 frames after.
  injector->add_rule({.any_edge = true, .at_frame = 5, .repeat_every = 40,
                      .action = {FaultKind::kReset}});
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, tcp_with(injector));
  auto sink = std::make_shared<RecordingSink>();
  static constexpr uint64_t kTotal = 4000;
  auto job = rt.submit(two_resource_relay(kTotal, sink));
  job->start();
  ASSERT_TRUE(job->wait(120s));

  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_GE(injector->stats().resets, 1u);
  EXPECT_GE(job->metrics().total(&OperatorMetricsSnapshot::reconnects), 1u);
  EXPECT_FALSE(job->failed());
}

TEST(SupervisedTcp, SurvivesCorruptFrames) {
  auto injector = std::make_shared<FaultInjector>();
  // Flip a payload byte of data frame 3 and every 50th after: the receive
  // CRC must reject it, drop the link, and force a clean retransmission.
  injector->add_rule({.any_edge = true, .at_frame = 3, .repeat_every = 50,
                      .action = {FaultKind::kCorrupt, 0, /*byte_offset=*/40}});
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, tcp_with(injector));
  auto sink = std::make_shared<RecordingSink>();
  static constexpr uint64_t kTotal = 4000;
  auto job = rt.submit(two_resource_relay(kTotal, sink));
  job->start();
  ASSERT_TRUE(job->wait(120s));

  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_GE(injector->stats().corruptions, 1u);
  EXPECT_GE(job->metrics().total(&OperatorMetricsSnapshot::corrupt_frames_dropped), 1u);
  EXPECT_FALSE(job->failed());
}

TEST(SupervisedTcp, SurvivesPartialWrites) {
  auto injector = std::make_shared<FaultInjector>();
  // Crash mid-write: frame 4 (and every 60th) is cut after 10 bytes and the
  // connection dies — the classic torn-frame crash.
  injector->add_rule({.any_edge = true, .at_frame = 4, .repeat_every = 60,
                      .action = {FaultKind::kPartialWrite, 0, /*byte_offset=*/10}});
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, tcp_with(injector));
  auto sink = std::make_shared<RecordingSink>();
  static constexpr uint64_t kTotal = 3000;
  auto job = rt.submit(two_resource_relay(kTotal, sink));
  job->start();
  ASSERT_TRUE(job->wait(120s));

  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_GE(injector->stats().partial_writes, 1u);
  EXPECT_FALSE(job->failed());
}

TEST(SupervisedTcp, HeartbeatNeverLandsInsideATornFrame) {
  // Heartbeats are due every millisecond while frame 4 is torn: its prefix
  // is queued and the connection closed. The heartbeat tick runs on the
  // sender's loop, the same thread that writes the torn frame and closes
  // the link, so no heartbeat bytes can follow the prefix and be carved
  // into a phantom frame; the receiver sees a truncated tail, the link
  // recovers, and every packet arrives once.
  auto injector = std::make_shared<FaultInjector>();
  injector->add_rule({.any_edge = true, .at_frame = 4,
                      .action = {FaultKind::kPartialWrite, 0, /*byte_offset=*/10}});
  RuntimeOptions opt = tcp_with(injector);
  opt.supervisor.heartbeat_interval_ns = 1'000'000;
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, opt);
  auto sink = std::make_shared<RecordingSink>();
  static constexpr uint64_t kTotal = 2000;
  auto job = rt.submit(two_resource_relay(kTotal, sink));
  job->start();
  ASSERT_TRUE(job->wait(120s));

  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_EQ(injector->stats().partial_writes, 1u);
  EXPECT_FALSE(job->failed());
}

TEST(SupervisedTcp, SurvivesRandomFaultSoup) {
  auto injector = std::make_shared<FaultInjector>();
  injector->set_random({.seed = 42, .reset_probability = 0.01, .corrupt_probability = 0.01,
                        .stall_probability = 0.02, .stall_ns = 1'000'000});
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, tcp_with(injector));
  auto sink = std::make_shared<RecordingSink>();
  static constexpr uint64_t kTotal = 3000;
  auto job = rt.submit(two_resource_relay(kTotal, sink));
  job->start();
  ASSERT_TRUE(job->wait(120s));

  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_GE(injector->stats().total(), 1u);
}

TEST(SupervisedTcp, ExhaustedReconnectBudgetReportsHardFailure) {
  // Point a supervised sender at a port nobody listens on: every connect
  // attempt fails, the backoff budget burns down, and the failure handler
  // must fire exactly once.
  EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  fault::SupervisorConfig cfg;
  cfg.reconnect_backoff_ns = 1'000'000;
  cfg.reconnect_backoff_max_ns = 4'000'000;
  cfg.max_reconnect_attempts = 3;

  std::atomic<int> failures{0};
  std::promise<void> reported;
  std::future<void> report = reported.get_future();
  {
    fault::SupervisedTcpSender sender(&loop, /*port=*/1, ChannelConfig{}, cfg, fault::EdgeId{},
                                      nullptr, nullptr, [&](const std::string&) {
                                        if (failures.fetch_add(1) == 0) reported.set_value();
                                      });
    EXPECT_EQ(report.wait_for(10s), std::future_status::ready);
    EXPECT_TRUE(sender.failed());
    FrameBufRef frame = FrameBufPool::global().acquire();
    frame->buffer().write_u8(1);
    EXPECT_EQ(sender.try_send(frame), SendStatus::kClosed);
  }
  EXPECT_EQ(failures.load(), 1);
  loop.stop();
  loop_thread.join();
}

TEST(SupervisedTcp, SilentPeerBurnsTheBudget) {
  // A peer that accepts every connection and never sends the hello. Each
  // connection is dead once peer_timeout passes without a hello — the same
  // rule that bounds a handshake still pending — and burns one attempt, so
  // the sender connects exactly max_reconnect_attempts + 1 times and then
  // reports one hard failure.
  EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  fault::SupervisorConfig cfg;
  cfg.heartbeat_interval_ns = 5'000'000;
  cfg.peer_timeout_ns = 20'000'000;
  cfg.reconnect_backoff_ns = 1'000'000;
  cfg.reconnect_backoff_max_ns = 4'000'000;
  cfg.max_reconnect_attempts = 2;

  std::mutex accepted_mu;
  std::vector<int> accepted;  // held open and never written
  std::atomic<int> failures{0};
  std::promise<void> reported;
  std::future<void> report = reported.get_future();
  {
    TcpListener silent(&loop, 0, [&](int fd) {
      std::lock_guard lk(accepted_mu);
      accepted.push_back(fd);
    });
    fault::SupervisedTcpSender sender(&loop, silent.port(), ChannelConfig{}, cfg,
                                      fault::EdgeId{}, nullptr, nullptr,
                                      [&](const std::string&) {
                                        if (failures.fetch_add(1) == 0) reported.set_value();
                                      });
    EXPECT_EQ(report.wait_for(10s), std::future_status::ready);
    EXPECT_TRUE(sender.failed());
  }
  EXPECT_EQ(failures.load(), 1);
  {
    std::lock_guard lk(accepted_mu);
    EXPECT_EQ(accepted.size(), cfg.max_reconnect_attempts + 1);
    for (int fd : accepted) ::close(fd);
  }
  loop.stop();
  loop_thread.join();
}

TEST(SupervisedTcp, StallTimerNeverRunsOnADestroyedSender) {
  // A stall decorator re-fires the sender's writable callback from a loop
  // timer when the stall expires. Destroying the sender inside the stall
  // must leave nothing behind that calls into it (under AddressSanitizer a
  // late call is a use-after-scope report).
  auto injector = std::make_shared<FaultInjector>();
  injector->add_rule({.any_edge = true, .at_frame = 0,
                      .action = {FaultKind::kStall, /*delay_ns=*/50'000'000}});
  EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  fault::SupervisorConfig cfg;
  {
    fault::SupervisedTcpReceiver rx(&loop, ChannelConfig{}, cfg, fault::EdgeId{},
                                    injector.get(), nullptr);
    {
      fault::SupervisedTcpSender tx(&loop, rx.port(), ChannelConfig{}, cfg, fault::EdgeId{},
                                    injector.get(), nullptr, nullptr);
      FrameBufRef frame = FrameBufPool::global().acquire();
      encode_frame(FrameHeader{}, std::vector<uint8_t>(16, 7), frame->buffer());
      EXPECT_EQ(tx.try_send(frame), SendStatus::kOk);
      EXPECT_TRUE(test_util::wait_until([&] { return injector->stats().stalls >= 1; }, 5s));
    }
    // Let the stall's timer come due on the live loop.
    std::promise<void> later;
    loop.run_after(100'000'000, [&] { later.set_value(); });
    later.get_future().wait();
  }
  loop.stop();
  loop_thread.join();
}

TEST(SupervisedTcp, RetransmitsPinnedFramesAfterReconnect) {
  // Forced-reconnect retransmission with NO fault injector in the path:
  // first transmission and retransmission alike send the very refs the
  // sender retained. The link is severed by a rogue connection to the
  // receiver's listener: the receiver
  // adopts it (detaching the sender's link) and the sender must time out,
  // reconnect, learn the consumed mark from the hello ack, and retransmit
  // the unacked tail from the very refs it retained.
  EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  fault::SupervisorConfig cfg;
  cfg.heartbeat_interval_ns = 10'000'000;
  cfg.peer_timeout_ns = 150'000'000;
  cfg.reconnect_backoff_ns = 2'000'000;
  cfg.reconnect_backoff_max_ns = 20'000'000;
  cfg.jitter_seed = 7;

  auto make_frame = [](uint32_t seq) {
    std::vector<uint8_t> payload(64);
    for (size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<uint8_t>(seq * 131 + i);
    FrameHeader h;
    h.link_id = seq;
    h.batch_count = 1;
    h.raw_size = static_cast<uint32_t>(payload.size());
    FrameBufRef wire = FrameBufPool::global().acquire();
    encode_frame(h, payload, wire->buffer());
    return wire;
  };
  auto expect_frame = [](const FrameBufRef& view, uint32_t seq) {
    auto f = decode_whole_frame(view.contents());
    ASSERT_TRUE(f.has_value()) << "frame " << seq << " not byte-exact";
    EXPECT_EQ(f->header.link_id, seq);
    ASSERT_EQ(f->payload.size(), 64u);
    for (size_t i = 0; i < f->payload.size(); ++i)
      ASSERT_EQ(f->payload[i], static_cast<uint8_t>(seq * 131 + i));
  };

  std::atomic<uint64_t> reconnects{0};
  std::atomic<int> failures{0};
  // Writable-callback generations: a blocked try_send waits for the next.
  std::mutex writable_mu;
  std::condition_variable writable_cv;
  uint64_t writable_gen = 0;
  {
    fault::SupervisedTcpReceiver rx(&loop, ChannelConfig{}, cfg, fault::EdgeId{}, nullptr,
                                    nullptr);
    fault::SupervisedTcpSender tx(&loop, rx.port(), ChannelConfig{}, cfg, fault::EdgeId{},
                                  nullptr, &reconnects,
                                  [&](const std::string&) { failures.fetch_add(1); });
    tx.set_writable_callback([&] {
      {
        std::lock_guard lk(writable_mu);
        ++writable_gen;
      }
      writable_cv.notify_all();
    });

    constexpr uint32_t kFrames = 50;
    for (uint32_t i = 0; i < kFrames; ++i) {
      FrameBufRef frame = make_frame(i);
      for (;;) {
        std::unique_lock lk(writable_mu);
        const uint64_t gen = writable_gen;
        lk.unlock();
        if (tx.try_send(frame) != SendStatus::kBlocked) break;
        lk.lock();
        ASSERT_TRUE(writable_cv.wait_for(lk, 5s, [&] { return writable_gen != gen; }))
            << "blocked at frame " << i << " and never woken";
      }
    }
    // Consume a prefix so the ack window has a non-trivial consumed mark:
    // the retransmit must resume from frame 10, not from 0.
    for (uint32_t i = 0; i < 10; ++i) {
      auto view = receive_within(rx, 5s);
      ASSERT_TRUE(view.has_value()) << "timed out at frame " << i;
      expect_frame(*view, i);
    }

    int rogue = tcp_connect_blocking(rx.port());
    ASSERT_GE(rogue, 0);

    // The remaining 40 frames arrive exactly once, in order, through the
    // reconnect happening underneath.
    for (uint32_t i = 10; i < kFrames; ++i) {
      auto view = receive_within(rx, 5s);
      ASSERT_TRUE(view.has_value()) << "timed out at frame " << i;
      expect_frame(*view, i);
    }

    tx.close();  // EOF rides the same pinned path
    EXPECT_TRUE(test_util::wait_until(
        [&] {
          rx.try_receive_buf();  // consume the EOF so its ack flows
          return tx.delivery_complete();
        },
        5s));
    EXPECT_GE(reconnects.load(), 1u);
    EXPECT_EQ(failures.load(), 0);
    ::close(rogue);
  }
  loop.stop();
  loop_thread.join();
}

TEST(SupervisedTcp, AcksCoalesceWhileTheReceiverLoopIsBusy) {
  // Acks are cumulative and leave from the receiver's loop, at most one
  // pending: frames popped while the loop is held cost one ack frame, not
  // one each. Heartbeats are off (a long interval), so the only frame the
  // pair sends after the data is that ack.
  EventLoop tx_loop, rx_loop;
  std::thread tx_thread([&] { tx_loop.run(); });
  std::thread rx_thread([&] { rx_loop.run(); });
  fault::SupervisorConfig cfg;
  cfg.heartbeat_interval_ns = 3'600'000'000'000;
  cfg.peer_timeout_ns = 3'600'000'000'000;
  {
    fault::SupervisedTcpReceiver rx(&rx_loop, ChannelConfig{}, cfg, fault::EdgeId{}, nullptr,
                                    nullptr);
    fault::SupervisedTcpSender tx(&tx_loop, rx.port(), ChannelConfig{}, cfg, fault::EdgeId{},
                                  nullptr, nullptr, {});
    constexpr uint32_t kFrames = 16;
    uint64_t wire_bytes = 0;
    for (uint32_t i = 0; i < kFrames; ++i) {
      std::vector<uint8_t> payload(64, static_cast<uint8_t>(i));
      FrameHeader h;
      h.link_id = i;
      h.batch_count = 1;
      h.raw_size = static_cast<uint32_t>(payload.size());
      FrameBufRef frame = FrameBufPool::global().acquire();
      encode_frame(h, payload, frame->buffer());
      wire_bytes += frame.size();
      ASSERT_EQ(tx.try_send(frame), SendStatus::kOk);
    }
    tx.close();  // the EOF frame: consuming it completes delivery
    wire_bytes += encode_signal_frame(FrameHeader::kFlagEof, 0, {}).size();
    ASSERT_TRUE(test_util::wait_until([&] { return rx.bytes_received() == wire_bytes; }, 5s));

    test_util::Gate gate;
    std::promise<void> holding;
    rx_loop.post([&] {
      holding.set_value();
      gate.wait();
    });
    holding.get_future().wait();
    const uint64_t tx_frames0 = TcpTransportStats::global().tx_frames.load();
    uint32_t popped = 0;
    while (!rx.closed()) {
      if (rx.try_receive_buf()) ++popped;
    }
    EXPECT_EQ(popped, kFrames);
    gate.open();

    EXPECT_TRUE(test_util::wait_until([&] { return tx.delivery_complete(); }, 5s));
    EXPECT_EQ(TcpTransportStats::global().tx_frames.load() - tx_frames0, 1u);
  }
  tx_loop.stop();
  rx_loop.stop();
  tx_thread.join();
  rx_thread.join();
}

// --- RecoveryCoordinator: automatic checkpoint + restore --------------------

RecoveryOptions fast_recovery() {
  RecoveryOptions opt;
  opt.checkpoint_interval_ns = 40'000'000;  // 40 ms
  opt.poll_interval_ns = 10'000'000;
  return opt;
}

TEST(Recovery, CompletesAndCheckpointsWithoutFaults) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/50'000);
  static constexpr uint64_t kTotal = 4000;
  StreamGraph g("healthy", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "sink");

  RecoveryCoordinator coord(rt, std::move(g), fast_recovery());
  coord.start();
  ASSERT_TRUE(coord.wait(120s));
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_GE(coord.checkpoints_taken(), 1u);
  EXPECT_EQ(coord.recoveries(), 0u);
  EXPECT_FALSE(coord.permanently_failed());
  auto m = coord.metrics();
  EXPECT_EQ(m.checkpoints_taken, coord.checkpoints_taken());
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(Recovery, CorruptFrameOnInprocEdgeRestoresFromCheckpoint) {
  // Inproc edges have no reconnect path: a corrupt frame is a permanent
  // failure, detected by the runtime and repaired by the coordinator via
  // checkpoint restore + source replay.
  auto injector = std::make_shared<FaultInjector>();
  // One-shot corruption around 60% of the stream (~240 wire frames total at
  // this batch size); the sink pacing below puts that well past the first
  // 40 ms checkpoint, so the restore is genuinely from mid-stream state.
  injector->add_rule({.any_edge = true, .at_frame = 150, .action = {FaultKind::kCorrupt}});
  RuntimeOptions opt;
  opt.fault_injector = injector;
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1}, opt);
  auto sink = std::make_shared<RecordingSink>(/*delay_ns=*/50'000);
  static constexpr uint64_t kTotal = 6000;
  StreamGraph g("inproc-corrupt", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("relay", [] { return std::make_unique<workload::RelayProcessor>(); });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "relay");
  g.connect("relay", "sink");

  RecoveryCoordinator coord(rt, std::move(g), fast_recovery());
  coord.start();
  ASSERT_TRUE(coord.wait(120s));
  EXPECT_GE(coord.recoveries(), 1u);
  EXPECT_GE(injector->stats().corruptions, 1u);
  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(coord.metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_FALSE(coord.permanently_failed());
}

TEST(Recovery, TruncatedFrameOnInprocEdgeRestoresFromCheckpoint) {
  // A partial write on an inproc edge hands the receiver a buffer that is
  // only a prefix of one frame, then closes the pipe. A buffer that is not
  // exactly one frame is a corrupt frame: the runtime must report it (not
  // wait for bytes that never come) so the coordinator restores.
  auto injector = std::make_shared<FaultInjector>();
  injector->add_rule({.any_edge = true,
                      .at_frame = 150,
                      .action = {FaultKind::kPartialWrite, 0, /*byte_offset=*/FrameHeader::kSize + 7}});
  RuntimeOptions opt;
  opt.fault_injector = injector;
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1}, opt);
  auto sink = std::make_shared<RecordingSink>(/*delay_ns=*/50'000);
  static constexpr uint64_t kTotal = 6000;
  StreamGraph g("inproc-truncated", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
  g.add_processor("relay", [] { return std::make_unique<workload::RelayProcessor>(); });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "relay");
  g.connect("relay", "sink");

  RecoveryCoordinator coord(rt, std::move(g), fast_recovery());
  coord.start();
  ASSERT_TRUE(coord.wait(120s));
  EXPECT_GE(coord.recoveries(), 1u);
  EXPECT_GE(injector->stats().partial_writes, 1u);
  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(coord.metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_FALSE(coord.permanently_failed());
}

TEST(Recovery, KilledResourceRecoversAutomatically) {
  // The headline scenario: a whole resource (the sink side of a TCP edge)
  // dies mid-stream. The coordinator detects it, restarts the resource,
  // resubmits the job and restores the last checkpoint — zero packet loss,
  // zero duplicates, zero seq violations.
  auto injector = std::make_shared<FaultInjector>();
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, tcp_with(injector));
  auto sink = std::make_shared<RecordingSink>(/*delay_ns=*/50'000);
  static constexpr uint64_t kTotal = 6000;
  auto g = two_resource_relay(kTotal, sink);

  RecoveryCoordinator coord(rt, std::move(g), fast_recovery());
  coord.start();

  ASSERT_TRUE(test_util::wait_until(
      [&] { return coord.checkpoints_taken() >= 1 && sink->count() >= kTotal / 4; }, 60s));
  ASSERT_LT(sink->count(), kTotal);
  injector->schedule_resource_kill(/*resource_index=*/1, /*at_ns_after_start=*/0);

  ASSERT_TRUE(coord.wait(120s));
  EXPECT_GE(coord.recoveries(), 1u);
  EXPECT_GT(coord.recovery_ns(), 0);
  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(coord.metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_FALSE(coord.permanently_failed());
  EXPECT_TRUE(rt.resource(1)->running());  // resource was brought back
}

TEST(Recovery, CheckpointNowWaitsForAnOpenPeriodicEpoch) {
  // A periodic epoch is open (the source sent its barrier) and cannot
  // commit while the sink is held. A checkpoint_now() issued meanwhile
  // waits for it to close, then runs an epoch of its own.
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto snapshots = std::make_shared<std::atomic<uint64_t>>(0);
  Hold hold;
  StreamGraph g("ckpt-now-overlap", small_batches());
  g.add_source("src", [snapshots] {
    return std::make_unique<SnapshotCountingSource>(/*unbounded*/ 0, snapshots);
  });
  g.add_processor("sink", hold.factory());
  g.connect("src", "sink");

  RecoveryOptions opt;
  opt.checkpoint_interval_ns = 500'000'000;  // one periodic epoch before the request
  opt.checkpoint_timeout = 1h;
  opt.poll_interval_ns = 10'000'000;
  RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  ASSERT_TRUE(test_util::wait_until(
      [&] { return hold.entered->load() >= 1 && snapshots->load() >= 2; }, 60s));

  std::atomic<bool> returned{false};
  bool ok = false;
  std::thread caller([&] {
    ok = coord.checkpoint_now();
    returned.store(true);
  });
  // The open epoch cannot close while the sink is held, so neither can
  // the request.
  EXPECT_FALSE(test_util::wait_until([&] { return returned.load(); }, 200ms));
  hold.gate->open();
  caller.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(coord.checkpoints_taken(), 2u);
  EXPECT_EQ(coord.quiesce_timeouts(), 0u);
  coord.stop();
}

TEST(Recovery, DetectsFailureWhileAnEpochIsOpen) {
  // An epoch stays open: its barrier queues behind a relay held on a gate,
  // and the timeout is an hour. The resource of the recording sink then
  // dies. Its edge is inproc, so no edge reports the loss: only the
  // monitor's liveness check can see it, and it must still roll back; the
  // restored job must still deliver exactly once.
  Runtime rt(2, {.worker_threads = 2, .io_threads = 1});
  auto sink = std::make_shared<RecordingSink>(/*delay_ns=*/50'000);
  auto snapshots = std::make_shared<std::atomic<uint64_t>>(0);
  Hold hold;
  hold.on->store(false);
  static constexpr uint64_t kTotal = 6000;
  StreamGraph g("failure-in-epoch", small_batches());
  g.add_source("src", [snapshots] {
    return std::make_unique<SnapshotCountingSource>(kTotal, snapshots);
  }, 1, 0);
  g.add_processor("held", hold.factory(), 1, 0);
  g.add_processor("sink", forward_to(sink), 1, 1);
  g.connect("src", "held");
  g.connect("held", "sink");

  RecoveryOptions opt = fast_recovery();
  opt.checkpoint_timeout = 1h;
  RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  // Hold only once an epoch has committed, so the rollback restores it.
  ASSERT_TRUE(test_util::wait_until([&] { return coord.checkpoints_taken() >= 1; }, 60s));
  hold.on->store(true);
  ASSERT_TRUE(test_util::wait_until(
      [&] {
        const uint64_t committed = coord.checkpoints_taken();
        return hold.entered->load() >= 1 && snapshots->load() > committed + 1;
      },
      60s));
  ASSERT_LT(sink->count(), kTotal);
  rt.resource(1)->stop();

  const bool recovered = test_util::wait_until([&] { return coord.recoveries() >= 1; }, 60s);
  hold.gate->open();
  ASSERT_TRUE(recovered) << "no rollback while the epoch was open";
  ASSERT_TRUE(coord.wait(120s));
  expect_exactly_once_in_order(sink->ids(), kTotal);
  EXPECT_EQ(coord.metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_FALSE(coord.permanently_failed());
  EXPECT_TRUE(rt.resource(1)->running());
}

TEST(Recovery, CoordinatorAddsOneThread) {
  // Next to TcpRuntime.ThreadsDoNotGrowWithEdges: a coordinator with the
  // watchdog on adds its monitor and no other thread to the resources'
  // worker and IO pools.
  const size_t before = test_util::live_threads();
  Runtime rt(2, {.worker_threads = 2, .io_threads = 1});
  Hold hold;
  StreamGraph g("coordinator-threads", small_batches());
  g.add_source("src", [] { return std::make_unique<BytesSource>(2000, 64); }, 1, 0);
  g.add_processor("sink", hold.factory(), 1, 1);
  g.connect("src", "sink");
  RecoveryOptions opt = fast_recovery();
  opt.watchdog.stall_timeout_ns = int64_t{3600} * 1'000'000'000;
  RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  const bool held = test_util::wait_until([&] { return hold.entered->load() >= 1; }, 30s);
  const size_t during = test_util::live_threads();
  hold.gate->open();
  EXPECT_TRUE(held);
  EXPECT_EQ(during, before + 2 * (2 + 1) + 1);
  ASSERT_TRUE(coord.wait(120s));
}

}  // namespace
}  // namespace neptune
