// End-to-end fault-tolerance tests (the acceptance suite of the subsystem):
// deterministic fault injection under real TCP edges, failure detection, and
// automatic checkpoint-based recovery. The invariant throughout is the
// paper's correctness contract — every packet delivered exactly once, in
// order, zero seq_violations — now required to hold *through* connection
// resets, corrupt frames, partial writes and killed resources.
#include <gtest/gtest.h>

#include <unistd.h>

#include <mutex>
#include <thread>

#include "../support/poll.hpp"
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
  cfg.connect_timeout_ms = 50;

  std::atomic<int> failures{0};
  {
    fault::SupervisedTcpSender sender(&loop, /*port=*/1, ChannelConfig{}, cfg, fault::EdgeId{},
                                      nullptr, nullptr,
                                      [&](const std::string&) { failures.fetch_add(1); });
    for (int i = 0; i < 500 && !sender.failed(); ++i) std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(sender.failed());
    FrameBufRef frame = FrameBufPool::global().acquire();
    frame->buffer().write_u8(1);
    EXPECT_EQ(sender.try_send(frame), SendStatus::kClosed);
  }
  EXPECT_EQ(failures.load(), 1);
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
  {
    fault::SupervisedTcpReceiver rx(&loop, ChannelConfig{}, cfg, fault::EdgeId{}, nullptr,
                                    nullptr);
    fault::SupervisedTcpSender tx(&loop, rx.port(), ChannelConfig{}, cfg, fault::EdgeId{},
                                  nullptr, &reconnects,
                                  [&](const std::string&) { failures.fetch_add(1); });

    constexpr uint32_t kFrames = 50;
    for (uint32_t i = 0; i < kFrames; ++i) {
      FrameBufRef frame = make_frame(i);
      while (tx.try_send(frame) == SendStatus::kBlocked) std::this_thread::sleep_for(1ms);
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
    for (int i = 0; i < 1000 && !tx.delivery_complete(); ++i) {
      rx.try_receive_buf();  // consume the EOF so its ack flows
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(tx.delivery_complete());
    EXPECT_GE(reconnects.load(), 1u);
    EXPECT_EQ(failures.load(), 0);
    ::close(rogue);
  }
  loop.stop();
  loop_thread.join();
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

  for (int i = 0; i < 1000 && (coord.checkpoints_taken() < 1 || sink->count() < kTotal / 4);
       ++i)
    std::this_thread::sleep_for(2ms);
  ASSERT_GE(coord.checkpoints_taken(), 1u);
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

}  // namespace
}  // namespace neptune
