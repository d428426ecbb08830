// Checkpoint/restore (prototype of the paper's §VI fault-tolerance future
// work) with aligned barriers: Job::checkpoint asks every source for
// barrier(epoch), the barriers travel in-band behind the data, and each
// instance snapshots once aligned — while the sources keep emitting. The
// invariants: the snapshot is a consistent cut (every operator's state
// covers exactly the data its upstreams emitted before their barriers),
// and a restart from it is exactly-once.
#include <gtest/gtest.h>

#include <mutex>

#include "../support/gate.hpp"
#include "../support/poll.hpp"
#include "compress/selective.hpp"
#include "fault/fault_injector.hpp"
#include "net/inproc_transport.hpp"
#include "neptune/instance.hpp"
#include "neptune/runtime.hpp"
#include "neptune/state.hpp"
#include "neptune/window.hpp"
#include "neptune/workload.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using test_util::Gate;
using test_util::wait_until;
using workload::BytesSource;
using workload::CountingSink;

TEST(JobSnapshot, SerializeDeserializeRoundTrip) {
  JobSnapshot snap;
  snap.put("src", 0, {1, 2, 3});
  snap.put("src", 1, {4});
  snap.put("sink", 0, {});
  ByteBuffer wire;
  snap.serialize(wire);
  JobSnapshot back = JobSnapshot::deserialize(wire.contents());
  EXPECT_EQ(back.size(), 3u);
  ASSERT_NE(back.find("src", 0), nullptr);
  EXPECT_EQ(*back.find("src", 0), (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_NE(back.find("sink", 0), nullptr);
  EXPECT_TRUE(back.find("sink", 0)->empty());
  EXPECT_EQ(back.find("nope", 0), nullptr);
}

TEST(JobSnapshot, DetectsCorruption) {
  JobSnapshot snap;
  snap.put("op", 0, {9, 9, 9});
  ByteBuffer wire;
  snap.serialize(wire);
  wire.data()[wire.size() - 1] ^= 0xFF;  // corrupt the body
  EXPECT_THROW(JobSnapshot::deserialize(wire.contents()), std::runtime_error);
  ByteBuffer bad_magic;
  bad_magic.write_u32(0xDEADBEEF);
  EXPECT_THROW(JobSnapshot::deserialize(bad_magic.contents()), std::runtime_error);
}

/// The varints an operator wrote into the snapshot, in order.
std::vector<uint64_t> state_of(const JobSnapshot& snap, const std::string& op) {
  const std::vector<uint8_t>* bytes = snap.find(op, 0);
  EXPECT_NE(bytes, nullptr) << op << " missing from the snapshot";
  std::vector<uint64_t> out;
  if (!bytes) return out;
  ByteReader r(*bytes);
  while (r.remaining() > 0) out.push_back(r.read_varint());
  return out;
}

/// Emits packets (tag, seq) with seq 0, 1, 2, ...; `total` 0 = unbounded.
/// Its position is also published to the test through `emitted`.
class TaggedSource final : public StreamSource, public Checkpointable {
 public:
  TaggedSource(int64_t tag, uint64_t total, std::shared_ptr<std::atomic<uint64_t>> emitted)
      : tag_(tag), total_(total), emitted_(std::move(emitted)) {}
  bool next(Emitter& out, size_t budget) override {
    for (size_t i = 0; i < budget; ++i) {
      uint64_t seq = emitted_->load(std::memory_order_relaxed);
      if (total_ != 0 && seq >= total_) return false;
      StreamPacket p;
      p.add_i64(tag_);
      p.add_i64(static_cast<int64_t>(seq));
      emitted_->store(seq + 1, std::memory_order_relaxed);
      if (out.emit(std::move(p)) == EmitStatus::kBackpressured) break;
    }
    return true;
  }
  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(emitted_->load(std::memory_order_relaxed));
  }
  void restore_state(ByteReader& in) override {
    emitted_->store(in.read_varint(), std::memory_order_relaxed);
  }

 private:
  const int64_t tag_;
  const uint64_t total_;
  std::shared_ptr<std::atomic<uint64_t>> emitted_;
};

/// Two-input operator: forwards every packet and counts it per tag. Tag-1
/// packets cost a little CPU, so that input backs up behind the other.
class Mix final : public StreamProcessor, public Checkpointable {
 public:
  void process(StreamPacket& p, Emitter& out) override {
    int64_t tag = p.i64(0);
    ++counts_[tag];
    if (tag == 1) {
      auto until = std::chrono::steady_clock::now() + 1us;
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    out.emit(std::move(p));
  }
  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(counts_[0]);
    out.write_varint(counts_[1]);
  }
  void restore_state(ByteReader& in) override {
    counts_[0] = in.read_varint();
    counts_[1] = in.read_varint();
  }

 private:
  uint64_t counts_[2] = {0, 0};
};

/// Per-tag in-order, exactly-once ledger shared with the test.
struct Ledger {
  mutable std::mutex mu;
  uint64_t next[2] = {0, 0};
  uint64_t violations = 0;
  uint64_t total() const {
    std::lock_guard lk(mu);
    return next[0] + next[1];
  }
  uint64_t count(int tag) const {
    std::lock_guard lk(mu);
    return next[tag];
  }
};

class LedgerSink final : public StreamProcessor, public Checkpointable {
 public:
  explicit LedgerSink(std::shared_ptr<Ledger> ledger) : ledger_(std::move(ledger)) {}
  void process(StreamPacket& p, Emitter&) override {
    std::lock_guard lk(ledger_->mu);
    uint64_t& next = ledger_->next[p.i64(0)];
    if (static_cast<uint64_t>(p.i64(1)) != next) ++ledger_->violations;
    next = static_cast<uint64_t>(p.i64(1)) + 1;
  }
  void snapshot_state(ByteBuffer& out) const override {
    std::lock_guard lk(ledger_->mu);
    out.write_varint(ledger_->next[0]);
    out.write_varint(ledger_->next[1]);
  }
  void restore_state(ByteReader& in) override {
    std::lock_guard lk(ledger_->mu);
    ledger_->next[0] = in.read_varint();
    ledger_->next[1] = in.read_varint();
  }

 private:
  std::shared_ptr<Ledger> ledger_;
};

struct TwoInputJob {
  std::shared_ptr<std::atomic<uint64_t>> a_emitted = std::make_shared<std::atomic<uint64_t>>(0);
  std::shared_ptr<std::atomic<uint64_t>> b_emitted = std::make_shared<std::atomic<uint64_t>>(0);
  std::shared_ptr<Ledger> ledger = std::make_shared<Ledger>();

  /// a --> mix <-- b, mix --> sink.
  StreamGraph graph(uint64_t a_total, uint64_t b_total) const {
    GraphConfig cfg;
    cfg.buffer.capacity_bytes = 2048;
    cfg.buffer.flush_interval_ns = 1'000'000;
    cfg.channel.capacity_bytes = 32 << 10;
    cfg.channel.low_watermark_bytes = 8 << 10;
    StreamGraph g("two-input", cfg);
    g.add_source("a", [e = a_emitted, a_total] {
      return std::make_unique<TaggedSource>(0, a_total, e);
    });
    g.add_source("b", [e = b_emitted, b_total] {
      return std::make_unique<TaggedSource>(1, b_total, e);
    });
    g.add_processor("mix", [] { return std::make_unique<Mix>(); });
    g.add_processor("sink", [l = ledger] { return std::make_unique<LedgerSink>(l); });
    g.connect("a", "mix");
    g.connect("b", "mix");
    g.connect("mix", "sink");
    return g;
  }
};

/// Every operator's state covers exactly what its upstreams sent before
/// their barriers.
void expect_consistent_cut(const JobSnapshot& snap) {
  uint64_t a = state_of(snap, "a").at(0);
  uint64_t b = state_of(snap, "b").at(0);
  EXPECT_EQ(state_of(snap, "mix"), (std::vector<uint64_t>{a, b}));
  EXPECT_EQ(state_of(snap, "sink"), (std::vector<uint64_t>{a, b}));
}

TEST(Checkpoint, BarrierAlignsTwoInputsWhileSourcesKeepEmitting) {
  static constexpr uint64_t kTotal = 200'000;
  TwoInputJob first;
  ByteBuffer wire;
  {
    Runtime rt(1, {.worker_threads = 3, .io_threads = 1});
    auto job = rt.submit(first.graph(kTotal, kTotal));
    job->start();
    ASSERT_TRUE(wait_until([&] { return first.ledger->total() >= 5000; }, 60s));

    std::optional<JobSnapshot> snap = job->checkpoint(1, 30s);
    ASSERT_TRUE(snap.has_value());
    // Whichever input delivered its barrier first was held until the other
    // did: with either input read past its barrier, mix would count more
    // than its source's recorded position.
    expect_consistent_cut(*snap);
    uint64_t a = state_of(*snap, "a").at(0);
    uint64_t b = state_of(*snap, "b").at(0);
    ASSERT_LT(a, kTotal) << "the checkpoint must land mid-stream";
    ASSERT_LT(b, kTotal);
    // Nothing paused: both sources carried on past their barrier.
    EXPECT_TRUE(wait_until(
        [&] { return first.a_emitted->load() > a && first.b_emitted->load() > b; }, 60s));
    snap->serialize(wire);
    job->stop();
    job->wait(30s);
  }  // runtime destroyed: the "crash"

  TwoInputJob second;
  Runtime rt(1, {.worker_threads = 3, .io_threads = 1});
  auto job = rt.submit(second.graph(kTotal, kTotal));
  job->restore_state(JobSnapshot::deserialize(wire.contents()));
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(second.ledger->count(0), kTotal);
  EXPECT_EQ(second.ledger->count(1), kTotal);
  EXPECT_EQ(second.ledger->violations, 0u) << "a packet was lost or repeated across the restart";
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(Checkpoint, SourceExhaustedBeforeTheRequestReportsItsFinalState) {
  static constexpr uint64_t kShort = 1000;
  TwoInputJob t;
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto job = rt.submit(t.graph(kShort, /*unbounded*/ 0));
  job->start();
  // Source a has emitted everything and its edge has delivered it all.
  ASSERT_TRUE(wait_until([&] { return t.ledger->count(0) == kShort; }, 60s));

  std::optional<JobSnapshot> snap = job->checkpoint(1, 30s);
  ASSERT_TRUE(snap.has_value()) << "a closed input must count as aligned";
  EXPECT_EQ(state_of(*snap, "a"), (std::vector<uint64_t>{kShort}));
  expect_consistent_cut(*snap);
  job->stop();
  job->wait(30s);
}

/// Sink that blocks on the test's gate before consuming anything.
class HeldSink final : public StreamProcessor, public Checkpointable {
 public:
  explicit HeldSink(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  void process(StreamPacket&, Emitter&) override {
    gate_->wait();
    ++count_;
  }
  void snapshot_state(ByteBuffer& out) const override { out.write_varint(count_); }
  void restore_state(ByteReader& in) override { count_ = in.read_varint(); }

 private:
  std::shared_ptr<Gate> gate_;
  uint64_t count_ = 0;
};

/// Unbounded src on resource 0 --> held sink on resource 1. The channel
/// budget is below one frame, so once a frame is in flight nothing else —
/// not even a barrier — gets past the sender's queue.
StreamGraph held_graph(std::shared_ptr<Gate> gate, QosClass qos = QosClass::kCritical,
                       ShedConfig shed = {}) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 1 << 10;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 64;
  cfg.channel.low_watermark_bytes = 32;
  StreamGraph g("held", cfg);
  g.add_source("src", [] { return std::make_unique<BytesSource>(0, 64); }, 1, 0);
  g.add_processor("sink", [gate] { return std::make_unique<HeldSink>(gate); }, 1, 1);
  g.connect("src", "sink", nullptr, {}, std::nullopt, qos, shed);
  return g;
}

TEST(Checkpoint, BarrierParkedBehindAFlowControlledFrame) {
  auto gate = std::make_shared<Gate>();
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(held_graph(gate));
  job->start();
  ASSERT_TRUE(wait_until(
      [&] { return job->metrics().total("src", &OperatorMetricsSnapshot::blocked_sends) > 0; },
      60s));

  // The source snapshots and queues the barrier behind its parked frame;
  // the epoch cannot complete while the sink is held.
  job->begin_checkpoint(1);
  EXPECT_FALSE(job->await_checkpoint(1, 50ms).has_value());
  gate->open();
  std::optional<JobSnapshot> snap = job->await_checkpoint(1, 30s);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(state_of(*snap, "sink"), state_of(*snap, "src"))
      << "the sink's state must cover exactly the packets before the barrier";
  job->stop();
  job->wait(30s);
}

TEST(Checkpoint, DropOldestEdgeUnderOverloadNeverShedsTheBarrier) {
  auto gate = std::make_shared<Gate>();
  ShedConfig shed;
  shed.policy = ShedPolicy::kDropOldest;
  shed.max_queue_wait_ns = 1'000'000;
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(held_graph(gate, QosClass::kBestEffort, shed));
  job->start();
  ASSERT_TRUE(wait_until(
      [&] { return job->metrics().total("src", &OperatorMetricsSnapshot::packets_shed) > 0; },
      60s));

  // While the sink is held the barrier overstays the 1 ms queue-wait bound
  // many times over; a shed barrier would leave the sink never aligned.
  job->begin_checkpoint(1);
  EXPECT_FALSE(job->await_checkpoint(1, 50ms).has_value());
  gate->open();
  EXPECT_TRUE(job->await_checkpoint(1, 30s).has_value());
  job->stop();
  job->wait(30s);
}

TEST(Checkpoint, SupervisedTcpReconnectsDuringTheBarrierDeliverItOnce) {
  auto injector = std::make_shared<fault::FaultInjector>();
  // Reset the link on every fifth frame transmission, barriers included.
  injector->add_rule({.any_edge = true, .at_frame = 5, .repeat_every = 5,
                      .action = {fault::FaultKind::kReset}});
  RuntimeOptions opt;
  opt.cross_resource_transport = EdgeTransport::kTcp;
  opt.fault_injector = injector;
  opt.supervisor.heartbeat_interval_ns = 10'000'000;
  opt.supervisor.peer_timeout_ns = 200'000'000;
  opt.supervisor.reconnect_backoff_ns = 2'000'000;
  opt.supervisor.reconnect_backoff_max_ns = 20'000'000;
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, opt);

  static constexpr uint64_t kTotal = 20'000;
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  auto sink = std::make_shared<CountingSink>();
  StreamGraph g("tcp-barrier", cfg);
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); }, 1, 0);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor, Checkpointable {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
      void snapshot_state(ByteBuffer& out) const override { inner->snapshot_state(out); }
      void restore_state(ByteReader& in) override { inner->restore_state(in); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 1);
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(wait_until([&] { return sink->count() >= 2000; }, 60s));

  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    std::optional<JobSnapshot> snap = job->checkpoint(epoch, 60s);
    ASSERT_TRUE(snap.has_value()) << "epoch " << epoch;
    EXPECT_EQ(state_of(*snap, "sink"), state_of(*snap, "src")) << "epoch " << epoch;
  }
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_GE(job->metrics().total(&OperatorMetricsSnapshot::reconnects), 1u);
}

/// Host that records which barriers an instance reported.
struct RecordingHost final : detail::InstanceHost {
  std::vector<uint64_t> barriers;
  uint64_t failures = 0;
  void report_failure(const std::string&) override { ++failures; }
  void on_barrier(const detail::InstanceRuntime&, uint64_t epoch) override {
    barriers.push_back(epoch);
  }
  void on_instance_done(const detail::InstanceRuntime&) override {}
};

struct InlineContext final : granules::TaskContext {
  uint64_t task_id() const override { return 0; }
  uint64_t execution_count() const override { return 0; }
  void request_reschedule() override {}
  void request_termination() override {}
};

TEST(Checkpoint, BarrierRepeatedOnAnEdgeIsIgnored) {
  // A retransmission can hand an edge the same barrier twice; the receiver
  // ignores any epoch at or below the last one that edge delivered.
  LinkDecl link;
  link.link_id = 7;
  auto ch = std::make_shared<InprocChannel>(ChannelConfig{});
  RecordingHost host;
  detail::InstanceRuntime sink("sink", 0, 1, OperatorKind::kProcessor, GraphConfig{}, &host,
                               &SteadyClock::instance(), [] {});
  auto counter = std::make_unique<CountingSink>();
  CountingSink* count = counter.get();
  sink.processor = std::move(counter);
  sink.add_input(link, 0, ch);

  StreamBuffer out(7, 0, ch, std::make_shared<SelectiveCodec>(CompressionPolicy{}),
                   {.capacity_bytes = 1 << 16, .flush_interval_ns = 0}, nullptr);
  auto packet = [] {
    StreamPacket p;
    p.add_i64(1);
    return p;
  };
  out.add(packet());
  out.add(packet());
  out.add_barrier(1);
  out.add_barrier(1);  // the repeat
  out.add(packet());
  out.add_barrier(2);
  out.add_barrier(1);  // a stale one

  InlineContext ctx;
  sink.initialize(ctx);
  sink.execute(ctx);
  EXPECT_EQ(host.barriers, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(count->count(), 3u);
  EXPECT_EQ(host.failures, 0u);
}

TEST(Checkpoint, ExactlyOnceAcrossRestart) {
  static constexpr uint64_t kTotal = 50'000;
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;

  auto build = [&](std::shared_ptr<CountingSink> sink) {
    StreamGraph g("restartable", cfg);
    g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); });
    g.add_processor("relay", [] { return std::make_unique<workload::RelayProcessor>(); });
    g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
      // A forwarding wrapper must delegate Checkpointable too, or the
      // runtime cannot see the inner operator's state.
      struct Fwd : StreamProcessor, Checkpointable {
        std::shared_ptr<CountingSink> inner;
        explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
        void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
        void snapshot_state(ByteBuffer& out) const override { inner->snapshot_state(out); }
        void restore_state(ByteReader& in) override { inner->restore_state(in); }
      };
      return std::make_unique<Fwd>(sink);
    });
    g.connect("src", "relay");
    g.connect("relay", "sink");
    return g;
  };

  // --- first incarnation: run partway, checkpoint, tear down -----------------
  ByteBuffer wire;
  uint64_t count_at_checkpoint = 0;
  {
    Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
    auto sink = std::make_shared<CountingSink>();
    auto g = build(sink);
    auto job = rt.submit(g);
    job->start();
    ASSERT_TRUE(wait_until([&] { return sink->count() >= kTotal / 4; }, 60s));

    std::optional<JobSnapshot> snap = job->checkpoint(1, 30s);
    ASSERT_TRUE(snap.has_value());
    EXPECT_GE(snap->size(), 2u);  // src + sink are Checkpointable
    count_at_checkpoint = state_of(*snap, "sink").at(0);
    ASSERT_LT(count_at_checkpoint, kTotal);  // genuinely mid-stream
    EXPECT_EQ(state_of(*snap, "src"), state_of(*snap, "sink"));
    snap->serialize(wire);  // "persist"
    job->stop();
    job->wait(30s);
  }  // runtime destroyed: the "crash"

  // --- second incarnation: restore and finish ---------------------------------
  {
    Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
    auto sink = std::make_shared<CountingSink>();
    auto g = build(sink);
    auto job = rt.submit(g);
    JobSnapshot snap = JobSnapshot::deserialize(wire.contents());
    job->restore_state(snap);
    EXPECT_EQ(sink->count(), count_at_checkpoint);  // sink state restored
    job->start();
    ASSERT_TRUE(job->wait(120s));
    // Exactly once across the restart: total == kTotal, no gaps, no dups.
    EXPECT_EQ(sink->count(), kTotal);
    EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
  }
}

TEST(Checkpoint, TumblingWindowStateSurvives) {
  window::TumblingAggregator agg({.window_ms = 100, .time_field = 0, .value_field = 1});
  struct Cap : Emitter {
    EmitStatus emit(StreamPacket&& p) override { return emit(0, std::move(p)); }
    EmitStatus emit(size_t, StreamPacket&& p) override {
      rows.push_back(std::move(p));
      return EmitStatus::kOk;
    }
    size_t output_link_count() const override { return 1; }
    uint32_t instance() const override { return 0; }
    uint64_t packets_emitted() const override { return rows.size(); }
    std::vector<StreamPacket> rows;
  } out;

  StreamPacket p1;
  p1.add_i64(10);
  p1.add_f64(2.0);
  agg.process(p1, out);
  StreamPacket p2;
  p2.add_i64(20);
  p2.add_f64(4.0);
  agg.process(p2, out);

  ByteBuffer state;
  agg.snapshot_state(state);

  window::TumblingAggregator fresh({.window_ms = 100, .time_field = 0, .value_field = 1});
  ByteReader r(state.contents());
  fresh.restore_state(r);
  // Completing the window on the restored instance yields the merged stats.
  StreamPacket p3;
  p3.add_i64(150);
  p3.add_f64(0.0);
  fresh.process(p3, out);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].i64(2), 2);           // both pre-checkpoint packets
  EXPECT_DOUBLE_EQ(out.rows[0].f64(4), 3.0);  // mean of 2 and 4
}

}  // namespace
}  // namespace neptune
