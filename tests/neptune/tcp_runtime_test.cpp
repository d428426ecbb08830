// Integration tests of the runtime with cross-resource edges carried over
// real loopback TCP (EdgeTransport::kTcp): the paper's deployment shape,
// where stages live in resources on different machines and backpressure is
// carried by genuine TCP flow control.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "../support/gate.hpp"
#include "../support/poll.hpp"
#include "../support/threads.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using test_util::live_threads;
using workload::BytesSource;
using workload::CountingSink;
using workload::RelayProcessor;

class RecordingSink : public StreamProcessor {
 public:
  void process(StreamPacket& p, Emitter&) override {
    std::lock_guard lk(mu_);
    ids_.push_back(p.i64(0));
  }
  std::vector<int64_t> ids() const {
    std::lock_guard lk(mu_);
    return ids_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
};

GraphConfig tcp_config() {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 8192;
  cfg.buffer.flush_interval_ns = 2'000'000;
  cfg.channel.capacity_bytes = 256 << 10;
  cfg.channel.low_watermark_bytes = 64 << 10;
  return cfg;
}

RuntimeOptions tcp_options() {
  RuntimeOptions opt;
  opt.cross_resource_transport = EdgeTransport::kTcp;
  return opt;
}

TEST(TcpRuntime, RelayOverRealSocketsIsExactlyOnceInOrder) {
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1},
             tcp_options());
  auto sink = std::make_shared<RecordingSink>();

  StreamGraph g("tcp-relay", tcp_config());
  static constexpr uint64_t kTotal = 4000;
  g.add_source("sender", [] { return std::make_unique<BytesSource>(kTotal, 64); }, 1, 0);
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("receiver", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<RecordingSink> inner;
      explicit Fwd(std::shared_ptr<RecordingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 0);
  g.connect("sender", "relay");
  g.connect("relay", "receiver");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));

  auto ids = sink->ids();
  ASSERT_EQ(ids.size(), kTotal);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i));
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(TcpRuntime, SameResourceEdgesStayInproc) {
  // Everything pinned on resource 0: no sockets involved, still works.
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1},
             tcp_options());
  StreamGraph g("local", tcp_config());
  g.add_source("src", [] { return std::make_unique<BytesSource>(1000, 64); }, 1, 0);
  g.add_processor("sink", [] { return std::make_unique<CountingSink>(); }, 1, 0);
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(job->metrics().total("sink", &OperatorMetricsSnapshot::packets_in), 1000u);
}

TEST(TcpRuntime, ParallelInstancesAcrossResources) {
  Runtime rt(3, {.worker_threads = 1, .io_threads = 1},
             tcp_options());
  auto sink = std::make_shared<CountingSink>();
  StreamGraph g("spread", tcp_config());
  static constexpr uint64_t kTotal = 6000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 100); }, 2);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 3);
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(TcpRuntime, BackpressurePropagatesThroughRealTcp) {
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1},
             tcp_options());
  GraphConfig cfg = tcp_config();
  cfg.channel.capacity_bytes = 32 << 10;  // small budget: pressure engages
  cfg.channel.low_watermark_bytes = 8 << 10;
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/30'000);
  StreamGraph g("tcp-bp", cfg);
  static constexpr uint64_t kTotal = 2000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 256); }, 1, 0);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 1);
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), kTotal);  // throttled, not dropped
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(TcpRuntime, CompressionOverTcp) {
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1},
             tcp_options());
  auto sink = std::make_shared<RecordingSink>();
  StreamGraph g("tcp-compress", tcp_config());
  static constexpr uint64_t kTotal = 2000;
  g.add_source("src", [] {
    return std::make_unique<BytesSource>(kTotal, 120, workload::PayloadKind::kText);
  }, 1, 0);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<RecordingSink> inner;
      explicit Fwd(std::shared_ptr<RecordingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 1);
  g.connect("src", "sink", nullptr,
            CompressionPolicy{.mode = CompressionMode::kSelective, .entropy_threshold = 7.0});
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));
  auto ids = sink->ids();
  ASSERT_EQ(ids.size(), kTotal);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i));
}

TEST(TcpRuntime, ThreadsDoNotGrowWithEdges) {
  // The paper's two-tier thread model: a resource runs one worker pool and
  // one IO pool, and nothing else. Link supervision runs as timers on the
  // IO loop, so the 2 x 3 supervised TCP edges below add no thread.
  const size_t before = live_threads();
  auto gate = std::make_shared<test_util::Gate>();
  auto entered = std::make_shared<std::atomic<uint64_t>>(0);
  Runtime rt(2, {.worker_threads = 2, .io_threads = 1}, tcp_options());
  StreamGraph g("tcp-threads", tcp_config());
  static constexpr uint64_t kTotal = 2000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 64); }, 2, 0);
  g.add_processor("sink", [gate, entered]() -> std::unique_ptr<StreamProcessor> {
    struct Held : StreamProcessor {
      std::shared_ptr<test_util::Gate> gate;
      std::shared_ptr<std::atomic<uint64_t>> entered;
      void process(StreamPacket&, Emitter&) override {
        entered->fetch_add(1);
        gate->wait();
      }
    };
    auto held = std::make_unique<Held>();
    held->gate = gate;
    held->entered = entered;
    return held;
  }, 3, 1);
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  // Held inside the sink: every edge is built and data has crossed one.
  const bool held = test_util::wait_until([&] { return entered->load() > 0; }, 30s);
  const size_t during = live_threads();
  gate->open();
  EXPECT_TRUE(held);
  EXPECT_EQ(during, before + 2 * (2 + 1));
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(entered->load(), kTotal);
}

}  // namespace
}  // namespace neptune
