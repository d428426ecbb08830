// End-to-end integration tests of the NEPTUNE runtime: whole stream
// processing graphs executed over the Granules resources, checking the
// paper's correctness contract — in-order, exactly-once, no drops — under
// parallelism, multi-resource placement, backpressure and compression.
#include "neptune/runtime.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <mutex>
#include <set>

#include "../support/gate.hpp"
#include "neptune/workload.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using workload::BytesSource;
using workload::CountingSink;
using workload::RelayProcessor;

/// Sink that records every (source id) it sees, for exactly-once checks.
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

GraphConfig small_buffers() {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 4096;
  cfg.buffer.flush_interval_ns = 2'000'000;
  return cfg;
}

TEST(RuntimeIntegration, ThreeStageRelayDeliversEverything) {
  Runtime rt(/*resources=*/2, {.worker_threads = 1, .io_threads = 1});
  auto sink = std::make_shared<RecordingSink>();

  StreamGraph g("relay", small_buffers());
  g.add_source("sender", [] { return std::make_unique<BytesSource>(5000, 50); }, 1, 0);
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
  ASSERT_TRUE(job->wait(60s));

  auto ids = sink->ids();
  ASSERT_EQ(ids.size(), 5000u);
  // In-order, exactly-once: ids are exactly 0..4999 in order.
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i)) << i;

  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_EQ(m.total("sender", &OperatorMetricsSnapshot::packets_out), 5000u);
  EXPECT_EQ(m.total("receiver", &OperatorMetricsSnapshot::packets_in), 5000u);
  EXPECT_GT(m.total("sender", &OperatorMetricsSnapshot::flushes), 1u);
}

TEST(RuntimeIntegration, ParallelismWithShufflePreservesTotalCount) {
  Runtime rt(2, {.worker_threads = 2, .io_threads = 1});
  StreamGraph g("parallel", small_buffers());
  static constexpr uint64_t kTotal = 8000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 80); }, 2);
  auto sink = std::make_shared<CountingSink>();
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 3);
  g.connect("src", "sink", make_partitioning("shuffle"));

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

class KeyCheckSink : public StreamProcessor {
 public:
  void open(uint32_t instance, uint32_t) override { instance_ = instance; }
  void process(StreamPacket& p, Emitter&) override {
    std::lock_guard lk(mu_);
    key_to_instance_[p.str(1)].insert(instance_);
    ++count_;
  }
  static std::map<std::string, std::set<uint32_t>> key_to_instance_;
  static std::mutex mu_;
  static uint64_t count_;

 private:
  uint32_t instance_ = 0;
};
std::map<std::string, std::set<uint32_t>> KeyCheckSink::key_to_instance_;
std::mutex KeyCheckSink::mu_;
uint64_t KeyCheckSink::count_ = 0;

class KeyedSource : public StreamSource {
 public:
  bool next(Emitter& out, size_t budget) override {
    for (size_t i = 0; i < budget && emitted_ < 3000; ++i) {
      StreamPacket p;
      p.add_i64(static_cast<int64_t>(emitted_));
      p.add_string("key-" + std::to_string(emitted_ % 17));
      ++emitted_;
      if (out.emit(std::move(p)) == EmitStatus::kBackpressured) break;
    }
    return emitted_ < 3000;
  }

 private:
  uint64_t emitted_ = 0;
};

TEST(RuntimeIntegration, FieldsHashRoutesKeysToStableInstances) {
  KeyCheckSink::key_to_instance_.clear();
  KeyCheckSink::count_ = 0;
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  StreamGraph g("keyed", small_buffers());
  g.add_source("src", [] { return std::make_unique<KeyedSource>(); });
  g.add_processor("sink", [] { return std::make_unique<KeyCheckSink>(); }, 4);
  g.connect("src", "sink", make_partitioning("fields-hash", 1));

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));

  std::lock_guard lk(KeyCheckSink::mu_);
  EXPECT_EQ(KeyCheckSink::count_, 3000u);
  EXPECT_EQ(KeyCheckSink::key_to_instance_.size(), 17u);
  std::set<uint32_t> used;
  for (auto& [key, instances] : KeyCheckSink::key_to_instance_) {
    EXPECT_EQ(instances.size(), 1u) << "key " << key << " hit multiple instances";
    used.insert(*instances.begin());
  }
  EXPECT_GT(used.size(), 1u);  // keys actually spread over instances
}

TEST(RuntimeIntegration, BroadcastDeliversToEveryInstance) {
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  StreamGraph g("bcast", small_buffers());
  static constexpr uint64_t kTotal = 1000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 50); });
  auto sink = std::make_shared<CountingSink>();
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 3);
  g.connect("src", "sink", make_partitioning("broadcast"));

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(sink->count(), kTotal * 3);  // every instance got a copy
}

TEST(RuntimeIntegration, BackpressureThrottlesWithoutLoss) {
  // Slow sink + tiny channels: the source must be throttled, not drop.
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  GraphConfig cfg = small_buffers();
  cfg.channel.capacity_bytes = 16 * 1024;
  cfg.channel.low_watermark_bytes = 4 * 1024;
  StreamGraph g("bp", cfg);
  static constexpr uint64_t kTotal = 3000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 100); });
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/20'000);  // 20 us per packet
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  });
  g.connect("src", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), kTotal);
  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::blocked_sends), 0u);  // it really throttled
}

TEST(RuntimeIntegration, CompressionOnLinkIsTransparent) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  StreamGraph g("comp", small_buffers());
  static constexpr uint64_t kTotal = 2000;
  g.add_source("src", [] {
    return std::make_unique<BytesSource>(kTotal, 100, workload::PayloadKind::kText);
  });
  auto sink = std::make_shared<RecordingSink>();
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<RecordingSink> inner;
      explicit Fwd(std::shared_ptr<RecordingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  });
  g.connect("src", "sink", nullptr,
            CompressionPolicy{.mode = CompressionMode::kSelective, .entropy_threshold = 7.5});

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  auto ids = sink->ids();
  ASSERT_EQ(ids.size(), kTotal);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i));
  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // Compression shrinks the wire volume vs. the logical volume.
  EXPECT_LT(m.total("src", &OperatorMetricsSnapshot::bytes_out),
            kTotal * 100);
}

TEST(RuntimeIntegration, MultiStagePipelineWithFanInAndFanOut) {
  Runtime rt(2, {.worker_threads = 2, .io_threads = 1});
  StreamGraph g("diamond", small_buffers());
  static constexpr uint64_t kTotal = 2000;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 60); });
  g.add_processor("a", [] { return std::make_unique<RelayProcessor>(); }, 2);
  g.add_processor("b", [] { return std::make_unique<RelayProcessor>(); }, 2);
  auto sink = std::make_shared<CountingSink>();
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 2);
  g.connect("src", "a");
  g.connect("src", "b");
  g.connect("a", "sink");
  g.connect("b", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  // Each of a and b got half the stream (shuffle) and forwarded to sink.
  EXPECT_EQ(sink->count(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(RuntimeIntegration, BackpressurePropagatesThroughDeepChain) {
  // 5-stage chain with a slow terminal sink and tiny channels: the throttle
  // must reach all the way back to the source (every intermediate stage
  // reports blocked sends), and nothing is lost.
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  GraphConfig cfg = small_buffers();
  cfg.buffer.capacity_bytes = 1024;
  cfg.channel.capacity_bytes = 4 * 1024;
  cfg.channel.low_watermark_bytes = 1024;
  StreamGraph g("deep-bp", cfg);
  static constexpr uint64_t kTotal = 1500;
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 200); });
  for (int s = 0; s < 3; ++s) {
    g.add_processor("relay" + std::to_string(s),
                    [] { return std::make_unique<RelayProcessor>(); });
  }
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/50'000);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  });
  g.connect("src", "relay0");
  g.connect("relay0", "relay1");
  g.connect("relay1", "relay2");
  g.connect("relay2", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(180s));
  EXPECT_EQ(sink->count(), kTotal);
  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // The chain really throttled: the source and at least one intermediate
  // stage saw flow control (with 2 workers racing a 50 us/packet sink,
  // every upstream stage backs up).
  EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::blocked_sends), 0u);
  uint64_t relay_blocked = m.total("relay0", &OperatorMetricsSnapshot::blocked_sends) +
                           m.total("relay1", &OperatorMetricsSnapshot::blocked_sends) +
                           m.total("relay2", &OperatorMetricsSnapshot::blocked_sends);
  EXPECT_GT(relay_blocked, 0u);
}

TEST(RuntimeIntegration, StopCancelsUnboundedJob) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  StreamGraph g("unbounded", small_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(0, 50); });  // infinite
  auto sink = std::make_shared<CountingSink>();
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  });
  g.connect("src", "sink");

  auto job = rt.submit(g);
  job->start();
  // Let it stream a bit, then cancel.
  for (int i = 0; i < 200 && sink->count() < 1000; ++i) std::this_thread::sleep_for(5ms);
  EXPECT_GT(sink->count(), 0u);
  job->stop();
  EXPECT_TRUE(job->wait(30s));
  EXPECT_TRUE(job->completed());
}

TEST(RuntimeIntegration, WaitIdleReturnsOnlyOnceNoExecutionIsInFlight) {
  // The sink holds its first execution until the test opens the gate: the
  // stopped job must not report quiet before that execution has returned.
  auto entered = std::make_shared<test_util::Gate>();
  auto release = std::make_shared<test_util::Gate>();
  auto returned = std::make_shared<std::atomic<bool>>(false);
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  StreamGraph g("held", small_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(0, 50); });  // infinite
  g.add_processor("sink", [=]() -> std::unique_ptr<StreamProcessor> {
    struct Held : StreamProcessor {
      std::shared_ptr<test_util::Gate> entered, release;
      std::shared_ptr<std::atomic<bool>> returned;
      bool held = false;
      void process(StreamPacket&, Emitter&) override {
        if (held) return;
        held = true;
        entered->open();
        release->wait();
        returned->store(true);
      }
    };
    auto h = std::make_unique<Held>();
    h->entered = entered;
    h->release = release;
    h->returned = returned;
    return h;
  });
  g.connect("src", "sink");

  auto job = rt.submit(g);
  job->start();
  entered->wait();  // the sink is inside its execution
  job->stop();
  EXPECT_FALSE(job->wait_idle(0ns)) << "an execution is still in flight";
  release->open();
  EXPECT_TRUE(job->wait_idle(30s));
  EXPECT_TRUE(returned->load()) << "wait_idle returned before the execution did";
  EXPECT_TRUE(job->wait(30s));
}

TEST(RuntimeIntegration, SinkLatencyIsRecorded) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  StreamGraph g("lat", small_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(500, 50); });
  g.add_processor("sink", [] { return std::make_unique<CountingSink>(); });
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  auto m = job->metrics();
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::packets_in), 500u);
  EXPECT_GT(m.wall_time_ns, 0);
}

TEST(RuntimeIntegration, TwoConcurrentJobsShareResources) {
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto make_graph = [](const std::string& graph_name) {
    StreamGraph g(graph_name, small_buffers());
    g.add_source("src", [] { return std::make_unique<BytesSource>(1500, 50); });
    g.add_processor("sink", [] { return std::make_unique<CountingSink>(); });
    g.connect("src", "sink");
    return g;
  };
  auto g1 = make_graph("job1");
  auto g2 = make_graph("job2");
  auto j1 = rt.submit(g1);
  auto j2 = rt.submit(g2);
  j1->start();
  j2->start();
  ASSERT_TRUE(j1->wait(60s));
  ASSERT_TRUE(j2->wait(60s));
  EXPECT_EQ(j1->metrics().total("sink", &OperatorMetricsSnapshot::packets_in), 1500u);
  EXPECT_EQ(j2->metrics().total("sink", &OperatorMetricsSnapshot::packets_in), 1500u);
}

TEST(RuntimeIntegration, PerLinkFlushIntervalBoundsLatencyWithoutAGraphDefault) {
  // The graph default disables timer flushing; only the link declares a
  // 1 ms bound. The source emits ten packets — far below the 1 MB flush
  // threshold — and then idles, so only the link's flush timer can deliver
  // them before end-of-stream.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t delivered = 0;
    bool released = false;
  };
  auto gate = std::make_shared<Gate>();
  struct IdlingSource : StreamSource {
    std::shared_ptr<Gate> gate;
    bool emitted = false;
    explicit IdlingSource(std::shared_ptr<Gate> g) : gate(std::move(g)) {}
    bool next(Emitter& out, size_t) override {
      if (!emitted) {
        for (int64_t i = 0; i < 10; ++i) {
          StreamPacket p;
          p.add_i64(i);
          out.emit(std::move(p));
        }
        emitted = true;
        return true;
      }
      std::unique_lock lk(gate->mu);
      gate->cv.wait_for(lk, 1ms, [&] { return gate->released; });
      return !gate->released;
    }
  };
  struct GateSink : StreamProcessor {
    std::shared_ptr<Gate> gate;
    explicit GateSink(std::shared_ptr<Gate> g) : gate(std::move(g)) {}
    void process(StreamPacket&, Emitter&) override {
      std::lock_guard lk(gate->mu);
      ++gate->delivered;
      gate->cv.notify_all();
    }
  };

  GraphConfig cfg;
  cfg.buffer.flush_interval_ns = 0;
  StreamGraph g("per-link-flush", cfg);
  g.add_source("src", [gate] { return std::make_unique<IdlingSource>(gate); });
  g.add_processor("sink", [gate] { return std::make_unique<GateSink>(gate); });
  StreamBufferConfig link_buffer;
  link_buffer.flush_interval_ns = 1'000'000;
  g.connect("src", "sink", nullptr, {}, link_buffer);

  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto job = rt.submit(g);
  job->start();
  bool delivered;
  {
    std::unique_lock lk(gate->mu);
    delivered = gate->cv.wait_for(lk, 30s, [&] { return gate->delivered == 10; });
    gate->released = true;
    gate->cv.notify_all();
  }
  EXPECT_TRUE(delivered) << "the link's 1 ms flush interval never fired";
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(job->metrics().total("sink", &OperatorMetricsSnapshot::packets_in), 10u);
}

}  // namespace
}  // namespace neptune
