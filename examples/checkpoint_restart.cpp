// Checkpoint & restart (the paper's §VI future work, prototyped): stream a
// finite CSV-like workload partway, take a barrier checkpoint while the
// source keeps streaming, tear the whole runtime down (the "crash"), then
// bring up a fresh runtime, restore the snapshot and run to completion —
// demonstrating exactly-once delivery ACROSS the restart.
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "neptune/runtime.hpp"
#include "neptune/state.hpp"
#include "neptune/workload.hpp"

using namespace neptune;
using namespace neptune::workload;

namespace {

constexpr uint64_t kTotal = 400'000;

/// Checkpointable forwarding wrapper around a shared CountingSink.
struct SharedSink : StreamProcessor, Checkpointable {
  std::shared_ptr<CountingSink> inner;
  explicit SharedSink(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
  void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
  void snapshot_state(ByteBuffer& out) const override { inner->snapshot_state(out); }
  void restore_state(ByteReader& in) override { inner->restore_state(in); }
};

StreamGraph build_graph(const std::shared_ptr<CountingSink>& sink) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 8192;
  cfg.buffer.flush_interval_ns = 2'000'000;
  StreamGraph g("checkpointable-pipeline", cfg);
  g.add_source("readings", [] { return std::make_unique<BytesSource>(kTotal, 100); });
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); });
  g.add_processor("sink",
                  [sink]() -> std::unique_ptr<StreamProcessor> {
                    return std::make_unique<SharedSink>(sink);
                  });
  g.connect("readings", "relay");
  g.connect("relay", "sink");
  return g;
}

}  // namespace

int main() {
  ByteBuffer snapshot_bytes;
  uint64_t processed_before_crash = 0;

  std::printf("phase 1: stream until ~40%% done, then checkpoint and 'crash'\n");
  {
    Runtime runtime(2);
    auto sink = std::make_shared<CountingSink>();
    auto graph = build_graph(sink);
    auto job = runtime.submit(graph);
    job->start();
    while (sink->count() < kTotal * 2 / 5) std::this_thread::sleep_for(std::chrono::milliseconds(2));

    // Epoch 1: the source snapshots its position and sends a barrier
    // behind the data; each operator snapshots when the barrier reaches it.
    std::optional<JobSnapshot> snap = job->checkpoint(1, std::chrono::seconds(30));
    if (!snap) {
      std::fprintf(stderr, "checkpoint did not complete\n");
      return 1;
    }
    snap->serialize(snapshot_bytes);  // would go to durable storage
    processed_before_crash = ByteReader(*snap->find("sink", 0)).read_varint();
    std::printf("  checkpointed at %llu/%llu packets (%zu state blocks, %zu bytes)\n",
                static_cast<unsigned long long>(processed_before_crash),
                static_cast<unsigned long long>(kTotal), snap->size(), snapshot_bytes.size());
    job->stop();
    job->wait(std::chrono::seconds(30));
  }  // runtime destroyed — everything in memory is gone

  std::printf("phase 2: fresh runtime, restore, finish the stream\n");
  {
    Runtime runtime(2);
    auto sink = std::make_shared<CountingSink>();
    auto graph = build_graph(sink);
    auto job = runtime.submit(graph);
    JobSnapshot snap = JobSnapshot::deserialize(snapshot_bytes.contents());
    job->restore_state(snap);
    std::printf("  restored sink count: %llu\n",
                static_cast<unsigned long long>(sink->count()));
    job->start();
    if (!job->wait(std::chrono::minutes(2))) {
      std::fprintf(stderr, "restored job did not complete\n");
      return 1;
    }
    auto m = job->metrics();
    std::printf("  final count: %llu (expected exactly %llu)\n",
                static_cast<unsigned long long>(sink->count()),
                static_cast<unsigned long long>(kTotal));
    std::printf("  packets emitted by the restored source this run: %llu\n",
                static_cast<unsigned long long>(
                    m.total("readings", &OperatorMetricsSnapshot::packets_out)));
    bool exact = sink->count() == kTotal;
    std::printf("exactly-once across restart: %s\n", exact ? "YES" : "NO");
    return exact ? 0 : 1;
  }
}
