// The benchmark's workloads and the pieces they share: the open-loop
// source, the measuring sinks and the single-threaded reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "harness.hpp"
#include "neptune/graph.hpp"
#include "scenarios/digest.hpp"
#include "scenarios/scenario.hpp"

namespace perfbench {

RunResult run_relay_max(const Options& opt, SpanRegistry* spans);
RunResult run_iot_mix_tcp(const Options& opt, SpanRegistry* spans);
RunResult run_sensor_ckpt_tcp(const Options& opt, SpanRegistry* spans);
/// stats_grid as a multi-process deployment under a ResourceSupervisor;
/// fills `r.proc` and checks the workers' sinks against the reference.
/// Uses `opt.work_dir` for the scenario file and snapshots.
void run_mp_grid(const Options& opt, RunResult& r);

/// A golden scenario file from tests/scenarios/data.
neptune::scenarios::ScenarioSpec load_golden_scenario(const std::string& name);

/// Missing + duplicated + out-of-order sink packets.
uint64_t failed_packets(uint64_t expected, uint64_t delivered, uint64_t order_errors);

// --- open-loop source -----------------------------------------------------------

/// Shared between a source instance and the thread driving the run.
struct SourceControl {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> emitted{0};
  std::atomic<int64_t> gen_ns{0};  ///< time inside the generator
  bool paced = true;               ///< false: emit as fast as backpressure allows
  int64_t start_ns = 0;            ///< due times are offsets from here
  uint64_t bytes = 0;              ///< serialized bytes emitted, per output link (traced runs only)
  LatencyRecorder lag;             ///< due -> emit; written by the source thread
  std::shared_ptr<SpanLog> log;    ///< non-null in traced runs
};

/// Produces the next packet and its due offset (ns from the run start);
/// returns false when the input is exhausted.
using PacketGen = std::function<bool(StreamPacket&, int64_t& due_offset_ns)>;

/// Open-loop source. Each packet is stamped with its due time; when nothing
/// is due the source sleeps until the next packet is, so an idle generator
/// burns no CPU. Unpaced, packets are stamped when generated.
class PacedSource final : public neptune::StreamSource {
 public:
  PacedSource(std::shared_ptr<SourceControl> ctl, PacketGen gen);
  bool next(Emitter& out, size_t budget) override;

 private:
  std::shared_ptr<SourceControl> ctl_;
  PacketGen gen_;
  StreamPacket pkt_;
  int64_t due_ = 0;
  bool have_ = false;
  uint32_t next_name_;
  TimedEmitter timed_;
};

// --- measuring sink ----------------------------------------------------------------

/// What a measuring sink accumulates. Latency is recorded for packets due
/// inside the measured window (see SlicedLatency::arm).
struct SinkState {
  std::string id;
  neptune::scenarios::DigestAccumulator digest;
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> order_errors{0};
  SlicedLatency latency;
  int64_t order_field = -1; ///< >= 0: this i64 field must count up by one
  int64_t next_order = 0;
};

/// Terminal operator: digest, count, due-time latency and optional order
/// check of every packet.
class MeasuringSink final : public neptune::StreamProcessor {
 public:
  explicit MeasuringSink(std::shared_ptr<SinkState> s) : s_(std::move(s)) {}
  void process(StreamPacket& packet, Emitter& out) override;

 private:
  std::shared_ptr<SinkState> s_;
};

// --- single-threaded reference ------------------------------------------------------

struct ReferenceResult {
  std::map<std::string, std::pair<uint64_t, std::string>> sinks;  ///< id -> (packets, digest)
  uint64_t inputs = 0;
  int64_t ns = 0;
};

/// Run `graph`'s processors single-threaded by calling process()/close()
/// directly, feeding `inputs` packets from `gen` into every source's output
/// links. Sinks are the operators without outputs; their outputs are
/// digested here (the graph's own sink objects are never called).
ReferenceResult run_reference(const neptune::StreamGraph& graph, const PacketGen& gen,
                              uint64_t inputs);

}  // namespace perfbench
