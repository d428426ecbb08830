// Shared machinery of the performance benchmark: run options, the latency
// recorder, open-loop pacing, process/thread/OS sampling, the deadline
// (stall) path, operator wrappers that time calls from outside the
// runtime, and the result every workload fills in.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "neptune/metrics.hpp"
#include "neptune/operators.hpp"
#include "neptune/runtime.hpp"

namespace perfbench {

using neptune::Emitter;
using neptune::EmitStatus;
using neptune::StreamPacket;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;   ///< measured window per run (split across phases)
  bool trace = false;    ///< wrap operators with sampled span timing
  std::string work_dir;  ///< scratch files of the run (removed afterwards)
};

// --- latency ----------------------------------------------------------------

/// Log-linear histogram over non-negative nanosecond values with 1/512
/// relative bucket width; percentiles interpolate linearly inside the
/// bucket holding the ranked sample. Single-writer; merge() to combine.
class LatencyRecorder {
 public:
  LatencyRecorder();
  void record(int64_t ns);
  void merge(const LatencyRecorder& o);
  uint64_t count() const { return count_; }
  /// Value (ns) at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 9;
  static size_t index_of(uint64_t v);
  static uint64_t lower_of(size_t idx);
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Measured windows are cut into slices of this length. Rates and CPU per
/// packet are medians over slices, so one disturbed second moves them
/// little; latency quantiles pool every packet of the kept slices.
constexpr int64_t kSliceNs = 1'000'000'000;

/// Due-time latency seen by one sink, kept per slice of the measured window
/// (by due time). Single writer: the sink's thread.
class SlicedLatency {
 public:
  /// Call before the sink sees its first packet.
  void arm(int64_t begin_ns, int slices);
  void record(int64_t due_ns, int64_t latency_ns) {
    if (due_ns < begin_) return;
    size_t i = static_cast<size_t>((due_ns - begin_) / kSliceNs);
    if (i < slices_.size()) slices_[i].record(latency_ns);
  }
  const std::vector<LatencyRecorder>& slices() const { return slices_; }

 private:
  int64_t begin_ = INT64_MAX;
  std::vector<LatencyRecorder> slices_;
};

// --- open-loop pacing -------------------------------------------------------

/// Sleep until steady-clock time `t_ns` (absolute CLOCK_MONOTONIC).
void sleep_until_ns(int64_t t_ns);

// --- process / OS sampling ----------------------------------------------------

/// One reading of everything the benchmark samples from outside the
/// program: process CPU, context switches, per-thread CPU grouped by the
/// runtime's thread names, and host CPU accounting (for steal time).
struct ProcSample {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;            ///< RUSAGE_SELF user+sys
  int64_t ctx_switches = 0;      ///< voluntary + involuntary
  int64_t worker_ns = 0;         ///< threads named resN-wK
  int64_t io_ns = 0;             ///< threads named resN-ioK
  int64_t other_ns = 0;          ///< every other thread
  uint64_t host_total_ticks = 0; ///< /proc/stat cpu line, all fields
  uint64_t host_steal_ticks = 0;
  static ProcSample take();
};
/// Host-wide CPU ticks from /proc/stat: all of them, and the stolen ones.
void read_host_ticks(uint64_t& total, uint64_t& steal);

/// One set-up sample: deploy until the first packet reached every sink.
struct SetupSample {
  double secs = 0;
  uint64_t host_ticks = 0, steal_ticks = 0;  ///< /proc/stat over the sample
  double steal_share() const {
    return host_ticks ? static_cast<double>(steal_ticks) / static_cast<double>(host_ticks) : 0.0;
  }
  void add(const SetupSample& o);
};

/// Set-up samples per run. Half of them, those taken while the host stole
/// the least CPU, make up setup_s.
constexpr int kSetupSamples = 21;

/// Starts timing a set-up sample when constructed.
class SetupTimer {
 public:
  SetupTimer();
  SetupSample stop() const;

 private:
  int64_t t0_;
  uint64_t total0_ = 0, steal0_ = 0;
};

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();
/// Hand heap memory freed by earlier deployments back to the OS, so the
/// measured deployment's resident set is its own.
void release_freed_memory();

/// Samples the process's resident set every 10 ms through the measured
/// window and keeps the peak of each interval. The lifetime peak (VmHWM)
/// would be set by one-off spikes (set-up, a single burst); the median of
/// the interval peaks is the steady-state peak.
class PeakRssProbe {
 public:
  explicit PeakRssProbe(int64_t interval_ns = 500'000'000);
  ~PeakRssProbe();
  PeakRssProbe(const PeakRssProbe&) = delete;
  PeakRssProbe& operator=(const PeakRssProbe&) = delete;
  /// Stop sampling; returns the median interval peak in MiB (the lifetime
  /// VmHWM if no interval completed).
  double finish();

 private:
  void run();
  const int64_t interval_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> peaks_;
  std::thread thread_;
};

// --- spans (traced runs) --------------------------------------------------------

/// One timed call, recorded from the benchmark's side of a layer boundary.
/// Child calls (the emits inside an operator call) are folded into their
/// parent as a count and a summed duration, so a traced run of millions of
/// packets keeps a bounded span list.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint32_t name = 0;    ///< index into SpanLog::names()
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;    ///< time inside child calls (emits), summed
  uint32_t children = 0;   ///< number of child calls
};

/// Per-thread-owner span buffer: each wrapped operator instance owns one,
/// so recording never locks. Spans stay in memory until the run ends.
class SpanLog {
 public:
  static constexpr uint32_t kEveryPacket = 64;  ///< per-packet calls
  static constexpr uint32_t kEveryBatch = 4;    ///< per-batch calls
  /// Count one call of `name`; true when this call is sampled (1-in-every).
  bool sample(uint32_t name, uint32_t every);
  /// Open a sampled span; returns its index for child()/close().
  size_t open(uint32_t name, uint32_t parent, int64_t start_ns);
  void child(size_t span, int64_t dur_ns) {
    spans_[span].child_ns += dur_ns;
    ++spans_[span].children;
  }
  void close(size_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Calls seen and calls sampled, per span name, for scaling to totals.
  const std::map<uint32_t, std::pair<uint64_t, uint64_t>>& calls() const { return calls_; }
  /// Global span-name table (interned once at wrapper construction).
  static uint32_t intern(const std::string& name);
  static std::vector<std::string> names();

 private:
  std::vector<Span> spans_;
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> calls_;
};

/// All span logs of a run, so they can be collected and written out.
class SpanRegistry {
 public:
  std::shared_ptr<SpanLog> make();
  std::vector<std::shared_ptr<SpanLog>> logs() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SpanLog>> logs_;
};

/// Totals derived from the spans: sampled durations scaled by calls/sampled.
struct SpanTotals {
  std::map<std::string, double> self_ns;  ///< op type -> est. total self ns
  double emit_ns = 0;                     ///< est. total ns inside Emitter::emit
  double decode_ns = 0;                   ///< est. total ns inside BatchView::next
  std::vector<double> checkpoint_ms;      ///< every timed checkpoint_now()
};
SpanTotals derive_totals(const SpanRegistry& reg);
/// Write every span as one JSON line; returns false when the file fails.
bool write_spans(const SpanRegistry& reg, const std::string& path);

// --- operator wrappers ------------------------------------------------------------

/// Emitter decorator: forwards to the runtime's emitter, gives outputs
/// without a timestamp the due time of the packet being processed, and
/// while a sampled span is open times each emit as a child of it.
class TimedEmitter final : public Emitter {
 public:
  Emitter* inner = nullptr;
  int64_t due_ns = 0;       ///< event time for outputs that have none
  SpanLog* log = nullptr;   ///< non-null only inside a sampled span
  size_t span = 0;

  EmitStatus emit(StreamPacket&& p) override { return emit(size_t{0}, std::move(p)); }
  EmitStatus emit(size_t link, StreamPacket&& p) override;
  EmitStatus emit(const neptune::PacketView& v) override { return emit(size_t{0}, v); }
  EmitStatus emit(size_t link, const neptune::PacketView& v) override;
  size_t output_link_count() const override { return inner->output_link_count(); }
  uint32_t instance() const override { return inner->instance(); }
  uint64_t packets_emitted() const override { return inner->packets_emitted(); }
};

/// Wraps a user processor. Always: outputs emitted while processing a
/// packet inherit that packet's due time when the operator left it unset
/// (so a windowed output is timed from the packet that triggered it).
/// Traced: sampled calls become spans named "<type>.process" or
/// "<type>.on_batch", with the emits inside them folded in as children.
class WrappedProcessor final : public neptune::StreamProcessor, public neptune::Checkpointable {
 public:
  WrappedProcessor(std::unique_ptr<neptune::StreamProcessor> inner, const std::string& type,
                   std::shared_ptr<SpanLog> log);
  void open(uint32_t instance, uint32_t parallelism) override {
    inner_->open(instance, parallelism);
  }
  void process(StreamPacket& packet, Emitter& out) override;
  bool prefers_batches() const override { return inner_->prefers_batches(); }
  void on_batch(neptune::BatchView& batch, Emitter& out) override;
  void close(Emitter& out) override;
  void snapshot_state(neptune::ByteBuffer& out) const override;
  void restore_state(neptune::ByteReader& in) override;

 private:
  std::unique_ptr<neptune::StreamProcessor> inner_;
  std::shared_ptr<SpanLog> log_;  ///< null when untraced
  TimedEmitter out_;
  uint32_t process_name_ = 0;
  uint32_t batch_name_ = 0;
};

/// Factory helper: wraps `make()`'s processor, registering a span log when
/// `spans` is non-null.
neptune::ProcessorFactory wrap(std::function<std::unique_ptr<neptune::StreamProcessor>()> make,
                               const std::string& type, SpanRegistry* spans);

// --- run bookkeeping ----------------------------------------------------------------

/// Counters read from the program's public metrics, as deltas over the
/// measured window.
struct LayerCounters {
  uint64_t flushes = 0, timer_flushes = 0, bytes_out = 0, executions = 0;
  uint64_t blocked_ns = 0, serde_alloc_bytes = 0, frame_copies = 0, wakeups = 0;
  uint64_t dup_frames_dropped = 0, reconnects = 0, seq_violations = 0;
  uint64_t tcp_sendmsg = 0, tcp_iovecs = 0, tcp_rx_chunks = 0, tcp_rx_copies = 0;
  size_t emitting_instances = 0;  ///< operator instances with outputs
  void add(const LayerCounters& o);
};
/// Absolute counters now (sum over a job's operators, the runtime's
/// resources and the process-global TCP transport stats).
LayerCounters read_counters(const neptune::Job& job, neptune::Runtime& rt);
LayerCounters diff(const LayerCounters& end, const LayerCounters& begin);

/// One slice of a measured window.
struct Slice {
  int64_t wall_ns = 0;
  uint64_t delivered = 0;
  int64_t cpu_ns = 0;  ///< generator excluded
  uint64_t host_ticks = 0, steal_ticks = 0;  ///< /proc/stat, whole host
  LatencyRecorder latency;
  void add(const Slice& o);
  double steal_share() const {
    return host_ticks ? static_cast<double>(steal_ticks) / static_cast<double>(host_ticks) : 0.0;
  }
};

/// The multi-process deployment (proc layer), measured from outside.
struct ProcLayer {
  uint64_t packets = 0;            ///< sink packets the workers delivered
  int64_t supervisor_cpu_ns = 0;   ///< RUSAGE_SELF over the deployment
  int64_t workers_cpu_ns = 0;      ///< RUSAGE_CHILDREN (reaped workers)
  double worker_peak_rss_mb = 0;   ///< largest child's ru_maxrss
  uint64_t checkpoints = 0, quiesce_timeouts = 0;
};

/// Everything a workload run produces; phases of one run are pooled.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t expected = 0;    ///< sink packets the reference expects
  uint64_t failed = 0;      ///< missing + duplicated + out-of-order + undelivered
  uint64_t delivered = 0;   ///< sink packets inside the measured window
  int64_t gen_ns = 0;       ///< generator CPU in the window
  ProcSample proc_delta;    ///< raw sample deltas over the window
  LatencyRecorder latency;  ///< due time -> sink arrival, whole window
  /// The window slice by slice; phases pool slice i with slice i, so a
  /// slice of a multi-phase run covers every phase.
  std::vector<Slice> slices;
  /// Slices of a window that measures latency only: the paced phase of a
  /// closed-loop workload, whose own window measures rate and CPU.
  /// Latency comes from these when there are any, else from `slices`.
  std::vector<Slice> latency_slices;
  /// The quieter half of `of`: the slices whose host steal share is at
  /// most the median. On a shared host, a slice whose vCPUs were taken
  /// away measures the neighbours, not the program.
  static std::vector<const Slice*> quiet(const std::vector<Slice>& of);
  std::vector<const Slice*> quiet_slices() const { return quiet(slices); }
  double slice_throughput() const;   ///< median over quiet slices, packets/s
  double slice_cpu_per_pkt() const;  ///< median over quiet slices, ns
  /// Every packet of the quiet latency slices, pooled: a tail that recurs
  /// in only a few of them still counts.
  LatencyRecorder quiet_latency() const;
  LatencyRecorder lag;      ///< due time -> generator emit (open loop)
  std::vector<SetupSample> setups;
  /// Median over the set-up samples whose host steal share is at most the
  /// samples' median: the set-up counterpart of quiet_slices().
  double setup_median() const;
  double peak_rss_mb = 0;
  LayerCounters counters;
  uint64_t source_bytes = 0;  ///< serialized bytes the source emitted (traced)
  uint64_t source_wire_bytes = 0;  ///< framed bytes the source operator sent
  uint64_t checkpoints = 0, quiesce_timeouts = 0;
  int64_t reference_ns = 0;   ///< single-threaded reference time
  uint64_t reference_packets = 0;
  uint64_t allocs = 0;        ///< counting allocator calls in the window
  uint64_t untraced_packets = 0;  ///< expected sink packets of phases without spans
  ProcLayer proc;             ///< traced iot_mix_tcp runs only
  std::vector<std::string> stall_dumps;  ///< per-operator counters at a stall

  void fail(const std::string& why);
  void add_phase(const RunResult& p);
};

/// Samples taken at one edge of the measured window.
struct Edge {
  ProcSample proc;
  uint64_t delivered = 0;
  int64_t gen_ns = 0;
  uint64_t allocs = 0;
  LayerCounters counters;
};
Edge take_edge(uint64_t delivered, int64_t gen_ns, const neptune::Job& job, neptune::Runtime& rt);
/// Add the window between two edges to `r` (delivered, CPU, counters...).
void account_window(const Edge& begin, const Edge& end, RunResult& r);

/// Run through `slices` slices from `begin_ns`, taking an edge at the start
/// and after every slice; `idle_until(t)` fills the time in between.
std::vector<Edge> sample_window(int64_t begin_ns, int slices, const std::function<Edge()>& take,
                                const std::function<void(int64_t)>& idle_until);
/// Account a sliced window: totals from the outer edges, and per slice the
/// packets, CPU, steal and latency (pooled into `r.slices`).
void account_slices(const std::vector<Edge>& edges, const std::vector<const SlicedLatency*>& lats,
                    RunResult& r);
/// Account a window that measures latency only (into `r.latency_slices`
/// and `r.latency`); its packets and CPU are not the run's.
void account_latency_slices(const std::vector<Edge>& edges,
                            const std::vector<const SlicedLatency*>& lats, RunResult& r);
/// Whole slices in a window of `seconds` (at least one).
int slices_in(double seconds);

/// Wait for `job` to drain, up to `deadline_s`. On expiry the job is
/// stopped, the stall is recorded as an error and each operator's counters
/// are kept in `r.stall_dumps`. Returns true when the job drained.
bool drain_or_stall(neptune::Job& job, double deadline_s, const std::string& label, RunResult& r);

/// Stop-and-drain of a set-up deploy (the caller has stopped its source).
/// Each deploy counts as one attempted operation, and a deploy that stalls
/// as one failed operation, reported like any other stall.
void drain_setup(neptune::Job& job, const std::string& label, RunResult& r);

/// One JSON object line per operator instance with its flow counters.
std::string dump_operator_counters(const neptune::JobMetricsSnapshot& m);

/// Hook for the allocation counter (set by the traced binary).
extern uint64_t (*alloc_calls_hook)();

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench
