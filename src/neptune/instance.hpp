// One parallel operator instance: the Granules computational task that runs
// a stream source or processor (paper §II), plus the Emitter its operator
// writes to. It owns the instance's whole data path — fetch frames from the
// input edges, validate sequence numbers, ingest batches without copying,
// dispatch packets as views or into a scratch packet, buffer and flush
// emissions, retry flow-controlled outputs, align checkpoint barriers,
// finalize at end-of-stream.
//
// Checkpoints are aligned barriers (Carbone et al., arXiv:1506.08603): a
// source snapshots and sends barrier(e) behind its data; a processor holds
// each input that delivered barrier(e) until all have (or closed), then
// snapshots and forwards it. Nothing pauses; nothing is in flight at the cut.
//
// The instance reaches outside itself through three injected seams only:
//   * a Clock for every timestamp (its StreamBuffers take the same one);
//   * an InstanceHost for failures, barriers and completion;
//   * a wake hook that makes the scheduler run it again.
// Runtime deploys instances onto granules resources with the steady clock
// and Resource::notify_data as the wake hook; testkit::DstJob runs the same
// class single-threaded on a virtual clock and an event queue.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/clock.hpp"
#include "common/object_pool.hpp"
#include "fault/dead_letter.hpp"
#include "granules/task.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "neptune/graph.hpp"
#include "neptune/metrics.hpp"
#include "neptune/state.hpp"
#include "neptune/stream_buffer.hpp"
#include "obs/trace.hpp"

namespace neptune::detail {

class InstanceRuntime;

/// What an instance reports to the job that owns it. Job implements it for
/// the threaded runtime and testkit::DstJob for the simulation.
class InstanceHost {
 public:
  virtual ~InstanceHost() = default;
  /// A permanent failure exactly-once cannot survive (corrupt frame on an
  /// unrepairable edge, malformed packet past the CRC layer).
  virtual void report_failure(const std::string& what) = 0;
  /// The instance reached barrier `epoch`. Called on its own thread before
  /// the barrier goes downstream, so inst.snapshot_into() is safe here.
  virtual void on_barrier(const InstanceRuntime& inst, uint64_t epoch) = 0;
  /// The instance finished: outputs flushed and closed (on its own thread).
  virtual void on_instance_done(const InstanceRuntime& inst) = 0;
};

/// Counts a job's instances inside execute(), so recovery can wait for a
/// stopped job to go quiet without polling. exit() locks only while
/// someone waits (seq_cst: the waiter's increment vs exit's decrement).
class ExecutionGauge {
 public:
  void enter() { in_flight_.fetch_add(1); }
  void exit() {
    if (in_flight_.fetch_sub(1) == 1 && waiters_.load() != 0) {
      std::lock_guard lk(mu_);
      cv_.notify_all();
    }
  }
  bool wait_idle(std::chrono::nanoseconds timeout) {
    std::unique_lock lk(mu_);
    waiters_.fetch_add(1);
    bool idle = cv_.wait_for(lk, timeout, [&] { return in_flight_.load() == 0; });
    waiters_.fetch_sub(1);
    return idle;
  }

 private:
  std::atomic<uint32_t> in_flight_{0}, waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// An inbound batch awaiting execution, recycled through an object pool
/// (paper §III-B3). The packet bytes are NOT deserialized here: `packets`
/// is a view into a pooled frame buffer pinned by `buf`, and packets are
/// decoded lazily at drain time — either into per-packet views (zero
/// allocation) or into a reused scratch StreamPacket for legacy per-packet
/// operators.
struct Batch {
  FrameBufRef buf;                   ///< pins the payload bytes until drained
  std::span<const uint8_t> packets;  ///< serialized packets (after the BatchHeader)
  size_t count = 0;                  ///< packets in the batch
  size_t cursor = 0;                 ///< next packet to process (partial progress under backpressure)
  size_t byte_off = 0;               ///< byte offset of `cursor` within `packets`

  // Trace block carried in the BatchHeader (trace_id 0 = untraced) plus the
  // destination-side stamps needed to close the hop's span.
  uint64_t trace_id = 0;
  int64_t trace_origin_ns = 0;
  int64_t batch_start_ns = 0;
  int64_t flush_ns = 0;
  int64_t recv_ns = 0;
  int64_t exec_start_ns = 0;
  uint32_t trace_link = 0;
  uint32_t trace_src = 0;
  uint32_t trace_bytes = 0;

  void reset() {
    buf.reset();  // releases the pooled frame
    packets = {};
    count = 0;
    cursor = 0;
    byte_off = 0;
    trace_id = 0;
    exec_start_ns = 0;
  }
};

/// Receiving half of one (link, src-instance) edge at a destination
/// instance.
struct InEdge {
  std::shared_ptr<ChannelReceiver> rx;
  /// The receiver CRC-checks every frame it hands over (a supervised TCP
  /// edge), so ingest parses the header without checking it again.
  bool verified = false;
  uint64_t expected_seq = 0;
  uint32_t link_id = 0;
  uint32_t src_instance = 0;
  bool drained = false;
  /// Last barrier epoch delivered; a repeat at or below it is ignored.
  uint64_t barrier_epoch = 0;
  /// Best-effort edge with a shed policy: sequence gaps are expected sheds
  /// (counted in shed_gaps), not exactly-once violations.
  bool lossy = false;
  /// Sequence positions this edge skipped over (shed upstream); the
  /// per-edge share of OperatorMetrics::shed_gaps.
  uint64_t shed_gap_packets = 0;
};

/// Sending half of one output link: one StreamBuffer per destination
/// instance, plus the link's partitioning scheme.
struct OutLink {
  std::shared_ptr<PartitioningScheme> partitioning;
  std::vector<std::unique_ptr<StreamBuffer>> dst;
};

/// One parallel instance of a stream operator: a Granules task + Emitter.
class InstanceRuntime final : public granules::ComputationalTask, public Emitter {
 public:
  InstanceRuntime(std::string op_id, uint32_t inst, uint32_t par, OperatorKind k,
                  const GraphConfig& cfg, InstanceHost* host, const Clock* clock,
                  std::function<void()> wake);

  // --- wiring (done by Runtime or DstJob, before the first execution) -------
  std::unique_ptr<StreamSource> source;
  std::unique_ptr<StreamProcessor> processor;
  std::vector<OutLink> outputs;
  std::vector<InEdge> inputs;
  /// Poison-pill quarantine (null = disabled): operator exceptions and
  /// malformed batches are captured here instead of failing the job.
  std::shared_ptr<fault::DeadLetterQueue> dlq;
  /// > 0: dispatches slower than this are counted in deadline_overruns.
  int64_t packet_deadline_ns = 0;
  /// The owning job's in-flight count (null = not counted, as in DST).
  std::shared_ptr<ExecutionGauge> executing;

  /// Append the sending half of one edge of `link`: a StreamBuffer over
  /// `tx`, in destination-instance order (partitioning indexes by it).
  /// When the edge drains below its low watermark the instance is woken
  /// (backpressure, paper §III-B4).
  void add_output(const LinkDecl& link, std::shared_ptr<ChannelSender> tx);
  /// Append the receiving half of one edge of `link` from `src_instance`.
  /// Data landing on an empty edge wakes the instance.
  void add_input(const LinkDecl& link, uint32_t src_instance, std::shared_ptr<ChannelReceiver> rx);

  /// Period of the instance's flush timer (paper §III-B1 latency bound):
  /// half the smallest positive flush interval over its output buffers,
  /// at least 500 µs. 0 when no output buffer flushes on a timer.
  int64_t flush_timer_period_ns() const;

  /// Ask the scheduler to run this instance (the injected wake hook).
  void wake() const { wake_(); }

  OperatorMetrics& metrics() { return metrics_; }
  const OperatorMetrics& metrics() const { return metrics_; }
  uint32_t flight_actor() const { return flight_actor_; }
  const std::string& op_id() const { return op_id_; }
  uint32_t instance_index() const { return instance_; }
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }
  bool done() const { return done_.load(std::memory_order_acquire); }
  /// True while an output edge is flow-controlled and the instance waits
  /// for its writable wakeup.
  bool output_blocked() const { return output_blocked_.load(std::memory_order_relaxed); }

  /// Ask a source for barrier(epoch) at its next execution (any thread).
  void request_barrier(uint64_t epoch);

  /// Put a Checkpointable operator's state into `snapshot` — only on the
  /// instance's own thread, or once done() — and restore it (before start).
  void snapshot_into(JobSnapshot& snapshot) const;
  void restore_state(const JobSnapshot& snapshot);

  // --- Emitter ---------------------------------------------------------------
  EmitStatus emit(StreamPacket&& packet) override { return emit(0, std::move(packet)); }
  EmitStatus emit(size_t link, StreamPacket&& packet) override;
  /// Zero-copy re-emit: forward the view's wire bytes straight into the
  /// outbound stream buffer — no deserialize, no re-serialize. Falls back
  /// to materialization only when the packet has no event time yet (the
  /// stamp would have to rewrite the serialized bytes).
  EmitStatus emit(size_t link, const PacketView& view) override;
  size_t output_link_count() const override { return outputs.size(); }
  uint32_t instance() const override { return instance_; }
  uint64_t packets_emitted() const override {
    return metrics_.packets_out.load(std::memory_order_relaxed);
  }

  // --- granules::ComputationalTask ---------------------------------------------
  const std::string& name() const override { return task_name_; }
  void initialize(granules::TaskContext& ctx) override;
  void execute(granules::TaskContext& ctx) override;

  /// Flush timer hook (paper §III-B1 latency bound), called every
  /// flush_timer_period_ns() — from an IO thread in the threaded runtime.
  /// It flushes nothing itself: when a buffer's mirrors say a flush is due
  /// it raises the flush flag and wakes the task. The owner flushes at its
  /// next packet boundary (emit, or between packets and batches while it
  /// drains), or at the start of the execution the wake brings.
  void on_flush_timer();

 private:
  Checkpointable* checkpointable() const;  // the user operator's, or nullptr
  void run_source(granules::TaskContext& ctx);
  void run_processor(granules::TaskContext& ctx);
  bool fetch_some_frames();
  void report_corrupt_frame(InEdge& e, FrameDecodeStatus s);
  void ingest_frame(InEdge& e, const FrameHeader& h, std::span<const uint8_t> payload,
                    const FrameBufRef& frame);
  void report_malformed_batch(InEdge& e, const PacketFormatError& ex);
  void quarantine_span(const Batch& b, size_t byte_begin, size_t byte_end, uint32_t count,
                       const std::string& reason);
  void handle_malformed(Batch& b, const PacketFormatError& ex);
  bool drain_ready_batches();
  bool dispatch_batch(Batch& b, bool is_sink);
  InEdge* find_edge(const Batch& b);
  void record_span(const Batch& b);
  bool all_inputs_drained(bool or_held);
  /// An input that delivered the barrier being aligned is not read.
  bool held(const InEdge& e) const { return align_epoch_ != 0 && e.barrier_epoch >= align_epoch_; }
  /// Once all inputs are aligned and no batch is left, snapshot and forward
  /// the barrier, releasing the inputs. True when it did.
  bool complete_barrier();
  void emit_barrier(uint64_t epoch);
  bool retry_blocked_outputs();
  /// Owner side of the flush flag: on_timer() every output buffer.
  void flush_due_buffers();
  void serve_flush_request() {
    if (flush_requested_.load(std::memory_order_relaxed)) flush_due_buffers();
  }
  void finalize(granules::TaskContext& ctx, bool discard);

  const std::string op_id_;
  std::string task_name_;
  uint32_t flight_actor_ = 0;
  const uint32_t instance_;
  const uint32_t parallelism_;
  const OperatorKind kind_;
  const GraphConfig cfg_;
  InstanceHost* const host_;
  const Clock* const clock_;
  const std::function<void()> wake_;

  OperatorMetrics metrics_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> done_{false};
  std::atomic<uint64_t> barrier_request_{0};  // sources: epoch to inject, 0 = none

  // Mutated only on the worker thread; atomic (relaxed) so DST and tests can
  // read it from outside an execution.
  std::atomic<bool> output_blocked_{false};
  // Raised by the IO-thread flush timer, cleared by the owner when it
  // flushes what is due.
  std::atomic<bool> flush_requested_{false};

  // Worker-thread-only state (one thread at a time by the task contract).
  obs::TraceContext current_trace_;  // set while executing a traced batch
  bool source_exhausted_ = false;
  bool close_called_ = false;
  size_t next_edge_ = 0;
  uint64_t align_epoch_ = 0;  // processors: barrier being aligned, 0 = none
  std::shared_ptr<ObjectPool<Batch>> batch_pool_;
  std::deque<ObjectPool<Batch>::PoolPtr> ready_;

  // Zero-copy drain scratch, all reused across executions (§III-B3):
  // per-execution operator arena, a scratch packet for legacy per-packet
  // dispatch, and persistent view objects for skip-replay and batch mode.
  Arena arena_;
  StreamPacket scratch_pkt_;
  PacketView skip_view_;
  BatchView batch_view_;
  bool batch_mode_ = false;
};

/// Collects one checkpoint epoch — Job's and DstJob's single way to a
/// snapshot. Each instance contributes its state once: at its barrier, or
/// its final state if it terminates without one (at begin() if already
/// done). Not thread-safe: Job holds its own mutex around it.
class CheckpointCollector {
 public:
  /// Open `epoch` (above any earlier one; an open epoch is dropped) and ask
  /// every live source for barrier(epoch).
  void begin(uint64_t epoch, const std::vector<InstanceRuntime*>& instances);
  void on_barrier(const InstanceRuntime& inst, uint64_t epoch);  ///< also at termination
  uint64_t epoch() const { return epoch_; }  ///< the open epoch, 0 = none
  bool complete() const { return epoch_ != 0 && waiting_.empty(); }
  /// Close the complete epoch and hand over its snapshot.
  JobSnapshot take();

 private:
  uint64_t epoch_ = 0;
  std::vector<const InstanceRuntime*> waiting_;
  JobSnapshot snapshot_;
};

}  // namespace neptune::detail
