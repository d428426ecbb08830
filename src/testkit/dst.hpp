// Deterministic simulation testing (DST) for the NEPTUNE dataflow layer.
//
// DstJob runs the shipping operator instance, detail::InstanceRuntime, over
// a real topology — real StreamBuffer batching/flow control, real
// InprocChannel SPSC transport, real frame decode/SelectiveCodec, real
// partitioning, batch views, quarantine, window and checkpoint code —
// single-threaded on the sim::EventQueue virtual clock. Only two things are
// substituted:
//   * the scheduler: each instance is driven through DstJob's own
//     granules::TaskContext, with granules worker/IO threads replaced by
//     virtual-time events (request_reschedule queues the next execution,
//     request_termination retires the task, the wake hook queues an
//     execution after a seeded jitter);
//   * the clock: instances and their StreamBuffers read the EventQueue.
// Everything an execution does — fetch, ingest, drain, retry, finalize — is
// the production code path, so every runtime change is checked here
// without being copied here — checkpoints too: barriers travel through the
// real buffers and channels into the CheckpointCollector Job uses. The
// harness adds the virtual-time checkpoint trigger, crash/recovery (roll
// back to the last committed epoch), and per-step invariant checking.
//
// Why: schedule-sensitive defects (lost wakeups, backpressure leaks,
// replay off-by-ones) hide behind races on the threaded runtime. Here the
// whole schedule derives from one seed — a seeded jitter term permutes
// task wakeup order — so every interleaving is exactly replayable, and
// pluggable invariant checkers run after *every* simulated step.
//
// Determinism contract: two DstJob runs of the same graph with the same
// DstOptions::seed produce byte-identical event traces (DstReport::trace /
// trace_hash), even within one process. The harness disables the global
// TraceSampler for the duration of run() — its process-wide counters would
// otherwise leak real-run state into batch headers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/inproc_transport.hpp"
#include "neptune/graph.hpp"
#include "neptune/instance.hpp"
#include "neptune/metrics.hpp"
#include "neptune/state.hpp"
#include "neptune/stream_buffer.hpp"
#include "sim/des.hpp"

namespace neptune::testkit {

/// Clock that reads the DST event queue's virtual time, so StreamBuffer
/// flush timers and latency stamps are schedule-deterministic.
class SimClock final : public Clock {
 public:
  explicit SimClock(const sim::EventQueue* q) : q_(q) {}
  int64_t now_ns() const override { return q_->now(); }

 private:
  const sim::EventQueue* q_;
};

struct DstOptions {
  uint64_t seed = 1;
  /// Uniform random delay added to every task wakeup; this is the schedule
  /// permutation knob. 0 gives the fixed canonical schedule.
  int64_t schedule_jitter_ns = 20'000;
  /// Virtual CPU cost charged per packet moved during an execution slice.
  int64_t packet_cost_ns = 50;
  /// Virtual cost of one scheduled execution (wakeup + dispatch).
  int64_t execute_overhead_ns = 2'000;
  /// Abort guards: virtual-time and step ceilings for one run.
  int64_t max_virtual_ns = 300'000'000'000;  // 300 s virtual
  uint64_t max_steps = 5'000'000;
  /// Steps without any packet/flush progress before declaring a livelock.
  uint64_t livelock_steps = 50'000;
  /// Periodic checkpoint interval (virtual ns); 0 disables checkpoints.
  int64_t checkpoint_interval_ns = 0;
  /// Keep the full event trace in DstReport::trace (the hash is always
  /// computed). Turn off for big schedule sweeps to save memory.
  bool record_trace = true;
};

/// Per-instance probe exposed to invariant checkers.
struct InstanceProbe {
  std::string op_id;
  uint32_t instance = 0;
  size_t global_index = 0;
  bool is_source = false;
  const OperatorMetrics* metrics = nullptr;
};

/// Per-edge probe: one (link, src-instance, dst-instance) StreamBuffer +
/// channel pair, with both endpoints' sequence positions.
struct EdgeProbe {
  uint32_t link_id = 0;
  std::string src_op;
  uint32_t src_instance = 0;
  size_t src_index = 0;  ///< global instance index of the sender
  std::string dst_op;
  uint32_t dst_instance = 0;
  size_t dst_index = 0;
  const StreamBuffer* buffer = nullptr;
  const InprocChannel* channel = nullptr;
  StreamBufferConfig buffer_config;
  ChannelConfig channel_config;
  bool lossy = false;  ///< link declares a shed policy (best-effort)
  ShedConfig shed_config;
  uint64_t sent_seq = 0;      ///< sender-side next_seq (packets buffered so far)
  uint64_t received_seq = 0;  ///< receiver-side expected_seq (packets accepted)
  uint64_t shed_gap_packets = 0;  ///< receiver: seq positions skipped (shed upstream)
  uint64_t shed_packets = 0;      ///< sender: packets the buffer shed
  bool sender_scheduled = false;
  bool sender_done = false;
};

class DstJob;

/// Snapshot of the simulated job handed to checkers after every step.
struct DstView {
  sim::SimTime now = 0;
  uint64_t step = 0;
  uint64_t seed = 0;
  bool completed = false;  ///< set before on_finish when all instances finished
  std::vector<InstanceProbe> instances;
  std::vector<EdgeProbe> edges;
  const DstJob* job = nullptr;
};

/// A safety property evaluated after every simulated step. Checkers append
/// human-readable violation strings; the harness prefixes step/seed context.
class InvariantChecker {
 public:
  virtual ~InvariantChecker() = default;
  virtual const char* name() const = 0;
  virtual void on_step(const DstView& view, std::vector<std::string>& violations) = 0;
  /// Called once after the run (completion, guard trip, or queue drain).
  virtual void on_finish(const DstView& view, std::vector<std::string>& violations) {
    (void)view;
    (void)violations;
  }
};

struct DstReport {
  bool completed = false;  ///< every instance reached done
  uint64_t steps = 0;
  int64_t virtual_ns = 0;
  uint64_t checkpoints = 0;  ///< epochs committed
  uint64_t recoveries = 0;
  std::vector<std::string> violations;
  std::vector<std::string> trace;  ///< one line per event (when record_trace)
  uint64_t trace_hash = 0;         ///< FNV-1a over all trace lines
  bool ok() const { return completed && violations.empty(); }
  std::string summary() const;
};

/// One deterministic run of a real StreamGraph. Construct, optionally add
/// checkers / schedule crashes, then run() once.
class DstJob : private neptune::detail::InstanceHost {
 public:
  explicit DstJob(const StreamGraph& graph, DstOptions opts = {});
  ~DstJob() override;
  DstJob(const DstJob&) = delete;
  DstJob& operator=(const DstJob&) = delete;

  void add_checker(std::unique_ptr<InvariantChecker> checker);
  void add_checkers(std::vector<std::unique_ptr<InvariantChecker>> checkers);

  /// Kill-and-recover at a virtual time: the whole job is torn down and
  /// redeployed (the DST analogue of the RecoveryCoordinator's resubmit),
  /// then restored from the last committed checkpoint epoch, if any.
  void schedule_crash(int64_t at_virtual_ns);
  /// The same, after simulated step `step` (trace checkpoint lines name theirs).
  void schedule_crash_after_step(uint64_t step) { crash_after_step_ = step; }

  /// White-box fault hook: run an arbitrary mutation (e.g. steal a frame
  /// from a channel) at a virtual time, between steps.
  void schedule_fault(int64_t at_virtual_ns, std::function<void()> fn);

  DstReport run();

  // --- introspection ---------------------------------------------------------
  const DstView& view() const { return view_; }
  sim::EventQueue& queue() { return q_; }
  /// Serialize every Checkpointable operator's current state.
  JobSnapshot state_snapshot() const;
  std::vector<OperatorMetricsSnapshot> metrics() const;
  uint64_t checkpoints_taken() const { return checkpoints_; }
  uint64_t recoveries() const { return recoveries_; }
  /// Channel of view().edges[i] — non-const, for schedule_fault mutations.
  std::shared_ptr<InprocChannel> edge_channel(size_t edge_index);

 private:
  struct Task;  ///< one instance + the TaskContext that drives it

  // InstanceHost: a permanent failure is a "runtime" violation; completion
  // is read from the TaskContext (request_termination), as granules does.
  void report_failure(const std::string& what) override { violation("runtime", what); }
  void on_barrier(const neptune::detail::InstanceRuntime& inst, uint64_t epoch) override;
  void on_instance_done(const neptune::detail::InstanceRuntime& inst) override;

  void deploy();  ///< (re)build instances + wiring under the current epoch
  void start_epoch();
  void notify(size_t inst_index);
  void schedule_execute(size_t inst_index, int64_t delay_ns);
  void schedule_timer(size_t inst_index, int64_t period_ns);
  int64_t wakeup_jitter();
  bool step_once();  ///< run one event + bookkeeping + checkers
  bool all_done() const;
  void begin_checkpoint();
  void commit_checkpoint_if_complete();
  void schedule_checkpoint();
  void do_recover();
  void refresh_view();
  void trace_line(std::string line);
  void violation(const std::string& checker, const std::string& what);
  uint64_t progress_signature() const;

  StreamGraph graph_;  // owned copy: recovery redeploys from it
  DstOptions opts_;
  sim::EventQueue q_;
  SimClock clock_;
  Xoshiro256 rng_;

  uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  DstView view_;
  DstReport report_;

  std::optional<JobSnapshot> snapshot_;  // last committed epoch
  neptune::detail::CheckpointCollector checkpoint_;
  uint64_t checkpoint_epoch_ = 0;  // last epoch begun
  uint64_t checkpoints_ = 0;
  uint64_t recoveries_ = 0;
  bool crash_pending_ = false;
  uint64_t crash_after_step_ = 0;  // 0 = none
  bool ran_ = false;

  uint64_t last_progress_sig_ = ~0ULL;
  uint64_t last_progress_step_ = 0;

  /// What view_.edges[i] needs beyond its probe (rebuilt on redeploy).
  struct EdgeLoc {
    size_t in_pos = 0;  ///< input-edge position on the receiver
    std::shared_ptr<InprocChannel> channel;
  };
  std::vector<EdgeLoc> edge_locs_;
  std::vector<std::string> scratch_violations_;
};

}  // namespace neptune::testkit
