// NEPTUNE runtime: deploys a StreamGraph onto Granules resources, wires the
// edges with channels, and drives operators through Granules' data-driven
// scheduling. Each parallel operator instance becomes one computational
// task (detail::InstanceRuntime, neptune/instance.hpp); each (link,
// src-instance, dst-instance) edge gets an application-level StreamBuffer
// on the sending side and a flow-controlled channel between the resources.
//
// The runtime upholds NEPTUNE's correctness contract (paper §I-B): packets
// are processed in order, exactly once, and are never dropped — enforced
// with per-edge sequence numbers and verified by the metrics'
// seq_violations counter (always expected to be zero).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fault/dead_letter.hpp"
#include "fault/supervised_channel.hpp"
#include "granules/resource.hpp"
#include "neptune/graph.hpp"
#include "neptune/instance.hpp"
#include "neptune/metrics.hpp"
#include "neptune/state.hpp"
#include "obs/telemetry.hpp"

namespace neptune {

namespace obs {
class MetricsHttpServer;
}

/// A running (or finished) stream processing job.
class Job : private detail::InstanceHost {
 public:
  ~Job() override;
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Kick off the sources. submit() already deployed all tasks.
  void start();

  /// Wait until every operator instance has terminated (sources exhausted
  /// and all in-flight data fully processed). Returns false on timeout.
  bool wait(std::chrono::nanoseconds timeout = std::chrono::hours(1));

  /// Cooperative cancel: sources stop emitting, remaining in-flight data is
  /// discarded, operators terminate. Safe to call at any time.
  void stop();

  /// Block until no instance of this job is inside an execution. After
  /// stop() every later execution only discards, so this is the point
  /// from which the job no longer touches operator state. False on timeout
  /// (an execution that never returns, or one on a dead resource).
  bool wait_idle(std::chrono::nanoseconds timeout);

  // --- checkpoint / restore (prototype of the paper's §VI future work) ----

  /// Start checkpoint `epoch` (above every earlier one; an open epoch is
  /// dropped): sources snapshot and send barrier(epoch) in-band, processors
  /// snapshot once it arrived on all inputs. Nothing pauses.
  void begin_checkpoint(uint64_t epoch);
  /// Block until every local instance has reported `epoch` (terminated ones
  /// their final state) and return the snapshot. nullopt on timeout (the
  /// epoch stays open), if `epoch` is not open, or if the job failed/stopped.
  std::optional<JobSnapshot> await_checkpoint(uint64_t epoch, std::chrono::nanoseconds timeout);
  std::optional<JobSnapshot> checkpoint(uint64_t epoch, std::chrono::nanoseconds timeout) {
    begin_checkpoint(epoch);
    return await_checkpoint(epoch, timeout);
  }

  /// Restore a snapshot into this (not-yet-started) job's operators.
  /// Entries with no matching (operator id, instance) are ignored.
  void restore_state(const JobSnapshot& snapshot);
  /// The state of this (not-yet-started) job's operators: what a rollback
  /// with no committed epoch restores, so state an operator shares across
  /// incarnations returns to where the job began.
  JobSnapshot initial_state() const;

  bool completed() const;

  // --- failure reporting (fault-tolerance subsystem) ----------------------

  /// Invoked (from an IO loop or worker thread) on the first permanent
  /// failure — e.g. a supervised edge exhausting its reconnect budget or a
  /// corrupt frame on an unsupervised edge. Set it before start().
  void set_failure_handler(std::function<void(const std::string&)> handler);
  /// True once any permanent failure has been reported.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Description of the first reported failure (empty if none).
  std::string failure_reason() const;
  /// Record a permanent failure and fire the handler (first call only).
  void report_failure(const std::string& what) override;

  // --- overload resilience -----------------------------------------------

  /// The job's dead-letter queue, or nullptr when quarantine is disabled
  /// (RuntimeOptions::quarantine). Drain it to inspect/replay poison data.
  const std::shared_ptr<fault::DeadLetterQueue>& dead_letters() const { return dead_letters_; }

  /// Watchdog hook: count a stall detection against the named instance's
  /// metrics (no-op for unknown ids).
  void note_watchdog_stall(const std::string& op_id, uint32_t instance);

  JobMetricsSnapshot metrics() const;
  const std::string& name() const { return name_; }

 private:
  friend class Runtime;
  Job() = default;

  void on_barrier(const detail::InstanceRuntime& inst, uint64_t epoch) override;
  void on_instance_done(const detail::InstanceRuntime& inst) override;

  std::string name_;
  // Failure state is declared before instances_ so it outlives the edge
  // teardown in ~Job (an edge may report until its endpoint is destroyed).
  mutable std::mutex failure_mu_;
  std::function<void(const std::string&)> failure_handler_;
  std::string failure_reason_;
  std::atomic<bool> failed_{false};
  std::shared_ptr<fault::DeadLetterQueue> dead_letters_;  // null = quarantine off
  std::shared_ptr<detail::ExecutionGauge> executing_ =
      std::make_shared<detail::ExecutionGauge>();
  std::vector<std::shared_ptr<detail::InstanceRuntime>> instances_;
  // Telemetry registrations for this job's operators and edges. Samplers
  // capture shared_ptrs, so ordering vs instances_ is not load-bearing;
  // the handles just scope the series to the job's lifetime.
  std::vector<obs::TelemetryRegistry::Handle> telemetry_;
  std::vector<EventLoop::TimerId> timers_;  // (loop, id) pairs below
  std::vector<EventLoop*> timer_loops_;

  mutable std::mutex done_mu_;
  std::condition_variable done_cv_;
  size_t done_count_ = 0;
  bool stopped_ = false;
  detail::CheckpointCollector checkpoint_;
  // Atomic: start() writes it while watchdog/telemetry threads read metrics().
  std::atomic<int64_t> start_ns_{0};
  mutable std::atomic<int64_t> end_ns_{0};
};

/// How edges between operator instances on *different* resources are
/// carried. Same-resource edges always use in-process channels.
enum class EdgeTransport {
  kInproc,  ///< bounded in-process channels (default; deterministic, fast)
  kTcp,     ///< real loopback TCP via the epoll transport — exercises the
            ///< paper's TCP-flow-control backpressure end to end
};

/// Observability endpoint knobs (see docs/OBSERVABILITY.md).
struct ObsOptions {
  /// >= 0: serve Prometheus /metrics (plus /telemetry.json and /spans.json)
  /// on 127.0.0.1:<port> (0 picks a free port; read it back via
  /// Runtime::metrics_server()->port()). -1: only enabled when the
  /// NEPTUNE_METRICS_PORT env var is set.
  int metrics_port = -1;
  /// Ring/interval for the background sampler feeding /telemetry.json.
  /// The sampler runs whenever the HTTP endpoint is enabled.
  obs::SamplerOptions sampler;
  /// Non-empty: install the process-global IncidentReporter writing JSONL
  /// bundles (and raw crash dumps) into this directory. Empty: only enabled
  /// when the NEPTUNE_INCIDENT_DIR env var is set. Idempotent — the first
  /// Runtime to configure it wins; later Runtimes leave it alone.
  std::string incident_dir;
  /// Rotation bound for the incident directory.
  size_t incident_max_bundles = 16;
};

/// Poison-pill quarantine (overload-resilience subsystem). When enabled,
/// an operator dispatch that throws — or a malformed batch past the CRC
/// layer — captures the offending packet(s) to the job's DeadLetterQueue
/// and the pipeline keeps running. Disabled (the default), such faults are
/// permanent failures exactly as before.
struct QuarantinePolicy {
  bool enabled = false;
  /// > 0: a dispatch slower than this is counted in deadline_overruns.
  /// (Detection only — interrupting user code mid-dispatch is not safe;
  /// pair with the watchdog to escalate dispatches that never return.)
  int64_t packet_deadline_ns = 0;
  fault::DeadLetterConfig dead_letter;
};

struct RuntimeOptions {
  EdgeTransport cross_resource_transport = EdgeTransport::kInproc;

  // --- observability --------------------------------------------------------
  ObsOptions obs;

  // --- fault tolerance ------------------------------------------------------
  /// TCP edges are always carried by the supervised channel: heartbeats,
  /// dead-peer detection, backoff reconnects and exactly-once retransmission,
  /// run as timers on the resource's IO loop. These are its knobs.
  fault::SupervisorConfig supervisor;
  /// Optional fault-injection schedule applied to every edge (inproc and
  /// TCP). Shared so tests/benches can inspect injector stats afterwards.
  std::shared_ptr<fault::FaultInjector> fault_injector;

  // --- overload resilience --------------------------------------------------
  /// Poison-pill quarantine into a per-job dead-letter queue.
  QuarantinePolicy quarantine;
};

/// Which slice of a multi-process deployment this Runtime owns, and how to
/// reach the peers (Runtime::submit_slice). One OS process per resource:
/// every operator pinned to `local_resource` is instantiated here; edges
/// whose endpoints straddle processes ride supervised TCP channels on
/// pre-agreed loopback ports, so peers need no port handshake — the
/// supervisor allocates ports once and every worker derives the same
/// edge→port mapping (proc::plan_slices).
struct SliceOptions {
  size_t local_resource = 0;
  size_t total_resources = 1;
  /// Port per cross-process edge, keyed by (link_id, src_instance,
  /// dst_instance). The receiving process binds the port; the sending
  /// process connects to it on 127.0.0.1. A cross-process edge with no
  /// entry is a GraphError (fail fast, before any task runs).
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, uint16_t> edge_ports;
};

/// Owns a set of Granules resources (the "cluster" within this process) and
/// submits jobs onto them.
class Runtime {
 public:
  /// `resources` resources are created, each with its own worker/IO pools.
  explicit Runtime(size_t resources = 1, granules::ResourceConfig base_config = {},
                   RuntimeOptions options = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Validate, deploy and return the job (not yet started). Each operator
  /// instance goes on its pinned resource (pin % resource count) or, when
  /// unpinned, round robin over the resources.
  std::shared_ptr<Job> submit(const StreamGraph& graph);

  /// submit() filtered to one resource of a multi-process deployment: this
  /// Runtime (which must own exactly one resource) deploys only the
  /// operators pinned to `slice.local_resource`. Every operator needs an
  /// explicit `resource` pin in [0, slice.total_resources). Edges with both
  /// ends local are wired exactly as submit() wires them; an edge to or
  /// from a remote operator becomes the local half of a supervised TCP
  /// edge on its port in `slice.edge_ports`. The returned Job completes
  /// when all *local* instances drain — end-of-stream propagates across
  /// processes via the supervised channels' EOF frames.
  std::shared_ptr<Job> submit_slice(const StreamGraph& graph, const SliceOptions& slice);

  granules::Resource* resource(size_t i) { return resources_.at(i).get(); }
  size_t resource_count() const { return resources_.size(); }
  const RuntimeOptions& options() const { return options_; }

  /// The HTTP metrics endpoint, or nullptr when disabled (see ObsOptions).
  obs::MetricsHttpServer* metrics_server() { return metrics_server_.get(); }
  /// Background telemetry sampler backing /telemetry.json (nullptr when the
  /// endpoint is disabled).
  obs::TelemetrySampler* telemetry_sampler() { return sampler_.get(); }

  void shutdown();

 private:
  struct EdgeChannel {
    std::shared_ptr<ChannelSender> sender;
    std::shared_ptr<ChannelReceiver> receiver;
  };
  struct Placed;  // one instance, its resource and its task id (runtime.cpp)
  using OpInstances = std::vector<std::vector<Placed>>;  // [op index][instance]

  /// The one deploy behind submit() and submit_slice() (a null `slice`
  /// places every operator in this process). The caller validated `graph`.
  std::shared_ptr<Job> deploy(const StreamGraph& graph, const SliceOptions* slice);
  Placed make_instance(const OperatorDecl& op, uint32_t inst, const GraphConfig& cfg,
                       granules::Resource* resource, const std::shared_ptr<Job>& job);
  /// Build the channel for one edge; a null end lives in another process.
  /// Both ends here: an inproc pipe, or a supervised TCP pair when they are
  /// on different resources and the runtime is configured for TCP. One end
  /// here: that end of a supervised TCP edge — a receiver bound to `port`
  /// (0: an ephemeral one), a sender connecting to `port` (or to the
  /// receiver built alongside it). `edge` identifies the edge to the fault
  /// injector; robustness counters go to the instances' metrics, permanent
  /// failures to `job`.
  EdgeChannel make_edge_channel(const ChannelConfig& config, const fault::EdgeId& edge,
                                Placed* src, Placed* dst, uint16_t port,
                                const std::shared_ptr<Job>& job);
  /// Deploy every instance as a data-driven task with its flush timer.
  static void deploy_instances(const std::shared_ptr<Job>& job, OpInstances& op_instances);
  static void note_topology_for_incidents(const StreamGraph& graph);
  static void register_job_telemetry(const std::shared_ptr<Job>& job);

  RuntimeOptions options_;
  std::vector<std::unique_ptr<granules::Resource>> resources_;
  std::vector<std::shared_ptr<Job>> jobs_;
  std::mutex jobs_mu_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  std::unique_ptr<obs::MetricsHttpServer> metrics_server_;
};

}  // namespace neptune
