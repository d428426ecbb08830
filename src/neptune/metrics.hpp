// Per-operator and per-job metrics: throughput, end-to-end latency and
// bandwidth — the paper's three evaluation metrics (§IV).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"

namespace neptune {

/// Add `n` to a counter that only one thread writes at a time: a relaxed
/// load and store, no locked read-modify-write on the data path. Readers
/// on other threads may see the sum one update late, never a torn value.
inline void owner_add(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// Live counters for one operator instance. All relaxed atomics: metrics
/// must never serialize the hot path. Counters are single-writer unless
/// marked otherwise: the worker running the instance (one execution at a
/// time, by the task contract) owns them and adds with owner_add(); other
/// threads only read. The three marked shared are also written from an IO
/// loop or the watchdog and keep fetch_add.
struct OperatorMetrics {
  std::atomic<uint64_t> packets_in{0};
  std::atomic<uint64_t> packets_out{0};
  std::atomic<uint64_t> bytes_in{0};    ///< wire bytes received (after framing)
  std::atomic<uint64_t> bytes_out{0};   ///< wire bytes sent (frames, post-compression)
  std::atomic<uint64_t> batches_in{0};
  std::atomic<uint64_t> flushes{0};          ///< buffer flushes (threshold or timer)
  std::atomic<uint64_t> timer_flushes{0};    ///< flushes forced by the latency timer
  std::atomic<uint64_t> blocked_sends{0};    ///< flush attempts rejected by flow control
  std::atomic<uint64_t> blocked_ns{0};       ///< cumulative time outputs sat blocked by flow control
  std::atomic<uint64_t> seq_violations{0};   ///< ordering/exactly-once breaches (must stay 0)
  std::atomic<uint64_t> executions{0};       ///< scheduled executions of the instance task

  // --- zero-copy path counters (paper §III-B3 taken to its limit) ------------
  std::atomic<uint64_t> serde_alloc_bytes{0};  ///< heap bytes copied deserializing string/bytes fields
  std::atomic<uint64_t> frame_copies{0};       ///< inbound frames copied on receive (0: channels hand over whole pooled frames)
  std::atomic<uint64_t> batch_dispatches{0};   ///< batches handed to on_batch() as views

  // --- gauges (instantaneous, refreshed by the owner; read by telemetry) -----
  std::atomic<int64_t> outbound_buffered_bytes{0};  ///< bytes parked in stream buffers
  std::atomic<int64_t> inbound_ready_batches{0};    ///< parsed batches awaiting execution

  // --- robustness counters (fault-tolerance subsystem) -----------------------
  std::atomic<uint64_t> reconnects{0};             ///< supervised-edge TCP re-establishments (shared: sender IO loop)
  std::atomic<uint64_t> corrupt_frames_dropped{0}; ///< frames rejected by CRC/format checks (shared: receiver IO loop)
  std::atomic<uint64_t> dup_frames_dropped{0};     ///< replayed frames deduped by edge seq

  // --- overload-resilience counters ------------------------------------------
  std::atomic<uint64_t> packets_shed{0};   ///< best-effort packets dropped by admission/shedding
  std::atomic<uint64_t> batches_shed{0};   ///< parked frames released whole (drop-oldest)
  std::atomic<uint64_t> shed_bytes{0};     ///< serialized bytes those sheds would have sent
  std::atomic<uint64_t> shed_gaps{0};      ///< packets a receiver observed missing on a lossy edge
  std::atomic<uint64_t> packets_quarantined{0};  ///< poison packets/batch remainders sent to the DLQ
  std::atomic<uint64_t> deadline_overruns{0};    ///< dispatches that exceeded the per-packet deadline
  std::atomic<uint64_t> watchdog_stalls{0};      ///< watchdog stall detections for this instance (shared: watchdog)

  // --- watchdog gauge: wall-clock ns when the current execution entered the
  //     operator, 0 while idle. Lets the watchdog spot a dispatch that never
  //     returns (infinite loop inside execute/on_batch). ----------------------
  std::atomic<int64_t> exec_begin_ns{0};

  /// End-to-end latency, recorded at sink operators (no output links) by
  /// the owner with record_owned().
  LatencyHistogram sink_latency;
};

/// Immutable snapshot used by benches/reports.
struct OperatorMetricsSnapshot {
  std::string operator_id;
  uint32_t instance = 0;
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t batches_in = 0;
  uint64_t flushes = 0;
  uint64_t timer_flushes = 0;
  uint64_t blocked_sends = 0;
  uint64_t blocked_ns = 0;
  uint64_t seq_violations = 0;
  uint64_t executions = 0;
  uint64_t serde_alloc_bytes = 0;
  uint64_t frame_copies = 0;
  uint64_t batch_dispatches = 0;
  int64_t outbound_buffered_bytes = 0;
  int64_t inbound_ready_batches = 0;
  uint64_t reconnects = 0;
  uint64_t corrupt_frames_dropped = 0;
  uint64_t dup_frames_dropped = 0;
  uint64_t packets_shed = 0;
  uint64_t batches_shed = 0;
  uint64_t shed_bytes = 0;
  uint64_t shed_gaps = 0;
  uint64_t packets_quarantined = 0;
  uint64_t deadline_overruns = 0;
  uint64_t watchdog_stalls = 0;
  int64_t exec_begin_ns = 0;  ///< wall ns the in-flight execution entered; 0 idle
  // Sink end-to-end latency percentiles (ns); zero for non-sink operators.
  uint64_t sink_latency_p50_ns = 0;
  uint64_t sink_latency_p99_ns = 0;
  uint64_t sink_latency_p999_ns = 0;
  uint64_t sink_latency_max_ns = 0;
  double sink_latency_mean_ns = 0;
  uint64_t sink_latency_count = 0;
  uint64_t sink_latency_saturated = 0;  ///< samples clamped at the top bucket
};

struct JobMetricsSnapshot {
  std::vector<OperatorMetricsSnapshot> operators;
  int64_t wall_time_ns = 0;

  // --- job-level robustness counters (filled by the RecoveryCoordinator;
  //     zero for jobs run without one) -------------------------------------
  uint64_t checkpoints_taken = 0;  ///< automatic checkpoints captured
  uint64_t recoveries = 0;         ///< checkpoint restores after detected failures
  uint64_t recovery_ns = 0;        ///< cumulative failure->restored-and-running time

  uint64_t total(const std::string& op_id, uint64_t OperatorMetricsSnapshot::* field) const {
    uint64_t sum = 0;
    for (const auto& m : operators) {
      if (m.operator_id == op_id) sum += m.*field;
    }
    return sum;
  }
  uint64_t total(uint64_t OperatorMetricsSnapshot::* field) const {
    uint64_t sum = 0;
    for (const auto& m : operators) sum += m.*field;
    return sum;
  }
  double seconds() const { return static_cast<double>(wall_time_ns) * 1e-9; }
};

/// Multi-line human-readable report of a job snapshot — one row per
/// operator (instances aggregated) plus totals. For logs and examples.
std::string format_metrics(const JobMetricsSnapshot& snap);

inline OperatorMetricsSnapshot snapshot_of(const OperatorMetrics& m) {
  OperatorMetricsSnapshot s;
  s.packets_in = m.packets_in.load(std::memory_order_relaxed);
  s.packets_out = m.packets_out.load(std::memory_order_relaxed);
  s.bytes_in = m.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = m.bytes_out.load(std::memory_order_relaxed);
  s.batches_in = m.batches_in.load(std::memory_order_relaxed);
  s.flushes = m.flushes.load(std::memory_order_relaxed);
  s.timer_flushes = m.timer_flushes.load(std::memory_order_relaxed);
  s.blocked_sends = m.blocked_sends.load(std::memory_order_relaxed);
  s.blocked_ns = m.blocked_ns.load(std::memory_order_relaxed);
  s.seq_violations = m.seq_violations.load(std::memory_order_relaxed);
  s.executions = m.executions.load(std::memory_order_relaxed);
  s.serde_alloc_bytes = m.serde_alloc_bytes.load(std::memory_order_relaxed);
  s.frame_copies = m.frame_copies.load(std::memory_order_relaxed);
  s.batch_dispatches = m.batch_dispatches.load(std::memory_order_relaxed);
  s.outbound_buffered_bytes = m.outbound_buffered_bytes.load(std::memory_order_relaxed);
  s.inbound_ready_batches = m.inbound_ready_batches.load(std::memory_order_relaxed);
  s.reconnects = m.reconnects.load(std::memory_order_relaxed);
  s.corrupt_frames_dropped = m.corrupt_frames_dropped.load(std::memory_order_relaxed);
  s.dup_frames_dropped = m.dup_frames_dropped.load(std::memory_order_relaxed);
  s.packets_shed = m.packets_shed.load(std::memory_order_relaxed);
  s.batches_shed = m.batches_shed.load(std::memory_order_relaxed);
  s.shed_bytes = m.shed_bytes.load(std::memory_order_relaxed);
  s.shed_gaps = m.shed_gaps.load(std::memory_order_relaxed);
  s.packets_quarantined = m.packets_quarantined.load(std::memory_order_relaxed);
  s.deadline_overruns = m.deadline_overruns.load(std::memory_order_relaxed);
  s.watchdog_stalls = m.watchdog_stalls.load(std::memory_order_relaxed);
  s.exec_begin_ns = m.exec_begin_ns.load(std::memory_order_relaxed);
  s.sink_latency_count = m.sink_latency.count();
  s.sink_latency_saturated = m.sink_latency.saturated_count();
  if (s.sink_latency_count > 0) {
    s.sink_latency_p50_ns = m.sink_latency.percentile(50);
    s.sink_latency_p99_ns = m.sink_latency.percentile(99);
    s.sink_latency_p999_ns = m.sink_latency.percentile(99.9);
    s.sink_latency_max_ns = m.sink_latency.max();
    s.sink_latency_mean_ns = m.sink_latency.mean();
  }
  return s;
}

}  // namespace neptune
