// Workload generators and reference operators used across tests, examples
// and benchmarks:
//
//  * BytesSource / RelayProcessor / CountingSink — the three-stage message
//    relay of paper Figure 1 (the workhorse of Figures 2 and 7).
//  * VariableRateSink — the stage-C processor of Figure 3, whose sleep
//    interval cycles 0..3 ms to trigger backpressure (Figure 4).
//  * ManufacturingSource / SensorStateExtractor / ActuationDelayMonitor —
//    the DEBS-Grand-Challenge-style manufacturing-equipment monitoring job
//    of Figure 8 (66-field readings; 3 chemical additive sensors and their
//    3 valves; the job monitors sensor-change -> valve-actuation delay over
//    a time window). The generator produces the paper's low-entropy sensor
//    stream; RandomBytesSource produces the high-entropy contrast stream
//    used in the compression study (§III-B5).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "neptune/operators.hpp"
#include "neptune/state.hpp"

namespace neptune::workload {

enum class PayloadKind : uint8_t {
  kZero,    ///< all zeros (minimum entropy)
  kText,    ///< repetitive ASCII telemetry (low entropy, LZ4-friendly)
  kRandom,  ///< uniform random bytes (maximum entropy, incompressible)
};

/// Emits `total_packets` packets, each with one `bytes` payload field of
/// `payload_bytes` bytes, split evenly across parallel instances.
/// total_packets == 0 means unbounded (stop the job explicitly).
class BytesSource final : public StreamSource, public Checkpointable {
 public:
  BytesSource(uint64_t total_packets, size_t payload_bytes,
              PayloadKind kind = PayloadKind::kText, uint64_t seed = 1);

  void open(uint32_t instance, uint32_t parallelism) override;
  bool next(Emitter& out, size_t budget) override;

  // Checkpointable: replay position (emitted count). Atomic (relaxed, like
  // CountingSink::count_) because tests and benches read it from their own
  // threads; snapshots run on the source's thread at its barrier.
  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(emitted_.load(std::memory_order_relaxed));
  }
  void restore_state(ByteReader& in) override {
    emitted_.store(in.read_varint(), std::memory_order_relaxed);
  }

 private:
  void fill_payload(std::vector<uint8_t>& payload);

  const uint64_t total_packets_;
  const size_t payload_bytes_;
  const PayloadKind kind_;
  Xoshiro256 rng_;
  uint64_t quota_ = 0;
  std::atomic<uint64_t> emitted_{0};
};

/// Stage-2 relay of Figure 1: forwards every packet unchanged. Prefers
/// batch dispatch so packets travel source->sink as wire bytes: the relay
/// never deserializes a field or copies a payload.
class RelayProcessor final : public StreamProcessor {
 public:
  void process(StreamPacket& packet, Emitter& out) override;

  bool prefers_batches() const override { return true; }
  void on_batch(BatchView& batch, Emitter& out) override;
};

/// Terminal stage: counts packets (and the framework records end-to-end
/// latency here because the operator has no outputs).
class CountingSink final : public StreamProcessor, public Checkpointable {
 public:
  /// Optionally spin-waits `delay_ns` per packet to emulate processing cost.
  explicit CountingSink(int64_t delay_ns = 0) : delay_ns_(delay_ns) {}

  void process(StreamPacket& packet, Emitter& out) override;

  bool prefers_batches() const override { return true; }
  void on_batch(BatchView& batch, Emitter& out) override;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  // Checkpointable: the running count survives restarts.
  void snapshot_state(ByteBuffer& out) const override { out.write_varint(count()); }
  void restore_state(ByteReader& in) override {
    count_.store(in.read_varint(), std::memory_order_relaxed);
  }

 private:
  const int64_t delay_ns_;
  std::atomic<uint64_t> count_{0};
};

/// Source that paces emission against the wall clock: a token bucket filled
/// at `rate_pps` packets/sec, optionally multiplied by `overload_factor`
/// inside a time window — the offered-load generator of the overload bench
/// (bench/overload_shedding) and the overload-resilience tests. The window
/// is relative to the first next() call; duration 0 with factor > 1 means
/// sustained overload once the window opens.
struct PacedSourceConfig {
  double rate_pps = 10'000;
  double overload_factor = 1.0;
  int64_t overload_start_ns = 0;
  int64_t overload_duration_ns = 0;  ///< 0 = sustained once started
  size_t payload_bytes = 64;
  uint64_t total_packets = 0;  ///< 0 = unbounded
  uint64_t seed = 1;
};

class PacedSource final : public StreamSource {
 public:
  explicit PacedSource(PacedSourceConfig config);

  void open(uint32_t instance, uint32_t parallelism) override;
  bool next(Emitter& out, size_t budget) override;

  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  /// Packets the pacing clock entitled us to emit but backpressure blocked.
  uint64_t backlogged() const { return backlog_.load(std::memory_order_relaxed); }
  bool in_overload() const;

 private:
  /// Packets the schedule entitles this instance to by elapsed time `t`.
  uint64_t entitlement(int64_t elapsed_ns) const;

  PacedSourceConfig config_;
  double instance_rate_ = 0;  ///< per-instance share of rate_pps
  Xoshiro256 rng_;
  uint64_t quota_ = 0;
  int64_t epoch_ns_ = 0;  ///< first next() call
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> backlog_{0};
  std::vector<uint8_t> payload_;
};

/// Figure 3's stage C: processing rate varies over time. The per-packet
/// sleep cycles through `sleep_steps_ns` (paper: 0, 1, 2, 3 ms), advancing
/// either every `step_every_packets` packets or — when `step_every_ns` is
/// non-zero — every `step_every_ns` of wall time (the paper's cycle).
class VariableRateSink final : public StreamProcessor {
 public:
  VariableRateSink(std::vector<int64_t> sleep_steps_ns, uint64_t step_every_packets,
                   int64_t step_every_ns = 0);

  void process(StreamPacket& packet, Emitter& out) override;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  size_t current_step() const { return step_.load(std::memory_order_relaxed); }
  /// Sleep interval currently applied, ns.
  int64_t current_delay_ns() const {
    return sleep_steps_ns_.empty()
               ? 0
               : sleep_steps_ns_[step_.load(std::memory_order_relaxed) % sleep_steps_ns_.size()];
  }

 private:
  void advance_step();

  const std::vector<int64_t> sleep_steps_ns_;
  const uint64_t step_every_;
  const int64_t step_every_ns_;
  std::atomic<uint64_t> count_{0};
  std::atomic<size_t> step_{0};
  uint64_t in_step_ = 0;
  int64_t step_started_ns_ = 0;
};

// --- manufacturing equipment monitoring (Figure 8) -------------------------------

/// Layout of a manufacturing reading packet: field 0 is the reading
/// timestamp (i64 ms), fields 1..kSensors are chemical additive sensor
/// states (bool), the next kSensors are valve states (bool), and the
/// remaining fields are auxiliary channels (i32) for a total of
/// kTotalFields data fields — matching the paper's "6 different data fields
/// and the timestamp out of 66 different data fields".
struct ManufacturingSchema {
  static constexpr size_t kSensors = 3;
  static constexpr size_t kTotalFields = 66;
  static constexpr size_t kTimestamp = 0;
  static constexpr size_t kSensorBase = 1;                 // 3 bool fields
  static constexpr size_t kValveBase = 1 + kSensors;       // 3 bool fields
  static constexpr size_t kAuxBase = 1 + 2 * kSensors;     // 59 i32 fields
};

struct ManufacturingConfig {
  uint64_t total_readings = 0;  ///< 0 = unbounded
  /// Probability a sensor flips per reading (low => low-entropy stream).
  double sensor_flip_probability = 0.002;
  /// Valve actuates this many readings after its sensor changed.
  uint32_t actuation_lag_readings = 5;
  /// Auxiliary channels drift slowly (low entropy) when true, else random.
  bool low_entropy_aux = true;
  uint64_t seed = 42;
};

class ManufacturingSource final : public StreamSource {
 public:
  explicit ManufacturingSource(ManufacturingConfig config);

  void open(uint32_t instance, uint32_t parallelism) override;
  bool next(Emitter& out, size_t budget) override;

 private:
  ManufacturingConfig config_;
  Xoshiro256 rng_;
  uint64_t quota_ = 0;
  uint64_t emitted_ = 0;
  int64_t sim_time_ms_ = 0;
  bool sensors_[ManufacturingSchema::kSensors] = {};
  bool valves_[ManufacturingSchema::kSensors] = {};
  uint32_t pending_actuation_[ManufacturingSchema::kSensors] = {};
  int32_t aux_[ManufacturingSchema::kTotalFields] = {};
};

/// Stage 2 of Figure 8: projects the 66-field reading down to the 6
/// interesting fields plus timestamp.
class SensorStateExtractor final : public StreamProcessor {
 public:
  void process(StreamPacket& packet, Emitter& out) override;
};

/// Stage 3 of Figure 8: emits an event per state *change* (sensor or
/// valve), keyed by sensor index — the "emit only on significant change"
/// pattern the paper uses to motivate flush timers.
class ChangeDetector final : public StreamProcessor {
 public:
  void process(StreamPacket& packet, Emitter& out) override;

 private:
  bool last_sensor_[ManufacturingSchema::kSensors] = {};
  bool last_valve_[ManufacturingSchema::kSensors] = {};
  bool primed_ = false;
};

/// Stage 4 of Figure 8: "monitor the delay between the sensor state change
/// and actuation of the corresponding valve over a 24-hour time window".
/// Tracks, per sensor, the last change timestamp and aggregates
/// sensor->valve delays in a sliding window; emits a summary on close.
class ActuationDelayMonitor final : public StreamProcessor {
 public:
  explicit ActuationDelayMonitor(int64_t window_ms = 24LL * 3600 * 1000);

  void process(StreamPacket& packet, Emitter& out) override;
  void close(Emitter& out) override;

  uint64_t delays_observed() const { return delays_observed_.load(std::memory_order_relaxed); }
  double mean_delay_ms() const;

 private:
  void expire(int64_t now_ms);

  const int64_t window_ms_;
  int64_t pending_change_ms_[ManufacturingSchema::kSensors];
  std::deque<std::pair<int64_t, int64_t>> window_;  // (event ms, delay ms)
  double window_delay_sum_ = 0;
  std::atomic<uint64_t> delays_observed_{0};
  std::atomic<uint64_t> delay_sum_ms_{0};
};

// --- file trace replay --------------------------------------------------------

/// Replays a CSV trace file as a stream, one packet per row, with columns
/// parsed per `schema` (the paper's DEBS-2012 dataset was such a trace).
/// Parallel instances partition rows round-robin (row % parallelism ==
/// instance), so the full file is emitted exactly once across the group.
class CsvReplaySource final : public StreamSource, public Checkpointable {
 public:
  /// `max_rows` == 0 replays the whole file. Throws std::runtime_error on
  /// open failure; malformed rows raise PacketFormatError at replay time.
  CsvReplaySource(std::string path, Schema schema, uint64_t max_rows = 0);
  ~CsvReplaySource() override;

  void open(uint32_t instance, uint32_t parallelism) override;
  bool next(Emitter& out, size_t budget) override;
  void close() override;

  uint64_t rows_emitted() const { return emitted_.load(std::memory_order_relaxed); }

  // Checkpointable: replay position. On restore, already-consumed rows are
  // fast-forwarded past without re-emission. Both cursors are relaxed atomics
  // so the recovery coordinator can snapshot them off-thread.
  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(row_index_.load(std::memory_order_relaxed));
    out.write_varint(emitted_.load(std::memory_order_relaxed));
  }
  void restore_state(ByteReader& in) override {
    resume_from_row_ = in.read_varint();
    emitted_.store(in.read_varint(), std::memory_order_relaxed);
  }

 private:
  struct FileState;
  std::string path_;
  Schema schema_;
  uint64_t max_rows_;
  uint32_t instance_ = 0;
  uint32_t parallelism_ = 1;
  std::atomic<uint64_t> row_index_{0};
  uint64_t resume_from_row_ = 0;
  std::atomic<uint64_t> emitted_{0};
  std::unique_ptr<FileState> file_;
};

/// Parse one CSV line into a packet per `schema`. Exposed for testing.
StreamPacket parse_csv_row(const std::string& line, const Schema& schema);

/// Terminal stage writing each packet as one CSV row (fields joined by
/// commas; strings are not quoted — intended for numeric telemetry dumps).
class CsvFileSink final : public StreamProcessor {
 public:
  explicit CsvFileSink(std::string path);
  ~CsvFileSink() override;

  void process(StreamPacket& packet, Emitter& out) override;
  void close(Emitter& out) override;

  uint64_t rows_written() const { return rows_; }

 private:
  struct FileState;
  std::string path_;
  uint64_t rows_ = 0;
  std::unique_ptr<FileState> file_;
};

}  // namespace neptune::workload
