// Order-insensitive stream digests — the golden-test currency of the
// scenario suite. A sink's digest must be byte-identical across runs,
// transports (inproc / fast lane / TCP) and parallel sink instances, while
// packet *arrival order* across instances is not deterministic. So the
// per-packet hash covers only the packet's typed data fields (never the
// header ingest timestamp, which is wall clock), and packets combine
// commutatively (modular sum + xor + count): any arrival order of the same
// multiset yields the same digest, and any loss, duplication or value
// corruption changes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "neptune/operators.hpp"
#include "neptune/packet.hpp"
#include "neptune/state.hpp"

namespace neptune::scenarios {

/// FNV-1a over the typed field contents (type tag + canonical bytes per
/// field). Excludes event_time_ns. Floats hash by bit pattern.
uint64_t packet_content_hash(const StreamPacket& packet);

/// Commutative digest accumulator, shared across the parallel instances of
/// one sink operator (relaxed atomics: instances never need to agree until
/// the job has drained).
class DigestAccumulator {
 public:
  void add(uint64_t packet_hash) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(packet_hash, std::memory_order_relaxed);
    xor_.fetch_xor(packet_hash, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t xor_value() const { return xor_.load(std::memory_order_relaxed); }

  /// "n<count>-s<sum16hex>-x<xor16hex>" — stable, grep-friendly.
  std::string digest() const;

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    xor_.store(0, std::memory_order_relaxed);
  }

  /// Overwrite the totals with absolute values (checkpoint restore). Unlike
  /// add(), this is idempotent: repeating it, or restoring over the totals
  /// of an earlier incarnation in the same process, changes nothing.
  void store(uint64_t count, uint64_t sum, uint64_t xor_value) {
    count_.store(count, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
    xor_.store(xor_value, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> xor_{0};
};

/// Terminal stage folding every packet into a shared DigestAccumulator.
/// Having no output links, the framework records end-to-end sink latency
/// here — the scenario benches read their percentiles off this operator.
///
/// Checkpointable so exactly-once digests survive a full-deployment restart
/// (chaos recovery): the snapshot, taken on the sink's thread at its
/// barrier, captures the accumulator's absolute totals, and restore
/// *stores* them back rather than adding — correct under re-submit into the
/// same process (the stale contribution of the old incarnation is
/// overwritten, not doubled). Those totals are a consistent cut only while
/// the sink has one instance, as every golden scenario's sinks do: parallel
/// instances share the accumulator but reach their barriers at different
/// times.
class DigestSink final : public StreamProcessor, public Checkpointable {
 public:
  explicit DigestSink(std::shared_ptr<DigestAccumulator> acc) : acc_(std::move(acc)) {}

  void process(StreamPacket& packet, Emitter&) override {
    acc_->add(packet_content_hash(packet));
  }

  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(acc_->count());
    out.write_u64(acc_->sum());
    out.write_u64(acc_->xor_value());
  }
  void restore_state(ByteReader& in) override {
    uint64_t count = in.read_varint();
    uint64_t sum = in.read_u64();
    uint64_t x = in.read_u64();
    acc_->store(count, sum, x);
  }

 private:
  std::shared_ptr<DigestAccumulator> acc_;
};

}  // namespace neptune::scenarios
