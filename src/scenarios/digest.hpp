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
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "neptune/operators.hpp"
#include "neptune/packet.hpp"
#include "neptune/state.hpp"

namespace neptune::scenarios {

/// FNV-1a over the typed field contents (type tag + canonical bytes per
/// field). Excludes event_time_ns. Floats hash by bit pattern.
uint64_t packet_content_hash(const StreamPacket& packet);

/// Commutative digest accumulator (relaxed atomics: readers never need
/// agreement until the job has drained). One sink operator's accumulator
/// combines its parallel instances' own accumulators, attached by instance.
class DigestAccumulator {
 public:
  void add(uint64_t packet_hash) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(packet_hash, std::memory_order_relaxed);
    xor_.fetch_xor(packet_hash, std::memory_order_relaxed);
  }

  /// Make `part` instance `instance`'s share, replacing the share of an
  /// earlier incarnation of that instance.
  void attach(uint32_t instance, std::shared_ptr<const DigestAccumulator> part);

  /// Packets in this accumulator and its attached parts.
  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }  ///< own only
  uint64_t xor_value() const { return xor_.load(std::memory_order_relaxed); }  ///< own only

  /// "n<count>-s<sum16hex>-x<xor16hex>" over this accumulator and its
  /// parts — stable, grep-friendly.
  std::string digest() const;

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
  mutable std::mutex mu_;
  std::map<uint32_t, std::shared_ptr<const DigestAccumulator>> parts_;
};

/// Terminal stage folding every packet into its own accumulator, attached
/// to the sink operator's shared one at open(). Having no output links, the
/// framework records end-to-end sink latency here — the scenario benches
/// read their percentiles off this operator.
///
/// Checkpointable so exactly-once digests survive a full-deployment restart
/// (chaos recovery): the snapshot, taken on the sink's thread at its
/// barrier, captures this instance's absolute totals — parallel instances
/// reach their barriers at different times, so each restores only its own
/// share. Restore *stores* them rather than adding, and the new
/// incarnation's accumulator replaces the old one's in the shared
/// accumulator, so the stale contribution is never doubled.
class DigestSink final : public StreamProcessor, public Checkpointable {
 public:
  explicit DigestSink(std::shared_ptr<DigestAccumulator> acc) : acc_(std::move(acc)) {}

  void open(uint32_t instance, uint32_t) override { acc_->attach(instance, own_); }
  void process(StreamPacket& packet, Emitter&) override {
    own_->add(packet_content_hash(packet));
  }

  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(own_->count());
    out.write_u64(own_->sum());
    out.write_u64(own_->xor_value());
  }
  void restore_state(ByteReader& in) override {
    uint64_t count = in.read_varint();
    uint64_t sum = in.read_u64();
    uint64_t x = in.read_u64();
    own_->store(count, sum, x);
  }

 private:
  std::shared_ptr<DigestAccumulator> acc_;
  std::shared_ptr<DigestAccumulator> own_ = std::make_shared<DigestAccumulator>();
};

}  // namespace neptune::scenarios
