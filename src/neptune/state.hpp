// Operator state checkpointing — a prototype of the paper's stated future
// work ("developing algorithms for fault tolerant processing while reducing
// overheads that often accompany such schemes", §VI).
//
// Model: upstream backup. A checkpoint captures (a) each source's replay
// position and (b) each stateful processor's user state, each taken at the
// aligned barrier of one epoch (neptune/instance.hpp). Recovery submits
// the same graph again and restores the snapshot before start(); sources
// resume from their recorded positions, so nothing is lost and — because
// every state covers exactly the data sent before the barrier — nothing
// is duplicated either.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.hpp"

namespace neptune {

/// Opt-in interface for operators with state worth checkpointing. Sources
/// typically persist their replay position; processors their aggregation
/// state. snapshot_state runs on the instance's own thread at barrier
/// alignment (or once the instance terminated), restore_state before the
/// job starts: never concurrently with next()/process().
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void snapshot_state(ByteBuffer& out) const = 0;
  virtual void restore_state(ByteReader& in) = 0;
};

/// A job snapshot: per (operator id, instance) opaque state blocks, with a
/// byte-exact serialized form (magic, versioned, CRC-protected).
class JobSnapshot {
 public:
  static constexpr uint32_t kMagic = 0x4E505330;  // "NPS0"

  void put(const std::string& op_id, uint32_t instance, std::vector<uint8_t> state) {
    entries_[{op_id, instance}] = std::move(state);
  }

  const std::vector<uint8_t>* find(const std::string& op_id, uint32_t instance) const {
    auto it = entries_.find({op_id, instance});
    return it == entries_.end() ? nullptr : &it->second;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Serialize to bytes (for writing to durable storage).
  void serialize(ByteBuffer& out) const;

  /// Parse a serialized snapshot. Throws std::runtime_error on corruption
  /// (bad magic/CRC) or version mismatch.
  static JobSnapshot deserialize(std::span<const uint8_t> bytes);

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::map<std::pair<std::string, uint32_t>, std::vector<uint8_t>> entries_;
};

}  // namespace neptune
