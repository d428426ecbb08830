// Entropy-gated LZ4 codec (paper §III-B5). Policy:
//   mode kOff       — never compress
//   mode kAlways    — compress every payload
//   mode kSelective — compress only when byte entropy < threshold AND the
//                     compressed output is actually smaller
// Per-stream configuration is intentional: the paper concludes compression
// "should be enabled and configured for each stream individually".
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "compress/entropy.hpp"
#include "compress/lz4.hpp"

namespace neptune {

enum class CompressionMode : uint8_t { kOff = 0, kAlways = 1, kSelective = 2 };

struct CompressionPolicy {
  CompressionMode mode = CompressionMode::kOff;
  /// Payloads with byte entropy (bits/byte) at or above this are sent raw
  /// in kSelective mode. Sensor streams with repetitive readings sit well
  /// below 6; random/encrypted data sits near 8.
  double entropy_threshold = 6.0;
  /// Payloads smaller than this are never compressed (header overhead
  /// dominates).
  size_t min_payload_bytes = 64;
};

struct CodecStats {
  uint64_t payloads_compressed = 0;
  uint64_t payloads_raw = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  double compression_ratio() const {
    return bytes_out == 0 ? 1.0 : static_cast<double>(bytes_in) / static_cast<double>(bytes_out);
  }
};

class SelectiveCodec {
 public:
  explicit SelectiveCodec(CompressionPolicy policy = {}) : policy_(policy) {}

  const CompressionPolicy& policy() const { return policy_; }
  void set_policy(const CompressionPolicy& p) { policy_ = p; }

  /// Decide how `src` goes on the wire and count it. When the policy
  /// compresses it, the LZ4 block is appended to `out` and the result is
  /// true. Otherwise `out` is left as it was and the result is false: the
  /// caller sends `src` itself, so raw payloads are never copied.
  bool encode(std::span<const uint8_t> src, ByteBuffer& out);

  /// Decode an encoded payload produced by encode(). `compressed` is the
  /// flag returned by encode (carried in the frame header);
  /// `decoded_size` is the original size (also carried in the header).
  /// Returns false on malformed input.
  bool decode(std::span<const uint8_t> src, bool compressed, size_t decoded_size,
              std::vector<uint8_t>& out) const;

  CodecStats stats() const {
    CodecStats s;
    s.payloads_compressed = compressed_.load(std::memory_order_relaxed);
    s.payloads_raw = raw_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  bool should_compress(std::span<const uint8_t> src) const;

  CompressionPolicy policy_;
  std::atomic<uint64_t> compressed_{0};
  std::atomic<uint64_t> raw_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace neptune
