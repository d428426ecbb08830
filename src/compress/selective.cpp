#include "compress/selective.hpp"

#include <cstring>

namespace neptune {

bool SelectiveCodec::should_compress(std::span<const uint8_t> src) const {
  switch (policy_.mode) {
    case CompressionMode::kOff: return false;
    case CompressionMode::kAlways: return src.size() >= policy_.min_payload_bytes;
    case CompressionMode::kSelective:
      if (src.size() < policy_.min_payload_bytes) return false;
      return byte_entropy_bits(src) < policy_.entropy_threshold;
  }
  return false;
}

bool SelectiveCodec::encode(std::span<const uint8_t> src, ByteBuffer& out) {
  bytes_in_.fetch_add(src.size(), std::memory_order_relaxed);
  if (should_compress(src)) {
    const size_t base = out.size();
    const size_t n = lz4::compress(src, out.grow(lz4::max_compressed_size(src.size())));
    // Selective mode also backs off when LZ4 failed to shrink the payload
    // (entropy is a heuristic; this is the ground truth).
    if (policy_.mode == CompressionMode::kAlways || n < src.size()) {
      out.resize(base + n);
      compressed_.fetch_add(1, std::memory_order_relaxed);
      bytes_out_.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    out.resize(base);
  }
  raw_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(src.size(), std::memory_order_relaxed);
  return false;
}

bool SelectiveCodec::decode(std::span<const uint8_t> src, bool compressed, size_t decoded_size,
                            std::vector<uint8_t>& out) const {
  if (!compressed) {
    if (src.size() != decoded_size) return false;
    out.assign(src.begin(), src.end());
    return true;
  }
  out.resize(decoded_size);
  ptrdiff_t n = lz4::decompress(src, out.data(), decoded_size);
  return n >= 0 && static_cast<size_t>(n) == decoded_size;
}

}  // namespace neptune
