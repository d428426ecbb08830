// CRC-32 (IEEE 802.3 polynomial, reflected) for frame integrity checks.
// On x86-64 CPUs with PCLMULQDQ (checked once at run time), the 16-byte
// multiple prefix of inputs of 64 B or more is folded with carry-less
// multiplies, 64 B per step. Shorter inputs, the <16 B tail, other CPUs
// and non-x86 builds use a slicing-by-4 table (4 bytes per iteration).
// Both paths give bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace neptune {

/// CRC-32 of a byte range. `seed` allows incremental computation:
/// crc32(ab) == crc32(b, crc32(a)).
uint32_t crc32(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t crc32(std::span<const uint8_t> s, uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

}  // namespace neptune
