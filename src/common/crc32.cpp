#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define NEPTUNE_CRC32_CLMUL 1
#endif

namespace neptune {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

struct Tables {
  std::array<std::array<uint32_t, 256>, 4> t{};
  constexpr Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? kPoly : 0);
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

constexpr Tables kTables{};

// Slicing-by-4 over the (pre-inverted) running register `c`.
uint32_t crc32_table(const uint8_t* p, size_t len, uint32_t c) {
  while (len >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
    c = kTables.t[3][c & 0xFF] ^ kTables.t[2][(c >> 8) & 0xFF] ^ kTables.t[1][(c >> 16) & 0xFF] ^
        kTables.t[0][c >> 24];
    p += 4;
    len -= 4;
  }
  while (len--) c = (c >> 8) ^ kTables.t[0][(c ^ *p++) & 0xFF];
  return c;
}

#ifdef NEPTUNE_CRC32_CLMUL

constexpr size_t kFoldMin = 64;

bool clmul_supported() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

// One folding step: carry-less multiplies each 64-bit half of `a` by its
// constant in `k`, which moves `a` forward by the distance `k` encodes,
// and XORs in the block `b` that lies there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i a, __m128i k, __m128i b) {
  __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), b);
}

// PCLMULQDQ folding over the running register `c` (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009; the
// constants are the reflected-domain ones from that paper). `len` is at
// least 64 and a multiple of 16. Four lanes fold 64 B per step, collapse
// into one lane that folds 16 B per step, then 128 -> 64 bits and a
// Barrett reduction leave the 32-bit register.
__attribute__((target("pclmul,sse4.1"))) uint32_t crc32_fold(const uint8_t* p, size_t len,
                                                              uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }

  __m128i x = fold(x0, k3k4, x1);
  x = fold(x, k3k4, x2);
  x = fold(x, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x = fold(x, k3k4, load(p));

  // 128 -> 64 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction: 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif  // NEPTUNE_CRC32_CLMUL

}  // namespace

uint32_t crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
#ifdef NEPTUNE_CRC32_CLMUL
  if (len >= kFoldMin && clmul_supported()) {
    const size_t n = len & ~size_t{15};
    c = crc32_fold(p, n, c);
    p += n;
    len -= n;
  }
#endif
  return ~crc32_table(p, len, c);
}

}  // namespace neptune
