#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/thread_util.hpp"

namespace neptune {
namespace {

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32("", 0), 0u); }

TEST(Crc32, KnownVectors) {
  const char* a = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(a, std::strlen(a)), 0x414FA339u);
  std::array<uint8_t, 4> zeros{0, 0, 0, 0};
  EXPECT_EQ(crc32(zeros.data(), 4), 0x2144DF1Cu);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char* s = "incremental-crc-computation-over-chunks";
  size_t n = std::strlen(s);
  uint32_t whole = crc32(s, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t part = crc32(s, split);
    uint32_t all = crc32(s + split, n - split, part);
    EXPECT_EQ(all, whole) << "split=" << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::array<uint8_t, 64> buf{};
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i * 7);
  uint32_t orig = crc32(buf.data(), buf.size());
  for (size_t byte = 0; byte < buf.size(); byte += 9) {
    buf[byte] ^= 0x10;
    EXPECT_NE(crc32(buf.data(), buf.size()), orig);
    buf[byte] ^= 0x10;
  }
}

// Shift-register CRC-32, one bit at a time: the definition the fast paths
// must reproduce.
uint32_t crc32_bitwise(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthOffsetAndSplit) {
  constexpr size_t kMaxLen = 70 * 1024;
  Xoshiro256 rng(0xC4C32);
  std::vector<uint8_t> src(kMaxLen);
  for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
  // The same bytes are copied to each offset 0-15 from a 64-byte boundary,
  // so one reference value covers every alignment of a case.
  std::vector<uint8_t> storage(kMaxLen + 128);
  uint8_t* base = storage.data() + (-reinterpret_cast<uintptr_t>(storage.data()) & 63);

  auto check = [&](size_t len, uint32_t seed) {
    const uint32_t want = crc32_bitwise(src.data(), len, seed);
    for (size_t off = 0; off < 16; ++off) {
      std::memcpy(base + off, src.data(), len);
      ASSERT_EQ(crc32(base + off, len, seed), want)
          << "len=" << len << " offset=" << off << " seed=" << seed;
    }
  };
  for (size_t len = 0; len <= 1100; ++len) {
    ASSERT_NO_FATAL_FAILURE(check(len, 0));
    ASSERT_NO_FATAL_FAILURE(check(len, rng.next_u32()));
  }
  for (int i = 0; i < 24; ++i) {
    const size_t len = 1101 + rng.next_below(kMaxLen - 1100);
    ASSERT_NO_FATAL_FAILURE(check(len, 0));
    ASSERT_NO_FATAL_FAILURE(check(len, rng.next_u32()));
  }

  // Incremental: crc32(b, crc32(a)) == crc32(ab) with a split on each side
  // of the 64 B kernel threshold and the 16 B fold step.
  for (size_t n : {size_t{200}, size_t{4099}}) {
    const uint32_t want = crc32_bitwise(src.data(), n, 0);
    for (size_t split : {63, 64, 65, 79, 80, 81, 127, 128}) {
      for (size_t first : {split, n - split}) {
        const uint32_t head = crc32(src.data(), first);
        EXPECT_EQ(crc32(src.data() + first, n - first, head), want)
            << "n=" << n << " first=" << first;
      }
    }
  }
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
  }
  bool any_diff = false;
  Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Xoshiro, RoughlyUniform) {
  Xoshiro256 rng(11);
  std::array<int, 16> bins{};
  constexpr int kN = 160000;
  for (int i = 0; i < kN; ++i) ++bins[rng.next_below(16)];
  for (int b : bins) {
    EXPECT_GT(b, kN / 16 * 0.9);
    EXPECT_LT(b, kN / 16 * 1.1);
  }
}

TEST(Xoshiro, NoShortCycles) {
  Xoshiro256 rng(1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.next_u64());
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Clock, MonotoneNonDecreasing) {
  int64_t a = now_ns();
  int64_t b = now_ns();
  EXPECT_GE(b, a);
}

TEST(Clock, ManualClockAdvances) {
  ManualClock c(100);
  EXPECT_EQ(c.now_ns(), 100);
  c.advance_ns(50);
  EXPECT_EQ(c.now_ns(), 150);
  c.set_ns(7);
  EXPECT_EQ(c.now_ns(), 7);
}

TEST(Clock, StopwatchMeasuresElapsed) {
  Stopwatch sw;
  int64_t t0 = sw.elapsed_ns();
  // A little busy loop; elapsed must be non-decreasing and positive.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.elapsed_ns(), t0);
  EXPECT_GT(sw.elapsed_s(), 0.0);
}

TEST(ThreadUtil, ContextSwitchCountersReadable) {
  // A fresh, short-lived process may not have switched yet: both counters
  // are then really 0. Block once so there is a switch to count. nanosleep
  // enters schedule() (voluntary) unless its timer already expired, which
  // means the thread was preempted (nonvoluntary) - a switch either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The thread reader reports the kernel's own counters, which getrusage
  // brackets: they only grow, so the read lies between two samples.
  rusage before{};
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_THREAD, &before), 0);
  auto t = read_thread_context_switches();
  ASSERT_EQ(getrusage(RUSAGE_THREAD, &after), 0);
  EXPECT_GE(t.voluntary, static_cast<uint64_t>(before.ru_nvcsw));
  EXPECT_LE(t.voluntary, static_cast<uint64_t>(after.ru_nvcsw));
  EXPECT_GE(t.nonvoluntary, static_cast<uint64_t>(before.ru_nivcsw));
  EXPECT_LE(t.nonvoluntary, static_cast<uint64_t>(after.ru_nivcsw));
  EXPECT_GT(t.total(), 0u);

  // The process sum covers every live thread, the calling one included.
  auto cs = read_context_switches();
  EXPECT_GE(cs.total(), t.total());
}

TEST(ThreadUtil, SetThreadNameDoesNotCrash) {
  set_thread_name("neptune-test-very-long-name-truncated");
  SUCCEED();
}

}  // namespace
}  // namespace neptune
