#include "compress/selective.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace neptune {
namespace {

std::vector<uint8_t> low_entropy_payload(size_t n) {
  // Long runs over few distinct symbols: entropy ~log2(n/256) bits/byte,
  // well under the default 6.0 threshold for the sizes used here.
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>((i / 256) % 16);
  return v;
}

std::vector<uint8_t> high_entropy_payload(size_t n, uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng.next_u64());
  return v;
}

std::vector<uint8_t> bytes_of(const ByteBuffer& b) {
  return std::vector<uint8_t>(b.contents().begin(), b.contents().end());
}

TEST(SelectiveCodec, OffModeNeverCompresses) {
  SelectiveCodec codec({.mode = CompressionMode::kOff});
  auto payload = low_entropy_payload(4096);
  ByteBuffer out;
  EXPECT_FALSE(codec.encode(payload, out));
  EXPECT_TRUE(out.empty());  // raw: the caller sends `payload` itself, uncopied
  EXPECT_EQ(codec.stats().payloads_compressed, 0u);
  EXPECT_EQ(codec.stats().payloads_raw, 1u);
}

TEST(SelectiveCodec, AlwaysModeCompressesCompressible) {
  SelectiveCodec codec({.mode = CompressionMode::kAlways});
  auto payload = low_entropy_payload(4096);
  ByteBuffer out;
  EXPECT_TRUE(codec.encode(payload, out));
  EXPECT_LT(out.size(), payload.size());
  EXPECT_GT(codec.stats().compression_ratio(), 2.0);
}

TEST(SelectiveCodec, SelectiveSkipsHighEntropy) {
  SelectiveCodec codec({.mode = CompressionMode::kSelective, .entropy_threshold = 6.0});
  auto payload = high_entropy_payload(4096);
  ByteBuffer out;
  EXPECT_FALSE(codec.encode(payload, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(codec.stats().payloads_raw, 1u);
}

TEST(SelectiveCodec, SelectiveCompressesLowEntropy) {
  SelectiveCodec codec({.mode = CompressionMode::kSelective, .entropy_threshold = 6.0});
  auto payload = low_entropy_payload(4096);
  ByteBuffer out;
  EXPECT_TRUE(codec.encode(payload, out));
  EXPECT_LT(out.size(), payload.size());
}

TEST(SelectiveCodec, SmallPayloadsAreNeverCompressed) {
  SelectiveCodec codec(
      {.mode = CompressionMode::kAlways, .min_payload_bytes = 64});
  std::vector<uint8_t> tiny(32, 0);
  ByteBuffer out;
  EXPECT_FALSE(codec.encode(tiny, out));
  EXPECT_TRUE(out.empty());
}

TEST(SelectiveCodec, DecodeRoundTripCompressed) {
  SelectiveCodec codec({.mode = CompressionMode::kSelective});
  auto payload = low_entropy_payload(10000);
  ByteBuffer wire;
  bool compressed = codec.encode(payload, wire);
  ASSERT_TRUE(compressed);
  std::vector<uint8_t> back;
  ASSERT_TRUE(codec.decode(wire.contents(), compressed, payload.size(), back));
  EXPECT_EQ(back, payload);
}

TEST(SelectiveCodec, DecodeRoundTripRaw) {
  SelectiveCodec codec({.mode = CompressionMode::kOff});
  auto payload = high_entropy_payload(333);
  ByteBuffer wire;
  bool compressed = codec.encode(payload, wire);
  ASSERT_FALSE(compressed);
  EXPECT_TRUE(wire.empty());  // the raw wire payload is `payload` itself
  std::vector<uint8_t> back;
  ASSERT_TRUE(codec.decode(payload, compressed, payload.size(), back));
  EXPECT_EQ(back, payload);
}

TEST(SelectiveCodec, DecodeRejectsWrongSize) {
  SelectiveCodec codec({.mode = CompressionMode::kSelective});
  auto payload = low_entropy_payload(2048);
  ByteBuffer out;
  bool compressed = codec.encode(payload, out);
  ASSERT_TRUE(compressed);
  auto wire = bytes_of(out);
  std::vector<uint8_t> back;
  EXPECT_FALSE(codec.decode(wire, compressed, payload.size() + 1, back));
  EXPECT_FALSE(codec.decode(wire, compressed, payload.size() - 1, back));
  // Raw with mismatched size is also rejected.
  EXPECT_FALSE(codec.decode(wire, /*compressed=*/false, wire.size() + 4, back));
}

TEST(SelectiveCodec, DecodeRejectsCorruptedPayload) {
  SelectiveCodec codec({.mode = CompressionMode::kSelective});
  auto payload = low_entropy_payload(2048);
  ByteBuffer out;
  ASSERT_TRUE(codec.encode(payload, out));
  auto wire = bytes_of(out);
  std::vector<uint8_t> back;
  // Truncation must be detected via size mismatch or decode failure.
  std::vector<uint8_t> truncated(wire.begin(), wire.begin() + static_cast<long>(wire.size() / 2));
  EXPECT_FALSE(codec.decode(truncated, true, payload.size(), back));
}

TEST(SelectiveCodec, StatsAccumulateAcrossPayloads) {
  SelectiveCodec codec({.mode = CompressionMode::kSelective, .entropy_threshold = 6.0});
  ByteBuffer out;
  codec.encode(low_entropy_payload(1000), out);
  codec.encode(high_entropy_payload(1000), out);
  codec.encode(low_entropy_payload(1000), out);
  auto s = codec.stats();
  EXPECT_EQ(s.payloads_compressed, 2u);
  EXPECT_EQ(s.payloads_raw, 1u);
  EXPECT_EQ(s.bytes_in, 3000u);
  EXPECT_LT(s.bytes_out, s.bytes_in);
  // Exact: the two LZ4 blocks appended to `out`, plus the raw payload.
  EXPECT_EQ(s.bytes_out, out.size() + 1000);
}

TEST(SelectiveCodec, SelectiveBacksOffWhenLz4DoesNotShrink) {
  // Entropy below threshold but not actually compressible within LZ4's
  // 4-byte match model: alternating unique pairs. The codec must fall back
  // to raw rather than ship an expanded payload.
  SelectiveCodec codec({.mode = CompressionMode::kSelective, .entropy_threshold = 7.9});
  Xoshiro256 rng(8);
  std::vector<uint8_t> tricky(4096);
  for (auto& b : tricky) b = static_cast<uint8_t>(rng.next_below(180));
  // `out` already holds a frame header's room: encode appends after it, and
  // a backed-off attempt leaves it exactly as it was.
  ByteBuffer out;
  out.write_bytes(std::vector<uint8_t>(23, 0xEE));
  bool compressed = codec.encode(tricky, out);
  if (!compressed) {
    EXPECT_EQ(bytes_of(out), std::vector<uint8_t>(23, 0xEE));
    EXPECT_EQ(codec.stats().payloads_raw, 1u);
    EXPECT_EQ(codec.stats().bytes_out, tricky.size());
  }
  EXPECT_LE(out.size(), 23 + tricky.size());
}

}  // namespace
}  // namespace neptune
