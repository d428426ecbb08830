#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/carve.hpp"
#include "common/rng.hpp"

namespace neptune {
namespace {

using test_util::carve_frames;

std::vector<uint8_t> make_payload(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(seed + i * 7);
  return p;
}

ByteBuffer encode_one(uint32_t link, uint32_t count, const std::vector<uint8_t>& payload,
                      uint8_t flags = 0) {
  FrameHeader h;
  h.link_id = link;
  h.batch_count = count;
  h.raw_size = static_cast<uint32_t>(payload.size());
  h.flags = flags;
  ByteBuffer out;
  encode_frame(h, payload, out);
  return out;
}

TEST(Frame, EncodeDecodeRoundTrip) {
  auto payload = make_payload(500);
  ByteBuffer wire = encode_one(7, 42, payload, FrameHeader::kFlagCompressed);
  auto decoded = decode_whole_frame(wire.contents());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.link_id, 7u);
  EXPECT_EQ(decoded->header.batch_count, 42u);
  EXPECT_TRUE(decoded->header.compressed());
  EXPECT_EQ(std::vector<uint8_t>(decoded->payload.begin(), decoded->payload.end()), payload);
}

TEST(Frame, EmptyPayload) {
  std::vector<uint8_t> empty;
  ByteBuffer wire = encode_one(1, 0, empty);
  auto decoded = decode_whole_frame(wire.contents());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), 0u);
}

TEST(Frame, DetectsBadMagic) {
  auto payload = make_payload(32);
  ByteBuffer wire = encode_one(1, 1, payload);
  wire.data()[0] ^= 0xFF;
  FrameDecodeStatus status;
  EXPECT_FALSE(decode_whole_frame(wire.contents(), &status).has_value());
  EXPECT_EQ(status, FrameDecodeStatus::kBadMagic);
}

TEST(Frame, DetectsCorruptPayload) {
  auto payload = make_payload(64);
  ByteBuffer wire = encode_one(1, 1, payload);
  wire.data()[FrameHeader::kSize + 10] ^= 0x01;
  FrameDecodeStatus status;
  EXPECT_FALSE(decode_whole_frame(wire.contents(), &status).has_value());
  EXPECT_EQ(status, FrameDecodeStatus::kBadChecksum);
}

TEST(Frame, DetectsTruncation) {
  auto payload = make_payload(64);
  ByteBuffer wire = encode_one(1, 1, payload);
  FrameDecodeStatus status;
  EXPECT_FALSE(
      decode_whole_frame(std::span(wire.data(), wire.size() - 5), &status).has_value());
  EXPECT_EQ(status, FrameDecodeStatus::kNeedMore);
}

TEST(Frame, RejectsOversizedDeclaredPayload) {
  auto payload = make_payload(32);
  ByteBuffer wire = encode_one(1, 1, payload);
  wire.patch_u32(15, FrameHeader::kMaxPayload + 1);  // payload_size field
  FrameDecodeStatus status;
  EXPECT_FALSE(decode_whole_frame(wire.contents(), &status).has_value());
  EXPECT_EQ(status, FrameDecodeStatus::kBadLength);
}

TEST(Frame, ControlFlagsRoundTrip) {
  // The supervised-channel control plane rides on header flags; they must
  // survive the wire and be distinguishable from data frames.
  for (uint8_t flag : {FrameHeader::kFlagEof, FrameHeader::kFlagHeartbeat, FrameHeader::kFlagAck}) {
    auto payload = make_payload(8);
    ByteBuffer wire = encode_one(3, 0, payload, flag);
    auto decoded = decode_whole_frame(wire.contents());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->header.flags, flag);
    EXPECT_TRUE(decoded->header.control());
  }
  ByteBuffer data = encode_one(3, 1, make_payload(8));
  EXPECT_FALSE(decode_whole_frame(data.contents())->header.control());
}

TEST(Frame, TruncatedHeaderNeedsMore) {
  auto payload = make_payload(16);
  ByteBuffer wire = encode_one(1, 1, payload);
  for (size_t n = 0; n < FrameHeader::kSize; ++n) {
    FrameDecodeStatus status;
    EXPECT_FALSE(decode_whole_frame(std::span(wire.data(), n), &status).has_value());
    EXPECT_EQ(status, FrameDecodeStatus::kNeedMore) << "prefix " << n;
  }
}

TEST(Frame, SingleByteFlipNeverYieldsCorruptPayload) {
  // Flip every byte of the wire frame in turn. Payload corruption must be
  // caught by the CRC; header corruption either fails decoding or leaves
  // the payload intact (misrouted headers are the runtime's per-edge
  // sequence checks' job — defence in depth, not the frame layer's).
  auto payload = make_payload(48);
  ByteBuffer wire = encode_one(5, 9, payload);
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> bent(wire.data(), wire.data() + wire.size());
    bent[i] ^= 0xA5;
    auto decoded = decode_whole_frame(bent);
    if (decoded.has_value()) {
      EXPECT_EQ(std::vector<uint8_t>(decoded->payload.begin(), decoded->payload.end()), payload)
          << "flip at byte " << i << " decoded with altered payload";
    }
  }
}

TEST(Frame, TrailingBytesAreNotAFrame) {
  // A buffer carries exactly one frame: anything past it is corruption.
  ByteBuffer wire = encode_one(1, 1, make_payload(16));
  wire.write_u8(0);
  FrameDecodeStatus status;
  EXPECT_FALSE(decode_whole_frame(wire.contents(), &status).has_value());
  EXPECT_EQ(status, FrameDecodeStatus::kBadLength);
}

TEST(Frame, PeekExtentNamesTheWholeFrame) {
  ByteBuffer wire = encode_one(2, 3, make_payload(40));
  size_t extent = 0;
  EXPECT_EQ(peek_frame_extent(wire.contents(), &extent), FrameDecodeStatus::kFrame);
  EXPECT_EQ(extent, wire.size());
  // The header alone suffices; no payload bytes (or CRC) are needed.
  EXPECT_EQ(peek_frame_extent(std::span(wire.data(), FrameHeader::kSize), &extent),
            FrameDecodeStatus::kFrame);
  EXPECT_EQ(peek_frame_extent(std::span(wire.data(), FrameHeader::kSize - 1), &extent),
            FrameDecodeStatus::kNeedMore);
}

TEST(FrameCarving, ReassemblesAcrossArbitraryChunking) {
  // Several frames, fed one byte at a time.
  ByteBuffer stream;
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(make_payload(50 + static_cast<size_t>(i) * 37, static_cast<uint8_t>(i)));
    FrameHeader h;
    h.link_id = static_cast<uint32_t>(i);
    h.batch_count = static_cast<uint32_t>(i + 1);
    h.raw_size = static_cast<uint32_t>(payloads.back().size());
    encode_frame(h, payloads.back(), stream);
  }

  std::vector<uint8_t> pending;
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> got;
  for (size_t i = 0; i < stream.size(); ++i) {
    auto s = carve_frames(pending, std::span(stream.data() + i, 1), [&](const DecodedFrame& f) {
      got.emplace_back(f.header.link_id,
                       std::vector<uint8_t>(f.payload.begin(), f.payload.end()));
    });
    ASSERT_EQ(s, FrameDecodeStatus::kNeedMore) << "byte " << i;
  }
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].first, static_cast<uint32_t>(i));
    EXPECT_EQ(got[static_cast<size_t>(i)].second, payloads[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(pending.empty());
}

TEST(FrameCarving, HandlesMultipleFramesInOneChunk) {
  ByteBuffer stream;
  for (int i = 0; i < 3; ++i) {
    auto payload = make_payload(100);
    FrameHeader h;
    h.raw_size = 100;
    h.batch_count = 1;
    encode_frame(h, payload, stream);
  }
  std::vector<uint8_t> pending;
  int frames = 0;
  auto s = carve_frames(pending, stream.contents(), [&](const DecodedFrame&) { ++frames; });
  EXPECT_EQ(s, FrameDecodeStatus::kNeedMore);
  EXPECT_EQ(frames, 3);
  EXPECT_TRUE(pending.empty());
}

TEST(FrameCarving, SurfacesCorruptionMidStream) {
  ByteBuffer stream;
  auto p1 = make_payload(40);
  FrameHeader h;
  h.raw_size = 40;
  encode_frame(h, p1, stream);
  size_t second_start = stream.size();
  encode_frame(h, p1, stream);
  stream.data()[second_start] ^= 0xFF;  // corrupt second frame's magic

  std::vector<uint8_t> pending;
  int frames = 0;
  auto s = carve_frames(pending, stream.contents(), [&](const DecodedFrame&) { ++frames; });
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(s, FrameDecodeStatus::kBadMagic);
}

TEST(FrameCarving, RandomizedChunkingSweep) {
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    ByteBuffer stream;
    int n_frames = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < n_frames; ++i) {
      auto payload = make_payload(rng.next_below(2000), static_cast<uint8_t>(trial));
      FrameHeader h;
      h.raw_size = static_cast<uint32_t>(payload.size());
      h.batch_count = static_cast<uint32_t>(i);
      encode_frame(h, payload, stream);
    }
    std::vector<uint8_t> pending;
    int got = 0;
    size_t pos = 0;
    while (pos < stream.size()) {
      size_t chunk = std::min<size_t>(stream.size() - pos, 1 + rng.next_below(700));
      auto s = carve_frames(pending, std::span(stream.data() + pos, chunk),
                            [&](const DecodedFrame&) { ++got; });
      ASSERT_EQ(s, FrameDecodeStatus::kNeedMore);
      pos += chunk;
    }
    EXPECT_EQ(got, n_frames) << "trial " << trial;
    EXPECT_TRUE(pending.empty()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace neptune
