// Property-based serde tests: packet and frame round-trips over seeded
// random inputs, with minimal-input shrinking. A failing property does not
// just dump the offending value — it first shrinks it (remove fields, halve
// blobs, zero scalars) to a locally-minimal reproducer and prints that plus
// the seed. NEPTUNE_PROP_SEEDS scales the number of cases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/carve.hpp"
#include "../support/proptest.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "neptune/packet.hpp"

namespace neptune {
namespace {

// --- generators --------------------------------------------------------------

Value random_value(Xoshiro256& rng) {
  switch (rng.next_below(7)) {
    case 0: return Value(static_cast<int32_t>(rng.next_u64()));
    case 1: return Value(static_cast<int64_t>(rng.next_u64()));
    case 2: return Value(static_cast<float>(static_cast<int32_t>(rng.next_u64())) / 7.0f);
    case 3: return Value(static_cast<double>(static_cast<int64_t>(rng.next_u64())) / 13.0);
    case 4: return Value(rng.next_below(2) == 1);
    case 5: {
      std::string s(rng.next_below(64), '\0');
      for (auto& c : s) c = static_cast<char>('!' + rng.next_below(94));
      return Value(std::move(s));
    }
    default: {
      std::vector<uint8_t> b(rng.next_below(200), 0);
      for (auto& x : b) x = static_cast<uint8_t>(rng.next_u64());
      return Value(std::move(b));
    }
  }
}

StreamPacket random_packet(Xoshiro256& rng) {
  StreamPacket p;
  p.set_event_time_ns(static_cast<int64_t>(rng.next_u64() >> 1));
  size_t fields = rng.next_below(13);
  for (size_t i = 0; i < fields; ++i) p.add(random_value(rng));
  return p;
}

std::string describe(const StreamPacket& p) {
  std::string out = "packet{t=" + std::to_string(p.event_time_ns());
  for (size_t i = 0; i < p.field_count(); ++i) {
    out += ", ";
    out += field_type_name(value_type(p.field(i)));
  }
  return out + "}";
}

// --- shrinking ---------------------------------------------------------------

/// Minimal failing packet: greedily drop whole fields, then shrink surviving
/// fields (truncate blobs/strings by halves, zero scalars) while `fails`
/// stays true.
StreamPacket minimize_packet(StreamPacket p,
                             const std::function<bool(const StreamPacket&)>& fails) {
  auto rebuild = [](const StreamPacket& from, size_t skip) {
    StreamPacket q;
    q.set_event_time_ns(from.event_time_ns());
    for (size_t i = 0; i < from.field_count(); ++i)
      if (i != skip) q.add(from.field(i));
    return q;
  };
  // Pass 1: drop fields until no single removal still fails.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < p.field_count(); ++i) {
      StreamPacket candidate = rebuild(p, i);
      if (fails(candidate)) {
        p = std::move(candidate);
        progressed = true;
        break;
      }
    }
  }
  // Pass 2: shrink field contents and the timestamp.
  auto try_replace = [&](size_t i, Value v) {
    StreamPacket candidate = rebuild(p, p.field_count());  // copy all
    candidate.field(i) = std::move(v);
    if (fails(candidate)) {
      p = std::move(candidate);
      return true;
    }
    return false;
  };
  for (size_t i = 0; i < p.field_count(); ++i) {
    const Value& v = p.field(i);
    if (const auto* s = std::get_if<std::string>(&v)) {
      for (size_t len = s->size() / 2; !s->empty(); len /= 2) {
        if (!try_replace(i, Value(std::string(p.str(i).substr(0, len))))) break;
        if (len == 0) break;
      }
    } else if (const auto* b = std::get_if<std::vector<uint8_t>>(&v)) {
      for (size_t len = b->size() / 2; !b->empty(); len /= 2) {
        const auto& cur = p.bytes(i);
        if (!try_replace(i, Value(std::vector<uint8_t>(cur.begin(), cur.begin() + len)))) break;
        if (len == 0) break;
      }
    } else if (std::holds_alternative<int64_t>(v)) {
      try_replace(i, Value(int64_t{0}));
    } else if (std::holds_alternative<int32_t>(v)) {
      try_replace(i, Value(int32_t{0}));
    } else if (std::holds_alternative<float>(v)) {
      try_replace(i, Value(0.0f));
    } else if (std::holds_alternative<double>(v)) {
      try_replace(i, Value(0.0));
    }
  }
  {
    StreamPacket candidate = rebuild(p, p.field_count());
    candidate.set_event_time_ns(0);
    if (fails(candidate)) p = std::move(candidate);
  }
  return p;
}

// --- properties --------------------------------------------------------------

bool roundtrips(const StreamPacket& p) {
  ByteBuffer buf;
  p.serialize(buf);
  if (buf.size() != p.serialized_size()) return false;
  ByteReader in(buf.contents());
  StreamPacket back;
  back.add_string("stale");  // deserialize must fully reset reused storage
  try {
    back.deserialize(in);
  } catch (const std::exception&) {
    return false;
  }
  return back == p && in.remaining() == 0;
}

/// The zero-copy view decoder must agree with deserialize(): same fields,
/// same values, same hashes, same end offset — and materialize() must
/// reproduce the original packet exactly.
bool view_matches(const StreamPacket& p) {
  ByteBuffer buf;
  p.serialize(buf);
  PacketView v;
  try {
    if (v.parse(buf.contents()) != buf.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  if (v.event_time_ns() != p.event_time_ns()) return false;
  if (v.field_count() != p.field_count()) return false;
  for (size_t i = 0; i < p.field_count(); ++i) {
    if (v.type(i) != value_type(p.field(i))) return false;
    if (v.field_hash(i) != p.field_hash(i)) return false;
  }
  StreamPacket back;
  back.add_string("stale");  // materialize must fully reset reused storage
  v.materialize(back);
  return back == p;
}

class SerdeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeProperty, ViewDecodeMatchesDeserialize) {
  Xoshiro256 rng(GetParam() ^ 0x5EED);
  for (int reps = 0; reps < 50; ++reps) {
    StreamPacket p = random_packet(rng);
    if (!view_matches(p)) {
      StreamPacket minimal =
          minimize_packet(p, [](const StreamPacket& q) { return !view_matches(q); });
      FAIL() << "view/deserialize divergence, seed=" << GetParam()
             << "\n  original: " << describe(p)
             << "\n  minimal reproducer: " << describe(minimal);
    }
  }
}

TEST_P(SerdeProperty, ViewRejectsEveryTruncatedPrefix) {
  Xoshiro256 rng(GetParam() ^ 0x7C0B);
  StreamPacket p = random_packet(rng);
  ByteBuffer buf;
  p.serialize(buf);
  auto wire = buf.contents();
  for (size_t len = 0; len < wire.size(); ++len) {
    PacketView v;
    EXPECT_THROW(v.parse(wire.subspan(0, len)), PacketFormatError)
        << "seed=" << GetParam() << " prefix " << len << "/" << wire.size();
  }
}

TEST_P(SerdeProperty, PacketRoundTripsThroughWireFormat) {
  Xoshiro256 rng(GetParam());
  for (int reps = 0; reps < 50; ++reps) {
    StreamPacket p = random_packet(rng);
    if (!roundtrips(p)) {
      StreamPacket minimal =
          minimize_packet(p, [](const StreamPacket& q) { return !roundtrips(q); });
      FAIL() << "packet round-trip failed, seed=" << GetParam()
             << "\n  original: " << describe(p) << "\n  minimal reproducer: "
             << describe(minimal);
    }
  }
}

TEST_P(SerdeProperty, ConcatenatedPacketsDeserializeInOrder) {
  Xoshiro256 rng(GetParam() ^ 0xC0FFEE);
  std::vector<StreamPacket> batch;
  ByteBuffer buf;
  size_t n = 1 + rng.next_below(20);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(random_packet(rng));
    batch.back().serialize(buf);
  }
  ByteReader in(buf.contents());
  StreamPacket back;  // one reused object, as the runtime does
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NO_THROW(back.deserialize(in)) << "seed=" << GetParam() << " packet " << i;
    EXPECT_EQ(back, batch[i]) << "seed=" << GetParam() << " packet " << i;
  }
  EXPECT_EQ(in.remaining(), 0u);
}

TEST_P(SerdeProperty, FrameRoundTripsThroughArbitraryChunking) {
  Xoshiro256 rng(GetParam() ^ 0xF7A3E);
  // Random payload wrapped in a frame, then fed to the stream carver in
  // random chunk sizes — carving must reproduce header and payload exactly.
  std::vector<uint8_t> payload(rng.next_below(2000), 0);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.next_u64());
  FrameHeader h;
  h.link_id = static_cast<uint32_t>(rng.next_u64());
  h.batch_count = static_cast<uint32_t>(rng.next_below(1000));
  h.raw_size = static_cast<uint32_t>(payload.size());
  ByteBuffer wire;
  encode_frame(h, payload, wire);

  std::vector<uint8_t> pending;
  std::vector<uint8_t> got;
  FrameHeader got_h;
  int frames = 0;
  auto span = wire.contents();
  size_t off = 0;
  while (off < span.size()) {
    size_t chunk = 1 + rng.next_below(97);
    chunk = std::min(chunk, span.size() - off);
    auto st = test_util::carve_frames(pending, span.subspan(off, chunk),
                                      [&](const DecodedFrame& f) {
                                        got_h = f.header;
                                        got.assign(f.payload.begin(), f.payload.end());
                                        ++frames;
                                      });
    ASSERT_EQ(st, FrameDecodeStatus::kNeedMore)
        << "seed=" << GetParam() << " status=" << static_cast<int>(st);
    off += chunk;
  }
  ASSERT_EQ(frames, 1) << "seed=" << GetParam();
  EXPECT_EQ(got_h.link_id, h.link_id);
  EXPECT_EQ(got_h.batch_count, h.batch_count);
  EXPECT_EQ(got, payload) << "seed=" << GetParam();
  EXPECT_TRUE(pending.empty());
}

TEST_P(SerdeProperty, TruncatedAndCorruptedFramesAreRejected) {
  Xoshiro256 rng(GetParam() ^ 0x77AA);
  std::vector<uint8_t> payload(1 + rng.next_below(500), 0);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.next_u64());
  FrameHeader h;
  h.link_id = 7;
  h.batch_count = 3;
  h.raw_size = static_cast<uint32_t>(payload.size());
  ByteBuffer wire;
  encode_frame(h, payload, wire);
  auto span = wire.contents();

  // Any strict prefix is incomplete: not a frame, and a carver keeps
  // waiting for the rest.
  int frames = 0;
  auto prefix = span.subspan(0, rng.next_below(span.size()));
  FrameDecodeStatus st;
  EXPECT_FALSE(decode_whole_frame(prefix, &st).has_value()) << "seed=" << GetParam();
  EXPECT_EQ(st, FrameDecodeStatus::kNeedMore);
  std::vector<uint8_t> pending;
  st = test_util::carve_frames(pending, prefix, [&](const DecodedFrame&) { ++frames; });
  EXPECT_EQ(frames, 0) << "seed=" << GetParam();
  EXPECT_EQ(st, FrameDecodeStatus::kNeedMore);

  // Flipping any payload byte must trip the CRC, never deliver the frame.
  std::vector<uint8_t> bad(span.begin(), span.end());
  bad[FrameHeader::kSize + rng.next_below(payload.size())] ^= 0x01;
  EXPECT_FALSE(decode_whole_frame(bad, &st).has_value()) << "seed=" << GetParam();
  EXPECT_EQ(st, FrameDecodeStatus::kBadChecksum) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeProperty,
                         ::testing::ValuesIn(proptest::seed_series(101, 37)),
                         [](const ::testing::TestParamInfo<uint64_t>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// --- the shrinker itself must work -------------------------------------------

TEST(Shrinking, MinimizePacketFindsSingleOffendingField) {
  // Artificial property: "fails" iff the packet contains an odd int64.
  auto has_odd_i64 = [](const StreamPacket& p) {
    for (size_t i = 0; i < p.field_count(); ++i)
      if (const auto* v = std::get_if<int64_t>(&p.field(i)))
        if (*v % 2 != 0) return true;
    return false;
  };
  Xoshiro256 rng(4242);
  StreamPacket big = random_packet(rng);
  big.add_string("decoy");
  big.add_i64(12345);  // the culprit
  big.add_bytes(std::vector<uint8_t>(100, 0xAB));
  ASSERT_TRUE(has_odd_i64(big));

  StreamPacket minimal = minimize_packet(big, has_odd_i64);
  ASSERT_EQ(minimal.field_count(), 1u);
  ASSERT_TRUE(std::holds_alternative<int64_t>(minimal.field(0)));
  EXPECT_NE(minimal.i64(0) % 2, 0);
  EXPECT_EQ(minimal.event_time_ns(), 0);
}

TEST(Shrinking, ShrinkVectorIsLocallyMinimal) {
  // "Fails" iff the vector contains at least two 0x7F bytes.
  auto fails = [](const std::vector<uint8_t>& v) {
    size_t n = 0;
    for (uint8_t b : v) n += (b == 0x7F);
    return n >= 2;
  };
  Xoshiro256 rng(99);
  std::vector<uint8_t> big(500, 0);
  for (auto& b : big) b = static_cast<uint8_t>(rng.next_below(0x7F));  // no 0x7F yet
  big[37] = 0x7F;
  big[411] = 0x7F;
  std::vector<uint8_t> minimal = proptest::shrink_vector<uint8_t>(big, fails);
  EXPECT_EQ(minimal, (std::vector<uint8_t>{0x7F, 0x7F}));
}

}  // namespace
}  // namespace neptune
