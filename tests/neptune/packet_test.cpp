#include "neptune/packet.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"

namespace neptune {
namespace {

StreamPacket sample_packet() {
  StreamPacket p;
  p.set_event_time_ns(123456789);
  p.add_i32(-42);
  p.add_i64(1LL << 40);
  p.add_f32(2.5f);
  p.add_f64(-0.125);
  p.add_bool(true);
  p.add_string("chemical_additive_a");
  p.add_bytes({0, 1, 2, 255});
  return p;
}

TEST(StreamPacket, FieldAccessors) {
  StreamPacket p = sample_packet();
  EXPECT_EQ(p.field_count(), 7u);
  EXPECT_EQ(p.i32(0), -42);
  EXPECT_EQ(p.i64(1), 1LL << 40);
  EXPECT_FLOAT_EQ(p.f32(2), 2.5f);
  EXPECT_DOUBLE_EQ(p.f64(3), -0.125);
  EXPECT_TRUE(p.boolean(4));
  EXPECT_EQ(p.str(5), "chemical_additive_a");
  EXPECT_EQ(p.bytes(6).size(), 4u);
  EXPECT_THROW(p.field(7), std::out_of_range);
  EXPECT_THROW(p.i32(1), std::bad_variant_access);  // type mismatch
}

TEST(StreamPacket, SerializeDeserializeRoundTrip) {
  StreamPacket p = sample_packet();
  ByteBuffer buf;
  p.serialize(buf);
  ByteReader r(buf.contents());
  StreamPacket q;
  q.deserialize(r);
  EXPECT_EQ(p, q);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(StreamPacket, SerializedSizeIsExact) {
  StreamPacket p = sample_packet();
  ByteBuffer buf;
  p.serialize(buf);
  EXPECT_EQ(p.serialized_size(), buf.size());
}

TEST(StreamPacket, WireFormatIsPinned) {
  // Every FieldType, and varints at the 1-, 2-, 9- and 10-byte boundaries,
  // against bytes recorded from the push_back serializer this one replaced:
  // writing through one pre-sized pointer must not change a byte.
  StreamPacket p;
  p.set_event_time_ns(std::numeric_limits<int64_t>::min());  // zig-zag 2^64-1: 10 bytes
  p.add_i32(-1);                                   // zig-zag 1: 1 byte
  p.add_i32(63);                                   // zig-zag 126: 1 byte
  p.add_i32(64);                                   // zig-zag 128: 2 bytes
  p.add_i32(std::numeric_limits<int32_t>::min());  // 5 bytes
  p.add_i64(int64_t{1} << 55);                     // zig-zag 2^56: 9 bytes
  p.add_i64((int64_t{1} << 62) - 1);               // zig-zag 2^63-2: 9 bytes
  p.add_i64(int64_t{1} << 62);                     // zig-zag 2^63: 10 bytes
  p.add_i64(std::numeric_limits<int64_t>::max());  // 10 bytes
  p.add_f32(1.5f);
  p.add_f64(-2.25);
  p.add_bool(true);
  p.add_bool(false);
  p.add_string("");
  p.add_string("neptune");
  p.add_bytes(std::vector<uint8_t>(128, 0xAB));    // length 128: 2-byte varint
  p.add_bytes({0x00, 0x01, 0xFF});

  const std::vector<uint8_t> head = {
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x10, 0x00, 0x01, 0x00, 0x7e,
      0x00, 0x80, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80,
      0x80, 0x80, 0x80, 0x01, 0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01,
      0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x01, 0xfe, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x00, 0x00, 0xc0, 0x3f, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x02, 0xc0, 0x04, 0x01, 0x04, 0x00, 0x05, 0x00, 0x05, 0x07, 0x6e, 0x65,
      0x70, 0x74, 0x75, 0x6e, 0x65, 0x06, 0x80, 0x01};
  const std::vector<uint8_t> tail = {0x06, 0x03, 0x00, 0x01, 0xff};
  std::vector<uint8_t> expected = head;
  expected.insert(expected.end(), 128, 0xAB);
  expected.insert(expected.end(), tail.begin(), tail.end());
  ASSERT_EQ(expected.size(), 231u);

  ByteBuffer buf;
  buf.write_u8(0x5A);  // serialize appends: what is already there stays
  p.serialize(buf);
  ASSERT_EQ(buf.size(), 1 + expected.size());
  EXPECT_EQ(buf.data()[0], 0x5A);
  auto got = buf.contents().subspan(1);
  EXPECT_EQ(std::vector<uint8_t>(got.begin(), got.end()), expected);
  EXPECT_EQ(p.serialized_size(), expected.size());

  ByteReader r(got);
  StreamPacket back;
  back.deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, p);
}

TEST(StreamPacket, EmptyPacketRoundTrip) {
  StreamPacket p;
  ByteBuffer buf;
  p.serialize(buf);
  ByteReader r(buf.contents());
  StreamPacket q;
  q.add_i32(99);  // stale content must be cleared by deserialize
  q.deserialize(r);
  EXPECT_EQ(q.field_count(), 0u);
  EXPECT_EQ(p, q);
}

TEST(StreamPacket, DeserializeReusesStorage) {
  StreamPacket p = sample_packet();
  ByteBuffer buf;
  p.serialize(buf);

  StreamPacket q;
  for (int round = 0; round < 3; ++round) {
    buf.rewind();
    ByteReader r(buf.contents());
    q.deserialize(r);
    EXPECT_EQ(p, q);
  }
}

TEST(StreamPacket, ClearKeepsCapacityForReuse) {
  StreamPacket p = sample_packet();
  p.clear();
  EXPECT_EQ(p.field_count(), 0u);
  EXPECT_EQ(p.event_time_ns(), 0);
}

TEST(StreamPacket, MultiplePacketsInOneBuffer) {
  ByteBuffer buf;
  std::vector<StreamPacket> originals;
  Xoshiro256 rng(4);
  for (int i = 0; i < 50; ++i) {
    StreamPacket p;
    p.set_event_time_ns(static_cast<int64_t>(rng.next_u64() >> 1));
    p.add_i64(static_cast<int64_t>(i));
    if (i % 2) p.add_string("pkt" + std::to_string(i));
    if (i % 3 == 0) p.add_f64(rng.next_double());
    p.serialize(buf);
    originals.push_back(std::move(p));
  }
  ByteReader r(buf.contents());
  StreamPacket q;
  for (int i = 0; i < 50; ++i) {
    q.deserialize(r);
    EXPECT_EQ(q, originals[static_cast<size_t>(i)]) << i;
  }
  EXPECT_TRUE(r.at_end());
}

TEST(StreamPacket, DeserializeRejectsUnknownTag) {
  ByteBuffer buf;
  buf.write_svarint(0);   // event time
  buf.write_varint(1);    // one field
  buf.write_u8(200);      // bogus type tag
  ByteReader r(buf.contents());
  StreamPacket q;
  EXPECT_THROW(q.deserialize(r), PacketFormatError);
}

TEST(StreamPacket, DeserializeRejectsAbsurdFieldCount) {
  ByteBuffer buf;
  buf.write_svarint(0);
  buf.write_varint(1ULL << 40);
  ByteReader r(buf.contents());
  StreamPacket q;
  EXPECT_THROW(q.deserialize(r), PacketFormatError);
}

TEST(StreamPacket, DeserializeRejectsTruncation) {
  StreamPacket p = sample_packet();
  ByteBuffer buf;
  p.serialize(buf);
  for (size_t cut = 1; cut < buf.size(); cut += 3) {
    ByteReader r(buf.data(), buf.size() - cut);
    StreamPacket q;
    EXPECT_THROW(q.deserialize(r), std::runtime_error) << "cut=" << cut;
  }
}

TEST(StreamPacket, FieldHashStableAndKeyed) {
  StreamPacket a;
  a.add_string("sensor-1");
  StreamPacket b;
  b.add_string("sensor-1");
  StreamPacket c;
  c.add_string("sensor-2");
  EXPECT_EQ(a.field_hash(0), b.field_hash(0));
  EXPECT_NE(a.field_hash(0), c.field_hash(0));
}

TEST(StreamPacket, FieldHashWidensIntegerTypes) {
  StreamPacket a;
  a.add_i32(12345);
  StreamPacket b;
  b.add_i64(12345);
  EXPECT_EQ(a.field_hash(0), b.field_hash(0));
}

TEST(Schema, NamedFieldLookup) {
  Schema s{{"ts", FieldType::kI64}, {"sensor", FieldType::kBool}, {"valve", FieldType::kBool}};
  EXPECT_EQ(s.field_count(), 3u);
  EXPECT_EQ(s.index_of("sensor"), 1);
  EXPECT_EQ(s.index_of("nope"), -1);
  EXPECT_EQ(s.field(2).name, "valve");
  s.add("aux", FieldType::kI32);
  EXPECT_EQ(s.index_of("aux"), 3);
}

TEST(ValueType, MatchesVariantOrder) {
  EXPECT_EQ(value_type(Value(int32_t(1))), FieldType::kI32);
  EXPECT_EQ(value_type(Value(int64_t(1))), FieldType::kI64);
  EXPECT_EQ(value_type(Value(1.0f)), FieldType::kF32);
  EXPECT_EQ(value_type(Value(1.0)), FieldType::kF64);
  EXPECT_EQ(value_type(Value(true)), FieldType::kBool);
  EXPECT_EQ(value_type(Value(std::string("x"))), FieldType::kString);
  EXPECT_EQ(value_type(Value(std::vector<uint8_t>{1})), FieldType::kBytes);
}

TEST(PacketPool, RecyclesPackets) {
  auto pool = PacketPool::create();
  StreamPacket* raw = nullptr;
  {
    auto p = pool->acquire();
    p->add_i32(5);
    raw = p.get();
  }
  auto q = pool->acquire();
  EXPECT_EQ(q.get(), raw);
  q->clear();
  EXPECT_EQ(q->field_count(), 0u);
}

// Property sweep: random packets of every shape round-trip.
class PacketFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketFuzz, RandomPacketsRoundTrip) {
  Xoshiro256 rng(GetParam());
  ByteBuffer buf;
  for (int trial = 0; trial < 100; ++trial) {
    StreamPacket p;
    p.set_event_time_ns(static_cast<int64_t>(rng.next_u64()));
    size_t n = rng.next_below(20);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.next_below(7)) {
        case 0: p.add_i32(static_cast<int32_t>(rng.next_u64())); break;
        case 1: p.add_i64(static_cast<int64_t>(rng.next_u64())); break;
        case 2: p.add_f32(static_cast<float>(rng.next_range(-1e6, 1e6))); break;
        case 3: p.add_f64(rng.next_range(-1e12, 1e12)); break;
        case 4: p.add_bool(rng.next_bool()); break;
        case 5: {
          std::string s;
          size_t len = rng.next_below(64);
          for (size_t j = 0; j < len; ++j) s += static_cast<char>('a' + rng.next_below(26));
          p.add_string(std::move(s));
          break;
        }
        default: {
          std::vector<uint8_t> b(rng.next_below(64));
          for (auto& x : b) x = static_cast<uint8_t>(rng.next_u64());
          p.add_bytes(std::move(b));
          break;
        }
      }
    }
    buf.clear();
    p.serialize(buf);
    EXPECT_EQ(buf.size(), p.serialized_size());
    ByteReader r(buf.contents());
    StreamPacket q;
    q.deserialize(r);
    EXPECT_EQ(p, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace neptune
