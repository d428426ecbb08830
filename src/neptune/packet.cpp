#include "neptune/packet.hpp"

#include <cstring>

namespace neptune {

const char* field_type_name(FieldType t) {
  switch (t) {
    case FieldType::kI32: return "i32";
    case FieldType::kI64: return "i64";
    case FieldType::kF32: return "f32";
    case FieldType::kF64: return "f64";
    case FieldType::kBool: return "bool";
    case FieldType::kString: return "string";
    case FieldType::kBytes: return "bytes";
  }
  return "?";
}

FieldType value_type(const Value& v) { return static_cast<FieldType>(v.index()); }

Schema::Schema(std::initializer_list<Field> fields) : fields_(fields) {}

Schema& Schema::add(std::string name, FieldType type) {
  fields_.push_back({std::move(name), type});
  return *this;
}

int Schema::index_of(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

size_t varint_size(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

size_t svarint_size(int64_t v) {
  return varint_size((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

}  // namespace

size_t StreamPacket::serialized_size() const {
  size_t n = svarint_size(event_time_ns_) + varint_size(fields_.size());
  for (const auto& v : fields_) {
    n += 1;  // type tag
    switch (value_type(v)) {
      case FieldType::kI32: n += svarint_size(std::get<int32_t>(v)); break;
      case FieldType::kI64: n += svarint_size(std::get<int64_t>(v)); break;
      case FieldType::kF32: n += 4; break;
      case FieldType::kF64: n += 8; break;
      case FieldType::kBool: n += 1; break;
      case FieldType::kString: {
        const auto& s = std::get<std::string>(v);
        n += varint_size(s.size()) + s.size();
        break;
      }
      case FieldType::kBytes: {
        const auto& b = std::get<std::vector<uint8_t>>(v);
        n += varint_size(b.size()) + b.size();
        break;
      }
    }
  }
  return n;
}

namespace {

inline uint8_t* put_varint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

inline uint8_t* put_svarint(uint8_t* p, int64_t v) {
  return put_varint(p, (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

/// Little-endian store of a float's bits, as ByteBuffer::write_f32/f64 do.
template <typename Bits, typename F>
inline uint8_t* put_float(uint8_t* p, F v) {
  Bits bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (size_t i = 0; i < sizeof bits; ++i) p[i] = static_cast<uint8_t>(bits >> (8 * i));
  return p + sizeof bits;
}

inline uint8_t* put_block(uint8_t* p, const void* data, size_t n) {
  p = put_varint(p, n);
  if (n != 0) std::memcpy(p, data, n);
  return p + n;
}

}  // namespace

// Sized once, then written through one pointer: no per-byte capacity check
// and no zero-fill ahead of the copy.
void StreamPacket::serialize(ByteBuffer& out) const {
  uint8_t* p = out.grow(serialized_size());
  p = put_svarint(p, event_time_ns_);
  p = put_varint(p, fields_.size());
  for (const auto& v : fields_) {
    FieldType t = value_type(v);
    *p++ = static_cast<uint8_t>(t);
    switch (t) {
      case FieldType::kI32: p = put_svarint(p, std::get<int32_t>(v)); break;
      case FieldType::kI64: p = put_svarint(p, std::get<int64_t>(v)); break;
      case FieldType::kF32: p = put_float<uint32_t>(p, std::get<float>(v)); break;
      case FieldType::kF64: p = put_float<uint64_t>(p, std::get<double>(v)); break;
      case FieldType::kBool: *p++ = std::get<bool>(v) ? 1 : 0; break;
      case FieldType::kString: {
        const auto& s = std::get<std::string>(v);
        p = put_block(p, s.data(), s.size());
        break;
      }
      case FieldType::kBytes: {
        const auto& b = std::get<std::vector<uint8_t>>(v);
        p = put_block(p, b.data(), b.size());
        break;
      }
    }
  }
}

void StreamPacket::deserialize(ByteReader& in, uint64_t* alloc_bytes) {
  clear();
  event_time_ns_ = in.read_svarint();
  uint64_t n = in.read_varint();
  if (n > 1u << 20) throw PacketFormatError("absurd field count");
  fields_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t tag = in.read_u8();
    switch (static_cast<FieldType>(tag)) {
      case FieldType::kI32:
        fields_.emplace_back(static_cast<int32_t>(in.read_svarint()));
        break;
      case FieldType::kI64: fields_.emplace_back(in.read_svarint()); break;
      case FieldType::kF32: fields_.emplace_back(in.read_f32()); break;
      case FieldType::kF64: fields_.emplace_back(in.read_f64()); break;
      case FieldType::kBool: fields_.emplace_back(in.read_bool()); break;
      case FieldType::kString: {
        auto s = in.read_block();
        if (alloc_bytes) *alloc_bytes += s.size();
        fields_.emplace_back(std::string(reinterpret_cast<const char*>(s.data()), s.size()));
        break;
      }
      case FieldType::kBytes: {
        auto s = in.read_block();
        if (alloc_bytes) *alloc_bytes += s.size();
        fields_.emplace_back(std::vector<uint8_t>(s.begin(), s.end()));
        break;
      }
      default: throw PacketFormatError("unknown field type tag");
    }
  }
}

namespace {

[[noreturn]] void view_underflow(const char* what) { throw BufferUnderflow(what); }

// Raw-pointer varint decode: the cursor lives in a register for the whole
// parse loop instead of round-tripping through a reader object's member on
// every byte. Decode semantics are identical to ByteReader::read_varint
// (10-byte cap, low 64 bits kept) — the differential fuzz target holds the
// two in lock-step.
inline uint64_t view_varint(const uint8_t*& p, const uint8_t* end) {
  if (p >= end) view_underflow("truncated varint");
  uint8_t b0 = *p;
  if ((b0 & 0x80) == 0) {
    ++p;
    return b0;
  }
  if (end - p >= 2) {
    uint8_t b1 = p[1];
    if ((b1 & 0x80) == 0) {
      p += 2;
      return (static_cast<uint64_t>(b1) << 7) | (b0 & 0x7F);
    }
  }
  uint64_t v = b0 & 0x7F;
  int shift = 7;
  ++p;
  for (;;) {
    if (shift >= 64) view_underflow("varint too long");
    if (p >= end) view_underflow("truncated varint");
    uint8_t b = *p++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

inline int64_t view_svarint(const uint8_t*& p, const uint8_t* end) {
  uint64_t z = view_varint(p, end);
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

}  // namespace

size_t PacketView::parse(std::span<const uint8_t> buf, size_t offset) {
  raw_ = {};
  if (offset > buf.size()) throw PacketFormatError("packet offset past end of batch");
  const uint8_t* const start = buf.data() + offset;
  const uint8_t* p = start;
  const uint8_t* const end = buf.data() + buf.size();
  try {
    event_time_ns_ = view_svarint(p, end);
    uint64_t n = view_varint(p, end);
    if (n > 1u << 20) throw PacketFormatError("absurd field count");
    // Size the table once and fill by index through a hoisted pointer: a
    // push_back in this loop would let the compiler assume reallocation on
    // every iteration and spill the cursor to memory (measured ~3x slower
    // on scalar-heavy packets). If a throw interrupts the fill the view
    // holds stale refs, which is fine — parse() failure leaves the view
    // unusable until the next successful parse.
    fields_.resize(n);
    FieldRef* out = fields_.data();
    for (uint64_t i = 0; i < n; ++i) {
      if (p >= end) view_underflow("truncated field tag");
      uint8_t tag = *p++;
      FieldRef& r = out[i];
      r.type = static_cast<FieldType>(tag);
      switch (r.type) {
        case FieldType::kI32: r.i = static_cast<int32_t>(view_svarint(p, end)); break;
        case FieldType::kI64: r.i = view_svarint(p, end); break;
        case FieldType::kF32: {
          if (end - p < 4) view_underflow("truncated f32");
          uint32_t bits;
          std::memcpy(&bits, p, 4);
          if constexpr (std::endian::native == std::endian::big) bits = __builtin_bswap32(bits);
          std::memcpy(&r.f32, &bits, 4);
          p += 4;
          break;
        }
        case FieldType::kF64: {
          if (end - p < 8) view_underflow("truncated f64");
          uint64_t bits;
          std::memcpy(&bits, p, 8);
          if constexpr (std::endian::native == std::endian::big) bits = __builtin_bswap64(bits);
          std::memcpy(&r.f64, &bits, 8);
          p += 8;
          break;
        }
        case FieldType::kBool: {
          if (p >= end) view_underflow("truncated bool");
          r.i = *p++ != 0 ? 1 : 0;
          break;
        }
        case FieldType::kString:
        case FieldType::kBytes: {
          uint64_t len = view_varint(p, end);
          if (static_cast<uint64_t>(end - p) < len) view_underflow("truncated block");
          r.data = p;
          r.size = static_cast<uint32_t>(len);
          p += len;
          break;
        }
        default: throw PacketFormatError("unknown field type tag");
      }
    }
  } catch (const BufferUnderflow& e) {
    // Truncated fixed field, truncated block, or overlong varint: surface a
    // single malformed-packet error type to callers (every access above is
    // bounded by `end`, so the view never reads past the span either way).
    throw PacketFormatError(std::string("malformed packet: ") + e.what());
  }
  raw_ = buf.subspan(offset, static_cast<size_t>(p - start));
  return offset + static_cast<size_t>(p - start);
}

uint64_t PacketView::field_hash(size_t i) const {
  // FNV-1a over the value's canonical bytes — bit-identical to
  // StreamPacket::field_hash (integers hash through their i64 widening).
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto mix = [](uint64_t h, const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t j = 0; j < n; ++j) {
      h ^= b[j];
      h *= kPrime;
    }
    return h;
  };
  const FieldRef& r = ref_at(i);
  uint64_t h = kOffset;
  switch (r.type) {
    case FieldType::kI32:
    case FieldType::kI64: h = mix(h, &r.i, sizeof r.i); break;
    case FieldType::kF32: h = mix(h, &r.f32, sizeof r.f32); break;
    case FieldType::kF64: h = mix(h, &r.f64, sizeof r.f64); break;
    case FieldType::kBool: {
      uint8_t x = r.i != 0 ? 1 : 0;
      h = mix(h, &x, 1);
      break;
    }
    case FieldType::kString:
    case FieldType::kBytes: h = mix(h, r.data, r.size); break;
  }
  return h;
}

void PacketView::materialize(StreamPacket& out) const {
  out.clear();
  out.set_event_time_ns(event_time_ns_);
  for (const FieldRef& r : fields_) {
    switch (r.type) {
      case FieldType::kI32: out.add_i32(static_cast<int32_t>(r.i)); break;
      case FieldType::kI64: out.add_i64(r.i); break;
      case FieldType::kF32: out.add_f32(r.f32); break;
      case FieldType::kF64: out.add_f64(r.f64); break;
      case FieldType::kBool: out.add_bool(r.i != 0); break;
      case FieldType::kString:
        out.add_string(std::string(reinterpret_cast<const char*>(r.data), r.size));
        break;
      case FieldType::kBytes: out.add_bytes(std::vector<uint8_t>(r.data, r.data + r.size)); break;
    }
  }
}

uint64_t StreamPacket::field_hash(size_t i) const {
  // FNV-1a over the value's canonical bytes.
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto mix = [](uint64_t h, const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t j = 0; j < n; ++j) {
      h ^= b[j];
      h *= kPrime;
    }
    return h;
  };
  const Value& v = field(i);
  uint64_t h = kOffset;
  switch (value_type(v)) {
    case FieldType::kI32: {
      // Hash integers through their i64 widening so that the same logical
      // key in an i32 or i64 field lands on the same partition.
      int64_t x = std::get<int32_t>(v);
      h = mix(h, &x, sizeof x);
      break;
    }
    case FieldType::kI64: {
      int64_t x = std::get<int64_t>(v);
      h = mix(h, &x, sizeof x);
      break;
    }
    case FieldType::kF32: {
      float x = std::get<float>(v);
      h = mix(h, &x, sizeof x);
      break;
    }
    case FieldType::kF64: {
      double x = std::get<double>(v);
      h = mix(h, &x, sizeof x);
      break;
    }
    case FieldType::kBool: {
      uint8_t x = std::get<bool>(v) ? 1 : 0;
      h = mix(h, &x, 1);
      break;
    }
    case FieldType::kString: {
      const auto& s = std::get<std::string>(v);
      h = mix(h, s.data(), s.size());
      break;
    }
    case FieldType::kBytes: {
      const auto& b = std::get<std::vector<uint8_t>>(v);
      h = mix(h, b.data(), b.size());
      break;
    }
  }
  return h;
}

}  // namespace neptune
