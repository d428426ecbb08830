// Reusable growable byte buffer with explicit read/write cursors.
//
// This is the workhorse of NEPTUNE's object-reuse scheme (paper §III-B3):
// one ByteBuffer per link is cleared and refilled for every flushed batch
// instead of allocating fresh serialization scratch per message. All
// multi-byte integers are little-endian on the wire; variable-length
// integers use LEB128 with zig-zag for signed values.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace neptune {

/// Thrown when a read runs past the written region of a buffer.
class BufferUnderflow : public std::runtime_error {
 public:
  explicit BufferUnderflow(const std::string& what) : std::runtime_error(what) {}
};

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(size_t initial_capacity) { data_.reserve(initial_capacity); }

  // --- geometry -----------------------------------------------------------

  /// Bytes written so far (the readable region is [0, size())).
  size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  size_t capacity() const noexcept { return data_.capacity(); }
  /// Bytes still readable from the current read cursor.
  size_t remaining() const noexcept { return data_.size() - read_pos_; }
  size_t read_position() const noexcept { return read_pos_; }

  const uint8_t* data() const noexcept { return data_.data(); }
  uint8_t* data() noexcept { return data_.data(); }
  std::span<const uint8_t> readable() const noexcept {
    return {data_.data() + read_pos_, data_.size() - read_pos_};
  }
  std::span<const uint8_t> contents() const noexcept { return {data_.data(), data_.size()}; }

  /// Drop all content but keep the allocation — the reuse primitive.
  void clear() noexcept {
    data_.clear();
    read_pos_ = 0;
  }
  /// Surrender the backing vector (leaves this buffer empty).
  std::vector<uint8_t> take() noexcept {
    std::vector<uint8_t> v = std::move(data_);
    data_.clear();
    read_pos_ = 0;
    return v;
  }
  void reserve(size_t n) { data_.reserve(n); }
  /// Grow/shrink the written region in place (new bytes zeroed). Lets
  /// decoders decompress directly into a pooled buffer via data().
  void resize(size_t n) { data_.resize(n); }
  void rewind() noexcept { read_pos_ = 0; }
  void skip(size_t n) {
    check_readable(n, "skip");
    read_pos_ += n;
  }

  // --- fixed-width writes ---------------------------------------------------

  void write_u8(uint8_t v) { data_.push_back(v); }
  void write_u16(uint16_t v) { write_le(v); }
  void write_u32(uint32_t v) { write_le(v); }
  void write_u64(uint64_t v) { write_le(v); }
  void write_i8(int8_t v) { write_u8(static_cast<uint8_t>(v)); }
  void write_i16(int16_t v) { write_le(static_cast<uint16_t>(v)); }
  void write_i32(int32_t v) { write_le(static_cast<uint32_t>(v)); }
  void write_i64(int64_t v) { write_le(static_cast<uint64_t>(v)); }
  void write_f32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    write_le(bits);
  }
  void write_f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    write_le(bits);
  }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  // --- varints --------------------------------------------------------------

  /// Unsigned LEB128; 1 byte for values < 128, at most 10 bytes.
  void write_varint(uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<uint8_t>(v));
  }
  /// Zig-zag-encoded signed LEB128.
  void write_svarint(int64_t v) {
    write_varint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  // --- blocks ---------------------------------------------------------------

  void write_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  void write_bytes(std::span<const uint8_t> s) { write_bytes(s.data(), s.size()); }
  /// Length-prefixed (varint) byte block.
  void write_block(std::span<const uint8_t> s) {
    write_varint(s.size());
    write_bytes(s);
  }
  /// Length-prefixed (varint) UTF-8 string.
  void write_string(std::string_view s) {
    write_varint(s.size());
    write_bytes(s.data(), s.size());
  }

  /// Overwrite previously written bytes in place (for length back-patching).
  void patch_u32(size_t offset, uint32_t v) {
    if (offset + 4 > data_.size()) throw std::out_of_range("ByteBuffer::patch_u32 out of range");
    uint32_t le = to_le(v);
    std::memcpy(data_.data() + offset, &le, 4);
  }
  void patch_u64(size_t offset, uint64_t v) {
    if (offset + 8 > data_.size()) throw std::out_of_range("ByteBuffer::patch_u64 out of range");
    uint64_t le = to_le(v);
    std::memcpy(data_.data() + offset, &le, 8);
  }
  void patch_i64(size_t offset, int64_t v) { patch_u64(offset, static_cast<uint64_t>(v)); }

  // --- fixed-width reads ------------------------------------------------------

  uint8_t read_u8() {
    check_readable(1, "u8");
    return data_[read_pos_++];
  }
  uint16_t read_u16() { return read_le<uint16_t>(); }
  uint32_t read_u32() { return read_le<uint32_t>(); }
  uint64_t read_u64() { return read_le<uint64_t>(); }
  int8_t read_i8() { return static_cast<int8_t>(read_u8()); }
  int16_t read_i16() { return static_cast<int16_t>(read_le<uint16_t>()); }
  int32_t read_i32() { return static_cast<int32_t>(read_le<uint32_t>()); }
  int64_t read_i64() { return static_cast<int64_t>(read_le<uint64_t>()); }
  float read_f32() {
    uint32_t bits = read_le<uint32_t>();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  double read_f64() {
    uint64_t bits = read_le<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool read_bool() { return read_u8() != 0; }

  uint64_t read_varint() {
    // Fast path for the dominant 1- and 2-byte encodings (field counts,
    // tags, small scalars): one bounds check, constant shifts. Longer
    // varints fall through to the general checked loop.
    if (data_.size() - read_pos_ >= 2) {
      uint8_t b0 = (data_.data() + read_pos_)[0];
      if ((b0 & 0x80) == 0) {
        read_pos_ += 1;
        return b0;
      }
      uint8_t b1 = (data_.data() + read_pos_)[1];
      if ((b1 & 0x80) == 0) {
        read_pos_ += 2;
        return (static_cast<uint64_t>(b1) << 7) | (b0 & 0x7F);
      }
    }
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw BufferUnderflow("varint too long");
      uint8_t b = read_u8();
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  int64_t read_svarint() {
    uint64_t z = read_varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  void read_bytes(void* out, size_t n) {
    check_readable(n, "bytes");
    std::memcpy(out, data_.data() + read_pos_, n);
    read_pos_ += n;
  }
  /// Zero-copy view of the next length-prefixed block; valid until mutation.
  std::span<const uint8_t> read_block() {
    size_t n = read_varint();
    check_readable(n, "block");
    std::span<const uint8_t> s{data_.data() + read_pos_, n};
    read_pos_ += n;
    return s;
  }
  std::string read_string() {
    auto s = read_block();
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }

 private:
  template <typename T>
  static T to_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::big) {
      T r = 0;
      for (size_t i = 0; i < sizeof(T); ++i) r |= ((v >> (8 * i)) & 0xFF) << (8 * (sizeof(T) - 1 - i));
      return r;
    } else {
      return v;
    }
  }
  template <typename T>
  void write_le(T v) {
    T le = to_le(v);
    write_bytes(&le, sizeof le);
  }
  template <typename T>
  T read_le() {
    check_readable(sizeof(T), "fixed");
    T le;
    std::memcpy(&le, data_.data() + read_pos_, sizeof le);
    read_pos_ += sizeof(T);
    return to_le(le);
  }
  void check_readable(size_t n, const char* what) const {
    if (read_pos_ + n > data_.size())
      throw BufferUnderflow(std::string("ByteBuffer underflow reading ") + what);
  }

  std::vector<uint8_t> data_;
  size_t read_pos_ = 0;
};

/// Read-only cursor over an externally owned byte range. Used on receive
/// paths where the frame body lives in a pooled buffer that must not be
/// copied (object-reuse scheme, paper §III-B3).
class ByteReader {
 public:
  ByteReader(const uint8_t* p, size_t n) : p_(p), n_(n) {}
  explicit ByteReader(std::span<const uint8_t> s) : p_(s.data()), n_(s.size()) {}

  size_t remaining() const noexcept { return n_ - pos_; }
  size_t position() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ == n_; }

  uint8_t read_u8() {
    check(1);
    return p_[pos_++];
  }
  uint16_t read_u16() { return read_le<uint16_t>(); }
  uint32_t read_u32() { return read_le<uint32_t>(); }
  uint64_t read_u64() { return read_le<uint64_t>(); }
  int32_t read_i32() { return static_cast<int32_t>(read_le<uint32_t>()); }
  int64_t read_i64() { return static_cast<int64_t>(read_le<uint64_t>()); }
  float read_f32() {
    uint32_t bits = read_le<uint32_t>();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  double read_f64() {
    uint64_t bits = read_le<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool read_bool() { return read_u8() != 0; }

  uint64_t read_varint() {
    // Fast path for the dominant 1- and 2-byte encodings (field counts,
    // tags, small scalars): one bounds check, constant shifts. Longer
    // varints fall through to the general checked loop.
    if (n_ - pos_ >= 2) {
      uint8_t b0 = (p_ + pos_)[0];
      if ((b0 & 0x80) == 0) {
        pos_ += 1;
        return b0;
      }
      uint8_t b1 = (p_ + pos_)[1];
      if ((b1 & 0x80) == 0) {
        pos_ += 2;
        return (static_cast<uint64_t>(b1) << 7) | (b0 & 0x7F);
      }
    }
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw BufferUnderflow("varint too long");
      uint8_t b = read_u8();
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  int64_t read_svarint() {
    uint64_t z = read_varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  std::span<const uint8_t> read_block() {
    size_t n = read_varint();
    check(n);
    std::span<const uint8_t> s{p_ + pos_, n};
    pos_ += n;
    return s;
  }
  std::string read_string() {
    auto s = read_block();
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }
  std::span<const uint8_t> read_span(size_t n) {
    check(n);
    std::span<const uint8_t> s{p_ + pos_, n};
    pos_ += n;
    return s;
  }
  void skip(size_t n) {
    check(n);
    pos_ += n;
  }

 private:
  template <typename T>
  T read_le() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, p_ + pos_, sizeof v);
    pos_ += sizeof(T);
    if constexpr (std::endian::native == std::endian::big) {
      T r = 0;
      for (size_t i = 0; i < sizeof(T); ++i) r |= ((v >> (8 * i)) & 0xFF) << (8 * (sizeof(T) - 1 - i));
      return r;
    }
    return v;
  }
  void check(size_t n) const {
    if (pos_ + n > n_) throw BufferUnderflow("ByteReader underflow");
  }
  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
};

}  // namespace neptune
