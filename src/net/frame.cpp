#include "net/frame.hpp"

#include <cstring>

#include "common/crc32.hpp"

namespace neptune {

namespace {

void store_u32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// The FrameHeader::kSize header bytes at `p`, little-endian.
void store_header(uint8_t* p, const FrameHeader& h, std::span<const uint8_t> payload) {
  p[0] = static_cast<uint8_t>(FrameHeader::kMagic);
  p[1] = static_cast<uint8_t>(FrameHeader::kMagic >> 8);
  p[2] = h.flags;
  store_u32(p + 3, h.link_id);
  store_u32(p + 7, h.batch_count);
  store_u32(p + 11, h.raw_size);
  store_u32(p + 15, static_cast<uint32_t>(payload.size()));
  store_u32(p + 19, crc32(payload));
}

}  // namespace

void encode_frame(const FrameHeader& h, std::span<const uint8_t> payload, ByteBuffer& out) {
  store_header(out.grow(FrameHeader::kSize), h, payload);
  out.write_bytes(payload);
}

void seal_frame_in_place(const FrameHeader& h, ByteBuffer& buf) {
  store_header(buf.data(), h, buf.contents().subspan(FrameHeader::kSize));
}

FrameBufRef encode_signal_frame(uint8_t flags, uint32_t link_id, std::optional<uint64_t> value) {
  FrameHeader h;
  h.flags = flags;
  h.link_id = link_id;
  uint8_t payload[8];
  for (int i = 0; i < 8; ++i) payload[i] = static_cast<uint8_t>(value.value_or(0) >> (8 * i));
  FrameBufRef buf = FrameBufPool::global().acquire();
  encode_frame(h, std::span<const uint8_t>(payload, value ? 8 : 0), buf->buffer());
  return buf;
}

namespace {

FrameDecodeStatus parse_header(const uint8_t* p, FrameHeader& h) {
  uint16_t magic;
  std::memcpy(&magic, p, 2);
  if (magic != FrameHeader::kMagic) return FrameDecodeStatus::kBadMagic;
  h.flags = p[2];
  std::memcpy(&h.link_id, p + 3, 4);
  std::memcpy(&h.batch_count, p + 7, 4);
  std::memcpy(&h.raw_size, p + 11, 4);
  std::memcpy(&h.payload_size, p + 15, 4);
  std::memcpy(&h.payload_crc, p + 19, 4);
  if (h.payload_size > FrameHeader::kMaxPayload) return FrameDecodeStatus::kBadLength;
  return FrameDecodeStatus::kFrame;
}

}  // namespace

FrameBufPool& FrameBufPool::global() {
  // Leaky singleton reachable from a static pointer: frames may still be in
  // flight on IO threads at exit, and LSan treats reachable memory as live.
  static FrameBufPool* pool = new FrameBufPool(/*max_idle=*/256);
  return *pool;
}

FrameDecodeStatus peek_frame_extent(std::span<const uint8_t> bytes, size_t* extent) {
  if (bytes.size() < FrameHeader::kSize) return FrameDecodeStatus::kNeedMore;
  FrameHeader h;
  FrameDecodeStatus s = parse_header(bytes.data(), h);
  if (s != FrameDecodeStatus::kFrame) return s;
  if (extent) *extent = FrameHeader::kSize + h.payload_size;
  return FrameDecodeStatus::kFrame;
}

std::optional<DecodedFrame> decode_whole_frame(std::span<const uint8_t> bytes,
                                               FrameDecodeStatus* status, bool check_crc) {
  auto fail = [&](FrameDecodeStatus s) -> std::optional<DecodedFrame> {
    if (status) *status = s;
    return std::nullopt;
  };
  if (bytes.size() < FrameHeader::kSize) return fail(FrameDecodeStatus::kNeedMore);
  DecodedFrame f;
  FrameDecodeStatus s = parse_header(bytes.data(), f.header);
  if (s != FrameDecodeStatus::kFrame) return fail(s);
  const size_t extent = FrameHeader::kSize + f.header.payload_size;
  if (bytes.size() < extent) return fail(FrameDecodeStatus::kNeedMore);
  if (bytes.size() > extent) return fail(FrameDecodeStatus::kBadLength);
  f.payload = bytes.subspan(FrameHeader::kSize, f.header.payload_size);
  if (check_crc && crc32(f.payload) != f.header.payload_crc)
    return fail(FrameDecodeStatus::kBadChecksum);
  if (status) *status = FrameDecodeStatus::kFrame;
  return f;
}

}  // namespace neptune
