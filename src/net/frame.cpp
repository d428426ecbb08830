#include "net/frame.hpp"

#include <cstring>

#include "common/crc32.hpp"

namespace neptune {

void encode_frame(const FrameHeader& h, std::span<const uint8_t> payload, ByteBuffer& out) {
  out.write_u16(FrameHeader::kMagic);
  out.write_u8(h.flags);
  out.write_u32(h.link_id);
  out.write_u32(h.batch_count);
  out.write_u32(h.raw_size);
  out.write_u32(static_cast<uint32_t>(payload.size()));
  out.write_u32(crc32(payload));
  out.write_bytes(payload);
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
                                               FrameDecodeStatus* status) {
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
  if (crc32(f.payload) != f.header.payload_crc) return fail(FrameDecodeStatus::kBadChecksum);
  if (status) *status = FrameDecodeStatus::kFrame;
  return f;
}

}  // namespace neptune
