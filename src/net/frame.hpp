// Wire frame format. A frame carries one flushed application-level buffer —
// i.e. a *batch* of serialized stream packets (paper §III-B1: buffers, not
// individual packets, traverse the network). Layout (little-endian):
//
//   u16  magic            0x4E50 ("NP")
//   u8   flags            bit 0: LZ4 payload; bits 1-3: control; bit 4: barrier
//   u32  link_id          which logical link this batch belongs to
//   u32  batch_count      number of stream packets inside the payload
//   u32  raw_size         payload size before compression
//   u32  payload_size     payload size on the wire
//   u32  payload_crc      CRC-32 of the wire payload
//   u8[payload_size]      payload
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "net/frame_buf.hpp"

namespace neptune {

struct FrameHeader {
  static constexpr uint16_t kMagic = 0x4E50;
  static constexpr size_t kSize = 2 + 1 + 4 + 4 + 4 + 4 + 4;
  static constexpr uint8_t kFlagCompressed = 0x01;
  /// Control-plane flags used by the supervised-channel protocol
  /// (fault/supervised_channel.hpp). Control frames never reach operators:
  /// the supervised receiver consumes them before handing frames upstream.
  static constexpr uint8_t kFlagEof = 0x02;        ///< graceful end-of-stream marker
  static constexpr uint8_t kFlagHeartbeat = 0x04;  ///< edge liveness probe
  static constexpr uint8_t kFlagAck = 0x08;        ///< cumulative consumption ack (u64 payload)
  static constexpr uint8_t kControlMask = kFlagEof | kFlagHeartbeat | kFlagAck;
  /// Checkpoint barrier (u64 epoch payload). Not a control flag: it rides
  /// in order with the batches, acked and retransmitted like one.
  static constexpr uint8_t kFlagBarrier = 0x10;
  /// Sanity cap: no single buffer flush may exceed this (64 MB).
  static constexpr uint32_t kMaxPayload = 64u << 20;

  uint8_t flags = 0;
  uint32_t link_id = 0;
  uint32_t batch_count = 0;
  uint32_t raw_size = 0;
  uint32_t payload_size = 0;
  uint32_t payload_crc = 0;

  bool compressed() const { return (flags & kFlagCompressed) != 0; }
  bool control() const { return (flags & kControlMask) != 0; }
  bool barrier() const { return (flags & kFlagBarrier) != 0; }
};

/// Append a full frame (header + payload) to `out`. Computes the CRC.
void encode_frame(const FrameHeader& h, std::span<const uint8_t> payload, ByteBuffer& out);

/// Seal a frame built in place: `buf` holds FrameHeader::kSize bytes of
/// room followed by the payload. Writes the header there (payload_size and
/// CRC taken from the payload, other fields from `h`), so a writer that
/// opened its batch inside the frame hands the same buffer to the channel
/// with no copy. The bytes equal encode_frame(h, payload) on an empty buffer.
void seal_frame_in_place(const FrameHeader& h, ByteBuffer& buf);

/// A frame without packets (control or barrier), with `value` as its u64
/// payload if any, in a pooled buffer — allocation-free once it is warm.
FrameBufRef encode_signal_frame(uint8_t flags, uint32_t link_id, std::optional<uint64_t> value);

enum class FrameDecodeStatus {
  kNeedMore,    ///< the bytes end before the frame (or its header) does
  kFrame,       ///< a complete frame was found
  kBadMagic,    ///< stream corruption: wrong magic
  kBadLength,   ///< declared payload exceeds the sanity cap, or bytes trail the frame
  kBadChecksum  ///< payload CRC mismatch
};

struct DecodedFrame {
  FrameHeader header;
  std::span<const uint8_t> payload;  ///< points into the decoded bytes
};

/// Decode `bytes` only if it is *exactly* one complete, CRC-valid frame —
/// the one receive-side parse every channel consumer uses, since channels
/// carry whole frames as pooled buffers: the receiver keeps the FrameBuf
/// alive and parses packet views straight out of it with zero payload
/// copies. Anything else is a corrupt frame: nullopt, with the reason in
/// `status` (kNeedMore for a truncated frame, kBadLength for trailing
/// bytes). `check_crc` false skips only the checksum, for a frame a
/// receiver below already verified (ChannelReceiver::verifies_frames).
std::optional<DecodedFrame> decode_whole_frame(std::span<const uint8_t> bytes,
                                               FrameDecodeStatus* status = nullptr,
                                               bool check_crc = true);

/// Cheap frame-boundary probe for stream carving: when `bytes` starts with
/// at least a header, set `*extent` to the full wire length (header +
/// payload) of the frame beginning there and return kFrame. No CRC check —
/// payload validation stays with the consumer's decode. Returns kNeedMore
/// when fewer than FrameHeader::kSize bytes are available, or
/// kBadMagic/kBadLength on a corrupt header.
FrameDecodeStatus peek_frame_extent(std::span<const uint8_t> bytes, size_t* extent);

}  // namespace neptune
