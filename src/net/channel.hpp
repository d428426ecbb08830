// Transport abstraction between two Granules resources. A Channel is a
// lossless FIFO pipe of whole wire frames with bounded buffering on both
// ends (paper §III-B1: flushed buffers, not bytes, traverse the network):
//
//   sender --try_send(frame)--> [in-flight budget] ~~~> --try_receive_buf--> receiver
//
// The unit is one pooled FrameBufRef holding exactly one wire frame
// (net/frame.hpp). Every transport hands frames over by reference; a buffer
// that is not exactly one frame is a corrupt frame.
//
// Backpressure contract (paper §III-B4):
//   * try_send returns kBlocked once the in-flight byte budget is exhausted
//     (the analogue of a full TCP send buffer / closed sliding window).
//   * The receiver drains via try_receive_buf(); when it stops draining
//     (its application buffer hit the high watermark) the in-flight budget
//     stays consumed and senders stay blocked.
//   * When occupancy falls to the low watermark the channel invokes the
//     sender's writable callback, resuming upstream scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/frame_buf.hpp"

namespace neptune {

enum class SendStatus {
  kOk,       ///< accepted into the outbound buffer
  kBlocked,  ///< flow-controlled; retry after the writable callback
  kClosed    ///< channel closed; data not accepted
};

/// Sending endpoint.
class ChannelSender {
 public:
  virtual ~ChannelSender() = default;

  /// Hand over one pooled wire frame. Never partially accepts: on kOk the
  /// channel holds its own ref (the caller may drop theirs); on
  /// kBlocked/kClosed nothing was queued.
  virtual SendStatus try_send(const FrameBufRef& frame) = 0;

  /// Invoked (possibly from another thread) when a previously blocked
  /// sender may retry.
  virtual void set_writable_callback(std::function<void()> cb) = 0;

  /// True if a try_send of `bytes` would currently be accepted.
  virtual bool writable(size_t bytes) const = 0;

  virtual void close() = 0;
  virtual uint64_t bytes_sent() const = 0;
};

/// Receiving endpoint (pull model: the resource's IO thread drains it; not
/// draining *is* the backpressure signal).
class ChannelReceiver {
 public:
  virtual ~ChannelReceiver() = default;

  /// Non-blocking pop of the next frame; nullopt when none is queued.
  virtual std::optional<FrameBufRef> try_receive_buf() = 0;

  /// Invoked (possibly from the sender's or an IO thread) whenever the
  /// channel transitions empty -> non-empty, and once on close. Drives the
  /// receiving task's data-driven scheduling.
  virtual void set_data_callback(std::function<void()> cb) = 0;

  /// True once the channel is closed and every queued frame was received.
  virtual bool closed() const = 0;
  virtual uint64_t bytes_received() const = 0;

  /// True when every frame try_receive_buf() hands over has already passed
  /// its CRC check here, so the consumer need not checksum it again.
  virtual bool verifies_frames() const { return false; }
};

struct ChannelConfig {
  /// In-flight byte budget — the analogue of the TCP window plus socket
  /// buffers. try_send blocks (returns kBlocked) beyond this.
  size_t capacity_bytes = 4 << 20;
  /// Writable callback fires when occupancy falls back to this level.
  size_t low_watermark_bytes = 1 << 20;
};

}  // namespace neptune
