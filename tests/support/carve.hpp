// Carving whole wire frames out of a byte stream that arrives in arbitrary
// chunks, the way TcpConnection does at the socket: frame boundaries come
// from peek_frame_extent, and each carved extent must pass
// decode_whole_frame.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "net/frame.hpp"

namespace neptune::test_util {

/// Append `chunk` to `pending`, then hand every whole frame now at its
/// front to `on_frame` and drop it from `pending`. Returns kNeedMore when
/// the stream is intact so far, or the first corruption status (the stream
/// cannot be re-synchronized past it).
inline FrameDecodeStatus carve_frames(std::vector<uint8_t>& pending,
                                      std::span<const uint8_t> chunk,
                                      const std::function<void(const DecodedFrame&)>& on_frame) {
  pending.insert(pending.end(), chunk.begin(), chunk.end());
  size_t off = 0;
  FrameDecodeStatus status = FrameDecodeStatus::kNeedMore;
  for (;;) {
    std::span<const uint8_t> rest(pending.data() + off, pending.size() - off);
    size_t extent = 0;
    status = peek_frame_extent(rest, &extent);
    if (status != FrameDecodeStatus::kFrame) break;
    if (rest.size() < extent) {
      status = FrameDecodeStatus::kNeedMore;
      break;
    }
    auto frame = decode_whole_frame(rest.first(extent), &status);
    if (!frame) break;
    on_frame(*frame);
    off += extent;
  }
  pending.erase(pending.begin(), pending.begin() + static_cast<ptrdiff_t>(off));
  return status;
}

}  // namespace neptune::test_util
