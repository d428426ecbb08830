// Fuzz target: the code that reads untrusted socket bytes. Arbitrary input
// is carved into frame extents with peek_frame_extent, the way
// TcpConnection carves a receive chunk, and each extent is decoded with
// decode_whole_frame, the way every channel consumer validates a frame.
// Nothing may crash, no decoded payload size may disagree with its header,
// and an extent must decode the same whether carved from the whole input
// or handed over alone.
//
// Built with libFuzzer when the toolchain has one (clang, -fsanitize=fuzzer)
// or with the standalone corpus-replay/mutation driver (fuzz/driver_main.cpp)
// otherwise; the entry point is the same.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "net/frame.hpp"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace neptune;
  std::span<const uint8_t> input(data, size);

  size_t off = 0;
  for (;;) {
    std::span<const uint8_t> rest = input.subspan(off);
    size_t extent = 0;
    FrameDecodeStatus st = peek_frame_extent(rest, &extent);
    if (st != FrameDecodeStatus::kFrame) break;  // corrupt header or partial header: stop
    if (extent < FrameHeader::kSize || extent > FrameHeader::kSize + FrameHeader::kMaxPayload)
      abort();  // extent outside what any header can name
    if (rest.size() < extent) {
      // A partial frame is never a frame.
      if (decode_whole_frame(rest)) abort();
      break;
    }
    std::span<const uint8_t> bytes = rest.first(extent);
    auto frame = decode_whole_frame(bytes);
    if (frame) {
      if (frame->payload.size() != frame->header.payload_size) abort();
      if (FrameHeader::kSize + frame->payload.size() != extent) abort();
      if (frame->payload.data() != bytes.data() + FrameHeader::kSize) abort();
    }
    // The same extent copied out on its own (a pooled buffer, as a channel
    // hands it over) must decode identically.
    std::vector<uint8_t> alone(bytes.begin(), bytes.end());
    if (decode_whole_frame(alone).has_value() != frame.has_value()) abort();
    // Trailing bytes past one frame are never a frame.
    if (extent < rest.size() && decode_whole_frame(rest.first(extent + 1))) abort();
    off += extent;
  }

  // The whole input is one frame only if carving found exactly one extent
  // covering all of it.
  if (auto whole = decode_whole_frame(input)) {
    if (FrameHeader::kSize + whole->header.payload_size != size) abort();
  }
  return 0;
}
