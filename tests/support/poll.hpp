// Waiting on a channel from a test. Channels have no blocking receive (the
// runtime is driven by data callbacks), so a test that needs "the next
// frame, or give up" polls try_receive_buf() until a frame arrives, the
// channel is closed and drained, or the timeout passes.
#pragma once

#include <chrono>
#include <optional>
#include <thread>

#include "net/channel.hpp"

namespace neptune::test_util {

inline std::optional<FrameBufRef> receive_within(ChannelReceiver& rx,
                                                 std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto frame = rx.try_receive_buf()) return frame;
    if (rx.closed() || std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace neptune::test_util
