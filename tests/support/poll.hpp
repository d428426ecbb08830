// Waiting from a test. Channels have no blocking receive (the runtime is
// driven by data callbacks), so a test that needs "the next frame, or give
// up" polls try_receive_buf() until a frame arrives, the channel is closed
// and drained, or the timeout passes; wait_until() does the same for any
// condition the test can only observe (a metric, an operator's counter).
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

template <typename Pred>
bool wait_until(Pred pred, std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace neptune::test_util
