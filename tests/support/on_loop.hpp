// Running test code on an IO loop. A TcpConnection belongs to the loop it is
// registered with, so a test reaches it by posting a closure there and
// waiting for the result. A closure that does nothing is a barrier: every
// task posted to the loop before it has run when it returns.
#pragma once

#include <future>
#include <type_traits>
#include <utility>

#include "net/event_loop.hpp"

namespace neptune::test_util {

template <typename Fn>
std::invoke_result_t<Fn&> run_on(EventLoop& loop, Fn&& fn) {
  std::packaged_task<std::invoke_result_t<Fn&>()> task(std::forward<Fn>(fn));
  auto result = task.get_future();
  loop.post([&task] { task(); });
  return result.get();
}

}  // namespace neptune::test_util
