// Counting this process's threads, for tests that pin the thread model:
// a resource runs one worker pool and one IO pool, and nothing else.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iterator>
#include <thread>

namespace neptune::test_util {

/// Threads of this process that are alive now. One thread is started and
/// joined first: ThreadSanitizer's runtime starts a background thread of its
/// own at the first thread creation, and that one must be counted from the
/// first call on, not show up between two calls.
inline size_t live_threads() {
  std::thread([] {}).join();
  namespace fs = std::filesystem;
  return static_cast<size_t>(std::distance(fs::directory_iterator("/proc/self/task"),
                                           fs::directory_iterator()));
}

}  // namespace neptune::test_util
