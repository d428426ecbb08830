// Counting this process's threads, for tests that pin the thread model:
// a resource runs one worker pool and one IO pool, and nothing else.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iterator>

namespace neptune::test_util {

/// Threads of this process that are alive now.
inline size_t live_threads() {
  namespace fs = std::filesystem;
  return static_cast<size_t>(std::distance(fs::directory_iterator("/proc/self/task"),
                                           fs::directory_iterator()));
}

}  // namespace neptune::test_util
