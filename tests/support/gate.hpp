// A consumer the test holds. An operator calls wait() and blocks until the
// test calls open(), so "the downstream is stuck" is a fact the test
// controls rather than a relative-speed accident.
#pragma once

#include <condition_variable>
#include <mutex>

namespace neptune::test_util {

class Gate {
 public:
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }
  void open() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

}  // namespace neptune::test_util
