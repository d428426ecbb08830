#include "net/inproc_transport.hpp"

namespace neptune {

InprocChannel::InprocChannel(const ChannelConfig& config) : config_(config) {}

SendStatus InprocChannel::try_send(const FrameBufRef& frame) {
  const size_t sz = frame.size();
  if (closed_.load(std::memory_order_acquire)) return SendStatus::kClosed;
  // A frame larger than the whole budget is still accepted when the pipe
  // is empty — otherwise it could never be sent at all. The budget check is
  // conservative: a concurrent drain can only lower in_flight_, so the
  // worst case is one spurious kBlocked, repaired by the writable wakeup.
  const size_t in_flight = in_flight_.load(std::memory_order_acquire);
  if (in_flight + sz > config_.capacity_bytes && in_flight > 0) {
    was_blocked_.store(true, std::memory_order_release);
    return SendStatus::kBlocked;
  }
  in_flight_.fetch_add(sz, std::memory_order_acq_rel);
  if (!ring_.try_push(frame)) {
    // Ring slots exhausted before the byte budget: treat as backpressure.
    in_flight_.fetch_sub(sz, std::memory_order_acq_rel);
    was_blocked_.store(true, std::memory_order_release);
    return SendStatus::kBlocked;
  }
  bytes_sent_.fetch_add(sz, std::memory_order_relaxed);

  // Dekker handshake with the consumer's arm-then-recheck in
  // try_receive_buf: publish the push before inspecting the flag.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (wakeup_armed_.exchange(false, std::memory_order_acq_rel)) {
    std::function<void()> cb;
    {
      std::lock_guard lk(mu_);
      cb = data_cb_;
    }
    if (cb) cb();
  }
  return SendStatus::kOk;
}

void InprocChannel::set_data_callback(std::function<void()> cb) {
  std::lock_guard lk(mu_);
  data_cb_ = std::move(cb);
}

void InprocChannel::set_writable_callback(std::function<void()> cb) {
  std::lock_guard lk(mu_);
  writable_cb_ = std::move(cb);
}

bool InprocChannel::writable(size_t bytes) const {
  if (closed_.load(std::memory_order_acquire)) return false;
  if (ring_.size_approx() >= ring_.capacity()) return false;
  const size_t in_flight = in_flight_.load(std::memory_order_acquire);
  return in_flight == 0 || in_flight + bytes <= config_.capacity_bytes;
}

void InprocChannel::close() {
  std::function<void()> cb;
  std::function<void()> data_cb;
  {
    std::lock_guard lk(mu_);
    closed_.store(true, std::memory_order_release);
    cb = writable_cb_;   // wake blocked senders so they observe kClosed
    data_cb = data_cb_;  // wake the receiver so it observes end-of-stream
  }
  if (cb) cb();
  if (data_cb) data_cb();
}

void InprocChannel::note_popped(size_t bytes) {
  in_flight_.fetch_sub(bytes, std::memory_order_acq_rel);
  bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  if (ring_.size_approx() == 0) {
    // Re-arm the coalesced data wakeup *before* the producer-side recheck
    // window closes (fence pairs with try_send's).
    wakeup_armed_.store(true, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (ring_.size_approx() != 0 && wakeup_armed_.exchange(false, std::memory_order_acq_rel)) {
      // A push raced in between pop and arm; we own the wakeup now, and we
      // are the consumer — no callback needed, the caller keeps draining.
    }
  }
  const size_t in_flight = in_flight_.load(std::memory_order_acquire);
  const bool ring_relieved = ring_.size_approx() <= ring_.capacity() / 2;
  if (was_blocked_.load(std::memory_order_acquire) &&
      (in_flight <= config_.low_watermark_bytes && ring_relieved)) {
    if (was_blocked_.exchange(false, std::memory_order_acq_rel)) {
      std::function<void()> cb;
      {
        std::lock_guard lk(mu_);
        cb = writable_cb_;
      }
      if (cb) cb();
    }
  }
}

std::optional<FrameBufRef> InprocChannel::try_receive_buf() {
  auto v = ring_.try_pop();
  if (!v) {
    wakeup_armed_.store(true, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    v = ring_.try_pop();  // re-check: a push may have raced with arming
    if (!v) return std::nullopt;
  }
  note_popped(v->size());
  return v;
}

bool InprocChannel::closed() const {
  return closed_.load(std::memory_order_acquire) && ring_.size_approx() == 0;
}

InprocPipe make_inproc_pipe(const ChannelConfig& config) {
  auto ch = std::make_shared<InprocChannel>(config);
  return InprocPipe{ch, ch};
}

}  // namespace neptune
