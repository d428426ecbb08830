// In-process channel: the transport used when communicating stream
// operators are deployed in resources within one OS process (and by tests
// and benchmarks, where its determinism matters). Semantics mirror the TCP
// transport: bounded in-flight bytes, watermark-driven writability, FIFO,
// lossless.
//
// Frames ride a lock-free SpscRing of FrameBufRefs: the sender's pooled
// buffer is handed to the receiver by refcount, zero payload copies. Every
// user has exactly one producer and one consumer at a time (runtime edges:
// one StreamBuffer feeds the sender under its mutex, one scheduled task
// drains the receiver; the DST harness is single-threaded; the Storm
// baseline runs one transfer and one receive thread per worker pair).
// Wakeups are coalesced: the data callback fires only when the consumer
// has armed it (observed the ring empty), so a burst of N frames costs one
// notification, not N.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "common/queues.hpp"
#include "net/channel.hpp"

namespace neptune {

/// Create a connected sender/receiver pair sharing one bounded byte budget.
struct InprocPipe {
  std::shared_ptr<ChannelSender> sender;
  std::shared_ptr<ChannelReceiver> receiver;
};
InprocPipe make_inproc_pipe(const ChannelConfig& config = {});

/// Shared state of an in-process pipe. Exposed for white-box tests.
class InprocChannel final : public ChannelSender, public ChannelReceiver {
 public:
  /// Frame-slot capacity of the ring. A full ring is backpressure, exactly
  /// like an exhausted byte budget.
  static constexpr size_t kSpscFrames = 1024;

  explicit InprocChannel(const ChannelConfig& config);

  // ChannelSender
  SendStatus try_send(const FrameBufRef& frame) override;
  void set_writable_callback(std::function<void()> cb) override;
  bool writable(size_t bytes) const override;
  void close() override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(std::memory_order_relaxed); }

  // ChannelReceiver
  std::optional<FrameBufRef> try_receive_buf() override;
  void set_data_callback(std::function<void()> cb) override;
  bool closed() const override;
  uint64_t bytes_received() const override {
    return bytes_received_.load(std::memory_order_relaxed);
  }

  size_t in_flight_bytes() const { return in_flight_.load(std::memory_order_acquire); }
  /// Frames currently queued (in-flight). White-box probe for capacity
  /// invariants: in_flight_bytes() may exceed capacity only when a single
  /// oversized frame was admitted into an empty pipe.
  size_t queued_frames() const { return ring_.size_approx(); }
  /// True when a sender hit the budget and the writable wakeup has not yet
  /// fired — i.e. the backpressure wakeup obligation is still armed at the
  /// channel. White-box probe for lost-wakeup invariants.
  bool writable_wakeup_armed() const { return was_blocked_.load(std::memory_order_acquire); }

 private:
  /// Post-pop bookkeeping: budget release, writable wakeup.
  void note_popped(size_t bytes);

  const ChannelConfig config_;

  // Producer: the sending task's flush path (serialized by its
  // StreamBuffer mutex). Consumer: the receiving task (serialized by the
  // scheduler).
  SpscRing<FrameBufRef> ring_{kSpscFrames};

  mutable std::mutex mu_;  // guards the callbacks
  std::function<void()> writable_cb_;
  std::function<void()> data_cb_;

  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> was_blocked_{false};  // a sender hit the budget since last drain
  /// Data-callback coalescing (Dekker-style): the consumer arms this
  /// whenever it leaves the ring empty; a producer push fires the callback
  /// only if it trades the flag from armed to disarmed. Starts armed so the
  /// very first frame notifies.
  std::atomic<bool> wakeup_armed_{true};

  // Relaxed atomics so telemetry gauges can read them lock-free off the
  // sampler thread, mirroring the TCP transport.
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

}  // namespace neptune
