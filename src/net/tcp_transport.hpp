// TCP transport: non-blocking sockets driven by an EventLoop. A
// TcpConnection implements the same ChannelSender/ChannelReceiver contract
// as the in-process pipe, but backpressure is carried end-to-end by real
// TCP flow control exactly as in the paper (§III-B4):
//
//   receiver stops draining -> inbound queue hits its cap -> EPOLLIN
//   interest dropped -> kernel receive buffer fills -> TCP window closes ->
//   sender's kernel buffer fills -> writes return EAGAIN -> outbound chain
//   grows past the budget -> try_send returns kBlocked -> upstream operator
//   is descheduled.
//
// Zero-copy data path (docs/INTERNALS.md §14):
//   * Outbound: try_send(FrameBufRef) pins the pooled frame in the out
//     queue; the drain gathers many queued frames' bytes into one
//     sendmsg(iovec[]) syscall and releases each ref as its bytes complete.
//   * Inbound: recv() lands directly in a large pooled chunk, which is
//     carved into whole wire frames at the socket; consumers get one
//     windowed FrameBufRef view per frame, so the bytes written by the
//     kernel are the bytes the runtime parses. A corrupt frame header
//     closes the connection (supervised edges then reconnect and
//     retransmit).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "net/channel.hpp"
#include "net/event_loop.hpp"
#include "net/frame_buf.hpp"

namespace neptune {

/// Process-wide transport counters (relaxed atomics, one cache line of
/// cost). The runtime exports them as telemetry series so the zero-copy
/// claim is observable in production, not just asserted in tests.
struct TcpTransportStats {
  std::atomic<uint64_t> tx_frames{0};       ///< frames enqueued for send
  std::atomic<uint64_t> rx_chunks{0};       ///< pooled recv chunks filled
  std::atomic<uint64_t> rx_frames{0};       ///< whole frames carved from the stream
  std::atomic<uint64_t> rx_copies{0};       ///< partial-frame tails spliced across chunks
  std::atomic<uint64_t> rx_splice_bytes{0}; ///< bytes those splices moved
  std::atomic<uint64_t> sendmsg_calls{0};   ///< drain syscalls issued
  std::atomic<uint64_t> sendmsg_iovecs{0};  ///< iovecs across those syscalls (ratio = batching)

  static TcpTransportStats& global();
};

class TcpConnection final : public ChannelSender,
                            public ChannelReceiver,
                            public std::enable_shared_from_this<TcpConnection> {
 public:
  /// Takes ownership of a connected, non-blocking fd. Must be followed by
  /// start() (from any thread) to register with the loop.
  static std::shared_ptr<TcpConnection> create(EventLoop* loop, int fd,
                                               const ChannelConfig& config = {});
  ~TcpConnection() override;

  void start();

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

  int fd() const { return fd_; }

 private:
  /// Scatter-gather width per sendmsg. Linux caps msg_iovlen at IOV_MAX
  /// (1024); 64 already amortizes the syscall across a full wakeup's worth
  /// of small frames while keeping the on-stack iovec array tiny.
  static constexpr int kMaxIov = 64;
  /// Pooled receive chunk size. Frames larger than this get a dedicated
  /// exact-size buffer, so the common case stays one recv per many small
  /// frames.
  static constexpr size_t kRxChunkBytes = 256 * 1024;

  TcpConnection(EventLoop* loop, int fd, const ChannelConfig& config);

  void handle_events(uint32_t events);      // loop thread
  void handle_readable();                   // loop thread
  void handle_writable();                   // loop thread
  bool rx_ensure_chunk(size_t min_room);    // loop thread
  bool rx_deliver(size_t n);                // loop thread; false: corrupt, closed
  bool rx_carve_frames(std::deque<FrameBufRef>& ready);  // loop thread
  void update_interest();                   // loop thread
  void close_on_loop();                     // loop thread
  void detach_on_loop();                    // loop thread; idempotent teardown
  void maybe_resume_reading();

  EventLoop* loop_;
  int fd_;
  const ChannelConfig config_;
  std::atomic<bool> started_{false};

  // --- outbound (guarded by out_mu_) ---------------------------------------
  mutable std::mutex out_mu_;
  std::deque<FrameBufRef> out_q_;  // pinned frames, oldest first
  size_t out_head_offset_ = 0;  // bytes of out_q_.front() already written
  size_t out_bytes_ = 0;
  bool out_blocked_ = false;      // a try_send was rejected since last drain
  bool out_draining_ = false;     // a drain is mid-syscall with out_mu_ dropped
  bool closing_ = false;          // close() waits for out_q_ to flush before detach
  bool epollout_armed_ = false;
  std::function<void()> writable_cb_;

  // --- inbound (guarded by in_mu_) -------------------------------------------
  mutable std::mutex in_mu_;
  std::deque<FrameBufRef> in_q_;  // one wire frame per view
  size_t in_bytes_ = 0;
  bool reading_paused_ = false;
  std::function<void()> data_cb_;

  // Receive staging (loop thread only). Consumers never touch these: they
  // only see completed views queued into in_q_, whose byte ranges are fully
  // written before publication (the in_mu_ hand-off orders the accesses)
  // and never rewritten — recv() only appends past rx_filled_.
  FrameBufRef rx_buf_;    // current pooled chunk being filled
  size_t rx_filled_ = 0;  // bytes of rx_buf_ written by recv()
  size_t rx_carved_ = 0;  // bytes of rx_buf_ already delivered upstream

  std::atomic<bool> closed_{false};
  bool detached_ = false;  // loop thread only: fd removed from the loop
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

/// Listening socket; invokes the accept callback (on the loop thread) with
/// each new connected, non-blocking fd.
class TcpListener {
 public:
  using AcceptCallback = std::function<void(int fd)>;

  /// Binds 127.0.0.1:`port` (port 0 picks a free port; see port()).
  TcpListener(EventLoop* loop, uint16_t port, AcceptCallback on_accept);
  ~TcpListener();

  uint16_t port() const { return port_; }

 private:
  EventLoop* loop_;
  int fd_ = -1;
  uint16_t port_ = 0;
  AcceptCallback on_accept_;
};

/// Blocking connect to 127.0.0.1:`port`; returns a connected non-blocking
/// fd, or -1 on failure.
int tcp_connect_blocking(uint16_t port, int timeout_ms = 5000);

}  // namespace neptune
