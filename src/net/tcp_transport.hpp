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
// A connection belongs to the IO loop it is registered with: every method
// except create(), start(), close() and the byte counters runs on that
// loop's thread, so the connection needs no lock. Worker threads reach a
// connection only through the supervised channel above it
// (fault/supervised_channel.hpp), which posts its work to the same loop.
//
// Zero-copy data path (docs/INTERNALS.md §14):
//   * Outbound: try_send(FrameBufRef) pins the pooled frame in the out
//     queue and arms EPOLLOUT; the drain gathers the frames queued since,
//     up to kMaxIov, into one sendmsg(iovec[]) syscall and releases each
//     ref as its bytes complete.
//   * Inbound: recv() lands directly in a pooled chunk, which is carved
//     into whole wire frames at the socket; consumers get one windowed
//     FrameBufRef view per frame, so the bytes written by the kernel are
//     the bytes the runtime parses. A corrupt frame header closes the
//     connection (supervised edges then reconnect and retransmit).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

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
  /// start() to register with the loop.
  static std::shared_ptr<TcpConnection> create(EventLoop* loop, int fd,
                                               const ChannelConfig& config = {});
  ~TcpConnection() override;

  /// Registers the fd with the loop (posted; safe from any thread).
  void start();

  // ChannelSender (loop thread, except close() and bytes_sent()).
  SendStatus try_send(const FrameBufRef& frame) override;
  void set_writable_callback(std::function<void()> cb) override;
  bool writable(size_t bytes) const override;
  /// Safe from any thread: later sends see kClosed at once, and the frames
  /// already accepted flush before the fd is detached.
  void close() override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(std::memory_order_relaxed); }

  // ChannelReceiver (loop thread, except bytes_received()).
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

  TcpConnection(EventLoop* loop, int fd, const ChannelConfig& config);

  void handle_events(uint32_t events);
  void handle_readable();
  void handle_writable();
  void rx_ensure_chunk(size_t min_room);
  bool rx_deliver(size_t n);  // false: corrupt header, connection closed
  bool rx_carve_frames(std::deque<FrameBufRef>& ready);
  uint32_t interest() const;
  void update_interest();
  void close_on_loop();
  void detach_on_loop();  // idempotent teardown

  EventLoop* loop_;
  int fd_;
  const ChannelConfig config_;
  std::atomic<bool> started_{false};
  std::atomic<bool> closed_{false};  // set by close() from any thread

  // Everything below is touched by the loop thread only.
  std::deque<FrameBufRef> out_q_;  // pinned frames, oldest first
  size_t out_head_offset_ = 0;     // bytes of out_q_.front() already written
  size_t out_bytes_ = 0;
  bool out_blocked_ = false;       // a try_send was rejected since last drain
  bool closing_ = false;           // close() waits for out_q_ to flush before detach
  bool epollout_armed_ = false;
  std::function<void()> writable_cb_;

  std::deque<FrameBufRef> in_q_;  // one wire frame per view
  size_t in_bytes_ = 0;
  bool reading_paused_ = false;
  std::function<void()> data_cb_;

  // Receive staging. Views queued into in_q_ cover fully written bytes that
  // are never rewritten: recv() only appends past rx_filled_.
  FrameBufRef rx_buf_;    // current pooled chunk being filled
  size_t rx_filled_ = 0;  // bytes of rx_buf_ written by recv()
  size_t rx_carved_ = 0;  // bytes of rx_buf_ already delivered upstream

  bool detached_ = false;  // fd removed from the loop
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

/// Non-blocking connect to 127.0.0.1:`port`. Returns a non-blocking fd that
/// is connected or still completing its handshake (a refusal then surfaces
/// as EPOLLERR/EPOLLHUP on the loop), or -1 when connect() fails at once.
int tcp_connect_nonblocking(uint16_t port);

}  // namespace neptune
