#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"
#include "net/frame.hpp"

namespace neptune {
namespace {

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in loopback_addr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Receive chunk size. Frames larger than this get a dedicated exact-size
/// buffer, so the common case stays one recv per many small frames.
constexpr size_t kRxChunkBytes = 256 * 1024;

/// Pool for receive chunks, separate from FrameBufPool::global() so the
/// large socket-read buffers don't crowd the frame pool's free list. Leaky
/// for the same reason as the global pool: views may be in flight on
/// detached IO threads at exit.
FrameBufPool& rx_chunk_pool() {
  static FrameBufPool* pool = new FrameBufPool(/*max_idle=*/64);
  return *pool;
}

/// Source of the exact-size buffers of frames larger than a chunk. It keeps
/// nothing idle, so such a buffer is freed when its last view drops instead
/// of coming back, fully touched, as a later chunk.
FrameBufPool& rx_oversize_pool() {
  static FrameBufPool* pool = new FrameBufPool(/*max_idle=*/0);
  return *pool;
}

}  // namespace

TcpTransportStats& TcpTransportStats::global() {
  static TcpTransportStats stats;
  return stats;
}

std::shared_ptr<TcpConnection> TcpConnection::create(EventLoop* loop, int fd,
                                                     const ChannelConfig& config) {
  return std::shared_ptr<TcpConnection>(new TcpConnection(loop, fd, config));
}

TcpConnection::TcpConnection(EventLoop* loop, int fd, const ChannelConfig& config)
    : loop_(loop), fd_(fd), config_(config) {
  set_nonblocking(fd_);
  set_nodelay(fd_);
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpConnection::start() {
  if (started_.exchange(true)) return;
  loop_->post([self = shared_from_this()] {
    if (self->closed_.load()) return;
    self->loop_->add_fd(self->fd_, self->interest(),
                        [self](uint32_t events) { self->handle_events(events); });
  });
}

void TcpConnection::handle_events(uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_on_loop();
    return;
  }
  if (events & EPOLLIN) handle_readable();
  // Keep draining EPOLLOUT after close(): a graceful close flushes the
  // remaining outbound queue before the fd is detached.
  if (detached_) return;
  if (events & EPOLLOUT) handle_writable();
}

void TcpConnection::rx_ensure_chunk(size_t min_room) {
  size_t cap = rx_buf_ ? rx_buf_->size() : 0;
  if (rx_buf_ && cap - rx_filled_ >= min_room && cap > rx_filled_) return;

  // Need a fresh chunk. Size it to hold the pending partial frame when its
  // header already names the extent (big frames get a dedicated exact-size
  // buffer so they complete without further relocation).
  size_t pending = rx_filled_ - rx_carved_;
  size_t want = kRxChunkBytes;
  if (pending >= FrameHeader::kSize) {
    size_t extent = 0;
    if (peek_frame_extent({rx_buf_->buffer().data() + rx_carved_, pending}, &extent) ==
            FrameDecodeStatus::kFrame &&
        extent > want) {
      want = extent;
    }
  }
  if (want < pending + min_room) want = pending + min_room;

  FrameBufRef fresh = (want > kRxChunkBytes ? rx_oversize_pool() : rx_chunk_pool()).acquire();
  fresh->buffer().resize(want);  // sized once; never reallocated after views exist
  if (pending > 0) {
    // Splice the partial tail forward — the only copy on the receive path,
    // bounded by one chunk's worth of bytes per oversized frame.
    std::memcpy(fresh->buffer().data(), rx_buf_->buffer().data() + rx_carved_, pending);
    auto& stats = TcpTransportStats::global();
    stats.rx_copies.fetch_add(1, std::memory_order_relaxed);
    stats.rx_splice_bytes.fetch_add(pending, std::memory_order_relaxed);
  }
  TcpTransportStats::global().rx_chunks.fetch_add(1, std::memory_order_relaxed);
  rx_buf_ = std::move(fresh);
  rx_filled_ = pending;
  rx_carved_ = 0;
}

bool TcpConnection::rx_carve_frames(std::deque<FrameBufRef>& ready) {
  auto& stats = TcpTransportStats::global();
  const uint8_t* base = rx_buf_->buffer().data();
  for (;;) {
    size_t avail = rx_filled_ - rx_carved_;
    if (avail < FrameHeader::kSize) return true;
    size_t extent = 0;
    if (peek_frame_extent({base + rx_carved_, avail}, &extent) != FrameDecodeStatus::kFrame)
      return false;  // corrupt header (bad magic/length)
    if (avail < extent) return true;  // partial frame: wait for more bytes
    ready.push_back(rx_buf_.slice(rx_carved_, extent));
    rx_carved_ += extent;
    stats.rx_frames.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TcpConnection::rx_deliver(size_t n) {
  rx_filled_ += n;
  const size_t before = in_q_.size();
  const bool intact = rx_carve_frames(in_q_);
  for (size_t i = before; i < in_q_.size(); ++i) in_bytes_ += in_q_[i].size();
  if (before == 0 && !in_q_.empty()) {
    std::function<void()> cb = data_cb_;  // a copy: the callback may replace it
    if (cb) cb();
  }
  if (intact) return true;
  // The stream cannot be re-synchronized past a bad header. Frames carved
  // before it stay readable; supervised edges reconnect and retransmit.
  NEPTUNE_LOG_INFO("tcp fd %d: corrupt frame header, closing connection", fd_);
  close_on_loop();
  return false;
}

void TcpConnection::handle_readable() {
  // Drain until EAGAIN or the inbound cap. recv() lands directly in the
  // current pooled chunk; rx_deliver queues the whole frames carved from
  // the new bytes.
  for (;;) {
    if (in_bytes_ >= config_.capacity_bytes) {
      // Inbound queue full: stop reading. This is the watermark that
      // ultimately closes the peer's TCP window.
      if (!reading_paused_) {
        reading_paused_ = true;
        update_interest();
      }
      return;
    }
    rx_ensure_chunk(/*min_room=*/1);
    size_t room = rx_buf_->size() - rx_filled_;
    ssize_t n = ::recv(fd_, rx_buf_->buffer().data() + rx_filled_, room, 0);
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      if (!rx_deliver(static_cast<size_t>(n)) || detached_) return;
      continue;
    }
    if (n == 0) {  // orderly shutdown by peer
      close_on_loop();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_on_loop();
    return;
  }
}

void TcpConnection::handle_writable() {
  // Gather up to kMaxIov queued frames into one sendmsg. Everything queued
  // since the last drain leaves together: try_send only queues and arms
  // EPOLLOUT, so the frames of one pump (or one tick) share a syscall.
  auto& stats = TcpTransportStats::global();
  while (!out_q_.empty()) {
    struct iovec iov[kMaxIov];
    int iovcnt = 0;
    for (auto it = out_q_.begin(); it != out_q_.end() && iovcnt < kMaxIov; ++it) {
      std::span<const uint8_t> bytes = it->contents();
      size_t off = iovcnt == 0 ? out_head_offset_ : 0;
      iov[iovcnt].iov_base = const_cast<uint8_t*>(bytes.data() + off);
      iov[iovcnt].iov_len = bytes.size() - off;
      ++iovcnt;
    }
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    stats.sendmsg_calls.fetch_add(1, std::memory_order_relaxed);
    stats.sendmsg_iovecs.fetch_add(static_cast<uint64_t>(iovcnt), std::memory_order_relaxed);
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_on_loop();
      return;
    }
    bytes_sent_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    out_bytes_ -= static_cast<size_t>(n);
    // Retire fully written frames (releasing their refs) and advance the
    // partial-write offset into the new front.
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      size_t remain = out_q_.front().size() - out_head_offset_;
      if (left >= remain) {
        left -= remain;
        out_q_.pop_front();
        out_head_offset_ = 0;
      } else {
        out_head_offset_ += left;
        left = 0;
      }
    }
  }
  const bool finish_close = closing_ && out_q_.empty();
  if (out_q_.empty() == epollout_armed_) {
    epollout_armed_ = !out_q_.empty();
    update_interest();
  }
  if (out_blocked_ && out_bytes_ <= config_.low_watermark_bytes) {
    out_blocked_ = false;
    std::function<void()> cb = writable_cb_;  // a copy: the callback may replace it
    if (cb) cb();
  }
  // Graceful close: the queue accepted before close() has fully reached the
  // kernel — now the fd can go.
  if (finish_close) detach_on_loop();
}

uint32_t TcpConnection::interest() const {
  uint32_t events = 0;
  if (!reading_paused_) events |= EPOLLIN;
  if (epollout_armed_) events |= EPOLLOUT;
  return events;
}

void TcpConnection::update_interest() {
  if (!detached_) loop_->mod_fd(fd_, interest());
}

SendStatus TcpConnection::try_send(const FrameBufRef& frame) {
  if (!frame || frame.size() == 0) return SendStatus::kOk;
  // A close() from another thread flips closed_ at once; a frame queued
  // just before it still flushes, since the close runs after this call.
  if (closed_.load(std::memory_order_acquire)) return SendStatus::kClosed;
  size_t size = frame.size();
  if (out_bytes_ + size > config_.capacity_bytes && out_bytes_ > 0) {
    out_blocked_ = true;
    return SendStatus::kBlocked;
  }
  out_q_.push_back(frame);  // pin our own ref
  out_bytes_ += size;
  TcpTransportStats::global().tx_frames.fetch_add(1, std::memory_order_relaxed);
  if (!epollout_armed_) {
    epollout_armed_ = true;
    update_interest();
  }
  return SendStatus::kOk;
}

void TcpConnection::set_writable_callback(std::function<void()> cb) {
  writable_cb_ = std::move(cb);
}

bool TcpConnection::writable(size_t bytes) const {
  if (closed_.load(std::memory_order_acquire)) return false;
  return out_bytes_ == 0 || out_bytes_ + bytes <= config_.capacity_bytes;
}

void TcpConnection::close() {
  // Flip closed_ *synchronously* so a send racing this close observes
  // kClosed instead of enqueueing bytes that would silently vanish with the
  // socket. The fd itself is detached on the loop thread (detach_on_loop is
  // idempotent) — but only after the outbound queue drains: bytes accepted
  // with kOk before the close must reach the wire (the runtime's EOF frame
  // rides behind the data tail).
  closed_.store(true, std::memory_order_release);
  loop_->post([self = shared_from_this()] {
    if (self->detached_) return;
    if (self->out_q_.empty()) {
      self->detach_on_loop();
      return;
    }
    self->closing_ = true;
    self->handle_writable();  // flush now; EPOLLOUT continues if it blocks
  });
}

void TcpConnection::close_on_loop() {
  closed_.store(true, std::memory_order_release);
  detach_on_loop();
}

void TcpConnection::detach_on_loop() {
  if (detached_) return;
  detached_ = true;
  loop_->del_fd(fd_);
  ::shutdown(fd_, SHUT_RDWR);
  // Copies: a callback may replace either one.
  std::function<void()> cb = writable_cb_;     // wake blocked senders to observe kClosed
  std::function<void()> data_cb = data_cb_;    // wake the receiver to observe end-of-stream
  if (cb) cb();
  if (data_cb) data_cb();
}

void TcpConnection::set_data_callback(std::function<void()> cb) { data_cb_ = std::move(cb); }

std::optional<FrameBufRef> TcpConnection::try_receive_buf() {
  if (in_q_.empty()) return std::nullopt;
  FrameBufRef view = std::move(in_q_.front());
  in_q_.pop_front();
  in_bytes_ -= view.size();
  if (reading_paused_ && in_bytes_ <= config_.low_watermark_bytes) {
    reading_paused_ = false;
    update_interest();
  }
  return view;
}

bool TcpConnection::closed() const {
  return closed_.load(std::memory_order_acquire) && in_q_.empty();
}

TcpListener::TcpListener(EventLoop* loop, uint16_t port, AcceptCallback on_accept)
    : loop_(loop), on_accept_(std::move(on_accept)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd_);
    throw std::runtime_error("bind() failed");
  }
  socklen_t len = sizeof addr;
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, 128) < 0) {
    ::close(fd_);
    throw std::runtime_error("listen() failed");
  }
  int fd = fd_;
  loop_->post([this, fd] {
    loop_->add_fd(fd, EPOLLIN, [this, fd](uint32_t) {
      for (;;) {
        int conn = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (conn < 0) return;  // EAGAIN or error; either way stop for now
        on_accept_(conn);
      }
    });
  });
}

TcpListener::~TcpListener() {
  int fd = fd_;
  EventLoop* loop = loop_;
  loop->post([loop, fd] {
    loop->del_fd(fd);
    ::close(fd);
  });
}

int tcp_connect_blocking(uint16_t port, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = loopback_addr(port);
  // Simple bounded retry: the listener may still be registering.
  int waited = 0;
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    if (errno == EINTR) continue;
    if (waited >= timeout_ms) {
      ::close(fd);
      return -1;
    }
    struct timespec ts{0, 10 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    waited += 10;
  }
  set_nonblocking(fd);
  return fd;
}

int tcp_connect_nonblocking(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = loopback_addr(port);
  // EINTR, like EINPROGRESS, leaves the handshake running.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 ||
      errno == EINPROGRESS || errno == EINTR)
    return fd;
  ::close(fd);
  return -1;
}

}  // namespace neptune
