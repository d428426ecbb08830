#include "fault/supervised_channel.hpp"

#include <algorithm>
#include <cstring>
#include <future>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"

namespace neptune::fault {
namespace {

/// Wait until every callback currently in flight on `loop` has finished.
/// A stopped loop (killed resource) runs no callbacks, so it is skipped;
/// the wait is bounded in case the loop stops concurrently.
void loop_barrier(EventLoop* loop) {
  if (!loop->loop_running()) return;
  auto done = std::make_shared<std::promise<void>>();
  auto fut = done->get_future();
  loop->post([done] { done->set_value(); });
  fut.wait_for(std::chrono::milliseconds(500));
}

/// Control frames (heartbeats, acks, EOF) are encoded into pooled buffers
/// and sent through the zero-copy ref path, so the steady-state ack stream
/// is allocation-free once the pool is warm.
FrameBufRef encode_control(uint8_t flags, uint32_t link_id, uint64_t ack_value,
                           bool with_payload) {
  FrameHeader h;
  h.flags = flags;
  h.link_id = link_id;
  FrameBufRef buf = FrameBufPool::global().acquire();
  if (with_payload) {
    uint8_t payload[8];
    for (int i = 0; i < 8; ++i) payload[i] = static_cast<uint8_t>(ack_value >> (8 * i));
    encode_frame(h, payload, buf->buffer());
  } else {
    encode_frame(h, {}, buf->buffer());
  }
  return buf;
}

void detach_connection(const std::shared_ptr<TcpConnection>& conn) {
  if (!conn) return;
  conn->set_data_callback({});
  conn->set_writable_callback({});
  conn->close();
}

}  // namespace

int64_t compute_reconnect_backoff_ns(const SupervisorConfig& config, uint32_t attempts,
                                     Xoshiro256& rng) {
  int64_t backoff = config.reconnect_backoff_ns;
  for (uint32_t i = 0; i + 1 < attempts; ++i)
    backoff = std::min(backoff * 2, config.reconnect_backoff_max_ns);
  double jitter = 1.0 + config.reconnect_jitter * (rng.next_double() * 2.0 - 1.0);
  int64_t ns = static_cast<int64_t>(static_cast<double>(backoff) * jitter);
  int64_t lo = std::max<int64_t>(config.reconnect_backoff_ns, 1);
  int64_t hi = std::max(config.reconnect_backoff_max_ns, lo);
  return std::clamp(ns, lo, hi);
}

// --- SupervisedTcpSender --------------------------------------------------------

SupervisedTcpSender::SupervisedTcpSender(EventLoop* loop, uint16_t port,
                                         const ChannelConfig& channel_config,
                                         const SupervisorConfig& config, const EdgeId& edge,
                                         FaultInjector* injector,
                                         std::atomic<uint64_t>* reconnect_counter,
                                         EdgeFailureHandler on_failure)
    : loop_(loop),
      port_(port),
      channel_config_(channel_config),
      config_(config),
      edge_(edge),
      injector_(injector),
      reconnect_counter_(reconnect_counter),
      on_failure_(std::move(on_failure)),
      jitter_rng_(config.jitter_seed != 0
                      ? config.jitter_seed
                      : 0x9E3779B9u ^ (static_cast<uint64_t>(port) << 32) ^ edge.link_id) {
  supervisor_ = std::thread([this] { supervise(); });
}

SupervisedTcpSender::~SupervisedTcpSender() {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  {
    std::lock_guard lk(mu_);
    conn = std::move(conn_);
    data_path_.reset();
  }
  detach_connection(conn);
  loop_barrier(loop_);
}

SendStatus SupervisedTcpSender::try_send(const FrameBufRef& frame) {
  size_t size = frame.size();
  {
    std::lock_guard lk(mu_);
    if (shutdown_ || hard_failed_ || eof_enqueued_) return SendStatus::kClosed;
    if (!retained_.empty() && retained_bytes_ + size > channel_config_.capacity_bytes) {
      blocked_ = true;
      return SendStatus::kBlocked;
    }
    retained_.push_back({frame, false});  // pins the caller's buffer
    retained_bytes_ += size;
    ++total_enqueued_;
    bytes_sent_.fetch_add(size, std::memory_order_relaxed);
  }
  pump();
  return SendStatus::kOk;
}

void SupervisedTcpSender::set_writable_callback(std::function<void()> cb) {
  std::lock_guard lk(mu_);
  writable_cb_ = std::move(cb);
}

bool SupervisedTcpSender::writable(size_t bytes) const {
  std::lock_guard lk(mu_);
  if (shutdown_ || hard_failed_ || eof_enqueued_) return false;
  return retained_.empty() || retained_bytes_ + bytes <= channel_config_.capacity_bytes;
}

void SupervisedTcpSender::close() {
  {
    std::lock_guard lk(mu_);
    if (shutdown_ || eof_enqueued_) return;
    FrameBufRef eof = encode_control(FrameHeader::kFlagEof, edge_.link_id, 0, false);
    retained_bytes_ += eof.size();
    retained_.push_back({std::move(eof), /*control=*/true});
    ++total_enqueued_;
    eof_enqueued_ = true;
  }
  pump();
  cv_.notify_all();
}

bool SupervisedTcpSender::delivery_complete() const {
  std::lock_guard lk(mu_);
  return done_;
}

bool SupervisedTcpSender::failed() const {
  std::lock_guard lk(mu_);
  return hard_failed_;
}

void SupervisedTcpSender::supervise() {
  std::unique_lock lk(mu_);
  while (!shutdown_ && !done_ && !hard_failed_) {
    if (link_state_ == LinkState::kDisconnected) {
      // attempts_ counts consecutive failures to reach a *working* link
      // (connect failures, and connections that died before the hello ack
      // arrived) — it resets only once the hello is received.
      if (attempts_ > config_.max_reconnect_attempts) {
        hard_failed_ = true;
        std::string what = "edge " + edge_.to_string() + ": reconnect budget exhausted (" +
                           std::to_string(config_.max_reconnect_attempts) + " attempts)";
        NEPTUNE_LOG_ERROR("%s", what.c_str());
        EdgeFailureHandler handler = on_failure_;
        std::function<void()> wake = writable_cb_;
        lk.unlock();
        if (wake) wake();  // blocked upstream observes kClosed
        if (handler) handler(what);
        lk.lock();
        break;
      }
      if (attempts_ > 0 || had_connection_) {
        auto wait = std::chrono::nanoseconds(
            compute_reconnect_backoff_ns(config_, std::max(attempts_, 1u), jitter_rng_));
        cv_.wait_for(lk, wait, [&] { return shutdown_; });
        if (shutdown_) break;
        if (link_state_ != LinkState::kDisconnected) continue;
      }
      lk.unlock();
      bool ok = attempt_connect();
      lk.lock();
      if (shutdown_) break;
      if (!ok) ++attempts_;
      continue;
    }

    cv_.wait_for(lk, std::chrono::nanoseconds(config_.heartbeat_interval_ns),
                 [&] { return shutdown_ || done_; });
    if (shutdown_ || done_) break;
    if (link_state_ == LinkState::kDisconnected) continue;
    if (!conn_ || conn_->closed()) {
      auto old = link_dead_locked("connection closed");
      lk.unlock();
      detach_connection(old);
      lk.lock();
      continue;
    }
    if (now_ns() - last_inbound_ns_ > config_.peer_timeout_ns) {
      auto old = link_dead_locked("peer timeout");
      lk.unlock();
      detach_connection(old);
      lk.lock();
      continue;
    }
    lk.unlock();
    send_heartbeat();
    lk.lock();
  }
}

bool SupervisedTcpSender::attempt_connect() {
  int fd = tcp_connect_blocking(port_, config_.connect_timeout_ms);
  if (fd < 0) return false;
  auto conn = TcpConnection::create(loop_, fd, channel_config_);
  conn->start();
  uint64_t inc;
  bool was_reconnect;
  {
    std::lock_guard lk(mu_);
    if (shutdown_) {
      conn->close();
      return true;
    }
    ++incarnation_;
    inc = incarnation_;
    conn_ = conn;
    data_path_ = wrap_sender(injector_, edge_, conn, loop_);
    link_state_ = LinkState::kAwaitHello;
    last_inbound_ns_ = now_ns();
    was_reconnect = had_connection_;
    had_connection_ = true;
  }
  if (was_reconnect) {
    NEPTUNE_LOG_INFO("supervised edge %s: reconnected", edge_.to_string().c_str());
    if (reconnect_counter_) reconnect_counter_->fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::record(
        obs::FlightRecorder::register_actor("edge " + edge_.to_string()),
        obs::FlightEventType::kReconnect,
        reconnect_counter_ ? reconnect_counter_->load(std::memory_order_relaxed) : 0,
        edge_.link_id);
  }
  // Set via the (possibly fault-wrapped) data path so a stall decorator can
  // re-fire the callback when its stall expires; it forwards to the
  // connection as well.
  std::shared_ptr<ChannelSender> path;
  {
    std::lock_guard lk(mu_);
    path = data_path_;
  }
  if (path) path->set_writable_callback([this] { pump(); });
  conn->set_data_callback([this, inc] { drain_acks(inc); });
  drain_acks(inc);  // the hello ack may have landed before the callback
  return true;
}

void SupervisedTcpSender::pump() {
  if (pumping_.exchange(true, std::memory_order_acquire)) return;
  for (;;) {
    std::shared_ptr<ChannelSender> path;
    FrameBufRef frame;
    uint64_t idx = 0, inc = 0;
    bool have_work = false;
    {
      std::lock_guard lk(mu_);
      if (!shutdown_ && link_state_ == LinkState::kStreaming && conn_ &&
          sent_through_ < total_enqueued_) {
        idx = sent_through_ + 1;
        size_t pos = static_cast<size_t>(idx - 1 - trimmed_);
        if (pos < retained_.size()) {
          const RetainedFrame& f = retained_[pos];
          frame = f.frame;  // extra ref: survives a concurrent ack trim
          path = f.control ? std::static_pointer_cast<ChannelSender>(conn_) : data_path_;
          inc = incarnation_;
          have_work = true;
        }
      }
    }
    if (!have_work) {
      pumping_.store(false, std::memory_order_release);
      // Re-check: work (or the hello) may have arrived while exiting.
      {
        std::lock_guard lk(mu_);
        if (shutdown_ || link_state_ != LinkState::kStreaming || sent_through_ >= total_enqueued_)
          return;
      }
      if (pumping_.exchange(true, std::memory_order_acquire)) return;
      continue;
    }
    // The connection pins the same buffer in its out queue — a
    // retransmission after reconnect sends these exact bytes again, no copy
    // at any hop.
    SendStatus st = path->try_send(frame);
    if (st == SendStatus::kOk) {
      std::lock_guard lk(mu_);
      if (inc == incarnation_ && sent_through_ < idx) sent_through_ = idx;
      continue;
    }
    if (st == SendStatus::kClosed) {
      std::shared_ptr<TcpConnection> old;
      {
        std::lock_guard lk(mu_);
        if (inc == incarnation_) old = link_dead_locked("send failed");
      }
      detach_connection(old);
    }
    // kBlocked: the writable callback will re-enter pump().
    pumping_.store(false, std::memory_order_release);
    return;
  }
}

void SupervisedTcpSender::drain_acks(uint64_t incarnation) {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard lk(mu_);
    if (incarnation != incarnation_ || !conn_) return;
    conn = conn_;
  }
  while (auto frame = conn->try_receive_buf()) {
    std::optional<DecodedFrame> f = decode_whole_frame(frame->contents());
    {
      std::lock_guard lk(mu_);
      if (incarnation != incarnation_) return;
      last_inbound_ns_ = now_ns();
    }
    if (!f) {
      // The ack stream is corrupt: drop the link and start over.
      std::shared_ptr<TcpConnection> old;
      {
        std::lock_guard lk(mu_);
        if (incarnation == incarnation_) old = link_dead_locked("corrupt ack frame");
      }
      detach_connection(old);
      return;
    }
    if ((f->header.flags & FrameHeader::kFlagAck) != 0 && f->payload.size() >= 8)
      handle_ack(ByteReader(f->payload).read_u64(), incarnation);
  }
}

void SupervisedTcpSender::handle_ack(uint64_t consumed, uint64_t incarnation) {
  std::function<void()> fire_writable;
  bool do_pump = false;
  {
    std::lock_guard lk(mu_);
    if (incarnation != incarnation_) return;
    if (consumed > total_enqueued_) consumed = total_enqueued_;
    if (link_state_ == LinkState::kAwaitHello) {
      // Hello: the receiver's authoritative consumed count tells us where
      // to resume; everything beyond it is retransmitted.
      link_state_ = LinkState::kStreaming;
      sent_through_ = std::max(consumed, trimmed_);
      attempts_ = 0;  // the link works end to end; reset the retry budget
      do_pump = true;
    }
    while (trimmed_ < consumed && !retained_.empty()) {
      retained_bytes_ -= retained_.front().frame.size();
      retained_.pop_front();  // releases the pin; the pool recycles the buffer
      ++trimmed_;
    }
    if (sent_through_ < trimmed_) sent_through_ = trimmed_;
    if (blocked_ && retained_bytes_ <= channel_config_.low_watermark_bytes) {
      blocked_ = false;
      fire_writable = writable_cb_;
    }
    if (eof_enqueued_ && trimmed_ == total_enqueued_ && !done_) {
      done_ = true;
      cv_.notify_all();
    }
    if (sent_through_ < total_enqueued_) do_pump = true;
  }
  if (fire_writable) fire_writable();
  if (do_pump) pump();
}

std::shared_ptr<TcpConnection> SupervisedTcpSender::link_dead_locked(const char* why) {
  if (link_state_ == LinkState::kDisconnected) return nullptr;
  NEPTUNE_LOG_INFO("supervised edge %s: link down (%s), will reconnect",
                   edge_.to_string().c_str(), why);
  if (link_state_ == LinkState::kAwaitHello) ++attempts_;  // never worked: burn budget
  std::shared_ptr<TcpConnection> old = std::move(conn_);
  conn_.reset();
  data_path_.reset();
  ++incarnation_;
  link_state_ = LinkState::kDisconnected;
  cv_.notify_all();
  return old;
}

void SupervisedTcpSender::send_heartbeat() {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard lk(mu_);
    if (link_state_ == LinkState::kDisconnected || !conn_) return;
    conn = conn_;
  }
  FrameBufRef frame = encode_control(FrameHeader::kFlagHeartbeat, edge_.link_id, 0, false);
  conn->try_send(frame);  // best effort; a dead link is caught by the timeout
}

// --- SupervisedTcpReceiver ------------------------------------------------------

SupervisedTcpReceiver::SupervisedTcpReceiver(EventLoop* loop, const ChannelConfig& channel_config,
                                             const SupervisorConfig& config, const EdgeId& edge,
                                             FaultInjector* injector,
                                             std::atomic<uint64_t>* corrupt_counter,
                                             uint16_t listen_port)
    : loop_(loop),
      channel_config_(channel_config),
      config_(config),
      edge_(edge),
      injector_(injector),
      corrupt_counter_(corrupt_counter) {
  last_inbound_ns_ = now_ns();
  listener_ = std::make_unique<TcpListener>(loop, listen_port, [this](int fd) { on_accept(fd); });
  supervisor_ = std::thread([this] { supervise(); });
}

SupervisedTcpReceiver::~SupervisedTcpReceiver() {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  {
    std::lock_guard lk(mu_);
    conn = std::move(conn_);
    rx_path_.reset();
  }
  detach_connection(conn);
  listener_.reset();
  loop_barrier(loop_);
}

void SupervisedTcpReceiver::on_accept(int fd) {
  auto conn = TcpConnection::create(loop_, fd, channel_config_);
  conn->start();
  std::shared_ptr<TcpConnection> old;
  uint64_t inc;
  {
    std::lock_guard lk(mu_);
    if (shutdown_) {
      conn->close();
      return;
    }
    old = std::move(conn_);
    conn_ = conn;
    rx_path_ = wrap_receiver(injector_, edge_, conn, loop_);
    // Discard everything not yet consumed: the hello ack below reports the
    // consumed count, and the sender retransmits from exactly that point.
    queue_.clear();
    ++incarnation_;
    inc = incarnation_;
    last_inbound_ns_ = now_ns();
  }
  accepts_.fetch_add(1, std::memory_order_relaxed);
  detach_connection(old);
  conn->set_data_callback([this, inc] { drain(inc); });
  send_ack();  // hello: tell the sender where to resume
  drain(inc);
}

void SupervisedTcpReceiver::drain(uint64_t incarnation) {
  std::shared_ptr<ChannelReceiver> rx;
  {
    std::lock_guard lk(mu_);
    if (incarnation != incarnation_ || shutdown_ || !rx_path_) return;
    rx = rx_path_;
  }
  bool need_ack = false;
  bool corrupt = false;
  bool notify = false;
  std::function<void()> data_cb;
  while (!corrupt) {
    auto frame = rx->try_receive_buf();
    if (!frame) break;
    // Every view is exactly one wire frame, CRC-checked here; a data frame
    // is queued as the same view (still pinning the transport's recv
    // chunk) — no copy, no re-encode.
    FrameDecodeStatus s = FrameDecodeStatus::kFrame;
    std::optional<DecodedFrame> f = decode_whole_frame(frame->contents(), &s);
    std::lock_guard lk(mu_);
    if (incarnation != incarnation_ || shutdown_) return;
    last_inbound_ns_ = now_ns();
    bytes_received_.fetch_add(frame->size(), std::memory_order_relaxed);
    bool was_empty = queue_.empty();
    if (!f) {
      NEPTUNE_LOG_INFO("supervised edge %s: corrupt frame (status %d), dropping connection",
                       edge_.to_string().c_str(), static_cast<int>(s));
      if (corrupt_counter_) corrupt_counter_->fetch_add(1, std::memory_order_relaxed);
      corrupt = true;
    } else if ((f->header.flags & FrameHeader::kFlagHeartbeat) != 0) {
      need_ack = true;
    } else if ((f->header.flags & FrameHeader::kFlagAck) != 0) {
      // Not expected on this side; ignore.
    } else if ((f->header.flags & FrameHeader::kFlagEof) != 0) {
      queue_.push_back({FrameBufRef{}, /*eof=*/true});
    } else {
      queue_.push_back({std::move(*frame), /*eof=*/false});
    }
    if (was_empty && !queue_.empty()) {
      notify = true;
      data_cb = data_cb_;
    }
  }
  if (corrupt) {
    // Drop the link: the sender reconnects and retransmits everything past
    // our consumed mark, so the corrupted frame is re-delivered intact.
    std::shared_ptr<TcpConnection> bad;
    {
      std::lock_guard lk(mu_);
      if (incarnation == incarnation_) bad = conn_;
    }
    detach_connection(bad);
  }
  if (need_ack) send_ack();
  if (notify && data_cb) data_cb();
}

std::optional<FrameBufRef> SupervisedTcpReceiver::try_receive_buf() {
  std::optional<FrameBufRef> out;
  bool ack = false;
  {
    std::lock_guard lk(mu_);
    while (!queue_.empty()) {
      QueuedFrame& f = queue_.front();
      if (f.eof) {
        ++consumed_;
        eof_consumed_ = true;
        queue_.pop_front();
        ack = true;
        continue;
      }
      out = std::move(f.frame);
      queue_.pop_front();
      ++consumed_;
      ack = true;
      break;
    }
  }
  if (ack) send_ack();
  return out;
}

void SupervisedTcpReceiver::set_data_callback(std::function<void()> cb) {
  std::lock_guard lk(mu_);
  data_cb_ = std::move(cb);
}

bool SupervisedTcpReceiver::closed() const {
  std::lock_guard lk(mu_);
  return eof_consumed_ && queue_.empty();
}

void SupervisedTcpReceiver::send_ack() {
  std::shared_ptr<TcpConnection> conn;
  uint64_t consumed;
  {
    std::lock_guard lk(mu_);
    if (!conn_) return;
    conn = conn_;
    consumed = consumed_;
  }
  FrameBufRef frame = encode_control(FrameHeader::kFlagAck, edge_.link_id, consumed, true);
  conn->try_send(frame);  // best effort; acks are cumulative
}

void SupervisedTcpReceiver::supervise() {
  std::unique_lock lk(mu_);
  while (!shutdown_) {
    cv_.wait_for(lk, std::chrono::nanoseconds(config_.heartbeat_interval_ns),
                 [&] { return shutdown_; });
    if (shutdown_) break;
    if (!conn_ || eof_consumed_) continue;
    if (conn_->closed()) continue;  // awaiting the sender's reconnect
    if (now_ns() - last_inbound_ns_ > config_.peer_timeout_ns) {
      NEPTUNE_LOG_INFO("supervised edge %s: no inbound for %lld ms, dropping connection",
                       edge_.to_string().c_str(),
                       static_cast<long long>(config_.peer_timeout_ns / 1'000'000));
      std::shared_ptr<TcpConnection> dead = conn_;
      last_inbound_ns_ = now_ns();  // avoid re-firing every tick
      lk.unlock();
      detach_connection(dead);
      lk.lock();
    }
  }
}

}  // namespace neptune::fault
