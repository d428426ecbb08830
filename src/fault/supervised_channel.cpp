#include "fault/supervised_channel.hpp"

#include <unistd.h>

#include <algorithm>
#include <future>
#include <utility>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight_recorder.hpp"

namespace neptune::fault {
namespace {

/// Wait until every task posted to `loop` so far has run. A stopped loop
/// (killed resource) runs no tasks, so it is skipped; the wait is bounded in
/// case the loop stops concurrently.
void loop_barrier(EventLoop* loop) {
  if (!loop->loop_running()) return;
  auto done = std::make_shared<std::promise<void>>();
  auto fut = done->get_future();
  loop->post([done] { done->set_value(); });
  fut.wait_for(std::chrono::milliseconds(500));
}

/// Loop thread: silence the connection and close it.
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
  tick_timer_ = loop_->run_every(config_.heartbeat_interval_ns, [this] { tick(); });
  loop_->post([this] { schedule_connect(); });
}

SupervisedTcpSender::~SupervisedTcpSender() {
  // Tasks run in order, so the barrier also waits out a pump, tick or
  // connect already queued or running.
  loop_->post([this] {
    shutdown_ = true;
    loop_->cancel_timer(tick_timer_);
    loop_->cancel_timer(connect_timer_);  // 0 (none pending) names no timer
    data_path_.reset();
    detach_connection(std::exchange(conn_, nullptr));
  });
  loop_barrier(loop_);
}

SendStatus SupervisedTcpSender::try_send(const FrameBufRef& frame) {
  size_t size = frame.size();
  {
    std::lock_guard lk(mu_);
    if (hard_failed_ || eof_enqueued_) return SendStatus::kClosed;
    if (!retained_.empty() && retained_bytes_ + size > channel_config_.capacity_bytes) {
      blocked_ = true;
      return SendStatus::kBlocked;
    }
    retained_.push_back({frame, false});  // pins the caller's buffer
    retained_bytes_ += size;
    ++total_enqueued_;
  }
  bytes_sent_.fetch_add(size, std::memory_order_relaxed);
  post_pump();
  return SendStatus::kOk;
}

void SupervisedTcpSender::set_writable_callback(std::function<void()> cb) {
  std::lock_guard lk(mu_);
  writable_cb_ = std::move(cb);
}

bool SupervisedTcpSender::writable(size_t bytes) const {
  std::lock_guard lk(mu_);
  if (hard_failed_ || eof_enqueued_) return false;
  return retained_.empty() || retained_bytes_ + bytes <= channel_config_.capacity_bytes;
}

void SupervisedTcpSender::close() {
  {
    std::lock_guard lk(mu_);
    if (eof_enqueued_) return;
    FrameBufRef eof = encode_signal_frame(FrameHeader::kFlagEof, edge_.link_id, {});
    retained_bytes_ += eof.size();
    retained_.push_back({std::move(eof), /*control=*/true});
    ++total_enqueued_;
    eof_enqueued_ = true;
  }
  post_pump();
}

bool SupervisedTcpSender::delivery_complete() const {
  std::lock_guard lk(mu_);
  return done_;
}

bool SupervisedTcpSender::failed() const {
  std::lock_guard lk(mu_);
  return hard_failed_;
}

void SupervisedTcpSender::post_pump() {
  // The flag clears before the pump reads retained_, so a frame appended
  // after that read posts the next pump.
  if (pump_posted_.exchange(true)) return;
  loop_->post([this] {
    pump_posted_.store(false);
    pump();
  });
}

void SupervisedTcpSender::schedule_connect() {
  if (shutdown_ || done_ || hard_failed_) return;
  // The first connect, and the report of an exhausted budget, go at once.
  int64_t delay = 0;
  if ((attempts_ > 0 || had_connection_) && attempts_ <= config_.max_reconnect_attempts)
    delay = compute_reconnect_backoff_ns(config_, std::max(attempts_, 1u), jitter_rng_);
  connect_timer_ = loop_->run_after(delay, [this] { connect(); });
}

void SupervisedTcpSender::connect() {
  connect_timer_ = 0;
  if (shutdown_ || done_ || hard_failed_ || link_state_ != LinkState::kDisconnected) return;
  // attempts_ counts consecutive failures to reach a *working* link
  // (refused connects, and connections that died before the hello ack
  // arrived) — it resets only once the hello is received.
  if (attempts_ > config_.max_reconnect_attempts) {
    std::string what = "edge " + edge_.to_string() + ": reconnect budget exhausted (" +
                       std::to_string(config_.max_reconnect_attempts) + " attempts)";
    std::function<void()> wake;
    {
      std::lock_guard lk(mu_);
      hard_failed_ = true;
      wake = writable_cb_;
    }
    NEPTUNE_LOG_ERROR("%s", what.c_str());
    if (wake) wake();  // blocked upstream observes kClosed
    if (on_failure_) on_failure_(what);
    return;
  }
  // A refused handshake closes the connection (EPOLLERR); one that never
  // completes delivers no hello within peer_timeout.
  int fd = tcp_connect_nonblocking(port_);
  if (fd < 0) {
    ++attempts_;
    schedule_connect();
    return;
  }
  conn_ = TcpConnection::create(loop_, fd, channel_config_);
  data_path_ = wrap_sender(injector_, edge_, conn_, loop_);
  ++incarnation_;
  link_state_ = LinkState::kAwaitHello;
  last_inbound_ns_ = now_ns();
  if (had_connection_) {
    NEPTUNE_LOG_INFO("supervised edge %s: reconnected", edge_.to_string().c_str());
    if (reconnect_counter_) reconnect_counter_->fetch_add(1, std::memory_order_relaxed);
    obs::FlightRecorder::record(
        obs::FlightRecorder::register_actor("edge " + edge_.to_string()),
        obs::FlightEventType::kReconnect,
        reconnect_counter_ ? reconnect_counter_->load(std::memory_order_relaxed) : 0,
        edge_.link_id);
  }
  had_connection_ = true;
  // Set via the (possibly fault-wrapped) data path so a stall decorator can
  // re-fire the callback when its stall expires; it forwards to the
  // connection as well.
  data_path_->set_writable_callback([this] { pump(); });
  conn_->set_data_callback([this, inc = incarnation_] { drain_acks(inc); });
  conn_->start();  // on the loop: registers at once, before any byte can arrive
}

void SupervisedTcpSender::tick() {
  if (shutdown_ || done_ || hard_failed_ || link_state_ == LinkState::kDisconnected) return;
  if (conn_->closed()) return link_dead("connection closed");
  if (now_ns() - last_inbound_ns_ > config_.peer_timeout_ns) return link_dead("peer timeout");
  // Best effort; a dead link is caught by the timeout. The pump runs on
  // this thread too and queues only whole frames, so the heartbeat cannot
  // land inside one.
  conn_->try_send(encode_signal_frame(FrameHeader::kFlagHeartbeat, edge_.link_id, {}));
}

void SupervisedTcpSender::pump() {
  if (in_pump_ || shutdown_ || link_state_ != LinkState::kStreaming) return;
  in_pump_ = true;
  // Own refs: a send's callbacks may drop the link and release these.
  const std::shared_ptr<TcpConnection> conn = conn_;
  const std::shared_ptr<ChannelSender> data_path = data_path_;
  const uint64_t inc = incarnation_;
  for (;;) {
    RetainedFrame next;
    {
      std::lock_guard lk(mu_);
      if (sent_through_ >= total_enqueued_) break;
      next = retained_[static_cast<size_t>(sent_through_ - trimmed_)];
    }
    // The connection pins the same buffer in its out queue — a
    // retransmission after reconnect sends these exact bytes again, no copy
    // at any hop. It only queues: the frames of this pass leave together.
    SendStatus st = next.control ? conn->try_send(next.frame) : data_path->try_send(next.frame);
    if (inc != incarnation_) break;  // the link dropped inside the send
    if (st == SendStatus::kOk) {
      ++sent_through_;
      continue;
    }
    if (st == SendStatus::kClosed) link_dead("send failed");
    break;  // kBlocked: the writable callback pumps again
  }
  in_pump_ = false;
}

void SupervisedTcpSender::drain_acks(uint64_t incarnation) {
  if (incarnation != incarnation_) return;
  const std::shared_ptr<TcpConnection> conn = conn_;  // an ack may drop the link
  while (auto frame = conn->try_receive_buf()) {
    last_inbound_ns_ = now_ns();
    std::optional<DecodedFrame> f = decode_whole_frame(frame->contents());
    if (!f) return link_dead("corrupt ack frame");  // start over
    if ((f->header.flags & FrameHeader::kFlagAck) != 0 && f->payload.size() >= 8)
      handle_ack(ByteReader(f->payload).read_u64());
    if (incarnation != incarnation_) return;
  }
  // Closing wakes this callback too (refused connect, reset): count it now.
  if (conn->closed() && !done_) link_dead("connection closed");
}

void SupervisedTcpSender::handle_ack(uint64_t consumed) {
  std::function<void()> wake;
  {
    std::lock_guard lk(mu_);
    if (consumed > total_enqueued_) consumed = total_enqueued_;
    while (trimmed_ < consumed && !retained_.empty()) {
      retained_bytes_ -= retained_.front().frame.size();
      retained_.pop_front();  // releases the pin; the pool recycles the buffer
      ++trimmed_;
    }
    if (blocked_ && retained_bytes_ <= channel_config_.low_watermark_bytes) {
      blocked_ = false;
      wake = writable_cb_;
    }
    if (eof_enqueued_ && trimmed_ == total_enqueued_) done_ = true;
  }
  if (link_state_ == LinkState::kAwaitHello) {
    // Hello: the receiver's authoritative consumed count tells us where
    // to resume; everything beyond it is retransmitted.
    link_state_ = LinkState::kStreaming;
    sent_through_ = consumed;
    attempts_ = 0;  // the link works end to end; reset the retry budget
  }
  if (sent_through_ < trimmed_) sent_through_ = trimmed_;
  if (wake) wake();
  pump();
}

void SupervisedTcpSender::link_dead(const char* why) {
  if (link_state_ == LinkState::kDisconnected) return;
  NEPTUNE_LOG_INFO("supervised edge %s: link down (%s), will reconnect",
                   edge_.to_string().c_str(), why);
  if (link_state_ == LinkState::kAwaitHello) ++attempts_;  // never worked: burn budget
  ++incarnation_;
  link_state_ = LinkState::kDisconnected;
  data_path_.reset();
  detach_connection(std::exchange(conn_, nullptr));
  schedule_connect();
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
  tick_timer_ = loop_->run_every(config_.heartbeat_interval_ns, [this] { tick(); });
}

SupervisedTcpReceiver::~SupervisedTcpReceiver() {
  // Tasks run in order, so the barrier also waits out an ack or a drain
  // already queued or running.
  loop_->post([this] {
    shutdown_ = true;
    loop_->cancel_timer(tick_timer_);
    rx_path_.reset();
    detach_connection(std::exchange(conn_, nullptr));
    listener_.reset();  // on the loop: no accept can follow
  });
  loop_barrier(loop_);
}

void SupervisedTcpReceiver::on_accept(int fd) {
  if (shutdown_) {
    ::close(fd);
    return;
  }
  detach_connection(conn_);
  conn_ = TcpConnection::create(loop_, fd, channel_config_);
  rx_path_ = wrap_receiver(injector_, edge_, conn_, loop_);
  {
    // Discard everything not yet consumed: the hello ack below reports the
    // consumed count, and the sender retransmits from exactly that point.
    std::lock_guard lk(mu_);
    queue_.clear();
  }
  ++incarnation_;
  last_inbound_ns_ = now_ns();
  conn_->set_data_callback([this, inc = incarnation_] { drain(inc); });
  conn_->start();  // on the loop: registers at once, before any byte can arrive
  send_ack();      // hello: tell the sender where to resume
}

void SupervisedTcpReceiver::drain(uint64_t incarnation) {
  if (incarnation != incarnation_ || shutdown_) return;
  const std::shared_ptr<ChannelReceiver> rx = rx_path_;
  bool heartbeat = false;
  bool corrupt = false;
  std::function<void()> wake;
  while (!corrupt) {
    auto frame = rx->try_receive_buf();
    if (!frame) break;
    last_inbound_ns_ = now_ns();
    bytes_received_.fetch_add(frame->size(), std::memory_order_relaxed);
    // Every view is exactly one wire frame, CRC-checked here; a data frame
    // is queued as the same view (still pinning the transport's recv
    // chunk) — no copy, no re-encode.
    FrameDecodeStatus s = FrameDecodeStatus::kFrame;
    std::optional<DecodedFrame> f = decode_whole_frame(frame->contents(), &s);
    if (!f) {
      NEPTUNE_LOG_INFO("supervised edge %s: corrupt frame (status %d), dropping connection",
                       edge_.to_string().c_str(), static_cast<int>(s));
      if (corrupt_counter_) corrupt_counter_->fetch_add(1, std::memory_order_relaxed);
      corrupt = true;
    } else if ((f->header.flags & FrameHeader::kFlagHeartbeat) != 0) {
      heartbeat = true;
    } else if ((f->header.flags & FrameHeader::kFlagAck) != 0) {
      // Not expected on this side; ignore.
    } else {
      const bool eof = (f->header.flags & FrameHeader::kFlagEof) != 0;
      std::lock_guard lk(mu_);
      if (queue_.empty()) wake = data_cb_;
      queue_.push_back({eof ? FrameBufRef{} : std::move(*frame), eof});
    }
  }
  // Drop the link on a corrupt frame: the sender reconnects and retransmits
  // everything past our consumed mark, so the frame is re-delivered intact.
  if (corrupt) detach_connection(conn_);
  if (heartbeat) send_ack();
  if (wake) wake();
}

std::optional<FrameBufRef> SupervisedTcpReceiver::try_receive_buf() {
  std::optional<FrameBufRef> out;
  {
    std::lock_guard lk(mu_);
    if (queue_.empty()) return out;
    while (!queue_.empty()) {
      QueuedFrame& f = queue_.front();
      ++consumed_;
      if (f.eof) {
        eof_consumed_ = true;
        queue_.pop_front();
        continue;
      }
      out = std::move(f.frame);
      queue_.pop_front();
      break;
    }
  }
  // Acks are cumulative: the loop sends consumed_ as of when the ack runs,
  // so one pending ack covers every frame popped before it.
  if (!ack_posted_.exchange(true)) {
    loop_->post([this] {
      ack_posted_.store(false);
      send_ack();
    });
  }
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
  if (!conn_ || shutdown_) return;
  uint64_t consumed;
  {
    std::lock_guard lk(mu_);
    consumed = consumed_;
  }
  // Best effort; acks are cumulative.
  conn_->try_send(encode_signal_frame(FrameHeader::kFlagAck, edge_.link_id, consumed));
}

void SupervisedTcpReceiver::tick() {
  // A closed connection is awaiting the sender's reconnect.
  if (shutdown_ || !conn_ || conn_->closed()) return;
  {
    std::lock_guard lk(mu_);
    if (eof_consumed_) return;
  }
  if (now_ns() - last_inbound_ns_ <= config_.peer_timeout_ns) return;
  NEPTUNE_LOG_INFO("supervised edge %s: no inbound for %lld ms, dropping connection",
                   edge_.to_string().c_str(),
                   static_cast<long long>(config_.peer_timeout_ns / 1'000'000));
  last_inbound_ns_ = now_ns();  // avoid re-firing every tick
  detach_connection(conn_);
}

}  // namespace neptune::fault
