// Supervised TCP channel (tentpole layer 2: failure detection + retry).
//
// A supervised edge wraps the raw TcpConnection transport with an
// ack-window protocol that makes the link *self-healing*: connection
// resets, corrupt frames and partial writes are repaired by reconnecting
// and retransmitting, invisibly to the operators above — the channel still
// presents the plain ChannelSender/ChannelReceiver contract and still
// delivers every frame exactly once, in order.
//
// Protocol (all control frames use the flags in FrameHeader):
//
//   sender                                     receiver
//     | -------- data frame 1..N ----------------> |  (CRC-checked, queued)
//     | <------- ack(consumed=c) ----------------- |  sent after frames are
//     |                                            |  *consumed* upstream
//     | -------- heartbeat (every interval) -----> |
//     | <------- ack(consumed=c) ----------------- |  heartbeat response
//     | -------- eof frame (index N+1) ----------> |  graceful end-of-stream
//
// * The sender retains every unacked frame; the retention window doubles as
//   the flow-control budget (capacity_bytes), so backpressure is preserved.
// * Acks follow *consumption* (the runtime popping a frame), not receipt.
//   They are cumulative, so one ack covers every frame consumed before it
//   leaves. On a healthy link acks keep flowing even under backpressure
//   (heartbeat responses), so "no inbound for peer_timeout" unambiguously
//   means the peer or the link is dead — backpressure and failure are
//   distinguished.
// * On reconnect the receiver discards its unconsumed queue and replies
//   with a hello ack carrying its authoritative consumed count c; the
//   sender trims retained frames <= c and retransmits everything > c.
//   Duplicates are impossible by construction; the runtime's per-edge
//   sequence dedupe is a defence-in-depth backstop.
// * A corrupt frame (CRC/format failure) never reaches the runtime: the
//   receiver drops the connection, forcing reconnect + retransmission.
// * Reconnects use exponential backoff with jitter and a bounded attempt
//   budget; exhausting the budget reports a hard edge failure upward
//   (where the RecoveryCoordinator takes over).
// * Supervision owns no thread: a periodic tick (heartbeat, liveness) and the
//   sender's non-blocking connect are timers on the endpoint's IO loop. No hello
//   within peer_timeout kills a connection, pending handshake or silent peer.
//
// Threads. Each endpoint, its TcpConnection and all link state belong to
// the IO loop the endpoint is bound to. A worker thread touches only the
// frame queue (`retained_` on the sender, `queue_` on the receiver) under
// `mu_`, then posts one pump or one ack to the loop unless one is already
// pending. One thread thus orders every link transition: a heartbeat can
// never land inside a frame being written, and a stale incarnation's
// callback never overlaps the current one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "net/frame.hpp"
#include "net/tcp_transport.hpp"

namespace neptune::fault {

struct SupervisorConfig {
  int64_t heartbeat_interval_ns = 50'000'000;    ///< sender probe period (50 ms)
  int64_t peer_timeout_ns = 500'000'000;         ///< silence => peer dead (500 ms)
  int64_t reconnect_backoff_ns = 10'000'000;     ///< initial backoff (10 ms)
  int64_t reconnect_backoff_max_ns = 500'000'000;
  double reconnect_jitter = 0.2;                 ///< +/- fraction of the backoff
  uint32_t max_reconnect_attempts = 10;          ///< per outage, then hard failure
  /// Jitter RNG seed; 0 derives one from the edge (port ^ link), which
  /// decorrelates edges but is not reproducible across port assignments.
  /// Set non-zero for deterministic backoff schedules in tests.
  uint64_t jitter_seed = 0;
};

/// Backoff before reconnect attempt number `attempts` (the count of
/// consecutive failures so far, >= 1): exponential from
/// `reconnect_backoff_ns`, doubling per prior failure, capped at
/// `reconnect_backoff_max_ns`, then jittered by +/- `reconnect_jitter` and
/// clamped back into [reconnect_backoff_ns, reconnect_backoff_max_ns] so
/// jitter can neither hammer the peer faster than the configured base nor
/// overshoot the cap. Pure except for advancing `rng`; exposed for tests.
int64_t compute_reconnect_backoff_ns(const SupervisorConfig& config, uint32_t attempts,
                                     Xoshiro256& rng);

/// Called once, on the sender's IO loop thread, when an edge fails permanently.
using EdgeFailureHandler = std::function<void(const std::string& what)>;

/// Sending endpoint of a supervised TCP edge. Owns the connect side: it
/// establishes the initial connection and re-establishes it after any
/// failure, retransmitting unacked frames.
class SupervisedTcpSender final : public ChannelSender {
 public:
  SupervisedTcpSender(EventLoop* loop, uint16_t port, const ChannelConfig& channel_config,
                      const SupervisorConfig& config, const EdgeId& edge,
                      FaultInjector* injector, std::atomic<uint64_t>* reconnect_counter,
                      EdgeFailureHandler on_failure);
  ~SupervisedTcpSender() override;

  // ChannelSender, from any thread. close() is the *graceful* path: it
  // enqueues the EOF frame and keeps the machinery alive until the receiver
  // acks it (or the sender is destroyed).
  /// The pooled frame is pinned in the retention window and retransmitted
  /// from the same ref after a reconnect — never copied.
  SendStatus try_send(const FrameBufRef& frame) override;
  void set_writable_callback(std::function<void()> cb) override;
  bool writable(size_t bytes) const override;
  void close() override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(std::memory_order_relaxed); }

  /// True once the EOF frame has been acked (stream fully delivered).
  bool delivery_complete() const;
  /// True once the reconnect budget was exhausted and on_failure fired.
  bool failed() const;

 private:
  enum class LinkState { kDisconnected, kAwaitHello, kStreaming };

  struct RetainedFrame {
    FrameBufRef frame;     ///< pinned wire frame; retransmits reuse this ref
    bool control = false;  ///< EOF: bypasses the fault decorator
  };

  void post_pump();  // any thread: one pending pump at a time
  // Loop thread only.
  void schedule_connect();
  void connect();
  void tick();  // heartbeat, liveness
  void pump();
  void drain_acks(uint64_t incarnation);
  void handle_ack(uint64_t consumed);
  void link_dead(const char* why);  // detaches the connection, schedules a reconnect

  EventLoop* loop_;
  const uint16_t port_;
  const ChannelConfig channel_config_;
  const SupervisorConfig config_;
  const EdgeId edge_;
  FaultInjector* injector_;
  std::atomic<uint64_t>* reconnect_counter_;
  EdgeFailureHandler on_failure_;

  // Shared with worker threads, guarded by mu_. done_ and hard_failed_ are
  // written only by the loop.
  mutable std::mutex mu_;
  std::deque<RetainedFrame> retained_;            // unacked frames, oldest first
  size_t retained_bytes_ = 0;
  uint64_t total_enqueued_ = 0;                   // frames ever appended (incl. EOF)
  bool eof_enqueued_ = false;
  bool done_ = false;                             // EOF acked
  bool hard_failed_ = false;
  bool blocked_ = false;
  std::function<void()> writable_cb_;
  std::atomic<bool> pump_posted_{false};
  std::atomic<uint64_t> bytes_sent_{0};

  // Loop thread only.
  uint64_t trimmed_ = 0;                          // frames acked + dropped from retained_
  uint64_t sent_through_ = 0;                     // frames transmitted on current conn
  LinkState link_state_ = LinkState::kDisconnected;
  std::shared_ptr<TcpConnection> conn_;
  std::shared_ptr<ChannelSender> data_path_;      // conn_ or fault-wrapped conn_
  uint64_t incarnation_ = 0;                      // bumped per connection
  bool had_connection_ = false;
  uint32_t attempts_ = 0;                         // consecutive failed connects
  int64_t last_inbound_ns_ = 0;
  bool shutdown_ = false;                         // destructor ran
  bool in_pump_ = false;                          // a send's callback re-entered pump()
  Xoshiro256 jitter_rng_;
  EventLoop::TimerId connect_timer_ = 0;          // pending connect, 0 = none
  EventLoop::TimerId tick_timer_ = 0;             // set once in the constructor
};

/// Receiving endpoint of a supervised TCP edge. Owns a persistent listener
/// (one ephemeral port per edge) so the sender can reconnect at any time;
/// CRC-validates every inbound frame, consumes control frames, and acks
/// consumption.
class SupervisedTcpReceiver final : public ChannelReceiver {
 public:
  /// `listen_port` 0 picks an ephemeral port (in-process deployments read it
  /// back via port()); non-zero binds that exact port, which multi-process
  /// deployments need so peers can compute the address without a handshake.
  SupervisedTcpReceiver(EventLoop* loop, const ChannelConfig& channel_config,
                        const SupervisorConfig& config, const EdgeId& edge,
                        FaultInjector* injector, std::atomic<uint64_t>* corrupt_counter,
                        uint16_t listen_port = 0);
  ~SupervisedTcpReceiver() override;

  /// Port the sender must connect (and reconnect) to.
  uint16_t port() const { return listener_->port(); }

  // ChannelReceiver, from any thread.
  /// Yields the validated frame as the same pooled view the transport
  /// carved from its recv chunk.
  std::optional<FrameBufRef> try_receive_buf() override;
  void set_data_callback(std::function<void()> cb) override;
  bool closed() const override;
  uint64_t bytes_received() const override {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  /// drain() CRC-checks each frame before queueing it.
  bool verifies_frames() const override { return true; }

 private:
  struct QueuedFrame {
    FrameBufRef frame;  ///< validated wire frame view (null for EOF)
    bool eof = false;
  };

  // Loop thread only.
  void on_accept(int fd);
  void drain(uint64_t incarnation);
  void send_ack();  // the consumed count as of now
  void tick();

  EventLoop* loop_;
  const ChannelConfig channel_config_;
  const SupervisorConfig config_;
  const EdgeId edge_;
  FaultInjector* injector_;
  std::atomic<uint64_t>* corrupt_counter_;

  // Shared with worker threads, guarded by mu_.
  mutable std::mutex mu_;
  std::deque<QueuedFrame> queue_;                 // validated, unconsumed frames
  uint64_t consumed_ = 0;                         // frames handed upstream (incl. EOF)
  bool eof_consumed_ = false;
  std::function<void()> data_cb_;
  std::atomic<bool> ack_posted_{false};
  std::atomic<uint64_t> bytes_received_{0};

  // Loop thread only (the listener is created in the constructor).
  std::unique_ptr<TcpListener> listener_;
  std::shared_ptr<TcpConnection> conn_;
  std::shared_ptr<ChannelReceiver> rx_path_;      // conn_ or fault-wrapped conn_
  uint64_t incarnation_ = 0;
  bool shutdown_ = false;
  int64_t last_inbound_ns_ = 0;
  EventLoop::TimerId tick_timer_ = 0;             // set once in the constructor
};

}  // namespace neptune::fault
