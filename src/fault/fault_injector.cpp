#include "fault/fault_injector.hpp"

#include <algorithm>
#include <deque>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace neptune::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kReset: return "reset";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kPartialWrite: return "partial-write";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDelay: return "delay";
  }
  return "?";
}

std::string EdgeId::to_string() const {
  return "L" + std::to_string(link_id) + ":" + std::to_string(src_instance) + "->" +
         std::to_string(dst_instance);
}

void FaultInjector::add_rule(FaultRule rule) {
  std::lock_guard lk(mu_);
  rules_.push_back(rule);
}

void FaultInjector::set_random(RandomFaultConfig config) {
  std::lock_guard lk(mu_);
  random_ = config;
  random_enabled_ = true;
  rng_ = Xoshiro256(config.seed);
}

void FaultInjector::add_overload(OverloadProfile profile) {
  std::lock_guard lk(mu_);
  overloads_.push_back(profile);
  epoch_ns_ = 0;  // re-anchor: windows are relative to the next frame seen
}

bool FaultInjector::overload_active() const {
  std::lock_guard lk(mu_);
  if (overloads_.empty() || epoch_ns_ == 0) return false;
  int64_t elapsed = now_ns() - epoch_ns_;
  for (const OverloadProfile& p : overloads_) {
    if (elapsed >= p.start_ns && (p.duration_ns == 0 || elapsed < p.start_ns + p.duration_ns))
      return true;
  }
  return false;
}

FaultAction FaultInjector::overload_action_locked(const EdgeId& edge, int64_t now) {
  if (overloads_.empty()) return {};
  if (epoch_ns_ == 0) epoch_ns_ = now;
  int64_t elapsed = now - epoch_ns_;
  for (const OverloadProfile& p : overloads_) {
    if (elapsed < p.start_ns) continue;
    if (p.duration_ns != 0 && elapsed >= p.start_ns + p.duration_ns) continue;
    if (!p.any_edge && !(p.edge == edge)) continue;
    if (p.stall_probability < 1.0) {
      double u = static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53;
      if (u >= p.stall_probability) continue;
    }
    return {FaultKind::kStall, p.stall_ns, 0};
  }
  return {};
}

void FaultInjector::schedule_resource_kill(size_t resource_index, int64_t at_ns_after_start) {
  std::lock_guard lk(mu_);
  kills_.push_back({resource_index, at_ns_after_start, false});
}

std::vector<ResourceKill> FaultInjector::resource_kills() const {
  std::lock_guard lk(mu_);
  return kills_;
}

void FaultInjector::mark_kill_executed(size_t resource_index) {
  std::lock_guard lk(mu_);
  for (auto& k : kills_) {
    if (k.resource_index == resource_index && !k.executed) {
      k.executed = true;
      return;
    }
  }
}

void FaultInjector::count(FaultKind kind) {
  std::lock_guard lk(mu_);
  switch (kind) {
    case FaultKind::kReset: ++stats_.resets; break;
    case FaultKind::kCorrupt: ++stats_.corruptions; break;
    case FaultKind::kPartialWrite: ++stats_.partial_writes; break;
    case FaultKind::kStall: ++stats_.stalls; break;
    case FaultKind::kDelay: ++stats_.delays; break;
    case FaultKind::kNone: break;
  }
}

FaultInjectorStats FaultInjector::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

FaultAction FaultInjector::match_locked(const EdgeId& edge, uint64_t frame_index,
                                        bool receive_side) {
  for (const FaultRule& r : rules_) {
    bool side_matches = receive_side == (r.action.kind == FaultKind::kDelay);
    if (!side_matches) continue;
    if (!r.any_edge && !(r.edge == edge)) continue;
    if (frame_index < r.at_frame) continue;
    uint64_t offset = frame_index - r.at_frame;
    if (offset == 0 || (r.repeat_every > 0 && offset % r.repeat_every == 0)) return r.action;
  }
  if (random_enabled_ && !receive_side) {
    double u = static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53;
    if (u < random_.reset_probability) return {FaultKind::kReset, 0, 0};
    u -= random_.reset_probability;
    if (u < random_.corrupt_probability)
      return {FaultKind::kCorrupt, 0, FrameHeader::kSize + rng_.next_below(64)};
    u -= random_.corrupt_probability;
    if (u < random_.stall_probability) return {FaultKind::kStall, random_.stall_ns, 0};
  }
  return {};
}

FaultAction FaultInjector::next_send_action(const EdgeId& edge) {
  std::lock_guard lk(mu_);
  uint64_t index = send_frame_index_[edge]++;
  FaultAction a = match_locked(edge, index, /*receive_side=*/false);
  if (a.kind != FaultKind::kNone) return a;
  return overload_action_locked(edge, now_ns());
}

FaultAction FaultInjector::next_receive_action(const EdgeId& edge) {
  std::lock_guard lk(mu_);
  uint64_t index = receive_frame_index_[edge]++;
  return match_locked(edge, index, /*receive_side=*/true);
}

namespace {

/// Decorating sender: applies scheduled faults to frames on their way into
/// the wrapped channel. One instance per (edge, connection incarnation);
/// schedule state lives in the injector so it spans reconnects.
class FaultingSender final : public ChannelSender {
 public:
  FaultingSender(FaultInjector* injector, EdgeId edge, std::shared_ptr<ChannelSender> inner,
                 EventLoop* loop)
      : injector_(injector), edge_(edge), inner_(std::move(inner)), loop_(loop) {}

  SendStatus try_send(const FrameBufRef& frame) override {
    {
      std::lock_guard lk(mu_);
      if (stall_until_ns_ != 0) {
        if (now_ns() < stall_until_ns_) return SendStatus::kBlocked;
        stall_until_ns_ = 0;
      }
    }
    FaultAction a = injector_->next_send_action(edge_);
    switch (a.kind) {
      case FaultKind::kNone:
      case FaultKind::kDelay:
        return inner_->try_send(frame);
      case FaultKind::kReset:
        injector_->count(a.kind);
        NEPTUNE_LOG_INFO("fault: reset on %s", edge_.to_string().c_str());
        inner_->close();
        return SendStatus::kClosed;
      case FaultKind::kCorrupt: {
        // Copy this one frame so the flip never touches a buffer the sender
        // still retains for retransmission.
        injector_->count(a.kind);
        FrameBufRef bad = FrameBufPool::global().acquire();
        bad->buffer().write_bytes(frame.contents());
        size_t at = bad->size() == 0 ? 0 : std::min(a.byte_offset, bad->size() - 1);
        if (bad->size() > 0) bad->buffer().data()[at] ^= 0x5A;
        NEPTUNE_LOG_INFO("fault: corrupt on %s (byte %zu)", edge_.to_string().c_str(), at);
        return inner_->try_send(bad);
      }
      case FaultKind::kPartialWrite: {
        injector_->count(a.kind);
        size_t cut = frame.size() < 2 ? 0 : std::clamp<size_t>(a.byte_offset, 1, frame.size() - 1);
        NEPTUNE_LOG_INFO("fault: partial write on %s (%zu of %zu bytes)",
                         edge_.to_string().c_str(), cut, frame.size());
        if (cut > 0) inner_->try_send(frame.slice(0, cut));
        inner_->close();
        return SendStatus::kClosed;
      }
      case FaultKind::kStall: {
        injector_->count(a.kind);
        std::function<void()> cb;
        {
          std::lock_guard lk(mu_);
          stall_until_ns_ = now_ns() + a.delay_ns;
          cb = writable_cb_;
        }
        if (loop_ && cb) loop_->run_after(a.delay_ns, cb);
        return SendStatus::kBlocked;
      }
    }
    return inner_->try_send(frame);
  }

  void set_writable_callback(std::function<void()> cb) override {
    {
      std::lock_guard lk(mu_);
      writable_cb_ = cb;
    }
    inner_->set_writable_callback(std::move(cb));
  }

  bool writable(size_t bytes) const override {
    {
      std::lock_guard lk(mu_);
      if (stall_until_ns_ != 0 && now_ns() < stall_until_ns_) return false;
    }
    return inner_->writable(bytes);
  }

  void close() override { inner_->close(); }
  uint64_t bytes_sent() const override { return inner_->bytes_sent(); }

 private:
  FaultInjector* injector_;
  const EdgeId edge_;
  std::shared_ptr<ChannelSender> inner_;
  EventLoop* loop_;
  mutable std::mutex mu_;
  int64_t stall_until_ns_ = 0;
  std::function<void()> writable_cb_;
};

/// Decorating receiver: applies delayed-delivery faults to frames surfaced
/// from the wrapped channel. Order is preserved: a delayed frame delays
/// everything behind it.
class FaultingReceiver final : public ChannelReceiver,
                               public std::enable_shared_from_this<FaultingReceiver> {
 public:
  FaultingReceiver(FaultInjector* injector, EdgeId edge, std::shared_ptr<ChannelReceiver> inner,
                   EventLoop* loop)
      : injector_(injector), edge_(edge), inner_(std::move(inner)), loop_(loop) {}

  std::optional<FrameBufRef> try_receive_buf() override {
    pump();
    std::unique_lock lk(mu_);
    if (held_.empty()) return std::nullopt;
    auto& [release_ns, frame] = held_.front();
    if (release_ns > now_ns()) {
      arm_release_timer_locked(release_ns);
      return std::nullopt;
    }
    FrameBufRef out = std::move(frame);
    held_.pop_front();
    return out;
  }

  void set_data_callback(std::function<void()> cb) override {
    {
      std::lock_guard lk(mu_);
      data_cb_ = cb;
    }
    inner_->set_data_callback(std::move(cb));
  }

  bool closed() const override {
    if (!inner_->closed()) return false;
    std::lock_guard lk(mu_);
    return held_.empty();
  }

  uint64_t bytes_received() const override { return inner_->bytes_received(); }

 private:
  /// Drain the wrapped channel into the held queue, applying faults.
  void pump() {
    while (auto frame = inner_->try_receive_buf()) {
      FaultAction a = injector_->next_receive_action(edge_);
      int64_t release = 0;
      if (a.kind == FaultKind::kDelay) {
        injector_->count(a.kind);
        release = now_ns() + a.delay_ns;
        NEPTUNE_LOG_INFO("fault: delay %lld us on %s",
                         static_cast<long long>(a.delay_ns / 1000), edge_.to_string().c_str());
      }
      std::lock_guard lk(mu_);
      // Order preservation: never release before the frame ahead.
      if (!held_.empty()) release = std::max(release, held_.back().first);
      held_.emplace_back(release, std::move(*frame));
    }
  }

  void arm_release_timer_locked(int64_t release_ns) {
    if (!loop_ || timer_armed_) return;
    timer_armed_ = true;
    std::function<void()> cb = data_cb_;
    std::weak_ptr<FaultingReceiver> weak = weak_from_this();
    loop_->run_after(std::max<int64_t>(release_ns - now_ns(), 100'000), [weak, cb] {
      auto self = weak.lock();
      if (!self) return;
      {
        std::lock_guard lk(self->mu_);
        self->timer_armed_ = false;
      }
      if (cb) cb();
    });
  }

  FaultInjector* injector_;
  const EdgeId edge_;
  std::shared_ptr<ChannelReceiver> inner_;
  EventLoop* loop_;
  mutable std::mutex mu_;
  std::deque<std::pair<int64_t, FrameBufRef>> held_;  // (release ns, frame)
  bool timer_armed_ = false;
  std::function<void()> data_cb_;
};

}  // namespace

std::shared_ptr<ChannelSender> wrap_sender(FaultInjector* injector, const EdgeId& edge,
                                           std::shared_ptr<ChannelSender> inner,
                                           EventLoop* loop) {
  if (injector == nullptr) return inner;
  return std::make_shared<FaultingSender>(injector, edge, std::move(inner), loop);
}

std::shared_ptr<ChannelReceiver> wrap_receiver(FaultInjector* injector, const EdgeId& edge,
                                               std::shared_ptr<ChannelReceiver> inner,
                                               EventLoop* loop) {
  if (injector == nullptr) return inner;
  return std::make_shared<FaultingReceiver>(injector, edge, std::move(inner), loop);
}

}  // namespace neptune::fault
