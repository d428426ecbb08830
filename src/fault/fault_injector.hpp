// Fault injection for the transport layer (tentpole layer 1 of the
// fault-tolerance subsystem). A FaultInjector is a process-wide schedule of
// transport faults, configurable per edge:
//
//   * connection resets       — the carrying channel is closed mid-stream
//   * frame corruption        — a byte of the wire frame is flipped, so the
//                               receive-side CRC32 path is exercised
//   * partial writes          — only a prefix of a frame is delivered, then
//                               the channel is closed (crash mid-write)
//   * write stalls / delays   — the channel reports kBlocked for a duration
//   * delayed delivery        — inbound frames are held back for a duration
//
// Faults are applied through frame-level ChannelSender/ChannelReceiver
// decorators (wrap_sender/wrap_receiver), so they plug in identically over
// the in-process SPSC pipe and over TcpConnection — including the
// supervised TCP channel, which re-wraps every freshly reconnected
// connection so the schedule survives link re-establishment.
//
// Two scheduling modes:
//   * deterministic — add_rule({edge, at_frame, action}): "fail edge E at
//     wire frame N", reproducible run to run. Frame indices count data-frame
//     transmissions on the sending side (retransmitted frames count again).
//   * randomized    — set_random(seed, probs): seeded per-frame coin flips,
//     reproducible for a fixed seed and schedule of sends.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/channel.hpp"

namespace neptune {
class EventLoop;
}

namespace neptune::fault {

enum class FaultKind : uint8_t {
  kNone = 0,
  kReset,         ///< close the carrying channel
  kCorrupt,       ///< flip a byte of the frame
  kPartialWrite,  ///< deliver a prefix, then close (crash mid-write)
  kStall,         ///< report kBlocked for delay_ns (write stall)
  kDelay,         ///< hold delivery for delay_ns (receive side)
};

const char* to_string(FaultKind kind);

struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  int64_t delay_ns = 0;   ///< kStall/kDelay duration
  size_t byte_offset = 0; ///< kCorrupt: offset of the flipped byte (clamped);
                          ///< kPartialWrite: bytes delivered before the cut
};

/// Identity of one runtime edge: (link, src instance, dst instance).
struct EdgeId {
  uint32_t link_id = 0;
  uint32_t src_instance = 0;
  uint32_t dst_instance = 0;

  bool operator<(const EdgeId& o) const {
    if (link_id != o.link_id) return link_id < o.link_id;
    if (src_instance != o.src_instance) return src_instance < o.src_instance;
    return dst_instance < o.dst_instance;
  }
  bool operator==(const EdgeId& o) const {
    return link_id == o.link_id && src_instance == o.src_instance &&
           dst_instance == o.dst_instance;
  }
  std::string to_string() const;
};

/// Deterministic schedule entry: fire `action` on `edge` at wire frame
/// `at_frame` (0-based, counted per edge on the sending side). With
/// `repeat_every` > 0 the rule re-fires every that many frames after.
struct FaultRule {
  EdgeId edge;
  bool any_edge = false;  ///< ignore `edge`, match every edge
  uint64_t at_frame = 0;
  uint32_t repeat_every = 0;
  FaultAction action;
};

struct RandomFaultConfig {
  uint64_t seed = 1;
  double reset_probability = 0;
  double corrupt_probability = 0;
  double stall_probability = 0;
  int64_t stall_ns = 2'000'000;  // 2 ms
};

/// Time-windowed overload profile (overload-resilience subsystem): during
/// [start_ns, start_ns + duration_ns) after the injector's epoch — the first
/// frame it sees — sender-side frames on matching edges are stalled for
/// `stall_ns` with probability `stall_probability`, emulating a saturated
/// downstream/network so shedding and watchdog paths can be driven
/// deterministically in tests and the overload bench.
struct OverloadProfile {
  int64_t start_ns = 0;
  int64_t duration_ns = 0;  ///< 0 = sustained overload (never ends)
  int64_t stall_ns = 2'000'000;
  double stall_probability = 1.0;
  bool any_edge = true;  ///< ignore `edge`, throttle every edge
  EdgeId edge;

  /// A bounded burst of overload.
  static OverloadProfile burst(int64_t start_ns, int64_t duration_ns,
                               int64_t stall_ns = 2'000'000) {
    OverloadProfile p;
    p.start_ns = start_ns;
    p.duration_ns = duration_ns;
    p.stall_ns = stall_ns;
    return p;
  }
  /// Sustained overload from `start_ns` until the job ends.
  static OverloadProfile sustained(int64_t start_ns, int64_t stall_ns = 2'000'000) {
    return burst(start_ns, 0, stall_ns);
  }
};

/// Scheduled kill of a whole Granules resource, executed by the
/// RecoveryCoordinator's monitor loop (the injector itself has no handle on
/// resources — it only records intent).
struct ResourceKill {
  size_t resource_index = 0;
  int64_t at_ns_after_start = 0;
  bool executed = false;
};

struct FaultInjectorStats {
  uint64_t resets = 0;
  uint64_t corruptions = 0;
  uint64_t partial_writes = 0;
  uint64_t stalls = 0;
  uint64_t delays = 0;
  uint64_t total() const { return resets + corruptions + partial_writes + stalls + delays; }
};

class FaultInjector {
 public:
  FaultInjector() = default;

  // --- configuration ---------------------------------------------------------
  void add_rule(FaultRule rule);
  void set_random(RandomFaultConfig config);
  /// Add a time-windowed overload window (see OverloadProfile). The epoch is
  /// the first frame the injector processes after this call (or construction).
  void add_overload(OverloadProfile profile);
  /// True while any overload window is currently open.
  bool overload_active() const;

  /// Per-resource fault: record a kill request (see ResourceKill).
  void schedule_resource_kill(size_t resource_index, int64_t at_ns_after_start);
  /// The pending kill schedule; entries are marked executed via
  /// mark_kill_executed so each fires once.
  std::vector<ResourceKill> resource_kills() const;
  void mark_kill_executed(size_t resource_index);

  // --- decorator backend (called per frame) ---------------------------------
  /// Consume the action scheduled for the next sender-side frame on `edge`.
  FaultAction next_send_action(const EdgeId& edge);
  /// Consume the action scheduled for the next receive-side frame on `edge`.
  FaultAction next_receive_action(const EdgeId& edge);

  void count(FaultKind kind);
  FaultInjectorStats stats() const;

 private:
  FaultAction match_locked(const EdgeId& edge, uint64_t frame_index, bool receive_side);

  /// Overload check for one sender-side frame. Pre: lock held.
  FaultAction overload_action_locked(const EdgeId& edge, int64_t now);

  mutable std::mutex mu_;
  std::vector<FaultRule> rules_;
  std::vector<OverloadProfile> overloads_;
  int64_t epoch_ns_ = 0;  ///< set by the first frame once overloads exist
  bool random_enabled_ = false;
  RandomFaultConfig random_;
  Xoshiro256 rng_{1};
  std::map<EdgeId, uint64_t> send_frame_index_;
  std::map<EdgeId, uint64_t> receive_frame_index_;
  std::vector<ResourceKill> kills_;
  FaultInjectorStats stats_;
};

/// Wrap `inner` so `injector`'s scheduled sender-side faults (reset,
/// corrupt, partial write, stall) apply to frames passed through try_send;
/// returns `inner` itself when `injector` is null. `loop` (may be null) is
/// used to re-fire the writable callback after a stall expires; without a
/// loop, stalls expire lazily on the next try_send.
std::shared_ptr<ChannelSender> wrap_sender(FaultInjector* injector, const EdgeId& edge,
                                           std::shared_ptr<ChannelSender> inner,
                                           EventLoop* loop = nullptr);
/// Wrap `inner` so `injector`'s receive-side faults (delayed delivery)
/// apply to frames surfaced through try_receive_buf; returns `inner` itself
/// when `injector` is null.
std::shared_ptr<ChannelReceiver> wrap_receiver(FaultInjector* injector, const EdgeId& edge,
                                               std::shared_ptr<ChannelReceiver> inner,
                                               EventLoop* loop = nullptr);

}  // namespace neptune::fault
