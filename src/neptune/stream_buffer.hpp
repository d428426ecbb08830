// Application-level outbound buffer (paper §III-B1), one per
// (link, source-instance, destination-instance) edge.
//
//  * Capacity is defined in *bytes*, not messages — "flush the buffer as
//    soon as the required threshold is reached irrespective of the number
//    of the messages in the buffer and their sizes".
//  * A flush timer bounds queueing delay: "each buffer is equipped with a
//    timer that guarantees flushing of the buffer after a certain time
//    period since arrival of the first message".
//  * Flushes pass through the link's SelectiveCodec (entropy-gated LZ4,
//    §III-B5), are framed with a CRC, and are handed to the edge's
//    ChannelSender. A rejected flush (flow control) parks the frame in
//    `pending_` — the packet data is never dropped; the owning operator is
//    descheduled until the channel's writable callback fires (§III-B4).
//  * A checkpoint barrier follows everything buffered before it and is
//    never shed.
//
// One writer: only the worker running the owning instance touches a
// StreamBuffer, so it takes no lock. Each batch opens inside a pooled frame
// with FrameHeader::kSize bytes of room; an uncompressed flush writes the
// header and CRC in place and hands that same buffer to the channel. Other
// threads read only the relaxed mirrors behind buffered_bytes() and
// flush_due(): the IO-loop timer asks flush_due() and, when it says yes,
// has the owner flush (InstanceRuntime's flush flag).
#pragma once

#include <atomic>
#include <deque>
#include <limits>
#include <memory>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "compress/selective.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "neptune/metrics.hpp"
#include "neptune/packet.hpp"
#include "obs/trace.hpp"

namespace neptune {

struct StreamBufferConfig {
  /// Flush threshold in bytes (paper default configuration: 1 MB).
  size_t capacity_bytes = 1 << 20;
  /// Soft latency bound: flush this long after the first buffered packet
  /// even if under capacity. 0 disables timer flushing (tests).
  int64_t flush_interval_ns = 5'000'000;  // 5 ms
};

/// Per-stream delivery priority, declared per link in the topology. The
/// default preserves the paper's lossless contract; best-effort links may
/// shed under overload according to their ShedConfig.
enum class QosClass : uint8_t {
  kCritical,    ///< lossless: backpressure only, never shed
  kBestEffort,  ///< sheddable under overload per the link's ShedConfig
};

/// What to drop when a best-effort edge is overloaded.
enum class ShedPolicy : uint8_t {
  kNone,           ///< never shed (the only legal policy for critical links)
  kDropNewest,     ///< admission control: refuse incoming packets while overloaded
  kDropOldest,     ///< release the parked (oldest) frame once it overstays queue-wait
  kProbabilistic,  ///< drop incoming packets with `drop_probability` while overloaded
};

const char* qos_class_name(QosClass q);
const char* shed_policy_name(ShedPolicy p);

/// Shedding parameters for one best-effort edge. Overload is detected from
/// two signals the buffer already has: the channel watermark (flow control
/// refusing frames, or writable() reporting the next flush would block) and
/// queue wait (a parked frame older than `max_queue_wait_ns`).
struct ShedConfig {
  ShedPolicy policy = ShedPolicy::kNone;
  /// Hard local bound on the accumulating batch. Admission drops
  /// unconditionally past this, whatever the policy's normal lane decides.
  /// 0 derives 2x the buffer capacity.
  size_t max_buffered_bytes = 0;
  /// Queue-wait signal: a parked frame older than this is stuck behind a
  /// saturated channel. Drop-oldest releases it; the admission policies
  /// treat it as an overload indicator.
  int64_t max_queue_wait_ns = 20'000'000;  // 20 ms
  /// Drop probability for kProbabilistic while overloaded.
  double drop_probability = 0.5;
  /// Seed for the probabilistic lane (mixed with link/instance ids, so DST
  /// runs shed deterministically).
  uint64_t seed = 0x5eed5eedULL;
};

/// Per-edge batch header carried inside every frame payload, ahead of the
/// serialized packets. The trace block rides in the payload (not the frame
/// header) so it survives compression and crosses both transports untouched;
/// trace_id 0 means the batch is untraced and all trace fields are zero.
struct BatchHeader {
  static constexpr size_t kSize = 4 + 8 + 8 + 8 + 8 + 8;
  // Byte offsets of the trace fields, for in-place patching at flush time.
  static constexpr size_t kTraceIdOffset = 12;
  static constexpr size_t kTraceOriginOffset = 20;
  static constexpr size_t kBatchStartOffset = 28;
  static constexpr size_t kFlushOffset = 36;
  uint32_t src_instance = 0;
  uint64_t base_seq = 0;
  uint64_t trace_id = 0;        ///< 0 = untraced batch
  int64_t trace_origin_ns = 0;  ///< when the trace's root batch started
  int64_t batch_start_ns = 0;   ///< first packet buffered (sender clock)
  int64_t flush_ns = 0;         ///< frame handed to the channel (sender clock)
};

class StreamBuffer {
  /// A framed batch (or barrier) awaiting (re)send, in a pooled refcounted
  /// buffer: an in-process channel takes its own ref instead of copying,
  /// so the flush -> receive path moves zero payload bytes.
  struct Parked {
    FrameBufRef frame;
    uint32_t count = 0;    // packets inside; 0 for a barrier
    int64_t since_ns = 0;  // when it was parked (queue-wait signal)
  };

 public:
  StreamBuffer(uint32_t link_id, uint32_t src_instance, std::shared_ptr<ChannelSender> sender,
               std::shared_ptr<SelectiveCodec> codec, StreamBufferConfig config,
               OperatorMetrics* metrics, const Clock* clock = &SteadyClock::instance(),
               ShedConfig shed = {});

  StreamBuffer(const StreamBuffer&) = delete;
  StreamBuffer& operator=(const StreamBuffer&) = delete;

  /// Serialize one packet into the buffer, assigning the edge sequence
  /// number. Triggers a flush attempt when the capacity threshold is
  /// crossed. Returns false when the edge is now flow-controlled (caller
  /// should stop producing).
  bool add(const StreamPacket& packet);

  /// Append one *already serialized* packet — the zero-copy re-emit path:
  /// a relay operator working on a BatchView hands the packet's wire bytes
  /// straight from the inbound frame into this buffer, skipping both
  /// deserialize and re-serialize. The bytes must be exactly one packet in
  /// StreamPacket wire format. Same flush/flow-control behavior as add().
  bool add_raw(std::span<const uint8_t> packet_bytes);

  /// Send checkpoint barrier `epoch` behind every packet added so far,
  /// parked if need be. Returns false when the edge is flow-controlled.
  bool add_barrier(uint64_t epoch);

  /// Owner side of the flush timer: retry parked frames (shedding an
  /// overstayed one on a drop-oldest edge), then flush the batch if its
  /// oldest packet has waited the flush interval. Returns false when the
  /// edge is flow-controlled.
  bool on_timer();

  /// Any thread: true when on_timer() has work — a parked frame to retry,
  /// or a batch whose oldest packet is `now` - flush interval or older.
  /// Reads two relaxed mirrors; never touches the batch.
  bool flush_due(int64_t now) const;

  /// Retry a parked frame and/or flush remaining content. `force` flushes
  /// even below capacity (used at end-of-stream). Returns true when
  /// nothing remains unflushed.
  bool drain(bool force);

  /// True when the edge would currently accept a flush.
  bool blocked() const { return blocked_; }

  void close_channel();

  /// Inherit a trace context for the batch being accumulated (or the next
  /// one if the buffer is empty). Called by the runtime while executing a
  /// traced upstream batch so the trace follows the data downstream. A
  /// no-op for inactive contexts or when this batch is already traced.
  void note_trace(const obs::TraceContext& ctx);

  /// Any thread: bytes in the buffer (the open batch + parked frames), from
  /// relaxed mirrors the owner stores. Telemetry gauge.
  size_t buffered_bytes() const {
    return open_bytes_.load(std::memory_order_relaxed) +
           parked_bytes_.load(std::memory_order_relaxed);
  }

  uint32_t link_id() const { return link_id_; }
  uint32_t src_instance() const { return src_instance_; }
  int64_t flush_interval_ns() const { return config_.flush_interval_ns; }
  uint64_t next_seq() const { return next_seq_; }

  // --- shedding (owner thread, or a quiescent buffer) ---------------------------
  const ShedConfig& shed_config() const { return shed_; }
  /// True when this edge may drop packets (receivers treat seq gaps as
  /// sheds, not contract violations).
  bool lossy() const { return shed_.policy != ShedPolicy::kNone; }
  uint64_t shed_packets() const { return shed_packets_; }
  uint64_t shed_batches() const { return shed_batches_; }
  uint64_t shed_bytes_total() const { return shed_bytes_; }

 private:
  /// Open a batch in a pooled frame if none is open (shared by
  /// add()/add_raw()).
  void prepare_batch();
  /// Post-append bookkeeping: seq/count, threshold flush.
  bool finish_add();
  /// Batch bytes in the open frame (BatchHeader + packets), 0 when none.
  size_t batch_bytes() const { return open_ ? open_->size() - FrameHeader::kSize : 0; }
  /// Seal the open frame (or its LZ4 form) and send it, or park it behind
  /// parked frames. Pre: a batch is open.
  bool flush();
  /// Send parked frames, oldest first. True when none is left.
  bool retry_pending();
  void park(Parked p);
  void unpark_front();
  /// Clear the blocked flag, folding the completed stall into blocked_ns.
  void settle_blocked();
  /// Admission decision for one incoming packet of `packet_bytes` wire
  /// bytes. Returns true when the packet must be dropped (already counted).
  /// For kDropOldest this never drops the incoming packet but may release
  /// an overstayed parked frame to make room.
  bool admission_shed(size_t packet_bytes);
  /// Release the oldest parked frame back to the pool without sending
  /// (zero-copy shed) and count it; a parked barrier is kept.
  void shed_pending();
  void count_admission_shed(size_t packet_bytes);
  /// True when the oldest parked frame has waited past the queue-wait bound.
  bool pending_overstayed(int64_t now) const;

  const uint32_t link_id_;
  const uint32_t src_instance_;
  uint32_t flight_actor_ = 0;  ///< flight-recorder actor for this edge
  std::shared_ptr<ChannelSender> sender_;
  std::shared_ptr<SelectiveCodec> codec_;
  const StreamBufferConfig config_;
  OperatorMetrics* metrics_;
  const Clock* clock_;

  // --- owner-only state --------------------------------------------------------
  /// The open batch: [FrameHeader room][BatchHeader][packets...] in a pooled
  /// frame, null between batches. The pool's buffers keep their capacity,
  /// so a steady stream reuses the same allocations.
  FrameBufRef open_;
  /// Frame the LZ4 form of a batch is written to; after a compressed flush
  /// the raw frame takes its place.
  FrameBufRef lz4_;
  size_t last_batch_bytes_ = 0;  // packet bytes of the last flush: the next batch's size hint
  uint32_t accum_count_ = 0;      // packets in the open batch
  uint64_t next_seq_ = 0;     // seq of the next packet added
  int64_t first_packet_ns_ = 0;
  std::deque<Parked> pending_;
  size_t pending_bytes_ = 0;
  bool blocked_ = false;
  int64_t blocked_since_ns_ = 0;   // when blocked_ last became true
  obs::TraceContext batch_trace_;  // trace attached to the accumulating batch

  const ShedConfig shed_;
  Xoshiro256 shed_rng_;
  uint64_t shed_packets_ = 0;  // mirrored into metrics_
  uint64_t shed_batches_ = 0;
  uint64_t shed_bytes_ = 0;

  // --- relaxed mirrors the owner stores for other threads ----------------------
  static constexpr int64_t kNoBatch = std::numeric_limits<int64_t>::max();
  std::atomic<int64_t> oldest_ns_{kNoBatch};  // first_packet_ns_, kNoBatch when none
  std::atomic<size_t> open_bytes_{0};         // batch_bytes()
  std::atomic<size_t> parked_bytes_{0};       // pending_bytes_; non-zero iff parked
};

}  // namespace neptune
