#include "neptune/stream_buffer.hpp"

#include <utility>

#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"

namespace neptune {

const char* qos_class_name(QosClass q) {
  switch (q) {
    case QosClass::kCritical: return "critical";
    case QosClass::kBestEffort: return "best_effort";
  }
  return "?";
}

const char* shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kNone: return "none";
    case ShedPolicy::kDropNewest: return "drop-newest";
    case ShedPolicy::kDropOldest: return "drop-oldest";
    case ShedPolicy::kProbabilistic: return "probabilistic";
  }
  return "?";
}

StreamBuffer::StreamBuffer(uint32_t link_id, uint32_t src_instance,
                           std::shared_ptr<ChannelSender> sender,
                           std::shared_ptr<SelectiveCodec> codec, StreamBufferConfig config,
                           OperatorMetrics* metrics, const Clock* clock, ShedConfig shed)
    : link_id_(link_id),
      src_instance_(src_instance),
      sender_(std::move(sender)),
      codec_(std::move(codec)),
      config_(config),
      metrics_(metrics),
      clock_(clock),
      lz4_(FrameBufPool::global().acquire()),
      shed_(shed),
      shed_rng_(shed.seed ^ (uint64_t{link_id} << 32) ^ src_instance) {
  flight_actor_ = obs::FlightRecorder::register_actor(
      "edge L" + std::to_string(link_id_) + " s" + std::to_string(src_instance_));
}

void StreamBuffer::prepare_batch() {
  if (accum_count_ != 0) return;
  // Start of a new batch, inside the frame it will leave in: room for the
  // frame header (written at flush), then the batch header. The trace
  // fields are zeroed here and patched in flush(); a batch with no
  // inherited trace gets a 1-in-N chance to originate one.
  // Room for a batch like the last one: a steady stream grows each frame
  // once, not by doubling from empty (a no-op on a pooled buffer already
  // that large).
  open_ = FrameBufPool::global().acquire();
  ByteBuffer& b = open_->buffer();
  b.reserve(FrameHeader::kSize + BatchHeader::kSize + last_batch_bytes_);
  b.grow(FrameHeader::kSize);
  b.write_u32(src_instance_);
  b.write_u64(next_seq_);
  b.write_u64(0);  // trace_id
  b.write_i64(0);  // trace_origin_ns
  b.write_i64(0);  // batch_start_ns
  b.write_i64(0);  // flush_ns
  first_packet_ns_ = clock_->now_ns();
  oldest_ns_.store(first_packet_ns_, std::memory_order_relaxed);
  if (!batch_trace_.active())
    batch_trace_ = obs::TraceSampler::global().maybe_start(first_packet_ns_);
}

bool StreamBuffer::finish_add() {
  ++accum_count_;
  ++next_seq_;
  const size_t bytes = batch_bytes();
  open_bytes_.store(bytes, std::memory_order_relaxed);
  if (bytes >= config_.capacity_bytes + BatchHeader::kSize) {
    // Parked frames go first; the new content follows only if they clear.
    if (retry_pending()) flush();
  }
  return !blocked_;
}

bool StreamBuffer::add(const StreamPacket& packet) {
  if (shed_.policy != ShedPolicy::kNone && admission_shed(packet.serialized_size())) {
    // Shed replaces backpressure on this edge: the producer keeps running.
    return true;
  }
  prepare_batch();
  packet.serialize(open_->buffer());
  return finish_add();
}

bool StreamBuffer::add_raw(std::span<const uint8_t> packet_bytes) {
  if (shed_.policy != ShedPolicy::kNone && admission_shed(packet_bytes.size())) {
    return true;
  }
  prepare_batch();
  open_->buffer().write_bytes(packet_bytes);
  return finish_add();
}

bool StreamBuffer::pending_overstayed(int64_t now) const {
  return !pending_.empty() && shed_.max_queue_wait_ns > 0 &&
         now - pending_.front().since_ns > shed_.max_queue_wait_ns;
}

void StreamBuffer::count_admission_shed(size_t packet_bytes) {
  shed_packets_ += 1;
  shed_bytes_ += packet_bytes;
  // Coalesced 1-in-64: an overload burst sheds tens of thousands of packets
  // per second, which would wrap the ring and evict the events that explain
  // the burst. The cumulative count rides in `a`.
  if ((shed_packets_ & 63) == 1) {
    obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kShed, shed_packets_,
                                link_id_);
  }
  if (metrics_) {
    owner_add(metrics_->packets_shed);
    owner_add(metrics_->shed_bytes, packet_bytes);
  }
}

void StreamBuffer::shed_pending() {
  if (pending_.empty() || pending_.front().count == 0) return;  // a barrier is never shed
  const Parked& p = pending_.front();
  obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kShed,
                              shed_packets_ + p.count, link_id_);
  shed_batches_ += 1;
  shed_packets_ += p.count;
  shed_bytes_ += p.frame.size();
  if (metrics_) {
    owner_add(metrics_->batches_shed);
    owner_add(metrics_->packets_shed, p.count);
    owner_add(metrics_->shed_bytes, p.frame.size());
  }
  // Dropping the ref recycles the pooled frame — no payload bytes move on
  // the shed path (the zero-copy invariant holds here too).
  unpark_front();
  retry_pending();  // what queued behind it, if anything; settles when empty
}

bool StreamBuffer::admission_shed(size_t packet_bytes) {
  const int64_t now = clock_->now_ns();
  const size_t hard_cap =
      shed_.max_buffered_bytes != 0 ? shed_.max_buffered_bytes : 2 * config_.capacity_bytes;
  const size_t accum = batch_bytes();
  const bool over_cap = accum + packet_bytes > hard_cap + BatchHeader::kSize;
  // Watermark signal: flow control already refused a frame, or the channel
  // reports the accumulating batch could not be sent right now.
  const bool watermark =
      blocked_ || !sender_->writable(accum + packet_bytes + BatchHeader::kSize);
  const bool queue_wait = pending_overstayed(now);

  switch (shed_.policy) {
    case ShedPolicy::kNone:
      return false;
    case ShedPolicy::kDropNewest:
      if (watermark || queue_wait || over_cap) {
        count_admission_shed(packet_bytes);
        return true;
      }
      return false;
    case ShedPolicy::kProbabilistic:
      if (over_cap) {
        count_admission_shed(packet_bytes);
        return true;
      }
      if ((watermark || queue_wait) && shed_rng_.next_double() < shed_.drop_probability) {
        count_admission_shed(packet_bytes);
        return true;
      }
      return false;
    case ShedPolicy::kDropOldest:
      // Never refuses the incoming packet; instead release the oldest
      // parked frame once it overstays queue-wait, so fresh data wins.
      if (queue_wait) shed_pending();
      return false;
  }
  return false;
}

bool StreamBuffer::flush() {
  ByteBuffer& raw = open_->buffer();
  // Patch the trace block before compression sees the payload.
  if (batch_trace_.active()) {
    const size_t at = FrameHeader::kSize;
    raw.patch_u64(at + BatchHeader::kTraceIdOffset, batch_trace_.trace_id);
    raw.patch_i64(at + BatchHeader::kTraceOriginOffset, batch_trace_.origin_ns);
    raw.patch_i64(at + BatchHeader::kBatchStartOffset, first_packet_ns_);
    raw.patch_i64(at + BatchHeader::kFlushOffset, clock_->now_ns());
    batch_trace_ = {};
  }

  // Payload = [BatchHeader][packets...]. Raw, it is sealed where it was
  // written; compressed, its LZ4 form goes to the spare frame, and the raw
  // frame becomes the next spare.
  const std::span<const uint8_t> payload = raw.contents().subspan(FrameHeader::kSize);
  FrameHeader h;
  h.link_id = link_id_;
  h.batch_count = accum_count_;
  h.raw_size = static_cast<uint32_t>(payload.size());
  last_batch_bytes_ = payload.size() - BatchHeader::kSize;
  ByteBuffer& z = lz4_->buffer();
  z.clear();
  z.grow(FrameHeader::kSize);
  FrameBufRef frame;
  if (codec_->encode(payload, z)) {
    h.flags |= FrameHeader::kFlagCompressed;
    frame = std::exchange(lz4_, std::move(open_));
  } else {
    frame = std::move(open_);
  }
  seal_frame_in_place(h, frame->buffer());
  const uint32_t count = accum_count_;
  park({std::move(frame), count, clock_->now_ns()});

  accum_count_ = 0;
  first_packet_ns_ = 0;
  oldest_ns_.store(kNoBatch, std::memory_order_relaxed);
  open_bytes_.store(0, std::memory_order_relaxed);
  if (metrics_) owner_add(metrics_->flushes);
  obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kFlush,
                              pending_.back().frame.size(), link_id_);
  return retry_pending();
}

bool StreamBuffer::add_barrier(uint64_t epoch) {
  if (accum_count_ > 0) flush();
  park({encode_signal_frame(FrameHeader::kFlagBarrier, link_id_, epoch), 0, clock_->now_ns()});
  return retry_pending();
}

void StreamBuffer::park(Parked p) {
  pending_bytes_ += p.frame.size();
  pending_.push_back(std::move(p));
  parked_bytes_.store(pending_bytes_, std::memory_order_relaxed);
}

void StreamBuffer::unpark_front() {
  pending_bytes_ -= pending_.front().frame.size();
  pending_.pop_front();
  parked_bytes_.store(pending_bytes_, std::memory_order_relaxed);
}

bool StreamBuffer::retry_pending() {
  while (!pending_.empty()) {
    // FrameBufRef overload: an in-process channel takes a ref to the pooled
    // frame (zero-copy); socket transports fall back to the span adapter.
    const FrameBufRef& frame = pending_.front().frame;
    SendStatus s = sender_->try_send(frame);
    if (s == SendStatus::kBlocked) {
      if (!blocked_) {
        blocked_ = true;
        blocked_since_ns_ = clock_->now_ns();
        if (metrics_) owner_add(metrics_->blocked_sends);
        obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kBlock, frame.size(),
                                    link_id_);
      }
      return false;
    }
    // kOk, or kClosed: downstream is gone; drop the frame to avoid wedging
    // shutdown.
    if (s == SendStatus::kOk && metrics_) owner_add(metrics_->bytes_out, frame.size());
    unpark_front();
  }
  settle_blocked();
  return true;
}

void StreamBuffer::settle_blocked() {
  if (blocked_) {
    blocked_ = false;
    int64_t stalled = clock_->now_ns() - blocked_since_ns_;
    if (metrics_ && stalled > 0) owner_add(metrics_->blocked_ns, static_cast<uint64_t>(stalled));
    obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kUnblock,
                                stalled > 0 ? static_cast<uint64_t>(stalled) : 0, link_id_);
  }
}

bool StreamBuffer::flush_due(int64_t now) const {
  if (parked_bytes_.load(std::memory_order_relaxed) != 0) return true;
  // oldest_ns_ is kNoBatch (INT64_MAX) with no batch open: never due.
  return config_.flush_interval_ns > 0 &&
         now - oldest_ns_.load(std::memory_order_relaxed) >= config_.flush_interval_ns;
}

bool StreamBuffer::on_timer() {
  if (!pending_.empty()) {
    if (retry_pending()) return true;
    // Still flow-controlled. On a drop-oldest edge the queue-wait signal
    // runs from the timer too, so shedding progresses even when the
    // producer has been descheduled by backpressure.
    if (shed_.policy != ShedPolicy::kDropOldest || !pending_overstayed(clock_->now_ns()))
      return false;
    shed_pending();
    if (!pending_.empty()) return !blocked_;
  }
  if (accum_count_ == 0 || config_.flush_interval_ns <= 0) return true;
  if (clock_->now_ns() - first_packet_ns_ < config_.flush_interval_ns &&
      batch_bytes() < config_.capacity_bytes + BatchHeader::kSize)
    return true;
  if (metrics_) owner_add(metrics_->timer_flushes);
  return flush();
}

bool StreamBuffer::drain(bool force) {
  if (!retry_pending()) return false;
  if (accum_count_ > 0 &&
      (force || batch_bytes() >= config_.capacity_bytes + BatchHeader::kSize)) {
    return flush();
  }
  return accum_count_ == 0 || !force;
}

void StreamBuffer::close_channel() { sender_->close(); }

void StreamBuffer::note_trace(const obs::TraceContext& ctx) {
  if (!ctx.active() || batch_trace_.active()) return;
  batch_trace_ = ctx;
}

}  // namespace neptune
