#include "neptune/stream_buffer.hpp"

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
      shed_(shed),
      shed_rng_(shed.seed ^ (uint64_t{link_id} << 32) ^ src_instance) {
  accum_.reserve(config_.capacity_bytes + 4096);
  flight_actor_ = obs::FlightRecorder::register_actor(
      "edge L" + std::to_string(link_id_) + " s" + std::to_string(src_instance_));
}

void StreamBuffer::prepare_batch_locked() {
  if (accum_count_ != 0) return;
  // Start of a new batch: stamp the header placeholder and remember the
  // arrival time of the first message (for the flush timer). The trace
  // fields are zeroed here and patched in flush_locked(); a batch with
  // no inherited trace gets a 1-in-N chance to originate one.
  accum_.clear();
  accum_.write_u32(src_instance_);
  accum_.write_u64(next_seq_);
  accum_.write_u64(0);  // trace_id
  accum_.write_i64(0);  // trace_origin_ns
  accum_.write_i64(0);  // batch_start_ns
  accum_.write_i64(0);  // flush_ns
  first_packet_ns_ = clock_->now_ns();
  if (!batch_trace_.active())
    batch_trace_ = obs::TraceSampler::global().maybe_start(first_packet_ns_);
}

bool StreamBuffer::finish_add_locked() {
  ++accum_count_;
  ++next_seq_;

  if (accum_.size() >= config_.capacity_bytes + BatchHeader::kSize) {
    // Parked frames go first; the new content follows only if they clear.
    if (retry_pending_locked()) flush_locked();
  }
  return !blocked_;
}

bool StreamBuffer::add(const StreamPacket& packet) {
  std::lock_guard lk(mu_);
  if (shed_.policy != ShedPolicy::kNone && admission_shed_locked(packet.serialized_size())) {
    // Shed replaces backpressure on this edge: the producer keeps running.
    return true;
  }
  prepare_batch_locked();
  packet.serialize(accum_);
  return finish_add_locked();
}

bool StreamBuffer::add_raw(std::span<const uint8_t> packet_bytes) {
  std::lock_guard lk(mu_);
  if (shed_.policy != ShedPolicy::kNone && admission_shed_locked(packet_bytes.size())) {
    return true;
  }
  prepare_batch_locked();
  accum_.write_bytes(packet_bytes);
  return finish_add_locked();
}

bool StreamBuffer::pending_overstayed_locked(int64_t now) const {
  return !pending_.empty() && shed_.max_queue_wait_ns > 0 &&
         now - pending_.front().since_ns > shed_.max_queue_wait_ns;
}

void StreamBuffer::count_admission_shed_locked(size_t packet_bytes) {
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
    metrics_->packets_shed.fetch_add(1, std::memory_order_relaxed);
    metrics_->shed_bytes.fetch_add(packet_bytes, std::memory_order_relaxed);
  }
}

void StreamBuffer::shed_pending_locked() {
  if (pending_.empty() || pending_.front().count == 0) return;  // a barrier is never shed
  const Parked& p = pending_.front();
  obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kShed,
                              shed_packets_ + p.count, link_id_);
  shed_batches_ += 1;
  shed_packets_ += p.count;
  shed_bytes_ += p.frame.size();
  if (metrics_) {
    metrics_->batches_shed.fetch_add(1, std::memory_order_relaxed);
    metrics_->packets_shed.fetch_add(p.count, std::memory_order_relaxed);
    metrics_->shed_bytes.fetch_add(p.frame.size(), std::memory_order_relaxed);
  }
  // Dropping the ref recycles the pooled frame — no payload bytes move on
  // the shed path (the zero-copy invariant holds here too).
  pending_.pop_front();
  retry_pending_locked();  // what queued behind it, if anything; settles when empty
}

bool StreamBuffer::admission_shed_locked(size_t packet_bytes) {
  const int64_t now = clock_->now_ns();
  const size_t hard_cap =
      shed_.max_buffered_bytes != 0 ? shed_.max_buffered_bytes : 2 * config_.capacity_bytes;
  const bool over_cap = accum_.size() + packet_bytes > hard_cap + BatchHeader::kSize;
  // Watermark signal: flow control already refused a frame, or the channel
  // reports the accumulating batch could not be sent right now.
  const bool watermark =
      blocked_ || !sender_->writable(accum_.size() + packet_bytes + BatchHeader::kSize);
  const bool queue_wait = pending_overstayed_locked(now);

  switch (shed_.policy) {
    case ShedPolicy::kNone:
      return false;
    case ShedPolicy::kDropNewest:
      if (watermark || queue_wait || over_cap) {
        count_admission_shed_locked(packet_bytes);
        return true;
      }
      return false;
    case ShedPolicy::kProbabilistic:
      if (over_cap) {
        count_admission_shed_locked(packet_bytes);
        return true;
      }
      if ((watermark || queue_wait) && shed_rng_.next_double() < shed_.drop_probability) {
        count_admission_shed_locked(packet_bytes);
        return true;
      }
      return false;
    case ShedPolicy::kDropOldest:
      // Never refuses the incoming packet; instead release the oldest
      // parked frame once it overstays queue-wait, so fresh data wins.
      if (queue_wait) shed_pending_locked();
      return false;
  }
  return false;
}

bool StreamBuffer::flush_locked() {
  // Patch the trace block before compression sees the payload.
  if (batch_trace_.active()) {
    accum_.patch_u64(BatchHeader::kTraceIdOffset, batch_trace_.trace_id);
    accum_.patch_i64(BatchHeader::kTraceOriginOffset, batch_trace_.origin_ns);
    accum_.patch_i64(BatchHeader::kBatchStartOffset, first_packet_ns_);
    accum_.patch_i64(BatchHeader::kFlushOffset, clock_->now_ns());
    batch_trace_ = {};
  }

  // Payload = [BatchHeader][packets...], optionally compressed.
  bool compressed = codec_->encode(accum_.contents(), codec_scratch_);

  FrameHeader h;
  h.link_id = link_id_;
  h.batch_count = accum_count_;
  h.raw_size = static_cast<uint32_t>(accum_.size());
  if (compressed) h.flags |= FrameHeader::kFlagCompressed;

  FrameBufRef frame = FrameBufPool::global().acquire();
  encode_frame(h, codec_scratch_, frame->buffer());
  pending_.push_back({std::move(frame), accum_count_, clock_->now_ns()});

  accum_.clear();
  accum_count_ = 0;
  first_packet_ns_ = 0;
  if (metrics_) metrics_->flushes.fetch_add(1, std::memory_order_relaxed);
  obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kFlush,
                              pending_.back().frame.size(), link_id_);
  return retry_pending_locked();
}

bool StreamBuffer::add_barrier(uint64_t epoch) {
  std::lock_guard lk(mu_);
  if (accum_count_ > 0) flush_locked();
  pending_.push_back(
      {encode_signal_frame(FrameHeader::kFlagBarrier, link_id_, epoch), 0, clock_->now_ns()});
  return retry_pending_locked();
}

bool StreamBuffer::retry_pending_locked() {
  while (!pending_.empty()) {
    // FrameBufRef overload: an in-process channel takes a ref to the pooled
    // frame (zero-copy); socket transports fall back to the span adapter.
    const FrameBufRef& frame = pending_.front().frame;
    SendStatus s = sender_->try_send(frame);
    if (s == SendStatus::kBlocked) {
      if (!blocked_) {
        blocked_ = true;
        blocked_since_ns_ = clock_->now_ns();
        if (metrics_) metrics_->blocked_sends.fetch_add(1, std::memory_order_relaxed);
        obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kBlock, frame.size(),
                                    link_id_);
      }
      return false;
    }
    // kOk, or kClosed: downstream is gone; drop the frame to avoid wedging
    // shutdown.
    if (s == SendStatus::kOk && metrics_)
      metrics_->bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
    pending_.pop_front();
  }
  settle_blocked_locked();
  return true;
}

void StreamBuffer::settle_blocked_locked() {
  if (blocked_) {
    blocked_ = false;
    int64_t stalled = clock_->now_ns() - blocked_since_ns_;
    if (metrics_ && stalled > 0)
      metrics_->blocked_ns.fetch_add(static_cast<uint64_t>(stalled), std::memory_order_relaxed);
    obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kUnblock,
                                stalled > 0 ? static_cast<uint64_t>(stalled) : 0, link_id_);
  }
}

void StreamBuffer::on_timer() {
  std::lock_guard lk(mu_);
  if (!pending_.empty()) {
    if (retry_pending_locked()) return;
    // Still flow-controlled. On a drop-oldest edge the queue-wait signal
    // runs from the timer too, so shedding progresses even when the
    // producer has been descheduled by backpressure.
    if (shed_.policy != ShedPolicy::kDropOldest || !pending_overstayed_locked(clock_->now_ns()))
      return;
    shed_pending_locked();
    if (!pending_.empty()) return;
  }
  if (accum_count_ == 0 || config_.flush_interval_ns <= 0) return;
  if (clock_->now_ns() - first_packet_ns_ < config_.flush_interval_ns &&
      accum_.size() < config_.capacity_bytes + BatchHeader::kSize)
    return;
  if (metrics_) metrics_->timer_flushes.fetch_add(1, std::memory_order_relaxed);
  flush_locked();
}

bool StreamBuffer::drain(bool force) {
  std::lock_guard lk(mu_);
  if (!retry_pending_locked()) return false;
  if (accum_count_ > 0 &&
      (force || accum_.size() >= config_.capacity_bytes + BatchHeader::kSize)) {
    return flush_locked();
  }
  return accum_count_ == 0 || !force;
}

bool StreamBuffer::blocked() const {
  std::lock_guard lk(mu_);
  return blocked_;
}

void StreamBuffer::close_channel() { sender_->close(); }

void StreamBuffer::note_trace(const obs::TraceContext& ctx) {
  if (!ctx.active()) return;
  std::lock_guard lk(mu_);
  if (batch_trace_.active()) return;
  batch_trace_ = ctx;
}

size_t StreamBuffer::buffered_bytes() const {
  std::lock_guard lk(mu_);
  size_t bytes = accum_.size();
  for (const Parked& p : pending_) bytes += p.frame.size();
  return bytes;
}

uint64_t StreamBuffer::next_seq() const {
  std::lock_guard lk(mu_);
  return next_seq_;
}

uint64_t StreamBuffer::shed_packets() const {
  std::lock_guard lk(mu_);
  return shed_packets_;
}

uint64_t StreamBuffer::shed_batches() const {
  std::lock_guard lk(mu_);
  return shed_batches_;
}

uint64_t StreamBuffer::shed_bytes_total() const {
  std::lock_guard lk(mu_);
  return shed_bytes_;
}

}  // namespace neptune
