#include "neptune/instance.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "compress/lz4.hpp"
#include "obs/flight_recorder.hpp"

namespace neptune::detail {

InstanceRuntime::InstanceRuntime(std::string op_id, uint32_t inst, uint32_t par, OperatorKind k,
                                 const GraphConfig& cfg, InstanceHost* host, const Clock* clock,
                                 std::function<void()> wake)
    : op_id_(std::move(op_id)),
      instance_(inst),
      parallelism_(par),
      kind_(k),
      cfg_(cfg),
      host_(host),
      clock_(clock),
      wake_(std::move(wake)),
      batch_pool_(ObjectPool<Batch>::create(/*max_idle=*/64)) {
  task_name_ = op_id_ + "[" + std::to_string(instance_) + "]";
  flight_actor_ = obs::FlightRecorder::register_actor(task_name_);
}

// --- wiring ---------------------------------------------------------------------

void InstanceRuntime::add_output(const LinkDecl& link, std::shared_ptr<ChannelSender> tx) {
  if (outputs.size() <= link.output_index) outputs.resize(link.output_index + 1);
  OutLink& out = outputs[link.output_index];
  out.partitioning = link.partitioning;
  // Raw `this` is safe: the instance outlives its channels' callbacks (the
  // job that owns the instance owns the channel too).
  tx->set_writable_callback([this] {
    obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kWatermarkLow);
    wake();
  });
  out.dst.push_back(std::make_unique<StreamBuffer>(
      link.link_id, instance_, std::move(tx), std::make_shared<SelectiveCodec>(link.compression),
      link.buffer_override.value_or(cfg_.buffer), &metrics_, clock_, link.shed));
}

void InstanceRuntime::add_input(const LinkDecl& link, uint32_t src_instance,
                                std::shared_ptr<ChannelReceiver> rx) {
  rx->set_data_callback([this] { wake(); });
  InEdge edge;
  edge.rx = std::move(rx);
  edge.link_id = link.link_id;
  edge.src_instance = src_instance;
  edge.lossy = link.shed.policy != ShedPolicy::kNone;
  inputs.push_back(std::move(edge));
}

int64_t InstanceRuntime::flush_timer_period_ns() const {
  int64_t interval = 0;
  for (const auto& out : outputs) {
    for (const auto& buf : out.dst) {
      int64_t fi = buf->flush_interval_ns();
      if (fi > 0 && (interval == 0 || fi < interval)) interval = fi;
    }
  }
  // Half the interval for Nyquist-ish timeliness, floored so a tiny
  // interval cannot turn the timer into a busy loop.
  return interval > 0 ? std::max<int64_t>(interval / 2, 500'000) : 0;
}

Checkpointable* InstanceRuntime::checkpointable() const {
  if (source) return dynamic_cast<Checkpointable*>(source.get());
  return dynamic_cast<Checkpointable*>(processor.get());
}

void InstanceRuntime::snapshot_into(JobSnapshot& snapshot) const {
  const Checkpointable* c = checkpointable();
  if (!c) return;
  ByteBuffer buf;
  c->snapshot_state(buf);
  auto bytes = buf.contents();
  snapshot.put(op_id_, instance_, std::vector<uint8_t>(bytes.begin(), bytes.end()));
}

void InstanceRuntime::restore_state(const JobSnapshot& snapshot) {
  Checkpointable* c = checkpointable();
  const std::vector<uint8_t>* state = snapshot.find(op_id_, instance_);
  if (!c || !state) return;
  ByteReader r(*state);
  c->restore_state(r);
}

void InstanceRuntime::request_barrier(uint64_t epoch) {
  if (kind_ != OperatorKind::kSource) return;
  barrier_request_.store(epoch, std::memory_order_release);
  wake();
}

// --- Emitter ------------------------------------------------------------------

EmitStatus InstanceRuntime::emit(size_t link, StreamPacket&& packet) {
  if (link >= outputs.size())
    throw GraphError(task_name_ + ": emit on unknown output link " + std::to_string(link));
  if (packet.event_time_ns() == 0) packet.set_event_time_ns(clock_->now_ns());
  OutLink& out = outputs[link];
  uint32_t n = static_cast<uint32_t>(out.dst.size());
  uint32_t pick = out.partitioning->select(packet, instance_, n);
  if (pick == kBroadcastInstance) {
    for (auto& buf : out.dst) {
      if (current_trace_.active()) buf->note_trace(current_trace_);
      if (!buf->add(packet)) output_blocked_.store(true, std::memory_order_relaxed);
      packets_emitted_.fetch_add(1, std::memory_order_relaxed);
      metrics_.packets_out.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    StreamBuffer& buf = *out.dst[pick % n];
    if (current_trace_.active()) buf.note_trace(current_trace_);
    if (!buf.add(packet)) output_blocked_.store(true, std::memory_order_relaxed);
    packets_emitted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.packets_out.fetch_add(1, std::memory_order_relaxed);
  }
  return output_blocked_.load(std::memory_order_relaxed) ? EmitStatus::kBackpressured
                                                         : EmitStatus::kOk;
}

EmitStatus InstanceRuntime::emit(size_t link, const PacketView& view) {
  if (link >= outputs.size())
    throw GraphError(task_name_ + ": emit on unknown output link " + std::to_string(link));
  if (view.event_time_ns() == 0) {
    StreamPacket p;
    view.materialize(p);
    return emit(link, std::move(p));
  }
  OutLink& out = outputs[link];
  uint32_t n = static_cast<uint32_t>(out.dst.size());
  uint32_t pick = out.partitioning->select_view(view, instance_, n);
  std::span<const uint8_t> raw = view.raw();
  if (pick == kBroadcastInstance) {
    for (auto& buf : out.dst) {
      if (current_trace_.active()) buf->note_trace(current_trace_);
      if (!buf->add_raw(raw)) output_blocked_.store(true, std::memory_order_relaxed);
      packets_emitted_.fetch_add(1, std::memory_order_relaxed);
      metrics_.packets_out.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    StreamBuffer& buf = *out.dst[pick % n];
    if (current_trace_.active()) buf.note_trace(current_trace_);
    if (!buf.add_raw(raw)) output_blocked_.store(true, std::memory_order_relaxed);
    packets_emitted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.packets_out.fetch_add(1, std::memory_order_relaxed);
  }
  return output_blocked_.load(std::memory_order_relaxed) ? EmitStatus::kBackpressured
                                                         : EmitStatus::kOk;
}

// --- granules::ComputationalTask ---------------------------------------------------

void InstanceRuntime::initialize(granules::TaskContext&) {
  if (kind_ == OperatorKind::kSource) {
    source->open(instance_, parallelism_);
  } else {
    processor->open(instance_, parallelism_);
    batch_mode_ = processor->prefers_batches();
  }
}

void InstanceRuntime::execute(granules::TaskContext& ctx) {
  metrics_.executions.fetch_add(1, std::memory_order_relaxed);
  // Watchdog gauge: non-zero while inside this execution. A dispatch that
  // never returns leaves it set, which is exactly the stuck signal.
  metrics_.exec_begin_ns.store(clock_->now_ns(), std::memory_order_relaxed);
  obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kDispatchBegin,
                              metrics_.executions.load(std::memory_order_relaxed));
  if (executing) executing->enter();
  struct ExecGuard {
    OperatorMetrics& m;
    uint32_t actor;
    ExecutionGauge* gauge;
    ~ExecGuard() {
      m.exec_begin_ns.store(0, std::memory_order_relaxed);
      obs::FlightRecorder::record(actor, obs::FlightEventType::kDispatchEnd,
                                  m.executions.load(std::memory_order_relaxed));
      if (gauge) gauge->exit();
    }
  } exec_guard{metrics_, flight_actor_, executing.get()};
  if (stop_requested_.load(std::memory_order_acquire)) {
    finalize(ctx, /*discard=*/true);
    return;
  }
  // Before the blocked check: a barrier queues behind parked frames. Only
  // this thread clears the request, and reading it first keeps the common
  // case from writing a shared cache line on every execution.
  if (barrier_request_.load(std::memory_order_relaxed) != 0)
    emit_barrier(barrier_request_.exchange(0, std::memory_order_acq_rel));
  if (!retry_blocked_outputs()) return;  // writable callback will re-notify
  if (kind_ == OperatorKind::kSource) {
    run_source(ctx);
  } else {
    run_processor(ctx);
  }
}

void InstanceRuntime::on_flush_timer() {
  bool was_blocked = output_blocked_.load(std::memory_order_relaxed);
  for (auto& out : outputs) {
    for (auto& buf : out.dst) buf->on_timer();
  }
  if (was_blocked) {
    // A parked frame may have been sent by the timer retry; let the task
    // re-check (cheap no-op when still blocked).
    wake();
  }
}

// --- checkpoint barriers ------------------------------------------------------------

/// Snapshot (through the host), then send the barrier down every output.
void InstanceRuntime::emit_barrier(uint64_t epoch) {
  host_->on_barrier(*this, epoch);
  for (auto& out : outputs) {
    for (auto& buf : out.dst) {
      if (!buf->add_barrier(epoch)) output_blocked_.store(true, std::memory_order_relaxed);
    }
  }
}

bool InstanceRuntime::complete_barrier() {
  if (align_epoch_ == 0 || !ready_.empty() || !all_inputs_drained(/*or_held=*/true)) return false;
  emit_barrier(std::exchange(align_epoch_, 0));
  return true;
}

// --- source path -----------------------------------------------------------------

void InstanceRuntime::run_source(granules::TaskContext& ctx) {
  if (source_exhausted_) {
    finalize(ctx, false);
    return;
  }
  bool more = source->next(*this, cfg_.source_batch_budget);
  if (!more) {
    source_exhausted_ = true;
    finalize(ctx, false);
    return;
  }
  if (output_blocked_.load(std::memory_order_relaxed)) return;  // throttled (paper §III-B4)
  ctx.request_reschedule();
}

// --- processor path ----------------------------------------------------------------

void InstanceRuntime::run_processor(granules::TaskContext& ctx) {
  // Per-batch operator scratch lives exactly one scheduled execution
  // (docs/INTERNALS.md §11): reclaim it all in O(1) before any dispatch.
  arena_.reset();
  if (!drain_ready_batches()) return;  // output blocked mid-batch
  size_t rounds = 0;
  while (rounds < cfg_.max_batches_per_execution) {
    if (!fetch_some_frames()) {
      if (complete_barrier()) continue;  // the held inputs are readable again
      break;
    }
    ++rounds;
    if (!drain_ready_batches()) return;
  }
  if (all_inputs_drained(/*or_held=*/false) && ready_.empty()) {
    finalize(ctx, false);
    return;
  }
  // When the per-execution budget was hit there may be more data; yield
  // the worker (batched scheduling fairness) and reschedule. An edge that
  // refills after our empty scan re-notifies via its data callback, and
  // the Running->RunningDirty state machine guarantees no lost wakeup.
  if (rounds == cfg_.max_batches_per_execution) ctx.request_reschedule();
}

/// Pull one frame from the next input edge that has data and decode it
/// into a ready batch. Returns false when no edge had data.
///
/// Every channel hands over exactly one wire frame per pooled buffer; the
/// batch keeps a ref and packets are parsed straight out of it — zero
/// payload copies. A buffer that is not exactly one valid frame is a
/// corrupt frame.
bool InstanceRuntime::fetch_some_frames() {
  size_t n = inputs.size();
  for (size_t step = 0; step < n; ++step) {
    InEdge& e = inputs[(next_edge_ + step) % n];
    if (e.drained || held(e)) continue;
    auto frame = e.rx->try_receive_buf();
    if (!frame) {
      if (e.rx->closed()) e.drained = true;
      continue;
    }
    next_edge_ = (next_edge_ + step + 1) % n;
    metrics_.bytes_in.fetch_add(frame->size(), std::memory_order_relaxed);
    FrameDecodeStatus s = FrameDecodeStatus::kFrame;
    if (auto f = decode_whole_frame(frame->contents(), &s)) {
      ingest_frame(e, f->header, f->payload, *frame);
    } else {
      report_corrupt_frame(e, s);
    }
    return true;
  }
  return false;
}

void InstanceRuntime::report_corrupt_frame(InEdge& e, FrameDecodeStatus s) {
  // A corrupt frame here means the transport below us has no repair
  // path (supervised TCP edges reject and retransmit upstream of this
  // point). Exactly-once cannot be upheld without the frame, so this
  // is a permanent failure: count it and hand the job to whatever
  // recovery policy is attached (e.g. checkpoint restore).
  NEPTUNE_LOG_ERROR("%s: corrupt frame on link %u (status %d)", task_name_.c_str(), e.link_id,
                    static_cast<int>(s));
  metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
  host_->report_failure(task_name_ + ": corrupt frame on link " + std::to_string(e.link_id));
}

/// `frame` is the pooled buffer the payload points into — the batch
/// retains it so the packet bytes stay alive, unparsed, until drained.
void InstanceRuntime::ingest_frame(InEdge& e, const FrameHeader& h,
                                   std::span<const uint8_t> payload, const FrameBufRef& frame) {
  if (h.control()) return;  // control frames never carry packets
  if (h.barrier()) {
    // A repeat (retransmission) is ignored. An input that skipped an epoch
    // raises the alignment target; inputs held on the older one resume.
    if (payload.size() != 8) return report_corrupt_frame(e, FrameDecodeStatus::kBadLength);
    uint64_t epoch = ByteReader(payload).read_u64();
    if (epoch > e.barrier_epoch) align_epoch_ = std::max(align_epoch_, e.barrier_epoch = epoch);
    return;
  }
  FrameBufRef keep;  // pins `raw` for the life of the batch
  std::span<const uint8_t> raw = payload;
  if (h.compressed()) {
    // Decompress straight into a pooled buffer (its allocation is
    // recycled frame-to-frame, object-reuse scheme §III-B3).
    keep = FrameBufPool::global().acquire();
    ByteBuffer& dst = keep->buffer();
    dst.resize(h.raw_size);
    ptrdiff_t dn = lz4::decompress(payload, dst.data(), h.raw_size);
    if (dn < 0 || static_cast<uint32_t>(dn) != h.raw_size) {
      NEPTUNE_LOG_ERROR("%s: LZ4 decode failure on link %u", task_name_.c_str(), e.link_id);
      metrics_.seq_violations.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    raw = keep.contents();
  } else {
    keep = frame;  // zero-copy: share the inbound frame buffer
  }
  ByteReader r(raw);
  uint32_t src_inst = r.read_u32();
  uint64_t base_seq = r.read_u64();
  uint64_t trace_id = r.read_u64();
  int64_t trace_origin_ns = r.read_i64();
  int64_t batch_start_ns = r.read_i64();
  int64_t flush_ns = r.read_i64();
  // Exactly-once, in-order validation (paper §I-B).
  if (h.link_id != e.link_id || src_inst != e.src_instance) {
    NEPTUNE_LOG_ERROR("%s: misrouted frame: link %u src %u on edge link %u src %u",
                      task_name_.c_str(), h.link_id, src_inst, e.link_id, e.src_instance);
    metrics_.seq_violations.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (base_seq + h.batch_count <= e.expected_seq) {
    // Entirely replayed content (e.g. a retransmission overlapping an ack
    // in flight, or source replay after recovery): dedupe, don't re-apply.
    metrics_.dup_frames_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (base_seq > e.expected_seq) {
    if (e.lossy) {
      // Expected on a best-effort edge: the sender shed the missing
      // packets under overload. Account and resync, no contract breach.
      uint64_t gap = base_seq - e.expected_seq;
      e.shed_gap_packets += gap;
      metrics_.shed_gaps.fetch_add(gap, std::memory_order_relaxed);
    } else {
      // A gap means lost packets — a genuine contract breach. Record it and
      // resync so one fault is counted once, not once per frame after.
      NEPTUNE_LOG_ERROR("%s: sequence violation on link %u src %u: base %llu expected %llu",
                        task_name_.c_str(), e.link_id, src_inst,
                        static_cast<unsigned long long>(base_seq),
                        static_cast<unsigned long long>(e.expected_seq));
      metrics_.seq_violations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Partial overlap: skip the leading packets we already processed.
  uint32_t skip = base_seq < e.expected_seq ? static_cast<uint32_t>(e.expected_seq - base_seq)
                                            : 0;
  if (skip > 0) metrics_.dup_frames_dropped.fetch_add(1, std::memory_order_relaxed);
  e.expected_seq = base_seq + h.batch_count;

  auto batch = batch_pool_->acquire();
  batch->reset();
  batch->buf = std::move(keep);
  batch->packets = raw.subspan(r.position());
  batch->count = h.batch_count;
  batch->cursor = skip;
  batch->trace_link = e.link_id;  // also keyed for error attribution at drain
  batch->trace_src = src_inst;
  if (skip > 0) {
    // Duplicate-frame replay: advance the byte cursor past the packets
    // already applied, without decoding fields (view parse only).
    try {
      size_t off = 0;
      for (uint32_t i = 0; i < skip; ++i) off = skip_view_.parse(batch->packets, off);
      batch->byte_off = off;
    } catch (const PacketFormatError& ex) {
      if (dlq) {
        metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
        quarantine_span(*batch, 0, batch->packets.size(), h.batch_count,
                        std::string("malformed replayed batch: ") + ex.what());
      } else {
        report_malformed_batch(e, ex);
      }
      return;  // PoolPtr recycles the batch
    }
  }
  if (trace_id != 0) {
    batch->trace_id = trace_id;
    batch->trace_origin_ns = trace_origin_ns;
    batch->batch_start_ns = batch_start_ns;
    batch->flush_ns = flush_ns;
    batch->recv_ns = clock_->now_ns();
    batch->trace_bytes = static_cast<uint32_t>(raw.size());
  }
  metrics_.batches_in.fetch_add(1, std::memory_order_relaxed);
  ready_.push_back(std::move(batch));
  metrics_.inbound_ready_batches.store(static_cast<int64_t>(ready_.size()),
                                       std::memory_order_relaxed);
}

void InstanceRuntime::report_malformed_batch(InEdge& e, const PacketFormatError& ex) {
  // The frame passed its CRC, so this is an encoder bug upstream, not
  // wire corruption — still unrecoverable for exactly-once.
  NEPTUNE_LOG_ERROR("%s: malformed packet on link %u: %s", task_name_.c_str(), e.link_id,
                    ex.what());
  metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
  host_->report_failure(task_name_ + ": malformed packet on link " + std::to_string(e.link_id) +
                        ": " + ex.what());
}

// --- poison-pill quarantine ----------------------------------------------------

/// Capture `[byte_begin, byte_end)` of the batch's packet bytes (already
/// validated wire format, so tests can replay them) into the job's DLQ.
void InstanceRuntime::quarantine_span(const Batch& b, size_t byte_begin, size_t byte_end,
                                      uint32_t count, const std::string& reason) {
  fault::DeadLetterEntry entry;
  entry.op_id = op_id_;
  entry.instance = instance_;
  entry.link_id = b.trace_link;
  entry.src_instance = b.trace_src;
  entry.packet_count = count;
  entry.reason = reason;
  entry.quarantined_ns = clock_->now_ns();
  auto span = b.packets.subspan(byte_begin, byte_end - byte_begin);
  entry.packet_bytes.assign(span.begin(), span.end());
  dlq->quarantine(std::move(entry));
  metrics_.packets_quarantined.fetch_add(count, std::memory_order_relaxed);
  obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kQuarantine, count,
                              b.trace_link);
  NEPTUNE_LOG_WARN("%s: quarantined %u packet(s) from link %u to the dead-letter queue: %s",
                   task_name_.c_str(), count, b.trace_link, reason.c_str());
}

/// Malformed batch past the CRC layer: with quarantine enabled the
/// unprocessed remainder goes to the DLQ and the pipeline continues;
/// otherwise this is the permanent failure it always was.
void InstanceRuntime::handle_malformed(Batch& b, const PacketFormatError& ex) {
  if (dlq) {
    metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
    quarantine_span(b, b.byte_off, b.packets.size(), static_cast<uint32_t>(b.count - b.cursor),
                    std::string("malformed batch: ") + ex.what());
  } else {
    report_malformed_batch(*find_edge(b), ex);
  }
  b.cursor = b.count;  // drop the rest of the poisoned batch
  b.byte_off = b.packets.size();
}

/// Process ready batches; stops (returning false) when an output edge
/// becomes flow-controlled. Partial progress is kept via the batch
/// cursor. Packets decode lazily from the pinned frame bytes: as views
/// (batch mode) or into a reused scratch packet (per-packet mode) — no
/// per-packet allocation beyond the operator's own.
bool InstanceRuntime::drain_ready_batches() {
  bool is_sink = outputs.empty();
  while (!ready_.empty()) {
    Batch& b = *ready_.front();
    if (b.trace_id != 0) {
      if (b.exec_start_ns == 0) b.exec_start_ns = clock_->now_ns();
      // Emissions while this batch executes inherit its trace, so the
      // trace follows the data to the next hop.
      current_trace_ = obs::TraceContext{b.trace_id, b.trace_origin_ns};
    }
    try {
      if (batch_mode_) {
        if (!dispatch_batch(b, is_sink)) {
          current_trace_ = {};
          return false;
        }
      } else {
        uint64_t alloc = 0;
        while (b.cursor < b.count) {
          size_t pkt_start = b.byte_off;
          ByteReader r(b.packets.data() + b.byte_off, b.packets.size() - b.byte_off);
          scratch_pkt_.deserialize(r, &alloc);  // reuses packet storage
          b.byte_off += r.position();
          ++b.cursor;
          metrics_.packets_in.fetch_add(1, std::memory_order_relaxed);
          int64_t dispatch_ns = packet_deadline_ns > 0 ? clock_->now_ns() : 0;
          bool poisoned = false;
          try {
            processor->process(scratch_pkt_, *this);
          } catch (const PacketFormatError&) {
            throw;  // malformed-batch path owns these
          } catch (const BufferUnderflow&) {
            throw;
          } catch (const std::exception& ex) {
            if (!dlq) throw;
            // Poison pill: quarantine just this packet, keep the batch.
            quarantine_span(b, pkt_start, b.byte_off, 1,
                            std::string("operator threw: ") + ex.what());
            poisoned = true;
          }
          if (dispatch_ns != 0 && clock_->now_ns() - dispatch_ns > packet_deadline_ns)
            metrics_.deadline_overruns.fetch_add(1, std::memory_order_relaxed);
          if (!poisoned && is_sink && scratch_pkt_.event_time_ns() > 0) {
            int64_t lat = clock_->now_ns() - scratch_pkt_.event_time_ns();
            if (lat > 0) metrics_.sink_latency.record(static_cast<uint64_t>(lat));
          }
          if (output_blocked_.load(std::memory_order_relaxed)) {
            // Partial progress kept; resume from the cursor next run.
            metrics_.serde_alloc_bytes.fetch_add(alloc, std::memory_order_relaxed);
            current_trace_ = {};
            return false;
          }
        }
        metrics_.serde_alloc_bytes.fetch_add(alloc, std::memory_order_relaxed);
      }
    } catch (const PacketFormatError& ex) {
      handle_malformed(b, ex);
    } catch (const BufferUnderflow& ex) {
      handle_malformed(b, PacketFormatError(ex.what()));
    }
    if (b.trace_id != 0) record_span(b);
    current_trace_ = {};
    b.buf.reset();  // return the frame to its pool now, not at batch reuse
    b.packets = {};
    ready_.pop_front();  // PoolPtr destructor recycles the batch
    metrics_.inbound_ready_batches.store(static_cast<int64_t>(ready_.size()),
                                         std::memory_order_relaxed);
  }
  return true;
}

/// Batch-mode dispatch: one on_batch() call per inbound batch, packets
/// handed out as views into the pinned frame. Emits are always buffered,
/// so the whole batch completes even if an output edge blocks mid-way —
/// the blocked flag then pauses further batches (bounded by one batch of
/// overshoot, ~the flush threshold).
bool InstanceRuntime::dispatch_batch(Batch& b, bool is_sink) {
  if (b.cursor < b.count) {
    batch_view_.reset(b.packets.subspan(b.byte_off), static_cast<uint32_t>(b.count - b.cursor),
                      &arena_);
    metrics_.batch_dispatches.fetch_add(1, std::memory_order_relaxed);
    metrics_.packets_in.fetch_add(b.count - b.cursor, std::memory_order_relaxed);
    int64_t dispatch_ns = packet_deadline_ns > 0 ? clock_->now_ns() : 0;
    try {
      processor->on_batch(batch_view_, *this);
    } catch (const PacketFormatError&) {
      throw;  // malformed-batch path owns these
    } catch (const BufferUnderflow&) {
      throw;
    } catch (const std::exception& ex) {
      if (!dlq) throw;
      // on_batch gives no per-packet cursor, so the whole unprocessed
      // remainder is the quarantine unit; the pipeline moves on.
      quarantine_span(b, b.byte_off, b.packets.size(), static_cast<uint32_t>(b.count - b.cursor),
                      std::string("operator threw: ") + ex.what());
    }
    if (dispatch_ns != 0 && clock_->now_ns() - dispatch_ns > packet_deadline_ns)
      metrics_.deadline_overruns.fetch_add(1, std::memory_order_relaxed);
    b.cursor = b.count;
    b.byte_off = b.packets.size();
    if (is_sink && batch_view_.last_event_time_ns() > 0) {
      // Sink latency is sampled once per batch on this path (the batch's
      // newest packet); per-packet recording lives on the legacy path.
      int64_t lat = clock_->now_ns() - batch_view_.last_event_time_ns();
      if (lat > 0) metrics_.sink_latency.record(static_cast<uint64_t>(lat));
    }
  }
  return !output_blocked_.load(std::memory_order_relaxed);
}

/// The input edge a ready batch arrived on (for error attribution).
InEdge* InstanceRuntime::find_edge(const Batch& b) {
  for (auto& e : inputs) {
    if (e.link_id == b.trace_link && e.src_instance == b.trace_src) return &e;
  }
  return &inputs.front();
}

/// Close the hop for a traced batch that just finished executing.
void InstanceRuntime::record_span(const Batch& b) {
  obs::TraceSpan s;
  s.trace_id = b.trace_id;
  s.link_id = b.trace_link;
  s.src_instance = b.trace_src;
  s.dst_instance = instance_;
  s.dst_operator = op_id_;
  s.origin_ns = b.trace_origin_ns;
  s.batch_start_ns = b.batch_start_ns;
  s.flush_ns = b.flush_ns;
  s.recv_ns = b.recv_ns;
  s.exec_start_ns = b.exec_start_ns;
  s.exec_end_ns = clock_->now_ns();
  s.batch_count = static_cast<uint32_t>(b.count);
  s.bytes = b.trace_bytes;
  obs::TraceCollector::global().record(std::move(s));
}

/// Every input is drained (closed ones get marked) or, `or_held`, held.
bool InstanceRuntime::all_inputs_drained(bool or_held) {
  for (auto& e : inputs) {
    if (e.drained || (or_held && held(e))) continue;
    if (!e.rx->closed()) return false;
    e.drained = true;
  }
  return true;
}

/// Retry every flow-controlled buffer. True when none remain blocked.
bool InstanceRuntime::retry_blocked_outputs() {
  if (!output_blocked_.load(std::memory_order_relaxed)) return true;
  bool all_ok = true;
  for (auto& out : outputs) {
    for (auto& buf : out.dst) {
      if (buf->blocked()) all_ok &= buf->drain(false);
    }
  }
  if (all_ok) output_blocked_.store(false, std::memory_order_relaxed);
  return all_ok;
}

void InstanceRuntime::finalize(granules::TaskContext& ctx, bool discard) {
  if (done_.load(std::memory_order_acquire)) {
    ctx.request_termination();
    return;
  }
  if (kind_ == OperatorKind::kProcessor && !close_called_ && !discard) {
    close_called_ = true;
    processor->close(*this);  // may emit final window aggregates
  }
  if (!discard) {
    bool all_flushed = true;
    for (auto& out : outputs) {
      for (auto& buf : out.dst) all_flushed &= buf->drain(/*force=*/true);
    }
    if (!all_flushed) {
      output_blocked_.store(true, std::memory_order_relaxed);
      return;  // finalize resumes when the writable callback fires
    }
  }
  for (auto& out : outputs) {
    for (auto& buf : out.dst) buf->close_channel();
  }
  if (kind_ == OperatorKind::kSource && source) source->close();
  done_.store(true, std::memory_order_release);
  ctx.request_termination();
  host_->on_instance_done(*this);
}

// --- CheckpointCollector -----------------------------------------------------------

void CheckpointCollector::begin(uint64_t epoch, const std::vector<InstanceRuntime*>& instances) {
  *this = {};
  epoch_ = epoch;
  waiting_.assign(instances.begin(), instances.end());
  for (InstanceRuntime* inst : instances) {
    if (inst->done())
      on_barrier(*inst, epoch);  // terminated: its final state is settled
    else
      inst->request_barrier(epoch);
  }
}

void CheckpointCollector::on_barrier(const InstanceRuntime& inst, uint64_t epoch) {
  if (epoch == 0 || epoch != epoch_) return;
  auto it = std::find(waiting_.begin(), waiting_.end(), &inst);
  if (it == waiting_.end()) return;  // already reported
  waiting_.erase(it);
  inst.snapshot_into(snapshot_);
}

JobSnapshot CheckpointCollector::take() {
  JobSnapshot out = std::move(snapshot_);
  *this = {};
  return out;
}

}  // namespace neptune::detail
