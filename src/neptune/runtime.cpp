#include "neptune/runtime.hpp"

#include <deque>

#include <cstdlib>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "compress/lz4.hpp"
#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"
#include "common/json.hpp"
#include "obs/build_info.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/incident.hpp"
#include "obs/trace.hpp"

namespace neptune {
namespace detail {

/// An inbound batch awaiting execution, recycled through an object pool
/// (paper §III-B3). The packet bytes are NOT deserialized here: `packets`
/// is a view into a pooled frame buffer pinned by `buf`, and packets are
/// decoded lazily at drain time — either into per-packet views (zero
/// allocation) or into a reused scratch StreamPacket for legacy per-packet
/// operators.
struct Batch {
  FrameBufRef buf;                   ///< pins the payload bytes until drained
  std::span<const uint8_t> packets;  ///< serialized packets (after the BatchHeader)
  size_t count = 0;                  ///< packets in the batch
  size_t cursor = 0;                 ///< next packet to process (partial progress under backpressure)
  size_t byte_off = 0;               ///< byte offset of `cursor` within `packets`

  // Trace block carried in the BatchHeader (trace_id 0 = untraced) plus the
  // destination-side stamps needed to close the hop's span.
  uint64_t trace_id = 0;
  int64_t trace_origin_ns = 0;
  int64_t batch_start_ns = 0;
  int64_t flush_ns = 0;
  int64_t recv_ns = 0;
  int64_t exec_start_ns = 0;
  uint32_t trace_link = 0;
  uint32_t trace_src = 0;
  uint32_t trace_bytes = 0;

  void reset() {
    buf.reset();  // releases the pooled frame
    packets = {};
    count = 0;
    cursor = 0;
    byte_off = 0;
    trace_id = 0;
    exec_start_ns = 0;
  }
};

/// Receiving half of one (link, src-instance) edge at a destination
/// instance.
struct InEdge {
  std::shared_ptr<ChannelReceiver> rx;
  uint64_t expected_seq = 0;
  uint32_t link_id = 0;
  uint32_t src_instance = 0;
  bool drained = false;
  /// Best-effort edge with a shed policy: sequence gaps are expected sheds
  /// (counted in shed_gaps), not exactly-once violations.
  bool lossy = false;
};

/// Sending half of one output link: one StreamBuffer per destination
/// instance, plus the link's partitioning scheme.
struct OutLink {
  const LinkDecl* decl = nullptr;
  std::shared_ptr<PartitioningScheme> partitioning;
  std::vector<std::unique_ptr<StreamBuffer>> dst;
};

/// One parallel instance of a stream operator: a Granules task + Emitter.
class InstanceRuntime : public granules::ComputationalTask, public Emitter {
 public:
  InstanceRuntime(std::string op_id, uint32_t inst, uint32_t par, OperatorKind k,
                  const GraphConfig& cfg, Job* job)
      : op_id_(std::move(op_id)),
        instance_(inst),
        parallelism_(par),
        kind_(k),
        cfg_(cfg),
        job_(job),
        batch_pool_(ObjectPool<Batch>::create(/*max_idle=*/64)) {
    task_name_ = op_id_ + "[" + std::to_string(instance_) + "]";
    flight_actor_ = obs::FlightRecorder::register_actor(task_name_);
  }

  // --- wiring (called by Runtime::submit, before start) ----------------------
  std::unique_ptr<StreamSource> source;
  std::unique_ptr<StreamProcessor> processor;
  std::vector<OutLink> outputs;
  std::vector<InEdge> inputs;
  granules::Resource* resource = nullptr;
  uint64_t task_id = 0;
  /// Poison-pill quarantine (null = disabled): operator exceptions and
  /// malformed batches are captured here instead of failing the job.
  std::shared_ptr<fault::DeadLetterQueue> dlq;
  /// > 0: dispatches slower than this are counted in deadline_overruns.
  int64_t packet_deadline_ns = 0;

  OperatorMetrics& metrics() { return metrics_; }
  const OperatorMetrics& metrics() const { return metrics_; }
  uint32_t flight_actor() const { return flight_actor_; }
  const std::string& op_id() const { return op_id_; }
  uint32_t instance_index() const { return instance_; }
  void request_stop() { stop_requested_.store(true, std::memory_order_release); }
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Checkpoint support: pause/resume source emission (processors drain
  /// naturally once sources are quiet).
  void set_paused(bool paused) { paused_.store(paused, std::memory_order_release); }

  /// The Checkpointable view of the user operator, or nullptr.
  Checkpointable* checkpointable() {
    if (source) return dynamic_cast<Checkpointable*>(source.get());
    return dynamic_cast<Checkpointable*>(processor.get());
  }
  const Checkpointable* checkpointable() const {
    return const_cast<InstanceRuntime*>(this)->checkpointable();
  }

  // --- Emitter ---------------------------------------------------------------
  EmitStatus emit(StreamPacket&& packet) override { return emit(0, std::move(packet)); }

  EmitStatus emit(size_t link, StreamPacket&& packet) override {
    if (link >= outputs.size())
      throw GraphError(task_name_ + ": emit on unknown output link " + std::to_string(link));
    if (packet.event_time_ns() == 0) packet.set_event_time_ns(now_ns());
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

  /// Zero-copy re-emit: forward the view's wire bytes straight into the
  /// outbound stream buffer — no deserialize, no re-serialize. Falls back
  /// to materialization only when the packet has no event time yet (the
  /// stamp would have to rewrite the serialized bytes).
  EmitStatus emit(size_t link, const PacketView& view) override {
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

  size_t output_link_count() const override { return outputs.size(); }
  uint32_t instance() const override { return instance_; }
  uint64_t packets_emitted() const override {
    return packets_emitted_.load(std::memory_order_relaxed);
  }

  // --- granules::ComputationalTask ---------------------------------------------
  const std::string& name() const override { return task_name_; }

  void initialize(granules::TaskContext&) override {
    if (kind_ == OperatorKind::kSource) {
      source->open(instance_, parallelism_);
    } else {
      processor->open(instance_, parallelism_);
      batch_mode_ = processor->prefers_batches();
    }
  }

  void execute(granules::TaskContext& ctx) override {
    metrics_.executions.fetch_add(1, std::memory_order_relaxed);
    // Watchdog gauge: non-zero while inside this execution. A dispatch that
    // never returns leaves it set, which is exactly the stuck signal.
    metrics_.exec_begin_ns.store(now_ns(), std::memory_order_relaxed);
    obs::FlightRecorder::record(flight_actor_, obs::FlightEventType::kDispatchBegin,
                                metrics_.executions.load(std::memory_order_relaxed));
    struct ExecGuard {
      OperatorMetrics& m;
      uint32_t actor;
      ~ExecGuard() {
        m.exec_begin_ns.store(0, std::memory_order_relaxed);
        obs::FlightRecorder::record(actor, obs::FlightEventType::kDispatchEnd,
                                    m.executions.load(std::memory_order_relaxed));
      }
    } exec_guard{metrics_, flight_actor_};
    if (stop_requested_.load(std::memory_order_acquire)) {
      finalize(ctx, /*discard=*/true);
      return;
    }
    if (!retry_blocked_outputs()) return;  // writable callback will re-notify
    if (kind_ == OperatorKind::kSource) {
      run_source(ctx);
    } else {
      run_processor(ctx);
    }
  }

  /// IO-thread flush timer hook (paper §III-B1 latency bound).
  void on_flush_timer() {
    bool was_blocked = output_blocked_.load(std::memory_order_relaxed);
    for (auto& out : outputs) {
      for (auto& buf : out.dst) buf->on_timer();
    }
    if (was_blocked) {
      // A parked frame may have been sent by the timer retry; let the task
      // re-check (cheap no-op when still blocked).
      resource->notify_data(task_id);
    }
  }

 private:
  // --- source path -----------------------------------------------------------
  void run_source(granules::TaskContext& ctx) {
    if (source_exhausted_) {
      finalize(ctx, false);
      return;
    }
    if (paused_.load(std::memory_order_acquire)) return;  // resume() re-notifies
    bool more = source->next(*this, cfg_.source_batch_budget);
    if (!more) {
      source_exhausted_ = true;
      finalize(ctx, false);
      return;
    }
    if (output_blocked_.load(std::memory_order_relaxed)) return;  // throttled (paper §III-B4)
    ctx.request_reschedule();
  }

  // --- processor path ----------------------------------------------------------
  void run_processor(granules::TaskContext& ctx) {
    // Per-batch operator scratch lives exactly one scheduled execution
    // (docs/INTERNALS.md §11): reclaim it all in O(1) before any dispatch.
    arena_.reset();
    if (!drain_ready_batches()) return;  // output blocked mid-batch
    size_t rounds = 0;
    while (rounds < cfg_.max_batches_per_execution) {
      if (!fetch_some_frames()) break;
      ++rounds;
      if (!drain_ready_batches()) return;
    }
    if (all_inputs_drained() && ready_.empty()) {
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
  bool fetch_some_frames() {
    size_t n = inputs.size();
    for (size_t step = 0; step < n; ++step) {
      InEdge& e = inputs[(next_edge_ + step) % n];
      if (e.drained) continue;
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

  void report_corrupt_frame(InEdge& e, FrameDecodeStatus s) {
    // A corrupt frame here means the transport below us has no repair
    // path (supervised TCP edges reject and retransmit upstream of this
    // point). Exactly-once cannot be upheld without the frame, so this
    // is a permanent failure: count it and hand the job to whatever
    // recovery policy is attached (e.g. checkpoint restore).
    NEPTUNE_LOG_ERROR("%s: corrupt frame on link %u (status %d)", task_name_.c_str(), e.link_id,
                      static_cast<int>(s));
    metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
    job_->report_failure(task_name_ + ": corrupt frame on link " + std::to_string(e.link_id));
  }

  /// `frame` is the pooled buffer the payload points into — the batch
  /// retains it so the packet bytes stay alive, unparsed, until drained.
  void ingest_frame(InEdge& e, const FrameHeader& h, std::span<const uint8_t> payload,
                    const FrameBufRef& frame) {
    if (h.control()) return;  // control frames never carry packets
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
        metrics_.shed_gaps.fetch_add(base_seq - e.expected_seq, std::memory_order_relaxed);
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
      batch->recv_ns = now_ns();
      batch->trace_bytes = static_cast<uint32_t>(raw.size());
    }
    metrics_.batches_in.fetch_add(1, std::memory_order_relaxed);
    ready_.push_back(std::move(batch));
    metrics_.inbound_ready_batches.store(static_cast<int64_t>(ready_.size()),
                                         std::memory_order_relaxed);
  }

  void report_malformed_batch(InEdge& e, const PacketFormatError& ex) {
    // The frame passed its CRC, so this is an encoder bug upstream, not
    // wire corruption — still unrecoverable for exactly-once.
    NEPTUNE_LOG_ERROR("%s: malformed packet on link %u: %s", task_name_.c_str(), e.link_id,
                      ex.what());
    metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
    job_->report_failure(task_name_ + ": malformed packet on link " + std::to_string(e.link_id) +
                         ": " + ex.what());
  }

  // --- poison-pill quarantine --------------------------------------------------

  /// Capture `[byte_begin, byte_end)` of the batch's packet bytes (already
  /// validated wire format, so tests can replay them) into the job's DLQ.
  void quarantine_span(const Batch& b, size_t byte_begin, size_t byte_end, uint32_t count,
                       const std::string& reason) {
    fault::DeadLetterEntry entry;
    entry.op_id = op_id_;
    entry.instance = instance_;
    entry.link_id = b.trace_link;
    entry.src_instance = b.trace_src;
    entry.packet_count = count;
    entry.reason = reason;
    entry.quarantined_ns = now_ns();
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
  void handle_malformed(Batch& b, const PacketFormatError& ex) {
    if (dlq) {
      metrics_.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
      quarantine_span(b, b.byte_off, b.packets.size(),
                      static_cast<uint32_t>(b.count - b.cursor),
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
  bool drain_ready_batches() {
    bool is_sink = outputs.empty();
    while (!ready_.empty()) {
      Batch& b = *ready_.front();
      if (b.trace_id != 0) {
        if (b.exec_start_ns == 0) b.exec_start_ns = now_ns();
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
            int64_t dispatch_ns = packet_deadline_ns > 0 ? now_ns() : 0;
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
            if (dispatch_ns != 0 && now_ns() - dispatch_ns > packet_deadline_ns)
              metrics_.deadline_overruns.fetch_add(1, std::memory_order_relaxed);
            if (!poisoned && is_sink && scratch_pkt_.event_time_ns() > 0) {
              int64_t lat = now_ns() - scratch_pkt_.event_time_ns();
              if (lat > 0) metrics_.sink_latency.record(static_cast<uint64_t>(lat));
            }
            if (output_blocked_.load(std::memory_order_relaxed)) {
              if (b.cursor < b.count || !ready_.empty()) {
                // Partial progress kept; resume from the cursor next run.
              }
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
  bool dispatch_batch(Batch& b, bool is_sink) {
    if (b.cursor < b.count) {
      batch_view_.reset(b.packets.subspan(b.byte_off), static_cast<uint32_t>(b.count - b.cursor),
                        &arena_);
      metrics_.batch_dispatches.fetch_add(1, std::memory_order_relaxed);
      metrics_.packets_in.fetch_add(b.count - b.cursor, std::memory_order_relaxed);
      int64_t dispatch_ns = packet_deadline_ns > 0 ? now_ns() : 0;
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
        quarantine_span(b, b.byte_off, b.packets.size(),
                        static_cast<uint32_t>(b.count - b.cursor),
                        std::string("operator threw: ") + ex.what());
      }
      if (dispatch_ns != 0 && now_ns() - dispatch_ns > packet_deadline_ns)
        metrics_.deadline_overruns.fetch_add(1, std::memory_order_relaxed);
      b.cursor = b.count;
      b.byte_off = b.packets.size();
      if (is_sink && batch_view_.last_event_time_ns() > 0) {
        // Sink latency is sampled once per batch on this path (the batch's
        // newest packet); per-packet recording lives on the legacy path.
        int64_t lat = now_ns() - batch_view_.last_event_time_ns();
        if (lat > 0) metrics_.sink_latency.record(static_cast<uint64_t>(lat));
      }
    }
    return !output_blocked_.load(std::memory_order_relaxed);
  }

  /// The input edge a ready batch arrived on (for error attribution).
  InEdge* find_edge(const Batch& b) {
    for (auto& e : inputs) {
      if (e.link_id == b.trace_link && e.src_instance == b.trace_src) return &e;
    }
    return &inputs.front();
  }

  /// Close the hop for a traced batch that just finished executing.
  void record_span(const Batch& b) {
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
    s.exec_end_ns = now_ns();
    s.batch_count = static_cast<uint32_t>(b.count);
    s.bytes = b.trace_bytes;
    obs::TraceCollector::global().record(std::move(s));
  }

  bool all_inputs_drained() {
    for (auto& e : inputs) {
      if (!e.drained) {
        if (e.rx->closed()) {
          e.drained = true;
        } else {
          return false;
        }
      }
    }
    return true;
  }

  /// Retry every flow-controlled buffer. True when none remain blocked.
  bool retry_blocked_outputs() {
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

  void finalize(granules::TaskContext& ctx, bool discard) {
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
    job_->on_instance_done();
  }

  const std::string op_id_;
  std::string task_name_;
  uint32_t flight_actor_ = 0;
  const uint32_t instance_;
  const uint32_t parallelism_;
  const OperatorKind kind_;
  const GraphConfig cfg_;
  Job* job_;

  OperatorMetrics metrics_;
  std::atomic<uint64_t> packets_emitted_{0};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> done_{false};

  // Mutated only on the worker thread, but the IO-thread flush timer peeks at
  // it to decide whether to re-notify the task — hence atomic, relaxed.
  std::atomic<bool> output_blocked_{false};

  // Worker-thread-only state (one thread at a time by the task contract).
  obs::TraceContext current_trace_;  // set while executing a traced batch
  bool source_exhausted_ = false;
  bool close_called_ = false;
  size_t next_edge_ = 0;
  std::shared_ptr<ObjectPool<Batch>> batch_pool_;
  std::deque<ObjectPool<Batch>::PoolPtr> ready_;

  // Zero-copy drain scratch, all reused across executions (§III-B3):
  // per-execution operator arena, a scratch packet for legacy per-packet
  // dispatch, and persistent view objects for skip-replay and batch mode.
  Arena arena_;
  StreamPacket scratch_pkt_;
  PacketView skip_view_;
  BatchView batch_view_;
  bool batch_mode_ = false;
};

}  // namespace detail

// --- Job -----------------------------------------------------------------------

Job::~Job() {
  for (size_t i = 0; i < timers_.size(); ++i) timer_loops_[i]->cancel_timer(timers_[i]);
}

void Job::start() {
  start_ns_.store(now_ns());
  // Kick every source instance once; they self-reschedule from then on.
  for (auto& inst : instances_) {
    inst->resource->notify_data(inst->task_id);
  }
}

void Job::on_instance_done() {
  std::lock_guard lk(done_mu_);
  ++done_count_;
  if (done_count_ == instances_.size()) {
    end_ns_.store(now_ns(), std::memory_order_release);
    done_cv_.notify_all();
  }
}

bool Job::wait(std::chrono::nanoseconds timeout) {
  std::unique_lock lk(done_mu_);
  return done_cv_.wait_for(lk, timeout, [&] { return done_count_ == instances_.size(); });
}

bool Job::completed() const {
  std::lock_guard lk(done_mu_);
  return done_count_ == instances_.size();
}

void Job::set_failure_handler(std::function<void(const std::string&)> handler) {
  std::lock_guard lk(failure_mu_);
  failure_handler_ = std::move(handler);
}

std::string Job::failure_reason() const {
  std::lock_guard lk(failure_mu_);
  return failure_reason_;
}

void Job::report_failure(const std::string& what) {
  std::function<void(const std::string&)> handler;
  {
    std::lock_guard lk(failure_mu_);
    if (failed_.exchange(true, std::memory_order_acq_rel)) return;  // first failure wins
    failure_reason_ = what;
    handler = failure_handler_;
  }
  NEPTUNE_LOG_ERROR("job %s: permanent failure: %s", name_.c_str(), what.c_str());
  if (handler) handler(what);
}

void Job::stop() {
  for (auto& inst : instances_) {
    inst->request_stop();
    inst->resource->notify_data(inst->task_id);
  }
}

void Job::pause() {
  for (auto& inst : instances_) inst->set_paused(true);
}

void Job::resume() {
  for (auto& inst : instances_) {
    inst->set_paused(false);
    inst->resource->notify_data(inst->task_id);
  }
}

bool Job::quiesce(std::chrono::nanoseconds timeout) {
  // With sources paused, the pipeline is drained once no counter moves
  // across several consecutive samples (flush timers push out any partial
  // buffers within their interval, which the sampling window covers).
  int64_t deadline = now_ns() + timeout.count();
  uint64_t last_signature = ~0ULL;
  int stable = 0;
  while (now_ns() < deadline) {
    auto m = metrics();
    // Frozen is not the same as drained: a dispatch wedged inside an
    // operator (or parsed batches it never got to) freezes every counter
    // while packets are still in flight — a checkpoint taken then would
    // lose them on restore. Require genuinely idle operators.
    bool busy = false;
    for (const auto& op : m.operators) {
      if (op.exec_begin_ns != 0 || op.inbound_ready_batches > 0) {
        busy = true;
        break;
      }
    }
    uint64_t signature = m.total(&OperatorMetricsSnapshot::packets_in) * 1315423911u +
                         m.total(&OperatorMetricsSnapshot::packets_out) * 2654435761u +
                         m.total(&OperatorMetricsSnapshot::flushes);
    if (busy) {
      stable = 0;
      last_signature = signature;
    } else if (signature == last_signature) {
      if (++stable >= 5) return true;
    } else {
      stable = 0;
      last_signature = signature;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

JobSnapshot Job::checkpoint_state() const {
  JobSnapshot snap;
  for (const auto& inst : instances_) {
    if (const Checkpointable* c = inst->checkpointable()) {
      ByteBuffer buf;
      c->snapshot_state(buf);
      snap.put(inst->op_id(), inst->instance_index(),
               std::vector<uint8_t>(buf.contents().begin(), buf.contents().end()));
    }
  }
  return snap;
}

void Job::restore_state(const JobSnapshot& snapshot) {
  for (auto& inst : instances_) {
    if (Checkpointable* c = inst->checkpointable()) {
      if (const std::vector<uint8_t>* state =
              snapshot.find(inst->op_id(), inst->instance_index())) {
        ByteReader r(*state);
        c->restore_state(r);
      }
    }
  }
}

void Job::note_watchdog_stall(const std::string& op_id, uint32_t instance) {
  for (auto& inst : instances_) {
    if (inst->op_id() == op_id && inst->instance_index() == instance) {
      inst->metrics().watchdog_stalls.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

JobMetricsSnapshot Job::metrics() const {
  JobMetricsSnapshot snap;
  for (const auto& inst : instances_) {
    OperatorMetricsSnapshot m = snapshot_of(inst->metrics());
    m.operator_id = inst->op_id();
    m.instance = inst->instance_index();
    snap.operators.push_back(std::move(m));
  }
  int64_t end = end_ns_.load(std::memory_order_acquire);
  snap.wall_time_ns = (end != 0 ? end : now_ns()) - start_ns_.load();
  return snap;
}

// --- Runtime ----------------------------------------------------------------------

Runtime::Runtime(size_t resources, granules::ResourceConfig base_config, RuntimeOptions options)
    : options_(options) {
  if (resources == 0) resources = 1;
  for (size_t i = 0; i < resources; ++i) {
    granules::ResourceConfig cfg = base_config;
    if (cfg.name == "resource") cfg.name = "res" + std::to_string(i);
    resources_.push_back(std::make_unique<granules::Resource>(cfg));
    resources_.back()->start();
  }

  // Build identity on /metrics for every runtime, however it's scraped.
  obs::ensure_build_info_registered();

  // Incident reporter ("black box" dumps): explicit dir via options, or
  // opt-in through the NEPTUNE_INCIDENT_DIR env var. First configurer wins
  // so a bench spawning several runtimes keeps one bundle directory.
  std::string incident_dir = options_.obs.incident_dir;
  if (incident_dir.empty()) {
    if (const char* env = std::getenv("NEPTUNE_INCIDENT_DIR")) incident_dir = env;
  }
  if (!incident_dir.empty() && obs::IncidentReporter::active() == nullptr) {
    obs::IncidentOptions inc;
    inc.dir = incident_dir;
    inc.max_bundles = options_.obs.incident_max_bundles;
    obs::IncidentReporter::configure_global(std::move(inc));
    NEPTUNE_LOG_INFO("incident reporter writing to %s", incident_dir.c_str());
  }

  // Observability endpoint: explicit port via options, or opt-in through the
  // NEPTUNE_METRICS_PORT env var so any bench/example can be scraped without
  // code changes. A failed bind degrades to "no endpoint", never to a crash.
  int port = options_.obs.metrics_port;
  if (port < 0) {
    if (const char* env = std::getenv("NEPTUNE_METRICS_PORT")) port = std::atoi(env);
  }
  if (port >= 0 && port <= 65535) {
    sampler_ = std::make_unique<obs::TelemetrySampler>(obs::TelemetryRegistry::global(),
                                                       options_.obs.sampler);
    sampler_->start();
    try {
      metrics_server_ = std::make_unique<obs::MetricsHttpServer>(
          static_cast<uint16_t>(port), &obs::TelemetryRegistry::global(), sampler_.get(),
          &obs::TraceCollector::global());
      NEPTUNE_LOG_INFO("metrics endpoint on 127.0.0.1:%u", metrics_server_->port());
    } catch (const std::exception& e) {
      NEPTUNE_LOG_WARN("metrics endpoint disabled: %s", e.what());
      sampler_->stop();
      sampler_.reset();
    }
  }
}

Runtime::~Runtime() { shutdown(); }

void Runtime::shutdown() {
  if (metrics_server_) metrics_server_->stop();
  if (sampler_) sampler_->stop();
  {
    std::lock_guard lk(jobs_mu_);
    for (auto& job : jobs_) {
      if (!job->completed()) job->stop();
    }
    jobs_.clear();
  }
  for (auto& r : resources_) r->stop();
}

namespace {

/// Registers the process-wide TCP transport counters as telemetry series the
/// first time a TCP edge is built. The stats object and the handles are both
/// process-lifetime (leaked), matching TcpTransportStats::global().
void register_tcp_transport_telemetry() {
  static const bool once = [] {
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    TcpTransportStats& s = TcpTransportStats::global();
    auto counter = [&](const char* name, const char* help,
                       const std::atomic<uint64_t>& field) {
      return reg.register_series({name, {}, obs::SeriesKind::kCounter, help},
                                 [&field] {
                                   return static_cast<double>(
                                       field.load(std::memory_order_relaxed));
                                 });
    };
    static std::vector<obs::TelemetryRegistry::Handle>* handles =
        new std::vector<obs::TelemetryRegistry::Handle>();
    handles->push_back(counter("neptune_tcp_rx_copies_total",
                               "Partial-frame tails spliced across pooled recv chunks",
                               s.rx_copies));
    handles->push_back(counter("neptune_tcp_rx_splice_bytes_total",
                               "Bytes moved by cross-chunk partial-frame splices",
                               s.rx_splice_bytes));
    handles->push_back(counter("neptune_tcp_tx_frames_total",
                               "Frames enqueued on TCP connections", s.tx_frames));
    handles->push_back(counter("neptune_tcp_rx_frames_total",
                               "Whole frames carved from pooled recv chunks", s.rx_frames));
    handles->push_back(counter("neptune_tcp_sendmsg_calls_total",
                               "sendmsg() drain syscalls issued", s.sendmsg_calls));
    handles->push_back(reg.register_series(
        {"neptune_tcp_sendmsg_iovecs_avg",
         {},
         obs::SeriesKind::kGauge,
         "Mean iovecs per sendmsg (scatter-gather batching factor)"},
        [&s] {
          uint64_t calls = s.sendmsg_calls.load(std::memory_order_relaxed);
          if (calls == 0) return 0.0;
          return static_cast<double>(s.sendmsg_iovecs.load(std::memory_order_relaxed)) /
                 static_cast<double>(calls);
        }));
    return true;
  }();
  (void)once;
}

}  // namespace

Runtime::EdgeChannel Runtime::make_edge_channel(granules::Resource* src, granules::Resource* dst,
                                                const ChannelConfig& config,
                                                const fault::EdgeId& edge,
                                                OperatorMetrics* src_metrics,
                                                OperatorMetrics* dst_metrics,
                                                const std::shared_ptr<Job>& job) {
  fault::FaultInjector* injector = options_.fault_injector.get();
  if (src == dst || options_.cross_resource_transport == EdgeTransport::kInproc) {
    // SPSC ring: each edge has exactly one producing StreamBuffer
    // (serialized by its mutex, including timer-thread flushes) and one
    // consuming task — with or without fault decorators on top.
    InprocPipe pipe = make_inproc_pipe(config);
    return {fault::wrap_sender(injector, edge, pipe.sender, src->io_loop(0)),
            fault::wrap_receiver(injector, edge, pipe.receiver, dst->io_loop(0))};
  }
  // Self-healing TCP edge: the receiver keeps a persistent listener so the
  // sender can reconnect after any failure; the injector (if any) is
  // applied *inside* the supervision, per connection incarnation.
  register_tcp_transport_telemetry();
  auto receiver = std::make_shared<fault::SupervisedTcpReceiver>(
      dst->io_loop(0), config, options_.supervisor, edge, injector,
      dst_metrics ? &dst_metrics->corrupt_frames_dropped : nullptr);
  auto sender = std::make_shared<fault::SupervisedTcpSender>(
      src->io_loop(0), receiver->port(), config, options_.supervisor, edge, injector,
      src_metrics ? &src_metrics->reconnects : nullptr,
      // Weak: channels can outlive the Job (resources hold task refs), and
      // a late budget-exhaustion report must not touch a freed Job.
      [weak_job = std::weak_ptr<Job>(job)](const std::string& what) {
        if (auto j = weak_job.lock()) j->report_failure(what);
      });
  return {sender, receiver};
}

// Topology descriptor for incident bundles: flightdump joins flush events
// (link id) to downstream dispatches through the links' "to" field.
void Runtime::note_topology_for_incidents(const StreamGraph& graph) {
  auto reporter = obs::IncidentReporter::active();
  if (!reporter) return;
  JsonObject topo;
  topo["job"] = JsonValue(graph.name());
  JsonArray ops;
  for (const OperatorDecl& op : graph.operators()) {
    JsonObject o;
    o["id"] = JsonValue(op.id);
    o["parallelism"] = JsonValue(static_cast<int64_t>(op.parallelism));
    ops.push_back(JsonValue(std::move(o)));
  }
  topo["operators"] = JsonValue(std::move(ops));
  JsonArray links;
  for (const LinkDecl& link : graph.links()) {
    JsonObject l;
    l["id"] = JsonValue(static_cast<int64_t>(link.link_id));
    l["from"] = JsonValue(graph.operators()[link.from_op].id);
    l["to"] = JsonValue(graph.operators()[link.to_op].id);
    links.push_back(JsonValue(std::move(l)));
  }
  topo["links"] = JsonValue(std::move(links));
  reporter->note_topology(JsonValue(std::move(topo)));
}

std::shared_ptr<Job> Runtime::submit(const StreamGraph& graph) {
  graph.validate();
  const GraphConfig& cfg = graph.config();

  note_topology_for_incidents(graph);

  auto job = std::shared_ptr<Job>(new Job());
  job->name_ = graph.name();
  for (auto& r : resources_) job->resources_.push_back(r.get());
  if (options_.quarantine.enabled)
    job->dead_letters_ = std::make_shared<fault::DeadLetterQueue>(options_.quarantine.dead_letter);

  // 1. Instantiate operator instances.
  //    op_instances[op_index][instance] -> InstanceRuntime.
  std::vector<std::vector<std::shared_ptr<detail::InstanceRuntime>>> op_instances;
  size_t placement_cursor = 0;
  for (size_t oi = 0; oi < graph.operators().size(); ++oi) {
    const OperatorDecl& op = graph.operators()[oi];
    std::vector<std::shared_ptr<detail::InstanceRuntime>> instances;
    for (uint32_t inst = 0; inst < op.parallelism; ++inst) {
      auto rt = std::make_shared<detail::InstanceRuntime>(op.id, inst, op.parallelism, op.kind,
                                                          cfg, job.get());
      if (op.kind == OperatorKind::kSource) {
        rt->source = op.source_factory();
      } else {
        rt->processor = op.processor_factory();
      }
      // Placement: explicit resource pin, or round-robin over resources.
      size_t res_index = op.resource >= 0 ? static_cast<size_t>(op.resource) % resources_.size()
                                          : placement_cursor++ % resources_.size();
      rt->resource = resources_[res_index].get();
      rt->dlq = job->dead_letters_;
      rt->packet_deadline_ns = options_.quarantine.packet_deadline_ns;
      instances.push_back(std::move(rt));
    }
    op_instances.push_back(std::move(instances));
  }

  // 2. Wire links: one channel + StreamBuffer per (src-instance, dst-instance).
  for (const LinkDecl& link : graph.links()) {
    auto& srcs = op_instances[link.from_op];
    auto& dsts = op_instances[link.to_op];
    link.partitioning->prepare(static_cast<uint32_t>(srcs.size()));
    StreamBufferConfig buf_cfg = link.buffer_override.value_or(cfg.buffer);

    for (auto& src : srcs) {
      if (src->outputs.size() <= link.output_index) src->outputs.resize(link.output_index + 1);
      detail::OutLink& out = src->outputs[link.output_index];
      out.decl = &link;
      out.partitioning = link.partitioning;
      for (auto& dst : dsts) {
        fault::EdgeId edge_id{link.link_id, src->instance_index(), dst->instance_index()};
        EdgeChannel pipe = make_edge_channel(src->resource, dst->resource, cfg.channel, edge_id,
                                             &src->metrics(), &dst->metrics(), job);
        auto codec = std::make_shared<SelectiveCodec>(link.compression);
        // Backpressure wiring (paper §III-B4): when the edge drains below
        // its low watermark, re-notify the *sending* task; when data lands
        // on an empty edge, notify the *receiving* task. Raw pointers are
        // safe: both instances are owned by the Job that owns the channel.
        detail::InstanceRuntime* src_raw = src.get();
        pipe.sender->set_writable_callback([src_raw] {
          obs::FlightRecorder::record(src_raw->flight_actor(),
                                      obs::FlightEventType::kWatermarkLow);
          src_raw->resource->notify_data(src_raw->task_id);
        });
        detail::InstanceRuntime* dst_raw = dst.get();
        pipe.receiver->set_data_callback(
            [dst_raw] { dst_raw->resource->notify_data(dst_raw->task_id); });
        out.dst.push_back(std::make_unique<StreamBuffer>(link.link_id, src->instance_index(),
                                                         pipe.sender, codec, buf_cfg,
                                                         &src->metrics(),
                                                         &SteadyClock::instance(), link.shed));
        // In-flight gauge for this edge: bytes accepted by the sender that
        // the receiver has not yet pulled — the backpressure-visible lag.
        job->telemetry_.push_back(obs::TelemetryRegistry::global().register_series(
            {"neptune_edge_inflight_bytes",
             {{"job", job->name_},
              {"link", std::to_string(link.link_id)},
              {"src", std::to_string(src->instance_index())},
              {"dst", std::to_string(dst->instance_index())}},
             obs::SeriesKind::kGauge,
             "Bytes in flight on the edge (sent minus received)"},
            [tx = pipe.sender, rx = pipe.receiver] {
              uint64_t sent = tx->bytes_sent();
              uint64_t recv = rx->bytes_received();
              return sent > recv ? static_cast<double>(sent - recv) : 0.0;
            }));
        detail::InEdge edge;
        edge.rx = pipe.receiver;
        edge.link_id = link.link_id;
        edge.src_instance = src->instance_index();
        edge.lossy = link.shed.policy != ShedPolicy::kNone;
        dst->inputs.push_back(std::move(edge));
      }
    }
  }

  // 3. Deploy tasks (the callbacks above read task_id at fire time, and
  //    nothing fires before start()).
  for (auto& group : op_instances) {
    for (auto& inst : group) {
      inst->task_id = inst->resource->deploy(inst, granules::ScheduleSpec::on_data());
      job->instances_.push_back(inst);
    }
  }

  // 4. Telemetry per instance, 5. flush timers (shared with submit_slice).
  register_job_telemetry(job);
  install_flush_timers(job, cfg);

  {
    std::lock_guard lk(jobs_mu_);
    jobs_.push_back(job);
  }
  return job;
}

// Register one set of series per operator instance. Samplers capture
// shared_ptrs, so the series stay valid for exactly as long as the handles
// (owned by the Job) live.
void Runtime::register_job_telemetry(const std::shared_ptr<Job>& job) {
  {
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    const std::string& job_name = job->name_;
    auto labels = [&](const std::shared_ptr<detail::InstanceRuntime>& inst) {
      return std::vector<std::pair<std::string, std::string>>{
          {"job", job_name},
          {"op", inst->op_id()},
          {"inst", std::to_string(inst->instance_index())}};
    };
    for (auto& inst : job->instances_) {
      struct CounterSpec {
        const char* name;
        const char* help;
        std::atomic<uint64_t> OperatorMetrics::* field;
      };
      static constexpr CounterSpec kCounters[] = {
          {"neptune_packets_in_total", "Packets processed by the instance",
           &OperatorMetrics::packets_in},
          {"neptune_packets_out_total", "Packets emitted by the instance",
           &OperatorMetrics::packets_out},
          {"neptune_bytes_out_total", "Wire bytes sent (framed, post-compression)",
           &OperatorMetrics::bytes_out},
          {"neptune_flushes_total", "Stream buffer flushes", &OperatorMetrics::flushes},
          {"neptune_blocked_sends_total", "Flushes rejected by flow control",
           &OperatorMetrics::blocked_sends},
          {"neptune_executions_total", "Scheduled executions of the instance task",
           &OperatorMetrics::executions},
          {"neptune_serde_alloc_bytes_total",
           "Heap bytes allocated deserializing inbound packets (string/bytes fields)",
           &OperatorMetrics::serde_alloc_bytes},
          {"neptune_frame_copies_total",
           "Inbound frames copied on receive (0: channels hand over whole pooled frames)",
           &OperatorMetrics::frame_copies},
          {"neptune_batch_dispatches_total", "Batches dispatched to on_batch() as views",
           &OperatorMetrics::batch_dispatches},
          {"neptune_packets_shed_total",
           "Best-effort packets dropped by admission control / load shedding",
           &OperatorMetrics::packets_shed},
          {"neptune_shed_bytes_total", "Serialized bytes the shed packets would have sent",
           &OperatorMetrics::shed_bytes},
          {"neptune_shed_gaps_total",
           "Packets a receiver observed missing on lossy (best-effort) edges",
           &OperatorMetrics::shed_gaps},
          {"neptune_packets_quarantined_total",
           "Poison packets / batch remainders captured to the dead-letter queue",
           &OperatorMetrics::packets_quarantined},
          {"neptune_deadline_overruns_total",
           "Dispatches that exceeded the configured per-packet deadline",
           &OperatorMetrics::deadline_overruns},
          {"neptune_watchdog_stalls_detected_total",
           "Watchdog stall detections attributed to this instance",
           &OperatorMetrics::watchdog_stalls},
      };
      for (const CounterSpec& c : kCounters) {
        job->telemetry_.push_back(reg.register_series(
            {c.name, labels(inst), obs::SeriesKind::kCounter, c.help},
            [inst, field = c.field] {
              return static_cast<double>(
                  (inst->metrics().*field).load(std::memory_order_relaxed));
            }));
      }
      job->telemetry_.push_back(reg.register_series(
          {"neptune_blocked_seconds_total", labels(inst), obs::SeriesKind::kCounter,
           "Cumulative time the instance's outputs sat blocked by backpressure"},
          [inst] {
            return static_cast<double>(
                       inst->metrics().blocked_ns.load(std::memory_order_relaxed)) * 1e-9;
          }));
      // Occupancy gauge: walks the instance's stream buffers (brief per-buffer
      // locks) and refreshes the OperatorMetrics mirror as a side effect.
      job->telemetry_.push_back(reg.register_series(
          {"neptune_outbound_buffered_bytes", labels(inst), obs::SeriesKind::kGauge,
           "Bytes parked in the instance's outbound stream buffers"},
          [inst] {
            size_t total = 0;
            for (const auto& out : inst->outputs) {
              for (const auto& buf : out.dst) total += buf->buffered_bytes();
            }
            inst->metrics().outbound_buffered_bytes.store(static_cast<int64_t>(total),
                                                          std::memory_order_relaxed);
            return static_cast<double>(total);
          }));
      job->telemetry_.push_back(reg.register_series(
          {"neptune_ready_batches", labels(inst), obs::SeriesKind::kGauge,
           "Decoded inbound batches awaiting execution"},
          [inst] {
            return static_cast<double>(
                inst->metrics().inbound_ready_batches.load(std::memory_order_relaxed));
          }));
      if (inst->outputs.empty()) {
        job->telemetry_.push_back(reg.register_series(
            {"neptune_sink_latency_p99_seconds", labels(inst), obs::SeriesKind::kGauge,
             "End-to-end p99 latency observed at the sink"},
            [inst] {
              const LatencyHistogram& h = inst->metrics().sink_latency;
              return h.count() == 0 ? 0.0 : static_cast<double>(h.percentile(99)) * 1e-9;
            }));
      }
    }
    if (job->dead_letters_) {
      job->telemetry_.push_back(reg.register_series(
          {"neptune_dead_letter_entries",
           {{"job", job_name}},
           obs::SeriesKind::kGauge,
           "Entries retained in the job's dead-letter queue (memory + spilled)"},
          [dlq = job->dead_letters_] { return static_cast<double>(dlq->size()); }));
      job->telemetry_.push_back(reg.register_series(
          {"neptune_dead_letter_dropped_total",
           {{"job", job_name}},
           obs::SeriesKind::kCounter,
           "Quarantined entries discarded by the dead-letter queue's bounds"},
          [dlq = job->dead_letters_] { return static_cast<double>(dlq->dropped()); }));
    }
  }
}

// Flush timers: one periodic timer per instance on its resource's IO loop
// (half the flush interval for Nyquist-ish timeliness).
void Runtime::install_flush_timers(const std::shared_ptr<Job>& job, const GraphConfig& cfg) {
  for (auto& inst : job->instances_) {
    int64_t interval = cfg.buffer.flush_interval_ns;
    if (interval > 0) {
      EventLoop* loop = inst->resource->io_loop(0);
      auto weak = std::weak_ptr<detail::InstanceRuntime>(inst);
      EventLoop::TimerId id = loop->run_every(std::max<int64_t>(interval / 2, 500'000), [weak] {
        if (auto p = weak.lock()) p->on_flush_timer();
      });
      job->timers_.push_back(id);
      job->timer_loops_.push_back(loop);
    }
  }
}

namespace {

// Cross-process edges need a pre-agreed port; a missing entry means the
// slice plan and the topology drifted apart — fail before any task runs.
uint16_t slice_edge_port(const SliceOptions& slice, const fault::EdgeId& edge) {
  auto it = slice.edge_ports.find({edge.link_id, edge.src_instance, edge.dst_instance});
  if (it == slice.edge_ports.end())
    throw GraphError("submit_slice: no port assigned for cross-process edge link=" +
                     std::to_string(edge.link_id) + " src=" + std::to_string(edge.src_instance) +
                     " dst=" + std::to_string(edge.dst_instance) +
                     " — was the port plan built from the same topology?");
  return it->second;
}

}  // namespace

std::shared_ptr<Job> Runtime::submit_slice(const StreamGraph& graph, const SliceOptions& slice) {
  graph.validate();
  const GraphConfig& cfg = graph.config();
  if (resources_.size() != 1)
    throw GraphError("submit_slice: the worker Runtime must own exactly one resource "
                     "(one OS process per resource)");
  if (slice.total_resources == 0 || slice.local_resource >= slice.total_resources)
    throw GraphError("submit_slice: local_resource " + std::to_string(slice.local_resource) +
                     " out of range for " + std::to_string(slice.total_resources) + " resources");
  // Multi-process placement must be explicit: round-robin placement would
  // need every worker to agree on a cursor, which is exactly the kind of
  // implicit coordination that breaks under recovery. topology_lint
  // --slices N checks this statically.
  for (const OperatorDecl& op : graph.operators()) {
    if (op.resource < 0 || static_cast<size_t>(op.resource) >= slice.total_resources)
      throw GraphError("submit_slice: operator '" + op.id +
                       "' needs an explicit resource pin in [0, " +
                       std::to_string(slice.total_resources) + ")");
  }

  note_topology_for_incidents(graph);

  auto job = std::shared_ptr<Job>(new Job());
  job->name_ = graph.name();
  granules::Resource* local = resources_[0].get();
  job->resources_.push_back(local);
  if (options_.quarantine.enabled)
    job->dead_letters_ = std::make_shared<fault::DeadLetterQueue>(options_.quarantine.dead_letter);

  // 1. Instantiate only the local operators' instances; remote operators
  //    keep empty slots so link wiring can index by op.
  std::vector<std::vector<std::shared_ptr<detail::InstanceRuntime>>> op_instances(
      graph.operators().size());
  for (size_t oi = 0; oi < graph.operators().size(); ++oi) {
    const OperatorDecl& op = graph.operators()[oi];
    if (static_cast<size_t>(op.resource) != slice.local_resource) continue;
    for (uint32_t inst = 0; inst < op.parallelism; ++inst) {
      auto rt = std::make_shared<detail::InstanceRuntime>(op.id, inst, op.parallelism, op.kind,
                                                          cfg, job.get());
      if (op.kind == OperatorKind::kSource) {
        rt->source = op.source_factory();
      } else {
        rt->processor = op.processor_factory();
      }
      rt->resource = local;
      rt->dlq = job->dead_letters_;
      rt->packet_deadline_ns = options_.quarantine.packet_deadline_ns;
      op_instances[oi].push_back(std::move(rt));
    }
  }

  // 2. Wire links. Three cases per link: both endpoints local (the in-process
  //    channel, exactly as submit()), local sender -> remote receiver (a
  //    supervised TCP sender connecting to the peer's pre-agreed port), and
  //    remote sender -> local receiver (a supervised TCP receiver bound to
  //    that port). Cross-process edges are always supervised: recovery
  //    depends on their reconnect + exactly-once retransmission protocol.
  fault::FaultInjector* injector = options_.fault_injector.get();
  for (const LinkDecl& link : graph.links()) {
    const OperatorDecl& from = graph.operators()[link.from_op];
    const OperatorDecl& to = graph.operators()[link.to_op];
    const bool src_local = static_cast<size_t>(from.resource) == slice.local_resource;
    const bool dst_local = static_cast<size_t>(to.resource) == slice.local_resource;
    if (!src_local && !dst_local) continue;
    StreamBufferConfig buf_cfg = link.buffer_override.value_or(cfg.buffer);

    if (src_local) {
      auto& srcs = op_instances[link.from_op];
      link.partitioning->prepare(static_cast<uint32_t>(srcs.size()));
      for (auto& src : srcs) {
        if (src->outputs.size() <= link.output_index) src->outputs.resize(link.output_index + 1);
        detail::OutLink& out = src->outputs[link.output_index];
        out.decl = &link;
        out.partitioning = link.partitioning;
        // out.dst must hold exactly `to.parallelism` buffers in destination-
        // instance order — partitioning indexes into it by dst instance.
        for (uint32_t di = 0; di < to.parallelism; ++di) {
          fault::EdgeId edge_id{link.link_id, src->instance_index(), di};
          std::shared_ptr<ChannelSender> sender;
          detail::InstanceRuntime* src_raw = src.get();
          if (dst_local) {
            auto& dst = op_instances[link.to_op][di];
            EdgeChannel pipe = make_edge_channel(local, local, cfg.channel, edge_id,
                                                 &src->metrics(), &dst->metrics(), job);
            sender = pipe.sender;
            detail::InstanceRuntime* dst_raw = dst.get();
            pipe.receiver->set_data_callback(
                [dst_raw] { dst_raw->resource->notify_data(dst_raw->task_id); });
            detail::InEdge edge;
            edge.rx = pipe.receiver;
            edge.link_id = link.link_id;
            edge.src_instance = src->instance_index();
            edge.lossy = link.shed.policy != ShedPolicy::kNone;
            dst->inputs.push_back(std::move(edge));
            job->telemetry_.push_back(obs::TelemetryRegistry::global().register_series(
                {"neptune_edge_inflight_bytes",
                 {{"job", job->name_},
                  {"link", std::to_string(link.link_id)},
                  {"src", std::to_string(src->instance_index())},
                  {"dst", std::to_string(di)}},
                 obs::SeriesKind::kGauge,
                 "Bytes in flight on the edge (sent minus received)"},
                [tx = pipe.sender, rx = pipe.receiver] {
                  uint64_t sent = tx->bytes_sent();
                  uint64_t recv = rx->bytes_received();
                  return sent > recv ? static_cast<double>(sent - recv) : 0.0;
                }));
          } else {
            register_tcp_transport_telemetry();
            uint16_t port = slice_edge_port(slice, edge_id);
            sender = std::make_shared<fault::SupervisedTcpSender>(
                local->io_loop(0), port, cfg.channel, options_.supervisor, edge_id, injector,
                &src->metrics().reconnects,
                [weak_job = std::weak_ptr<Job>(job)](const std::string& what) {
                  if (auto j = weak_job.lock()) j->report_failure(what);
                });
          }
          sender->set_writable_callback([src_raw] {
            obs::FlightRecorder::record(src_raw->flight_actor(),
                                        obs::FlightEventType::kWatermarkLow);
            src_raw->resource->notify_data(src_raw->task_id);
          });
          auto codec = std::make_shared<SelectiveCodec>(link.compression);
          out.dst.push_back(std::make_unique<StreamBuffer>(link.link_id, src->instance_index(),
                                                           sender, codec, buf_cfg,
                                                           &src->metrics(),
                                                           &SteadyClock::instance(), link.shed));
        }
      }
    } else {
      // Remote sender, local receiver(s): bind the pre-agreed port and wait
      // for the peer process to connect. One receiver per (remote src
      // instance, local dst instance) pair, mirroring the sender side.
      register_tcp_transport_telemetry();
      auto& dsts = op_instances[link.to_op];
      for (uint32_t si = 0; si < from.parallelism; ++si) {
        for (auto& dst : dsts) {
          fault::EdgeId edge_id{link.link_id, si, dst->instance_index()};
          uint16_t port = slice_edge_port(slice, edge_id);
          auto receiver = std::make_shared<fault::SupervisedTcpReceiver>(
              local->io_loop(0), cfg.channel, options_.supervisor, edge_id, injector,
              &dst->metrics().corrupt_frames_dropped, port);
          detail::InstanceRuntime* dst_raw = dst.get();
          receiver->set_data_callback(
              [dst_raw] { dst_raw->resource->notify_data(dst_raw->task_id); });
          detail::InEdge edge;
          edge.rx = receiver;
          edge.link_id = link.link_id;
          edge.src_instance = si;
          edge.lossy = link.shed.policy != ShedPolicy::kNone;
          dst->inputs.push_back(std::move(edge));
        }
      }
    }
  }

  // 3. Deploy local tasks; 4./5. telemetry + flush timers as in submit().
  for (auto& group : op_instances) {
    for (auto& inst : group) {
      inst->task_id = inst->resource->deploy(inst, granules::ScheduleSpec::on_data());
      job->instances_.push_back(inst);
    }
  }
  register_job_telemetry(job);
  install_flush_timers(job, cfg);

  {
    std::lock_guard lk(jobs_mu_);
    jobs_.push_back(job);
  }
  return job;
}

}  // namespace neptune
