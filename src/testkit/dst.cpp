#include "testkit/dst.hpp"

#include <algorithm>
#include <sstream>

#include "common/bytes.hpp"
#include "compress/lz4.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"

namespace neptune::testkit {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  h ^= '\n';
  h *= kFnvPrime;
  return h;
}

}  // namespace

namespace detail {

/// A decoded inbound batch (the DST analogue of detail::Batch — no object
/// pool: single-threaded test scale doesn't need recycling).
struct DstBatch {
  std::vector<StreamPacket> packets;
  size_t count = 0;
  size_t cursor = 0;
};

/// Receiving half of one (link, src-instance) edge.
struct DstInEdge {
  std::shared_ptr<InprocChannel> channel;
  uint64_t expected_seq = 0;
  uint32_t link_id = 0;
  uint32_t src_instance = 0;
  size_t src_index = 0;  ///< global index of the sending instance
  bool drained = false;
  bool lossy = false;               ///< edge declares a shed policy
  uint64_t shed_gap_packets = 0;    ///< seq positions skipped over (shed upstream)
};

struct DstOutBuffer {
  std::unique_ptr<StreamBuffer> buffer;
  std::shared_ptr<InprocChannel> channel;
  size_t dst_index = 0;
  uint32_t dst_instance = 0;
};

struct DstOutLink {
  const LinkDecl* decl = nullptr;
  std::shared_ptr<PartitioningScheme> partitioning;
  std::vector<DstOutBuffer> dst;
};

/// One operator instance run on the virtual clock. The execution logic is a
/// line-for-line mirror of detail::InstanceRuntime with the granules
/// TaskContext replaced by the `resched` flag and wakeup callbacks replaced
/// by DstJob::notify events.
class DstInstance : public Emitter {
 public:
  DstJob* job = nullptr;
  size_t index = 0;  ///< global instance index
  std::string op_id;
  uint32_t inst = 0;
  uint32_t parallelism = 1;
  OperatorKind kind = OperatorKind::kSource;
  const GraphConfig* cfg = nullptr;

  std::unique_ptr<StreamSource> source;
  std::unique_ptr<StreamProcessor> processor;
  std::vector<DstOutLink> outputs;
  std::vector<DstInEdge> inputs;
  OperatorMetrics metrics;

  uint64_t emitted = 0;
  uint64_t slice_work = 0;  ///< packets moved this execution slice (virtual cost)
  bool done = false;
  bool paused = false;
  bool scheduled = false;
  bool output_blocked = false;
  bool source_exhausted = false;
  bool close_called = false;
  bool resched = false;
  size_t next_edge = 0;
  std::deque<DstBatch> ready;
  std::vector<uint8_t> decompress_scratch;

  // --- Emitter ---------------------------------------------------------------
  EmitStatus emit(StreamPacket&& packet) override { return emit(0, std::move(packet)); }

  EmitStatus emit(size_t link, StreamPacket&& packet) override {
    if (link >= outputs.size())
      throw GraphError(op_id + "[" + std::to_string(inst) + "]: emit on unknown output link " +
                       std::to_string(link));
    if (packet.event_time_ns() == 0) packet.set_event_time_ns(job->clock_.now_ns());
    DstOutLink& out = outputs[link];
    uint32_t n = static_cast<uint32_t>(out.dst.size());
    uint32_t pick = out.partitioning->select(packet, inst, n);
    auto deliver = [&](DstOutBuffer& b) {
      if (!b.buffer->add(packet)) output_blocked = true;
      ++emitted;
      ++slice_work;
      metrics.packets_out.fetch_add(1, std::memory_order_relaxed);
    };
    if (pick == kBroadcastInstance) {
      for (auto& b : out.dst) deliver(b);
    } else {
      deliver(out.dst[pick % n]);
    }
    return output_blocked ? EmitStatus::kBackpressured : EmitStatus::kOk;
  }

  size_t output_link_count() const override { return outputs.size(); }
  uint32_t instance() const override { return inst; }
  uint64_t packets_emitted() const override { return emitted; }

  // --- lifecycle -------------------------------------------------------------
  void open() {
    if (kind == OperatorKind::kSource) {
      source->open(inst, parallelism);
    } else {
      processor->open(inst, parallelism);
    }
  }

  void execute() {
    if (done) return;
    metrics.executions.fetch_add(1, std::memory_order_relaxed);
    resched = false;
    slice_work = 0;
    if (!retry_blocked_outputs()) return;  // writable callback will re-notify
    if (kind == OperatorKind::kSource) {
      run_source();
    } else {
      run_processor();
    }
  }

  void on_flush_timer() {
    bool was_blocked = output_blocked;
    for (auto& out : outputs) {
      for (auto& b : out.dst) b.buffer->on_timer();
    }
    if (was_blocked) job->notify(index);  // a parked frame may have gone out
  }

 private:
  void run_source() {
    if (source_exhausted) {
      finalize(false);
      return;
    }
    if (paused) return;  // resume re-notifies
    bool more = source->next(*this, cfg->source_batch_budget);
    if (!more) {
      source_exhausted = true;
      finalize(false);
      return;
    }
    if (output_blocked) return;  // throttled (§III-B4)
    resched = true;
  }

  void run_processor() {
    if (!drain_ready_batches()) return;  // output blocked mid-batch
    size_t rounds = 0;
    while (rounds < cfg->max_batches_per_execution) {
      if (!fetch_some_frames()) break;
      ++rounds;
      if (!drain_ready_batches()) return;
    }
    if (all_inputs_drained() && ready.empty()) {
      finalize(false);
      return;
    }
    if (rounds == cfg->max_batches_per_execution) resched = true;
  }

  bool fetch_some_frames() {
    size_t n = inputs.size();
    for (size_t step = 0; step < n; ++step) {
      DstInEdge& e = inputs[(next_edge + step) % n];
      if (e.drained) continue;
      auto frame = e.channel->try_receive_buf();
      if (!frame) {
        if (e.channel->closed()) e.drained = true;
        continue;
      }
      next_edge = (next_edge + step + 1) % n;
      metrics.bytes_in.fetch_add(frame->size(), std::memory_order_relaxed);
      if (auto f = decode_whole_frame(frame->contents())) {
        ingest_frame(e, f->header, f->payload);
      } else {
        metrics.corrupt_frames_dropped.fetch_add(1, std::memory_order_relaxed);
        job->violation("runtime", op_id + "[" + std::to_string(inst) + "]: corrupt frame on link " +
                                      std::to_string(e.link_id));
      }
      return true;
    }
    return false;
  }

  void ingest_frame(DstInEdge& e, const FrameHeader& h, std::span<const uint8_t> payload) {
    std::span<const uint8_t> raw = payload;
    if (h.compressed()) {
      decompress_scratch.resize(h.raw_size);
      ptrdiff_t dn = lz4::decompress(payload, decompress_scratch.data(), h.raw_size);
      if (dn < 0 || static_cast<uint32_t>(dn) != h.raw_size) {
        metrics.seq_violations.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      raw = {decompress_scratch.data(), h.raw_size};
    }
    if (h.control()) return;
    ByteReader r(raw);
    uint32_t src_inst = r.read_u32();
    uint64_t base_seq = r.read_u64();
    r.read_u64();  // trace_id (untraced: sampler disabled under DST)
    r.read_i64();  // trace_origin_ns
    r.read_i64();  // batch_start_ns
    r.read_i64();  // flush_ns
    if (h.link_id != e.link_id || src_inst != e.src_instance) {
      metrics.seq_violations.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (base_seq + h.batch_count <= e.expected_seq) {
      metrics.dup_frames_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (base_seq > e.expected_seq) {
      // Mirrors InstanceRuntime::ingest_frame: a gap on a lossy edge is the
      // sender shedding (accounted, legal); on a lossless edge it is a
      // contract violation.
      if (e.lossy) {
        uint64_t gap = base_seq - e.expected_seq;
        e.shed_gap_packets += gap;
        metrics.shed_gaps.fetch_add(gap, std::memory_order_relaxed);
      } else {
        metrics.seq_violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
    uint32_t skip =
        base_seq < e.expected_seq ? static_cast<uint32_t>(e.expected_seq - base_seq) : 0;
    if (skip > 0) metrics.dup_frames_dropped.fetch_add(1, std::memory_order_relaxed);
    e.expected_seq = base_seq + h.batch_count;

    DstBatch batch;
    batch.packets.resize(h.batch_count);
    for (uint32_t i = 0; i < h.batch_count; ++i) batch.packets[i].deserialize(r);
    batch.count = h.batch_count;
    batch.cursor = skip;
    metrics.batches_in.fetch_add(1, std::memory_order_relaxed);
    ready.push_back(std::move(batch));
    metrics.inbound_ready_batches.store(static_cast<int64_t>(ready.size()),
                                        std::memory_order_relaxed);
  }

  bool drain_ready_batches() {
    bool is_sink = outputs.empty();
    while (!ready.empty()) {
      DstBatch& b = ready.front();
      while (b.cursor < b.count) {
        StreamPacket& p = b.packets[b.cursor];
        metrics.packets_in.fetch_add(1, std::memory_order_relaxed);
        ++slice_work;
        processor->process(p, *this);
        if (is_sink && p.event_time_ns() > 0) {
          int64_t lat = job->clock_.now_ns() - p.event_time_ns();
          if (lat > 0) metrics.sink_latency.record(static_cast<uint64_t>(lat));
        }
        ++b.cursor;
        if (output_blocked) return false;
      }
      ready.pop_front();
      metrics.inbound_ready_batches.store(static_cast<int64_t>(ready.size()),
                                          std::memory_order_relaxed);
    }
    return true;
  }

  bool all_inputs_drained() {
    for (auto& e : inputs) {
      if (!e.drained) {
        if (e.channel->closed()) {
          e.drained = true;
        } else {
          return false;
        }
      }
    }
    return true;
  }

  bool retry_blocked_outputs() {
    if (!output_blocked) return true;
    bool all_ok = true;
    for (auto& out : outputs) {
      for (auto& b : out.dst) {
        if (b.buffer->blocked()) all_ok &= b.buffer->drain(false);
      }
    }
    if (all_ok) output_blocked = false;
    return all_ok;
  }

  void finalize(bool discard) {
    if (done) return;
    if (kind == OperatorKind::kProcessor && !close_called && !discard) {
      close_called = true;
      processor->close(*this);  // may emit final window aggregates
    }
    if (!discard) {
      bool all_flushed = true;
      for (auto& out : outputs) {
        for (auto& b : out.dst) all_flushed &= b.buffer->drain(/*force=*/true);
      }
      if (!all_flushed) {
        output_blocked = true;
        return;  // finalize resumes when the writable callback fires
      }
    }
    for (auto& out : outputs) {
      for (auto& b : out.dst) b.buffer->close_channel();
    }
    if (kind == OperatorKind::kSource && source) source->close();
    done = true;
  }
};

}  // namespace detail

using detail::DstInstance;

// --- DstReport ---------------------------------------------------------------

std::string DstReport::summary() const {
  std::ostringstream os;
  os << (completed ? "completed" : "INCOMPLETE") << " steps=" << steps
     << " virtual_ns=" << virtual_ns << " checkpoints=" << checkpoints
     << " recoveries=" << recoveries << " trace_hash=" << trace_hash
     << " violations=" << violations.size();
  for (const auto& v : violations) os << "\n  " << v;
  return os.str();
}

// --- DstJob ------------------------------------------------------------------

DstJob::DstJob(const StreamGraph& graph, DstOptions opts)
    : graph_(graph), opts_(opts), clock_(&q_), rng_(opts.seed) {
  graph_.validate();
  view_.seed = opts_.seed;
  view_.job = this;
  deploy();
  start_epoch();
}

DstJob::~DstJob() = default;

void DstJob::add_checker(std::unique_ptr<InvariantChecker> checker) {
  checkers_.push_back(std::move(checker));
}

void DstJob::add_checkers(std::vector<std::unique_ptr<InvariantChecker>> checkers) {
  for (auto& c : checkers) checkers_.push_back(std::move(c));
}

void DstJob::schedule_crash(int64_t at_virtual_ns) {
  q_.schedule_at(at_virtual_ns, [this] { crash_pending_ = true; });
}

void DstJob::schedule_fault(int64_t at_virtual_ns, std::function<void()> fn) {
  q_.schedule_at(at_virtual_ns, [this, fn = std::move(fn)] {
    trace_line("fault injected");
    fn();
  });
}

void DstJob::deploy() {
  instances_.clear();
  view_.instances.clear();
  view_.edges.clear();
  edge_locs_.clear();

  const auto& ops = graph_.operators();
  std::vector<size_t> first_instance(ops.size(), 0);
  size_t total = 0;
  for (size_t op = 0; op < ops.size(); ++op) {
    first_instance[op] = total;
    total += ops[op].parallelism;
  }
  instances_.reserve(total);
  for (size_t op = 0; op < ops.size(); ++op) {
    const OperatorDecl& decl = ops[op];
    for (uint32_t i = 0; i < decl.parallelism; ++i) {
      auto inst = std::make_unique<DstInstance>();
      inst->job = this;
      inst->index = instances_.size();
      inst->op_id = decl.id;
      inst->inst = i;
      inst->parallelism = decl.parallelism;
      inst->kind = decl.kind;
      inst->cfg = &graph_.config();
      if (decl.kind == OperatorKind::kSource) {
        inst->source = decl.source_factory();
      } else {
        inst->processor = decl.processor_factory();
      }
      instances_.push_back(std::move(inst));
    }
  }

  // Wire every link: per (src, dst) instance pair one real StreamBuffer over
  // one real InprocChannel. Wakeup callbacks become virtual-time events,
  // epoch-guarded so stale events from before a crash are inert.
  uint64_t ep = epoch_;
  for (const LinkDecl& l : graph_.links()) {
    const OperatorDecl& src_decl = ops[l.from_op];
    const OperatorDecl& dst_decl = ops[l.to_op];
    StreamBufferConfig buf_cfg = l.buffer_override.value_or(graph_.config().buffer);
    auto codec = std::make_shared<SelectiveCodec>(l.compression);
    l.partitioning->prepare(src_decl.parallelism);
    for (uint32_t s = 0; s < src_decl.parallelism; ++s) {
      DstInstance& src = *instances_[first_instance[l.from_op] + s];
      if (src.outputs.size() <= l.output_index) src.outputs.resize(l.output_index + 1);
      detail::DstOutLink& out = src.outputs[l.output_index];
      out.decl = &l;
      out.partitioning = l.partitioning;
      for (uint32_t d = 0; d < dst_decl.parallelism; ++d) {
        size_t dst_index = first_instance[l.to_op] + d;
        DstInstance& dst = *instances_[dst_index];
        auto channel = std::make_shared<InprocChannel>(graph_.config().channel);
        auto buffer = std::make_unique<StreamBuffer>(l.link_id, s, channel, codec, buf_cfg,
                                                     &src.metrics, &clock_, l.shed);
        size_t src_index = src.index;
        channel->set_data_callback([this, dst_index, ep] {
          if (ep == epoch_) notify(dst_index);
        });
        channel->set_writable_callback([this, src_index, ep] {
          if (ep == epoch_) notify(src_index);
        });
        dst.inputs.push_back(detail::DstInEdge{channel, 0, l.link_id, s, src_index, false,
                                               l.shed.policy != ShedPolicy::kNone, 0});
        out.dst.push_back(detail::DstOutBuffer{std::move(buffer), channel, dst_index, d});

        EdgeProbe probe;
        probe.link_id = l.link_id;
        probe.src_op = src.op_id;
        probe.src_instance = s;
        probe.src_index = src_index;
        probe.dst_op = dst.op_id;
        probe.dst_instance = d;
        probe.dst_index = dst_index;
        probe.buffer = out.dst.back().buffer.get();
        probe.channel = channel.get();
        probe.buffer_config = buf_cfg;
        probe.channel_config = graph_.config().channel;
        probe.lossy = l.shed.policy != ShedPolicy::kNone;
        probe.shed_config = l.shed;
        view_.edges.push_back(std::move(probe));
        edge_locs_.push_back(
            EdgeLoc{src_index, l.output_index, out.dst.size() - 1, dst_index,
                    dst.inputs.size() - 1});
      }
    }
  }

  for (auto& inst : instances_) {
    inst->open();
    InstanceProbe probe;
    probe.op_id = inst->op_id;
    probe.instance = inst->inst;
    probe.global_index = inst->index;
    probe.is_source = inst->kind == OperatorKind::kSource;
    probe.metrics = &inst->metrics;
    view_.instances.push_back(std::move(probe));
  }
  refresh_view();
}

void DstJob::start_epoch() {
  // Kick every instance once (mirrors Job::start); they self-reschedule or
  // sleep until a data/writable wakeup from then on.
  for (size_t i = 0; i < instances_.size(); ++i) notify(i);
  // Per-instance flush timer, mirroring the runtime's IO-thread cadence of
  // max(interval / 2, 500 µs) over the smallest configured interval.
  for (size_t i = 0; i < instances_.size(); ++i) {
    int64_t interval = 0;
    for (auto& out : instances_[i]->outputs) {
      for (auto& b : out.dst) {
        (void)b;
        int64_t fi = out.decl->buffer_override.value_or(graph_.config().buffer).flush_interval_ns;
        if (fi > 0 && (interval == 0 || fi < interval)) interval = fi;
      }
    }
    if (interval > 0) schedule_timer(i, std::max<int64_t>(interval / 2, 500'000));
  }
  if (opts_.checkpoint_interval_ns > 0) {
    uint64_t ep = epoch_;
    q_.schedule_in(opts_.checkpoint_interval_ns, [this, ep] {
      if (ep == epoch_) checkpoint_pending_ = true;
    });
  }
}

int64_t DstJob::wakeup_jitter() {
  return opts_.schedule_jitter_ns > 0
             ? static_cast<int64_t>(rng_.next_below(static_cast<uint64_t>(opts_.schedule_jitter_ns)))
             : 0;
}

void DstJob::notify(size_t inst_index) {
  schedule_execute(inst_index, 1 + wakeup_jitter());
}

void DstJob::schedule_execute(size_t inst_index, int64_t delay_ns) {
  DstInstance& inst = *instances_[inst_index];
  if (inst.done || inst.scheduled) return;
  inst.scheduled = true;
  uint64_t ep = epoch_;
  q_.schedule_in(delay_ns, [this, inst_index, ep] {
    if (ep != epoch_) return;
    DstInstance& i = *instances_[inst_index];
    i.scheduled = false;
    if (i.done) return;
    i.execute();
    {
      std::ostringstream os;
      os << "exec " << i.op_id << "[" << i.inst << "] work=" << i.slice_work
         << " in=" << i.metrics.packets_in.load(std::memory_order_relaxed)
         << " out=" << i.metrics.packets_out.load(std::memory_order_relaxed)
         << " blocked=" << (i.output_blocked ? 1 : 0) << " done=" << (i.done ? 1 : 0);
      trace_line(os.str());
    }
    if (i.resched && !i.done) {
      schedule_execute(inst_index,
                       opts_.execute_overhead_ns +
                           static_cast<int64_t>(i.slice_work) * opts_.packet_cost_ns +
                           wakeup_jitter());
    }
  });
}

void DstJob::schedule_timer(size_t inst_index, int64_t period_ns) {
  uint64_t ep = epoch_;
  q_.schedule_in(period_ns, [this, inst_index, ep, period_ns] {
    if (ep != epoch_) return;
    DstInstance& i = *instances_[inst_index];
    if (i.done) return;  // timer dies with the instance
    i.on_flush_timer();
    trace_line("timer " + i.op_id + "[" + std::to_string(i.inst) + "]");
    schedule_timer(inst_index, period_ns);
  });
}

bool DstJob::all_done() const {
  for (const auto& inst : instances_) {
    if (!inst->done) return false;
  }
  return true;
}

bool DstJob::quiescent() const {
  for (const auto& inst : instances_) {
    if (!inst->done && !inst->ready.empty()) return false;
    for (const auto& e : inst->inputs) {
      if (e.channel->in_flight_bytes() > 0) return false;
    }
    for (const auto& out : inst->outputs) {
      for (const auto& b : out.dst) {
        if (b.buffer->has_unflushed()) return false;
      }
    }
  }
  return true;
}

uint64_t DstJob::progress_signature() const {
  uint64_t sig = checkpoints_ * 31 + recoveries_ * 131;
  for (const auto& inst : instances_) {
    sig = sig * 1315423911u + inst->metrics.packets_in.load(std::memory_order_relaxed);
    sig = sig * 2654435761u + inst->metrics.packets_out.load(std::memory_order_relaxed);
    sig = sig * 97u + inst->metrics.flushes.load(std::memory_order_relaxed);
    sig = sig * 7u + (inst->done ? 1 : 0);
  }
  return sig;
}

void DstJob::refresh_view() {
  view_.now = q_.now();
  for (size_t i = 0; i < instances_.size(); ++i) {
    DstInstance& inst = *instances_[i];
    InstanceProbe& p = view_.instances[i];
    p.done = inst.done;
    p.scheduled = inst.scheduled;
    p.paused = inst.paused;
    p.ready_batches = inst.ready.size();
  }
  for (size_t i = 0; i < edge_locs_.size(); ++i) {
    const EdgeLoc& loc = edge_locs_[i];
    EdgeProbe& e = view_.edges[i];
    DstInstance& src = *instances_[loc.src];
    DstInstance& dst = *instances_[loc.dst];
    e.sent_seq = src.outputs[loc.link].dst[loc.pos].buffer->next_seq();
    e.received_seq = dst.inputs[loc.in_pos].expected_seq;
    e.shed_gap_packets = dst.inputs[loc.in_pos].shed_gap_packets;
    e.shed_packets = src.outputs[loc.link].dst[loc.pos].buffer->shed_packets();
    e.receiver_drained = dst.inputs[loc.in_pos].drained;
    e.sender_scheduled = src.scheduled;
    e.sender_done = src.done;
    e.receiver_done = dst.done;
  }
}

void DstJob::trace_line(std::string line) {
  std::string full = "@" + std::to_string(q_.now()) + " " + std::move(line);
  report_.trace_hash = fnv1a(report_.trace_hash == 0 ? kFnvOffset : report_.trace_hash, full);
  if (opts_.record_trace) report_.trace.push_back(std::move(full));
}

void DstJob::violation(const std::string& checker, const std::string& what) {
  report_.violations.push_back("[" + checker + "] seed=" + std::to_string(opts_.seed) +
                               " step=" + std::to_string(report_.steps) + " @" +
                               std::to_string(q_.now()) + ": " + what);
}

bool DstJob::step_once() {
  if (!q_.run_one()) return false;
  ++report_.steps;
  view_.step = report_.steps;
  refresh_view();
  for (auto& c : checkers_) {
    scratch_violations_.clear();
    c->on_step(view_, scratch_violations_);
    for (auto& v : scratch_violations_) violation(c->name(), v);
  }
  if (report_.violations.size() > 100) {
    violation("harness", "too many violations; aborting run");
    return false;
  }
  uint64_t sig = progress_signature();
  if (sig != last_progress_sig_) {
    last_progress_sig_ = sig;
    last_progress_step_ = report_.steps;
  } else if (report_.steps - last_progress_step_ > opts_.livelock_steps) {
    violation("harness", "livelock: no packet/flush progress for " +
                             std::to_string(opts_.livelock_steps) + " steps");
    return false;
  }
  return true;
}

void DstJob::do_checkpoint() {
  in_checkpoint_ = true;
  trace_line("checkpoint begin");
  for (auto& inst : instances_) {
    if (inst->kind == OperatorKind::kSource) inst->paused = true;
  }
  // Drain to a quiescent barrier: with sources paused the flush timers push
  // residual buffers out and processors finish in-flight batches — exactly
  // the real pause → quiesce protocol, but in bounded virtual time.
  uint64_t guard = 0;
  bool aborted = false;
  while (!quiescent() && !all_done()) {
    if (q_.empty() || guard++ > opts_.livelock_steps) {
      violation("harness", "checkpoint failed to quiesce");
      aborted = true;
      break;
    }
    if (!step_once()) {
      aborted = true;
      break;
    }
  }
  if (!aborted) {
    // Serialize → deserialize round trip: the snapshot used for recovery is
    // the one that went through the real wire format (magic/version/CRC).
    JobSnapshot snap = state_snapshot();
    ByteBuffer buf;
    snap.serialize(buf);
    snapshot_ = JobSnapshot::deserialize(buf.contents());
    ++checkpoints_;
    trace_line("checkpoint taken entries=" + std::to_string(snapshot_->size()));
  }
  for (size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i]->kind == OperatorKind::kSource) {
      instances_[i]->paused = false;
      notify(i);
    }
  }
  if (opts_.checkpoint_interval_ns > 0) {
    uint64_t ep = epoch_;
    q_.schedule_in(opts_.checkpoint_interval_ns, [this, ep] {
      if (ep == epoch_) checkpoint_pending_ = true;
    });
  }
  in_checkpoint_ = false;
}

void DstJob::do_recover() {
  trace_line("crash: killing epoch " + std::to_string(epoch_));
  ++epoch_;  // every pending execute/timer/checkpoint event is now inert
  edge_locs_.clear();
  deploy();
  if (snapshot_) {
    for (auto& inst : instances_) {
      Checkpointable* c = inst->source ? dynamic_cast<Checkpointable*>(inst->source.get())
                                       : dynamic_cast<Checkpointable*>(inst->processor.get());
      if (!c) continue;
      if (const std::vector<uint8_t>* state = snapshot_->find(inst->op_id, inst->inst)) {
        ByteReader r(*state);
        c->restore_state(r);
      }
    }
  }
  start_epoch();
  ++recoveries_;
  trace_line("recovered epoch=" + std::to_string(epoch_) +
             (snapshot_ ? " from checkpoint" : " from scratch"));
}

DstReport DstJob::run() {
  if (ran_) return report_;
  ran_ = true;
  // The process-global trace sampler holds a shared counter; two same-seed
  // runs in one process would otherwise stamp different trace ids into batch
  // headers. DST runs untraced.
  auto& sampler = obs::TraceSampler::global();
  uint32_t saved_period = sampler.period();
  sampler.set_period(0);
  report_.trace_hash = kFnvOffset;

  while (true) {
    if (report_.steps >= opts_.max_steps) {
      violation("harness", "step budget exhausted");
      break;
    }
    if (q_.now() > opts_.max_virtual_ns) {
      violation("harness", "virtual-time budget exhausted");
      break;
    }
    if (crash_pending_) {
      crash_pending_ = false;
      checkpoint_pending_ = false;
      do_recover();
    }
    if (checkpoint_pending_) {
      checkpoint_pending_ = false;
      do_checkpoint();
    }
    if (all_done()) break;
    if (q_.empty()) {
      violation("harness", "deadlock: event queue drained before all instances finished");
      break;
    }
    if (!step_once()) break;
  }

  report_.completed = all_done();
  report_.virtual_ns = q_.now();
  report_.checkpoints = checkpoints_;
  report_.recoveries = recoveries_;
  refresh_view();
  view_.completed = report_.completed;
  for (auto& c : checkers_) {
    scratch_violations_.clear();
    c->on_finish(view_, scratch_violations_);
    for (auto& v : scratch_violations_) violation(c->name(), v);
  }
  sampler.set_period(saved_period);
  return report_;
}

JobSnapshot DstJob::state_snapshot() const {
  JobSnapshot snap;
  for (const auto& inst : instances_) {
    const Checkpointable* c =
        inst->source ? dynamic_cast<const Checkpointable*>(inst->source.get())
                     : dynamic_cast<const Checkpointable*>(inst->processor.get());
    if (!c) continue;
    ByteBuffer buf;
    c->snapshot_state(buf);
    snap.put(inst->op_id, inst->inst,
             std::vector<uint8_t>(buf.contents().begin(), buf.contents().end()));
  }
  return snap;
}

std::vector<OperatorMetricsSnapshot> DstJob::metrics() const {
  std::vector<OperatorMetricsSnapshot> out;
  for (const auto& inst : instances_) {
    OperatorMetricsSnapshot m = snapshot_of(inst->metrics);
    m.operator_id = inst->op_id;
    m.instance = inst->inst;
    out.push_back(std::move(m));
  }
  return out;
}

std::shared_ptr<InprocChannel> DstJob::edge_channel(size_t edge_index) {
  const EdgeLoc& loc = edge_locs_.at(edge_index);
  return instances_[loc.src]->outputs[loc.link].dst[loc.pos].channel;
}

}  // namespace neptune::testkit
