#include "testkit/dst.hpp"

#include <sstream>

#include "common/bytes.hpp"
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

using neptune::detail::InstanceRuntime;

/// One instance and the granules::TaskContext DST drives it through — what
/// granules' TaskEntry is to the threaded runtime, on the virtual clock.
struct DstJob::Task final : granules::TaskContext {
  std::unique_ptr<InstanceRuntime> rt;
  size_t index = 0;  ///< global instance index
  uint64_t executions = 0;
  bool initialized = false;
  bool scheduled = false;   ///< an execute event is pending
  bool resched = false;     ///< request_reschedule() during this execution
  bool terminated = false;  ///< request_termination(): the instance is done

  uint64_t task_id() const override { return index; }
  uint64_t execution_count() const override { return executions; }
  void request_reschedule() override { resched = true; }
  void request_termination() override { terminated = true; }
};

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
  tasks_.clear();
  view_.instances.clear();
  view_.edges.clear();
  edge_locs_.clear();

  // One real InstanceRuntime per operator instance. Its wake hook becomes a
  // virtual-time event, epoch-guarded so wakes from before a crash are inert.
  const auto& ops = graph_.operators();
  std::vector<size_t> first_instance(ops.size(), 0);
  neptune::detail::InstanceHost* host = this;
  uint64_t ep = epoch_;
  for (size_t op = 0; op < ops.size(); ++op) {
    const OperatorDecl& decl = ops[op];
    first_instance[op] = tasks_.size();
    for (uint32_t i = 0; i < decl.parallelism; ++i) {
      auto task = std::make_unique<Task>();
      size_t index = task->index = tasks_.size();
      task->rt = std::make_unique<InstanceRuntime>(
          decl.id, i, decl.parallelism, decl.kind, graph_.config(), host, &clock_,
          [this, index, ep] {
            if (ep == epoch_) notify(index);
          });
      if (decl.kind == OperatorKind::kSource) {
        task->rt->source = decl.source_factory();
      } else {
        task->rt->processor = decl.processor_factory();
      }
      tasks_.push_back(std::move(task));
    }
  }

  // Wire every link: per (src, dst) instance pair one real InprocChannel.
  for (const LinkDecl& l : graph_.links()) {
    l.partitioning->prepare(ops[l.from_op].parallelism);
    for (uint32_t s = 0; s < ops[l.from_op].parallelism; ++s) {
      size_t src_index = first_instance[l.from_op] + s;
      InstanceRuntime& src = *tasks_[src_index]->rt;
      for (uint32_t d = 0; d < ops[l.to_op].parallelism; ++d) {
        size_t dst_index = first_instance[l.to_op] + d;
        InstanceRuntime& dst = *tasks_[dst_index]->rt;
        auto channel = std::make_shared<InprocChannel>(graph_.config().channel);
        src.add_output(l, channel);
        dst.add_input(l, s, channel);

        EdgeProbe probe;
        probe.link_id = l.link_id;
        probe.src_op = src.op_id();
        probe.src_instance = s;
        probe.src_index = src_index;
        probe.dst_op = dst.op_id();
        probe.dst_instance = d;
        probe.dst_index = dst_index;
        probe.buffer = src.outputs[l.output_index].dst.back().get();
        probe.channel = channel.get();
        probe.buffer_config = l.buffer_override.value_or(graph_.config().buffer);
        probe.channel_config = graph_.config().channel;
        probe.lossy = l.shed.policy != ShedPolicy::kNone;
        probe.shed_config = l.shed;
        view_.edges.push_back(std::move(probe));
        edge_locs_.push_back(EdgeLoc{dst.inputs.size() - 1, std::move(channel)});
      }
    }
  }

  for (const auto& t : tasks_) {
    InstanceProbe probe;
    probe.op_id = t->rt->op_id();
    probe.instance = t->rt->instance_index();
    probe.global_index = t->index;
    probe.is_source = t->rt->source != nullptr;
    probe.metrics = &t->rt->metrics();
    view_.instances.push_back(std::move(probe));
  }
  refresh_view();
}

void DstJob::start_epoch() {
  // Kick every instance once (as Job::start does); they self-reschedule or
  // sleep until a data/writable wakeup from then on.
  for (size_t i = 0; i < tasks_.size(); ++i) notify(i);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (int64_t period = tasks_[i]->rt->flush_timer_period_ns(); period > 0)
      schedule_timer(i, period);
  }
  schedule_checkpoint();
}

void DstJob::schedule_checkpoint() {
  if (opts_.checkpoint_interval_ns <= 0) return;
  uint64_t ep = epoch_;
  q_.schedule_in(opts_.checkpoint_interval_ns, [this, ep] {
    if (ep == epoch_) begin_checkpoint();
  });
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
  Task& task = *tasks_[inst_index];
  if (task.terminated || task.scheduled) return;
  task.scheduled = true;
  uint64_t ep = epoch_;
  q_.schedule_in(delay_ns, [this, inst_index, ep] {
    if (ep != epoch_) return;
    Task& t = *tasks_[inst_index];
    t.scheduled = false;
    if (t.terminated) return;
    InstanceRuntime& rt = *t.rt;
    const OperatorMetrics& m = rt.metrics();
    auto moved = [&m] {
      return m.packets_in.load(std::memory_order_relaxed) +
             m.packets_out.load(std::memory_order_relaxed);
    };
    // Virtual cost of this execution: the packets it consumed and emitted.
    uint64_t moved_before = moved();
    if (!t.initialized) {
      t.initialized = true;
      rt.initialize(t);
    }
    t.resched = false;
    rt.execute(t);
    ++t.executions;
    uint64_t work = moved() - moved_before;
    {
      std::ostringstream os;
      os << "exec " << rt.op_id() << "[" << rt.instance_index() << "] work=" << work
         << " in=" << m.packets_in.load(std::memory_order_relaxed)
         << " out=" << m.packets_out.load(std::memory_order_relaxed)
         << " blocked=" << (rt.output_blocked() ? 1 : 0) << " done=" << (t.terminated ? 1 : 0);
      trace_line(os.str());
    }
    if (t.resched && !t.terminated) {
      schedule_execute(inst_index, opts_.execute_overhead_ns +
                                       static_cast<int64_t>(work) * opts_.packet_cost_ns +
                                       wakeup_jitter());
    }
  });
}

void DstJob::schedule_timer(size_t inst_index, int64_t period_ns) {
  uint64_t ep = epoch_;
  q_.schedule_in(period_ns, [this, inst_index, ep, period_ns] {
    if (ep != epoch_) return;
    Task& t = *tasks_[inst_index];
    if (t.terminated) return;  // timer dies with the instance
    t.rt->on_flush_timer();
    trace_line("timer " + t.rt->op_id() + "[" + std::to_string(t.rt->instance_index()) + "]");
    schedule_timer(inst_index, period_ns);
  });
}

bool DstJob::all_done() const {
  for (const auto& t : tasks_) {
    if (!t->terminated) return false;
  }
  return true;
}

uint64_t DstJob::progress_signature() const {
  uint64_t sig = checkpoints_ * 31 + recoveries_ * 131;
  for (const auto& t : tasks_) {
    const OperatorMetrics& m = t->rt->metrics();
    sig = sig * 1315423911u + m.packets_in.load(std::memory_order_relaxed);
    sig = sig * 2654435761u + m.packets_out.load(std::memory_order_relaxed);
    sig = sig * 97u + m.flushes.load(std::memory_order_relaxed);
    sig = sig * 7u + (t->terminated ? 1 : 0);
  }
  return sig;
}

void DstJob::refresh_view() {
  view_.now = q_.now();
  for (size_t i = 0; i < edge_locs_.size(); ++i) {
    EdgeProbe& e = view_.edges[i];
    const Task& src = *tasks_[e.src_index];
    const neptune::detail::InEdge& in = tasks_[e.dst_index]->rt->inputs[edge_locs_[i].in_pos];
    e.sent_seq = e.buffer->next_seq();
    e.received_seq = in.expected_seq;
    e.shed_gap_packets = in.shed_gap_packets;
    e.shed_packets = e.buffer->shed_packets();
    e.sender_scheduled = src.scheduled;
    e.sender_done = src.terminated;
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

void DstJob::begin_checkpoint() {
  ++checkpoint_epoch_;
  trace_line("checkpoint begin epoch=" + std::to_string(checkpoint_epoch_) +
             " step=" + std::to_string(report_.steps + 1));
  std::vector<InstanceRuntime*> instances;
  for (auto& t : tasks_) instances.push_back(t->rt.get());
  checkpoint_.begin(checkpoint_epoch_, instances);
  commit_checkpoint_if_complete();  // every instance may have finished already
}

void DstJob::on_barrier(const InstanceRuntime& inst, uint64_t epoch) {
  checkpoint_.on_barrier(inst, epoch);
  commit_checkpoint_if_complete();
}

void DstJob::on_instance_done(const InstanceRuntime& inst) {
  checkpoint_.on_barrier(inst, checkpoint_.epoch());  // its final state
  commit_checkpoint_if_complete();
}

void DstJob::commit_checkpoint_if_complete() {
  if (!checkpoint_.complete()) return;
  // Serialize → deserialize round trip: the snapshot used for recovery is
  // the one that went through the real wire format (magic/version/CRC).
  ByteBuffer buf;
  checkpoint_.take().serialize(buf);
  snapshot_ = JobSnapshot::deserialize(buf.contents());
  ++checkpoints_;
  trace_line("checkpoint committed epoch=" + std::to_string(checkpoint_epoch_) +
             " step=" + std::to_string(report_.steps + 1) +
             " entries=" + std::to_string(snapshot_->size()));
  schedule_checkpoint();
}

void DstJob::do_recover() {
  trace_line("crash: killing epoch " + std::to_string(epoch_));
  ++epoch_;  // every pending execute/timer/checkpoint event is now inert
  checkpoint_ = {};
  deploy();
  if (snapshot_) {  // as Job::restore_state, before the first execution
    for (auto& t : tasks_) t->rt->restore_state(*snapshot_);
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
    if (crash_after_step_ != 0 && report_.steps == crash_after_step_) {
      crash_after_step_ = 0;
      crash_pending_ = true;
    }
    if (crash_pending_) {
      crash_pending_ = false;
      do_recover();
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
  for (const auto& t : tasks_) t->rt->snapshot_into(snap);
  return snap;
}

std::vector<OperatorMetricsSnapshot> DstJob::metrics() const {
  std::vector<OperatorMetricsSnapshot> out;
  for (const auto& t : tasks_) {
    OperatorMetricsSnapshot m = snapshot_of(t->rt->metrics());
    m.operator_id = t->rt->op_id();
    m.instance = t->rt->instance_index();
    out.push_back(std::move(m));
  }
  return out;
}

std::shared_ptr<InprocChannel> DstJob::edge_channel(size_t edge_index) {
  return edge_locs_.at(edge_index).channel;
}

}  // namespace neptune::testkit
