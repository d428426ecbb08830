#include <algorithm>

#include "common/clock.hpp"
#include "scenarios/emit.hpp"
#include "workloads.hpp"

namespace perfbench {

using neptune::now_ns;

uint64_t failed_packets(uint64_t expected, uint64_t delivered, uint64_t order_errors) {
  uint64_t missing_or_extra = expected > delivered ? expected - delivered : delivered - expected;
  return missing_or_extra + order_errors;
}

neptune::scenarios::ScenarioSpec load_golden_scenario(const std::string& name) {
  return neptune::scenarios::load_scenario(std::string(PERFBENCH_SCENARIO_DIR) + "/" + name + ".json");
}

// --- PacedSource ------------------------------------------------------------------

PacedSource::PacedSource(std::shared_ptr<SourceControl> ctl, PacketGen gen)
    : ctl_(std::move(ctl)), gen_(std::move(gen)), next_name_(SpanLog::intern("source.next")) {}

bool PacedSource::next(Emitter& out, size_t budget) {
  constexpr int64_t kMaxSleepNs = 1'000'000;  // stay responsive to stop/pause
  Emitter* em = &out;
  SpanLog* log = ctl_->log.get();
  bool sampled = log != nullptr && log->sample(next_name_, SpanLog::kEveryBatch);
  if (sampled) {
    timed_.inner = &out;
    timed_.log = log;
    timed_.span = log->open(next_name_, 0, now_ns());
    em = &timed_;
  }
  size_t n = 0;
  bool more = true;
  while (n < budget) {
    if (ctl_->stop.load(std::memory_order_relaxed)) {
      more = false;
      break;
    }
    if (!have_) {
      int64_t t0 = now_ns();
      int64_t off = 0;
      have_ = gen_(pkt_, off);
      ctl_->gen_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      if (!have_) {
        more = false;
        break;
      }
      due_ = ctl_->start_ns + off;
    }
    int64_t now = now_ns();
    if (ctl_->paced) {
      if (due_ > now) {
        if (n > 0) break;  // hand the worker back; nothing else is due yet
        sleep_until_ns(std::min(due_, now + kMaxSleepNs));
        continue;
      }
      pkt_.set_event_time_ns(due_);
      ctl_->lag.record(now - due_);
    } else {
      pkt_.set_event_time_ns(now);
    }
    if (log != nullptr) ctl_->bytes += pkt_.serialized_size() * out.output_link_count();
    have_ = false;
    ++n;
    ctl_->emitted.fetch_add(1, std::memory_order_relaxed);
    if (neptune::scenarios::emit_all(*em, std::move(pkt_)) == EmitStatus::kBackpressured) break;
  }
  if (sampled) {
    log->close(timed_.span, now_ns());
    timed_.log = nullptr;
  }
  return more;
}

// --- MeasuringSink --------------------------------------------------------------------

void MeasuringSink::process(StreamPacket& packet, Emitter&) {
  s_->digest.add(neptune::scenarios::packet_content_hash(packet));
  if (s_->order_field >= 0) {
    int64_t v = packet.i64(static_cast<size_t>(s_->order_field));
    if (v != s_->next_order) s_->order_errors.fetch_add(1, std::memory_order_relaxed);
    s_->next_order = v + 1;
  }
  int64_t due = packet.event_time_ns();
  s_->latency.record(due, now_ns() - due);
  s_->count.fetch_add(1, std::memory_order_relaxed);
}

// --- reference ----------------------------------------------------------------------------

namespace {

/// Routes one operator's emits straight into its downstream operators'
/// process() calls (depth first, which keeps every link in FIFO order).
class RefEmitter final : public Emitter {
 public:
  struct Node {
    std::unique_ptr<neptune::StreamProcessor> proc;
    std::vector<std::vector<size_t>> outs;  ///< output link -> downstream ops
    neptune::scenarios::DigestAccumulator* sink = nullptr;
    std::unique_ptr<RefEmitter> emitter;
  };

  RefEmitter(std::vector<Node>& nodes, size_t self) : nodes_(nodes), self_(self) {}

  EmitStatus emit(StreamPacket&& p) override { return emit(size_t{0}, std::move(p)); }
  EmitStatus emit(size_t link, StreamPacket&& p) override {
    const auto& targets = nodes_[self_].outs.at(link);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (i + 1 == targets.size()) {
        deliver(targets[i], p);
      } else {
        StreamPacket copy = p;
        deliver(targets[i], copy);
      }
    }
    ++emitted_;
    return EmitStatus::kOk;
  }
  size_t output_link_count() const override { return nodes_[self_].outs.size(); }
  uint32_t instance() const override { return 0; }
  uint64_t packets_emitted() const override { return emitted_; }

  void deliver(size_t to, StreamPacket& p) {
    Node& n = nodes_[to];
    if (n.sink != nullptr) {
      n.sink->add(neptune::scenarios::packet_content_hash(p));
    } else {
      n.proc->process(p, *n.emitter);
    }
  }

 private:
  std::vector<Node>& nodes_;
  size_t self_;
  uint64_t emitted_ = 0;
};

}  // namespace

ReferenceResult run_reference(const neptune::StreamGraph& graph, const PacketGen& gen,
                              uint64_t inputs) {
  const auto& ops = graph.operators();
  std::vector<RefEmitter::Node> nodes(ops.size());
  std::map<std::string, neptune::scenarios::DigestAccumulator> sinks;
  for (size_t i = 0; i < ops.size(); ++i) {
    auto outs = graph.outputs_of(i);
    nodes[i].outs.resize(outs.size());
    for (const auto* l : outs) nodes[i].outs[l->output_index].push_back(l->to_op);
    nodes[i].emitter = std::make_unique<RefEmitter>(nodes, i);
    if (ops[i].kind == neptune::OperatorKind::kSource) continue;
    if (outs.empty()) {
      nodes[i].sink = &sinks[ops[i].id];
    } else {
      nodes[i].proc = ops[i].processor_factory();
      nodes[i].proc->open(0, 1);
    }
  }
  ReferenceResult r;
  int64_t t0 = now_ns();
  int64_t gen_ns = 0;
  StreamPacket p;
  int64_t off = 0;
  for (uint64_t k = 0; k < inputs; ++k) {
    int64_t g0 = now_ns();
    bool ok = gen(p, off);
    gen_ns += now_ns() - g0;
    if (!ok) break;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != neptune::OperatorKind::kSource) continue;
      for (size_t link = 0; link < nodes[i].outs.size(); ++link) {
        StreamPacket copy = p;
        nodes[i].emitter->emit(link, std::move(copy));
      }
    }
    ++r.inputs;
  }
  // Operators were declared in topological order, so closing in index
  // order lets each close() flush into operators that are still open.
  for (auto& n : nodes)
    if (n.proc) n.proc->close(*n.emitter);
  r.ns = now_ns() - t0 - gen_ns;
  for (auto& [id, acc] : sinks) r.sinks[id] = {acc.count(), acc.digest()};
  return r;
}

}  // namespace perfbench
