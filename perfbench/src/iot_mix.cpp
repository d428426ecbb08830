// iot_mix_tcp: the three golden IoT scenarios (etl_taxi, stats_grid,
// pred_air) run in turn as phases of one run, over supervised loopback
// TCP, open loop. Each graph is the golden scenario file's own
// (tests/scenarios/data/<name>.json, built by build_scenario_graph from the
// public scenario operator classes), re-declared with the benchmark's paced
// source alone on resource 0, measuring sinks, and every other operator
// wrapped and moved up one resource. Due times are the trace's own
// timestamps, scaled so the base rate is about 15% of the scenario's
// closed-loop capacity on a 4-vCPU host; the golden diurnal ramp and bursts
// are kept, so their peaks reach the runtime. This is the work relay_max
// skips: per-packet deserialization, real operator work, fields-hash
// partitioning, and TCP send/receive with acks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/clock.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using neptune::now_ns;
using neptune::StreamGraph;
namespace sc = neptune::scenarios;

namespace {

struct ScenarioDef {
  sc::ScenarioSpec spec;  ///< the golden scenario file
  sc::TraceSpec trace;    ///< its trace, seeded from --seed and unbounded
  double rate_pps;        ///< offered rate at a rate multiplier of 1
};

std::vector<ScenarioDef> scenario_defs(uint64_t seed) {
  // Base rates: 15% of closed-loop capacities of about 300 k, 750 k and
  // 600 k events/s, so the golden peaks (diurnal crest times burst: 4.5x,
  // 4x and 2.8x) stay at 40-70% of capacity.
  const std::pair<const char*, double> kRates[] = {
      {"etl_taxi", 45'000}, {"stats_grid", 110'000}, {"pred_air", 90'000}};
  std::vector<ScenarioDef> defs;
  uint64_t salt = 0;
  for (const auto& [name, rate] : kRates) {
    ScenarioDef d{load_golden_scenario(name), {}, rate};
    d.trace = d.spec.trace;
    d.trace.seed = seed * 1000003 + ++salt;
    d.trace.events = ~uint64_t{0} >> 1;  // the run's window bounds the stream
    defs.push_back(std::move(d));
  }
  return defs;
}

using Sinks = std::map<std::string, std::shared_ptr<SinkState>>;

/// The golden graph, re-declared for measurement: `source` replaces the
/// trace source (resource 0, alone), operators without outputs become
/// measuring sinks, and the rest are wrapped so outputs carry their
/// trigger's due time; scenario resource r becomes runtime resource r + 1.
StreamGraph build_graph(const ScenarioDef& def, neptune::SourceFactory source, Sinks& sinks,
                        SpanRegistry* spans) {
  sc::ScenarioContext ctx;
  StreamGraph golden = sc::build_scenario_graph(def.spec, def.trace, ctx, false);
  std::map<std::string, std::string> types;  // operator id -> span name, e.g. "csv_parse"
  for (const auto& entry : def.spec.topology.at("operators").as_array()) {
    std::string type = entry.at("type").as_string();
    std::replace(type.begin(), type.end(), '-', '_');
    types[entry.at("id").as_string()] = type;
  }
  StreamGraph g(def.spec.name, golden.config());
  const auto& ops = golden.operators();
  for (size_t i = 0; i < ops.size(); ++i) {
    const neptune::OperatorDecl& op = ops[i];
    if (op.kind == neptune::OperatorKind::kSource) {
      g.add_source(op.id, source, op.parallelism, 0);
    } else if (golden.outputs_of(i).empty()) {
      auto s = std::make_shared<SinkState>();
      s->id = op.id;
      sinks[op.id] = s;
      g.add_processor(op.id, [s] { return std::make_unique<MeasuringSink>(s); }, op.parallelism,
                      op.resource + 1);
    } else {
      g.add_processor(op.id, wrap(op.processor_factory, types.at(op.id), spans), op.parallelism,
                      op.resource + 1);
    }
  }
  for (const neptune::LinkDecl& l : golden.links())
    g.connect(ops[l.from_op].id, ops[l.to_op].id, l.partitioning, l.compression, l.buffer_override,
              l.qos, l.shed);
  return g;
}

/// Trace packets with due offsets scaled from their event timestamps so the
/// nominal mean rate is `rate_pps`.
PacketGen trace_gen(const ScenarioDef& def) {
  auto gen = std::make_shared<sc::TraceGenerator>(def.trace);
  double events_per_ms = def.trace.events_per_tick / static_cast<double>(def.trace.tick_ms);
  double ns_per_event_ms = events_per_ms / def.rate_pps * 1e9;
  int64_t start_ms = def.trace.start_ms;
  return [gen, ns_per_event_ms, start_ms](StreamPacket& p, int64_t& off) {
    if (!gen->next(p)) return false;
    // CSV payloads carry the timestamp as the row's first column.
    int64_t ts = p.field_count() == 1 ? std::strtoll(p.str(0).c_str(), nullptr, 10) : p.i64(0);
    off = static_cast<int64_t>(static_cast<double>(ts - start_ms) * ns_per_event_ms);
    return true;
  };
}

neptune::RuntimeOptions tcp_options() {
  neptune::RuntimeOptions ro;
  ro.cross_resource_transport = neptune::EdgeTransport::kTcp;
  return ro;
}

constexpr neptune::granules::ResourceConfig kOneWorker{.worker_threads = 1, .io_threads = 1};

uint64_t total_count(const Sinks& sinks) {
  uint64_t n = 0;
  for (const auto& [id, s] : sinks) n += s->count.load(std::memory_order_relaxed);
  return n;
}

/// One set-up sample: deploy (unpaced) until the first packet reaches
/// every sink.
SetupSample deploy_once(const ScenarioDef& def, RunResult& r) {
  auto ctl = std::make_shared<SourceControl>();
  ctl->paced = false;
  Sinks sinks;
  SetupTimer timer;
  int64_t t0 = now_ns();
  auto rt = std::make_unique<neptune::Runtime>(3, kOneWorker, tcp_options());
  PacketGen gen = trace_gen(def);
  StreamGraph g = build_graph(def, [ctl, gen] { return std::make_unique<PacedSource>(ctl, gen); },
                              sinks, nullptr);
  auto job = rt->submit(g);
  job->start();
  auto all_seen = [&] {
    for (const auto& [id, s] : sinks)
      if (s->count.load(std::memory_order_relaxed) == 0) return false;
    return true;
  };
  while (!all_seen() && now_ns() - t0 < 10'000'000'000)
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  SetupSample s = timer.stop();
  ctl->stop = true;
  drain_setup(*job, "iot_mix_tcp/" + def.spec.name, r);
  return s;
}

RunResult run_phase(const ScenarioDef& def, double seconds, SpanRegistry* spans,
                    const std::string& label) {
  RunResult r;
  release_freed_memory();
  auto ctl = std::make_shared<SourceControl>();
  if (spans) ctl->log = spans->make();
  Sinks sinks;
  auto rt = std::make_unique<neptune::Runtime>(3, kOneWorker, tcp_options());
  PacketGen gen = trace_gen(def);
  StreamGraph g = build_graph(def, [ctl, gen] { return std::make_unique<PacedSource>(ctl, gen); },
                              sinks, spans);
  auto job = rt->submit(g);
  const int slices = slices_in(seconds);
  ctl->start_ns = now_ns() + 20'000'000;
  const int64_t begin = ctl->start_ns + 500'000'000;  // after a 0.5 s warm-up
  std::vector<const SlicedLatency*> lats;
  for (auto& [id, s] : sinks) {
    s->latency.arm(begin, slices);
    lats.push_back(&s->latency);
  }
  job->start();
  sleep_until_ns(begin);
  PeakRssProbe rss;
  std::vector<Edge> edges = sample_window(
      begin, slices, [&] { return take_edge(total_count(sinks), ctl->gen_ns.load(), *job, *rt); },
      sleep_until_ns);
  ctl->stop = true;
  r.peak_rss_mb = rss.finish();
  account_slices(edges, lats, r);
  drain_or_stall(*job, 15.0, label, r);
  neptune::JobMetricsSnapshot m = job->metrics();
  uint64_t seq_violations = m.total(&neptune::OperatorMetricsSnapshot::seq_violations);
  r.source_wire_bytes = m.total("src", &neptune::OperatorMetricsSnapshot::bytes_out);

  // Expected outputs: the same operators, single-threaded, on the same
  // prefix of the same trace.
  uint64_t inputs = ctl->emitted.load();
  Sinks ref_sinks;
  StreamGraph ref_graph = build_graph(def, nullptr, ref_sinks, nullptr);
  ReferenceResult ref = run_reference(ref_graph, trace_gen(def), inputs);
  r.reference_ns = ref.ns;
  r.reference_packets = ref.inputs;
  r.source_bytes = ctl->bytes;
  uint64_t order = seq_violations;
  if (seq_violations) r.fail(label + ": " + std::to_string(seq_violations) + " sequence violations");
  for (const auto& [id, s] : sinks) {
    auto it = ref.sinks.find(id);
    uint64_t want = it == ref.sinks.end() ? 0 : it->second.first;
    std::string digest = s->digest.digest();
    uint64_t got = s->count.load();
    r.expected += want;
    if (it == ref.sinks.end() || digest != it->second.second) {
      r.fail(label + "/" + id + ": digest " + digest + " != reference " +
             (it == ref.sinks.end() ? std::string("(none)") : it->second.second));
      if (got == want) ++order;  // same count, wrong content
    }
    r.failed += failed_packets(want, got, 0);
  }
  r.failed += order;
  r.lag.merge(ctl->lag);
  return r;
}

}  // namespace

RunResult run_iot_mix_tcp(const Options& opt, SpanRegistry* spans) {
  RunResult total;
  std::vector<ScenarioDef> defs = scenario_defs(opt.seed);
  // Set-up time is that of the whole mix: one sample deploys all three.
  for (int i = 0; i < kSetupSamples / 2; ++i) {
    SetupSample mix;
    for (const ScenarioDef& def : defs) mix.add(deploy_once(def, total));
    total.setups.push_back(mix);
  }
  for (const ScenarioDef& def : defs) {
    RunResult phase = run_phase(def, opt.seconds / 3.0, spans, "iot_mix_tcp/" + def.spec.name);
    LatencyRecorder lat = phase.quiet_latency();
    std::fprintf(stderr, "perfbench: iot_mix_tcp/%s: %.0f sink pkt/s, %.0f ns/pkt, p50 %.3f ms, p99 %.3f ms\n",
                 def.spec.name.c_str(), phase.slice_throughput(), phase.slice_cpu_per_pkt(),
                 lat.quantile(0.50) * 1e-6, lat.quantile(0.99) * 1e-6);
    total.add_phase(phase);
  }
  if (spans != nullptr) run_mp_grid(opt, total);
  return total;
}

}  // namespace perfbench
