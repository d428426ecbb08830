// perfbench: runs one workload for a measured window and writes every
// metric (end to end and per layer) plus its correctness verdict as one
// JSON document. run.py builds this binary, runs it and prints the
// benchmark's result line. Compiled twice: `perfbench` (untraced) and
// `perfbench_traced` (with the counting allocator, for --trace 1 runs).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.hpp"
#include "workloads.hpp"

#ifdef NEPTUNE_BENCH_COUNT_ALLOCS
#include "bench_util.hpp"
#endif

using namespace perfbench;
using neptune::JsonObject;
using neptune::JsonValue;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <relay_max|iot_mix_tcp|sensor_ckpt_tcp> --seed <n> "
               "--seconds <s> --trace <0|1> --out <file.json>\n");
  return 2;
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

JsonObject metric(double v, const char* unit) {
  JsonObject m;
  m["value"] = JsonValue(v);
  m["unit"] = JsonValue(std::string(unit));
  return m;
}

const char* const kScenarioOps[] = {"csv_parse",   "range_filter", "interpolate",
                                    "annotate",    "tumbling_agg", "sliding_agg",
                                    "dtree_score", "count_window", "sensor_extract"};

JsonObject end_to_end(const RunResult& r) {
  JsonObject m;
  m["cpu_ns_per_pkt"] = JsonValue(metric(r.slice_cpu_per_pkt(), "ns"));
  m["peak_rss_mb"] = JsonValue(metric(r.peak_rss_mb, "MiB"));
  m["setup_s"] = JsonValue(metric(r.setup_median(), "s"));
  return m;
}

JsonObject per_layer(const RunResult& r, const SpanTotals& t) {
  JsonObject m;
  const LayerCounters& c = r.counters;
  double d = static_cast<double>(r.delivered);
  // Span totals cover every traced phase of the run, so they divide by
  // those phases' sink packets rather than the window's.
  double run_pkts = static_cast<double>(r.expected - std::min(r.expected, r.untraced_packets));
  double cpu_per_pkt = r.slice_cpu_per_pkt();

  m["neptune.emit_ns_per_pkt"] = JsonValue(metric(per(t.emit_ns, run_pkts), "ns"));
  m["neptune.view_decode_ns_per_pkt"] = JsonValue(metric(per(t.decode_ns, run_pkts), "ns"));
  auto relay = t.self_ns.find("relay");
  double relay_self = per(relay == t.self_ns.end() ? 0 : relay->second, run_pkts);
  m["neptune.relay_self_ns_per_pkt"] = JsonValue(metric(relay_self, "ns"));
  m["neptune.flushes_per_kpkt"] = JsonValue(metric(per(1000.0 * c.flushes, d), "count"));
  m["neptune.timer_flush_pct"] = JsonValue(metric(per(100.0 * c.timer_flushes, c.flushes), "%"));
  m["neptune.bytes_per_flush"] = JsonValue(metric(per(c.bytes_out, c.flushes), "B"));
  m["neptune.executions_per_kpkt"] = JsonValue(metric(per(1000.0 * c.executions, d), "count"));
  double blocked_den = static_cast<double>(r.proc_delta.wall_ns) * c.emitting_instances;
  m["neptune.blocked_pct"] = JsonValue(metric(per(100.0 * c.blocked_ns, blocked_den), "%"));
  m["neptune.serde_alloc_bytes_per_pkt"] = JsonValue(metric(per(c.serde_alloc_bytes, d), "B"));
  m["neptune.frame_copies"] = JsonValue(metric(static_cast<double>(c.frame_copies), "count"));
  m["granules.wakeups_per_kpkt"] = JsonValue(metric(per(1000.0 * c.wakeups, d), "count"));

  double self_sum = 0;
  for (const char* op : kScenarioOps) {
    auto it = t.self_ns.find(op);
    double v = per(it == t.self_ns.end() ? 0 : it->second, run_pkts);
    self_sum += v;
    m[std::string("scenarios.") + op + ".self_ns_per_pkt"] = JsonValue(metric(v, "ns"));
  }
  m["scenarios.self_ns_per_pkt"] = JsonValue(metric(self_sum, "ns"));

  double gen = static_cast<double>(r.gen_ns);
  m["cpu.worker_ns_per_pkt"] =
      JsonValue(metric(per(static_cast<double>(r.proc_delta.worker_ns) - gen, d), "ns"));
  m["cpu.io_ns_per_pkt"] = JsonValue(metric(per(static_cast<double>(r.proc_delta.io_ns), d), "ns"));
  m["cpu.other_ns_per_pkt"] =
      JsonValue(metric(per(static_cast<double>(r.proc_delta.other_ns), d), "ns"));

  m["net.wire_bytes_per_pkt"] = JsonValue(metric(per(c.bytes_out, d), "B"));
  m["net.tcp_sendmsg_per_kpkt"] = JsonValue(metric(per(1000.0 * c.tcp_sendmsg, d), "count"));
  m["net.tcp_iovecs_per_sendmsg"] = JsonValue(metric(per(c.tcp_iovecs, c.tcp_sendmsg), "count"));
  m["net.tcp_rx_chunks_per_kpkt"] = JsonValue(metric(per(1000.0 * c.tcp_rx_chunks, d), "count"));
  m["net.tcp_rx_copies"] = JsonValue(metric(static_cast<double>(c.tcp_rx_copies), "count"));

  double ratio = r.source_wire_bytes > 0 && r.source_bytes > 0
                     ? static_cast<double>(r.source_bytes) / static_cast<double>(r.source_wire_bytes)
                     : 1.0;
  m["compress.ratio"] = JsonValue(metric(ratio, "x"));

  m["fault.checkpoint_ms_p50"] = JsonValue(metric(median(t.checkpoint_ms), "ms"));
  double ckpt_max = 0;
  for (double v : t.checkpoint_ms) ckpt_max = std::max(ckpt_max, v);
  m["fault.checkpoint_ms_max"] = JsonValue(metric(ckpt_max, "ms"));
  m["fault.checkpoints"] = JsonValue(metric(static_cast<double>(r.checkpoints), "count"));
  m["fault.quiesce_timeouts"] = JsonValue(metric(static_cast<double>(r.quiesce_timeouts), "count"));
  m["fault.dup_frames_dropped"] =
      JsonValue(metric(static_cast<double>(c.dup_frames_dropped), "count"));
  m["fault.reconnects"] = JsonValue(metric(static_cast<double>(c.reconnects), "count"));

  const ProcLayer& pl = r.proc;
  double proc_pkts = static_cast<double>(pl.packets);
  m["proc.supervisor_cpu_ns_per_pkt"] =
      JsonValue(metric(per(static_cast<double>(pl.supervisor_cpu_ns), proc_pkts), "ns"));
  m["proc.workers_cpu_ns_per_pkt"] =
      JsonValue(metric(per(static_cast<double>(pl.workers_cpu_ns), proc_pkts), "ns"));
  m["proc.worker_peak_rss_mb"] = JsonValue(metric(pl.worker_peak_rss_mb, "MiB"));
  m["proc.checkpoints"] = JsonValue(metric(static_cast<double>(pl.checkpoints), "count"));
  m["proc.quiesce_timeouts"] = JsonValue(metric(static_cast<double>(pl.quiesce_timeouts), "count"));

  m["os.ctx_switches_per_kpkt"] =
      JsonValue(metric(per(1000.0 * static_cast<double>(r.proc_delta.ctx_switches), d), "count"));
  m["os.allocs_per_pkt"] = JsonValue(metric(per(static_cast<double>(r.allocs), d), "count"));
  m["os.steal_pct"] = JsonValue(metric(
      per(100.0 * static_cast<double>(r.proc_delta.host_steal_ticks),
          static_cast<double>(r.proc_delta.host_total_ticks)),
      "%"));

  m["bench.throughput_pps"] = JsonValue(metric(r.slice_throughput(), "1/s"));
  m["bench.gen_ns_per_pkt"] = JsonValue(metric(per(gen, d), "ns"));
  m["bench.source_lag_ms_p99"] = JsonValue(metric(r.lag.quantile(0.99) * 1e-6, "ms"));
  LatencyRecorder lat = r.quiet_latency();
  m["bench.latency_p50_ms"] = JsonValue(metric(lat.quantile(0.50) * 1e-6, "ms"));
  m["bench.latency_p99_ms"] = JsonValue(metric(lat.quantile(0.99) * 1e-6, "ms"));
  m["bench.latency_p999_ms"] = JsonValue(metric(lat.quantile(0.999) * 1e-6, "ms"));
  m["bench.latency_samples"] = JsonValue(metric(static_cast<double>(lat.count()), "count"));
  double timed = per(t.emit_ns + t.decode_ns, run_pkts) + relay_self + self_sum;
  m["bench.coverage_pct"] = JsonValue(metric(per(100.0 * timed, cpu_per_pkt), "%"));
  m["bench.reference_ns_per_pkt"] = JsonValue(metric(
      per(static_cast<double>(r.reference_ns), static_cast<double>(r.reference_packets)), "ns"));
  m["bench.failed_pct"] = JsonValue(metric(per(100.0 * r.failed, r.expected), "%"));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--out") out = v;
    else return usage();
  }
  if (opt.workload.empty() || out.empty() || opt.seconds <= 0) return usage();
  opt.work_dir = out + ".work";
#ifdef NEPTUNE_BENCH_COUNT_ALLOCS
  alloc_calls_hook = [] { return neptune::bench::alloc_counts().calls; };
#endif

  SpanRegistry spans;
  SpanRegistry* sp = opt.trace ? &spans : nullptr;
  RunResult r;
  if (opt.workload == "relay_max") r = run_relay_max(opt, sp);
  else if (opt.workload == "iot_mix_tcp") r = run_iot_mix_tcp(opt, sp);
  else if (opt.workload == "sensor_ckpt_tcp") r = run_sensor_ckpt_tcp(opt, sp);
  else return usage();
  if (r.delivered == 0) r.fail("no sink packet was delivered in the measured window");

  SpanTotals totals = derive_totals(spans);
  JsonObject doc;
  doc["workload"] = JsonValue(opt.workload);
  doc["seed"] = JsonValue(static_cast<int64_t>(opt.seed));
  doc["seconds"] = JsonValue(opt.seconds);
  doc["trace"] = JsonValue(opt.trace);
  doc["correct"] = JsonValue(r.correct && r.failed == 0);
  doc["attempted"] = JsonValue(static_cast<int64_t>(r.expected));
  doc["failed"] = JsonValue(static_cast<int64_t>(r.failed));
  doc["end_to_end"] = JsonValue(end_to_end(r));
  doc["per_layer"] = JsonValue(per_layer(r, totals));
  neptune::JsonArray errors, stalls, setups;
  for (const auto& e : r.errors) errors.push_back(JsonValue(e));
  for (const auto& s : r.stall_dumps) stalls.push_back(JsonValue(s));
  for (const SetupSample& s : r.setups) {
    JsonObject o;
    o["s"] = JsonValue(s.secs);
    o["steal_pct"] = JsonValue(100.0 * s.steal_share());
    setups.push_back(JsonValue(std::move(o)));
  }
  // Per-slice figures, so a noisy run can be told from a slow program.
  auto slice_list = [](const std::vector<Slice>& of) {
    neptune::JsonArray list;
    std::vector<const Slice*> quiet = RunResult::quiet(of);
    for (const Slice& s : of) {
      JsonObject o;
      o["pps"] = JsonValue(per(static_cast<double>(s.delivered) * 1e9, static_cast<double>(s.wall_ns)));
      o["cpu_ns_per_pkt"] = JsonValue(per(static_cast<double>(s.cpu_ns), static_cast<double>(s.delivered)));
      o["latency_samples"] = JsonValue(static_cast<int64_t>(s.latency.count()));
      o["p50_ms"] = JsonValue(s.latency.quantile(0.50) * 1e-6);
      o["p99_ms"] = JsonValue(s.latency.quantile(0.99) * 1e-6);
      o["steal_pct"] = JsonValue(100.0 * s.steal_share());
      o["quiet"] = JsonValue(std::find(quiet.begin(), quiet.end(), &s) != quiet.end());
      list.push_back(JsonValue(std::move(o)));
    }
    return list;
  };
  doc["slices"] = JsonValue(slice_list(r.slices));
  doc["latency_slices"] = JsonValue(slice_list(r.latency_slices));
  doc["errors"] = JsonValue(errors);
  doc["stall_dumps"] = JsonValue(stalls);
  doc["setup_samples"] = JsonValue(setups);
  if (opt.trace) {
    std::string span_path = out + ".spans.jsonl";
    if (!write_spans(spans, span_path)) std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
    doc["spans_file"] = JsonValue(span_path);
  }
  std::string text = JsonValue(std::move(doc)).dump(2);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  for (const auto& e : r.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  return 0;
}
