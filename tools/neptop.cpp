// neptop — a `top`-style live view over a NEPTUNE metrics endpoint.
//
// Polls the Prometheus /metrics route of a running job (any process started
// with NEPTUNE_METRICS_PORT or ObsOptions::metrics_port), computes
// per-operator rates from counter deltas between polls, and redraws an ANSI
// table: packets in/out per second, wire MB/s, flushes/s, the fraction of
// the interval each operator spent blocked on a full downstream channel,
// outbound buffer occupancy, ready-queue depth and sink p99 latency —
// i.e. exactly the backpressure story of paper Figures 3/4, live.
//
// Usage:
//   neptop [host:]port [--interval ms] [--iterations n] [--no-clear]
//   neptop --demo [--interval ms] [--iterations n]   (self-hosted relay)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/http_server.hpp"

namespace {

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// Parse Prometheus text exposition: `name{k="v",...} value` per line.
std::vector<Sample> parse_prometheus(const std::string& text) {
  std::vector<Sample> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    Sample s;
    size_t brace = line.find('{');
    size_t sp;
    if (brace != std::string::npos) {
      s.name = line.substr(0, brace);
      size_t close = line.find('}', brace);
      if (close == std::string::npos) continue;
      std::string body = line.substr(brace + 1, close - brace - 1);
      size_t p = 0;
      while (p < body.size()) {
        size_t eq = body.find('=', p);
        if (eq == std::string::npos) break;
        std::string k = body.substr(p, eq - p);
        size_t q1 = body.find('"', eq);
        size_t q2 = q1 == std::string::npos ? std::string::npos : body.find('"', q1 + 1);
        if (q2 == std::string::npos) break;
        s.labels[k] = body.substr(q1 + 1, q2 - q1 - 1);
        p = body.find(',', q2);
        p = p == std::string::npos ? body.size() : p + 1;
      }
      sp = close + 1;
    } else {
      sp = line.find(' ');
      if (sp == std::string::npos) continue;
      s.name = line.substr(0, sp);
    }
    while (sp < line.size() && line[sp] == ' ') ++sp;
    if (sp >= line.size()) continue;
    s.value = std::strtod(line.c_str() + sp, nullptr);
    out.push_back(std::move(s));
  }
  return out;
}

/// Per-(job, operator) aggregate across instances of one scrape.
struct OpAgg {
  double packets_in = 0, packets_out = 0, bytes_out = 0, flushes = 0;
  double blocked_seconds = 0, blocked_sends = 0, executions = 0;
  double buffered_bytes = 0, ready_batches = 0;
  double sink_p99_s = -1;
  // QoS / fault series (overload-resilience subsystem).
  double shed = 0, shed_gaps = 0, quarantined = 0, overruns = 0, stalls = 0;

  double qos_total() const { return shed + shed_gaps + quarantined + overruns + stalls; }
};

std::map<std::string, OpAgg> aggregate(const std::vector<Sample>& samples) {
  std::map<std::string, OpAgg> ops;
  for (const auto& s : samples) {
    auto job = s.labels.find("job");
    auto op = s.labels.find("op");
    if (job == s.labels.end() || op == s.labels.end()) continue;
    OpAgg& a = ops[job->second + "/" + op->second];
    if (s.name == "neptune_packets_in_total") a.packets_in += s.value;
    else if (s.name == "neptune_packets_out_total") a.packets_out += s.value;
    else if (s.name == "neptune_bytes_out_total") a.bytes_out += s.value;
    else if (s.name == "neptune_flushes_total") a.flushes += s.value;
    else if (s.name == "neptune_blocked_seconds_total") a.blocked_seconds += s.value;
    else if (s.name == "neptune_blocked_sends_total") a.blocked_sends += s.value;
    else if (s.name == "neptune_executions_total") a.executions += s.value;
    else if (s.name == "neptune_outbound_buffered_bytes") a.buffered_bytes += s.value;
    else if (s.name == "neptune_ready_batches") a.ready_batches += s.value;
    else if (s.name == "neptune_sink_latency_p99_seconds")
      a.sink_p99_s = std::max(a.sink_p99_s, s.value);
    else if (s.name == "neptune_packets_shed_total") a.shed += s.value;
    else if (s.name == "neptune_shed_gaps_total") a.shed_gaps += s.value;
    else if (s.name == "neptune_packets_quarantined_total") a.quarantined += s.value;
    else if (s.name == "neptune_deadline_overruns_total") a.overruns += s.value;
    else if (s.name == "neptune_watchdog_stalls_detected_total") a.stalls += s.value;
  }
  return ops;
}

void draw(const std::string& endpoint, double dt_s, const std::vector<Sample>& samples,
          const std::map<std::string, OpAgg>& cur, const std::map<std::string, OpAgg>& prev,
          bool clear) {
  if (clear) std::printf("\x1b[H\x1b[2J");
  std::printf("neptop — %s   poll %.1fs   %zu series\n\n", endpoint.c_str(), dt_s,
              samples.size());
  std::printf("%-24s %10s %10s %8s %8s %8s %8s %6s %8s\n", "JOB/OPERATOR", "in/s", "out/s",
              "MB/s", "flush/s", "blocked%", "buf-KB", "ready", "p99-ms");
  for (const auto& [key, a] : cur) {
    const OpAgg* p = nullptr;
    if (auto it = prev.find(key); it != prev.end()) p = &it->second;
    auto rate = [&](double OpAgg::*f) {
      return p && dt_s > 0 ? std::max(0.0, (a.*f - p->*f) / dt_s) : 0.0;
    };
    double blocked_pct = p && dt_s > 0
        ? std::max(0.0, (a.blocked_seconds - p->blocked_seconds) / dt_s * 100.0) : 0.0;
    char p99[32];
    if (a.sink_p99_s >= 0)
      std::snprintf(p99, sizeof p99, "%8.2f", a.sink_p99_s * 1e3);
    else
      std::snprintf(p99, sizeof p99, "%8s", "-");
    std::printf("%-24s %10.0f %10.0f %8.2f %8.1f %8.1f %8.1f %6.0f %s\n", key.c_str(),
                rate(&OpAgg::packets_in), rate(&OpAgg::packets_out),
                rate(&OpAgg::bytes_out) / 1e6, rate(&OpAgg::flushes), blocked_pct,
                a.buffered_bytes / 1024.0, a.ready_batches, p99);
  }

  // QoS / faults: shedding, quarantine and watchdog per operator. Shown
  // whenever any operator has ever shed/quarantined/stalled so an overload
  // that ended a minute ago is still visible on the console.
  bool qos_header = false;
  for (const auto& [key, a] : cur) {
    if (a.qos_total() <= 0) continue;
    if (!qos_header) {
      std::printf("\n%-24s %10s %8s %8s %9s %7s\n", "QOS/FAULTS", "shed/s", "gaps/s",
                  "quar/s", "overrun/s", "stalls");
      qos_header = true;
    }
    const OpAgg* p = nullptr;
    if (auto it = prev.find(key); it != prev.end()) p = &it->second;
    auto rate = [&](double OpAgg::*f) {
      return p && dt_s > 0 ? std::max(0.0, (a.*f - p->*f) / dt_s) : 0.0;
    };
    std::printf("%-24s %10.0f %8.1f %8.1f %9.1f %7.0f\n", key.c_str(), rate(&OpAgg::shed),
                rate(&OpAgg::shed_gaps), rate(&OpAgg::quarantined), rate(&OpAgg::overruns),
                a.stalls);
  }

  // Job-level fault series: dead-letter queue depth and the recovery
  // coordinator's checkpoint/restore counters (totals, not rates — these
  // move rarely and the absolute numbers are what matter).
  struct JobFaults {
    double dl_entries = -1, dl_dropped = 0;
    double checkpoints = -1, recoveries = 0, recovery_s = 0;
  };
  std::map<std::string, JobFaults> jobs;
  for (const auto& s : samples) {
    auto job = s.labels.find("job");
    if (job == s.labels.end()) continue;
    JobFaults& f = jobs[job->second];
    if (s.name == "neptune_dead_letter_entries") f.dl_entries = std::max(f.dl_entries, 0.0) + s.value;
    else if (s.name == "neptune_dead_letter_dropped_total") f.dl_dropped += s.value;
    else if (s.name == "neptune_checkpoints_total") f.checkpoints = std::max(f.checkpoints, 0.0) + s.value;
    else if (s.name == "neptune_recoveries_total") f.recoveries += s.value;
    else if (s.name == "neptune_recovery_seconds_total") f.recovery_s += s.value;
  }
  bool job_header = false;
  for (const auto& [job, f] : jobs) {
    if (f.dl_entries < 0 && f.checkpoints < 0) continue;  // job has neither subsystem
    if (!job_header) {
      std::printf("\n%-24s %8s %8s %8s %8s %10s\n", "JOB FAULTS", "dlq", "dropped", "ckpts",
                  "recov", "recov-ms");
      job_header = true;
    }
    std::printf("%-24s %8.0f %8.0f %8.0f %8.0f %10.1f\n", job.c_str(),
                std::max(f.dl_entries, 0.0), f.dl_dropped, std::max(f.checkpoints, 0.0),
                f.recoveries, f.recovery_s * 1e3);
  }

  // Edge in-flight bytes: where backpressure is queueing right now.
  bool edge_header = false;
  for (const auto& s : samples) {
    if (s.name != "neptune_edge_inflight_bytes") continue;
    if (!edge_header) {
      std::printf("\n%-24s %10s\n", "EDGE (src->dst)", "inflt-KB");
      edge_header = true;
    }
    auto l = [&](const char* k) {
      auto it = s.labels.find(k);
      return it == s.labels.end() ? std::string("?") : it->second;
    };
    std::string name = "link " + l("link") + " [" + l("src") + "->" + l("dst") + "]";
    std::printf("%-24s %10.1f\n", name.c_str(), s.value / 1024.0);
  }

  // Scheduler health per resource.
  bool res_header = false;
  for (const auto& s : samples) {
    if (s.name != "granules_run_queue_depth") continue;
    if (!res_header) {
      std::printf("\n%-24s %10s\n", "RESOURCE", "runq");
      res_header = true;
    }
    auto it = s.labels.find("resource");
    std::printf("%-24s %10.0f\n",
                (it == s.labels.end() ? std::string("?") : it->second).c_str(), s.value);
  }
  std::fflush(stdout);
}

int watch(const std::string& host, uint16_t port, int interval_ms, int iterations,
          bool clear) {
  std::string endpoint = host + ":" + std::to_string(port);
  std::map<std::string, OpAgg> prev;
  int64_t prev_ns = 0;
  for (int i = 0; iterations <= 0 || i < iterations; ++i) {
    auto body = neptune::obs::http_get(host, port, "/metrics");
    int64_t now = neptune::now_ns();
    if (!body) {
      std::fprintf(stderr, "neptop: no response from %s/metrics\n", endpoint.c_str());
      return 1;
    }
    auto samples = parse_prometheus(*body);
    auto cur = aggregate(samples);
    double dt_s = prev_ns ? static_cast<double>(now - prev_ns) * 1e-9 : 0;
    draw(endpoint, dt_s, samples, cur, prev, clear);
    prev = std::move(cur);
    prev_ns = now;
    if (iterations <= 0 || i + 1 < iterations)
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

/// --demo: run the Figure-1 relay in-process with an ephemeral metrics port
/// and watch it — a self-contained smoke test of the whole telemetry path.
int demo(int interval_ms, int iterations, bool clear) {
  using namespace neptune;
  using namespace neptune::workload;
  RuntimeOptions opts;
  opts.obs.metrics_port = 0;  // ephemeral
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, opts);
  if (rt.metrics_server() == nullptr) {
    std::fprintf(stderr, "neptop: demo runtime has no metrics endpoint\n");
    return 1;
  }
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 64 << 10;
  cfg.buffer.flush_interval_ns = 2'000'000;
  StreamGraph g("neptop-demo", cfg);
  g.add_source("sender", [] { return std::make_unique<BytesSource>(0, 200); }, 1, 0);
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("receiver", [] { return std::make_unique<CountingSink>(); }, 1, 0);
  g.connect("sender", "relay");
  g.connect("relay", "receiver");
  auto job = rt.submit(g);
  job->start();
  int rc = watch("127.0.0.1", rt.metrics_server()->port(), interval_ms, iterations, clear);
  job->stop();
  job->wait(std::chrono::seconds(30));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  bool run_demo = false;
  bool clear = true;
  int interval_ms = 1000;
  int iterations = 0;  // 0 = forever
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--demo") run_demo = true;
    else if (arg == "--no-clear") clear = false;
    else if (arg == "--interval" && i + 1 < argc) interval_ms = std::atoi(argv[++i]);
    else if (arg == "--iterations" && i + 1 < argc) iterations = std::atoi(argv[++i]);
    else if (arg == "--help" || arg == "-h") {
      std::printf("usage: neptop [host:]port [--interval ms] [--iterations n] [--no-clear]\n"
                  "       neptop --demo [--interval ms] [--iterations n]\n");
      return 0;
    } else target = arg;
  }
  if (run_demo) {
    if (iterations == 0) iterations = 20;
    return demo(interval_ms, iterations, clear);
  }
  if (target.empty()) {
    std::fprintf(stderr, "neptop: need a port (or --demo); see --help\n");
    return 2;
  }
  std::string host = "127.0.0.1";
  std::string port_str = target;
  if (size_t colon = target.rfind(':'); colon != std::string::npos) {
    host = target.substr(0, colon);
    port_str = target.substr(colon + 1);
  }
  int port = std::atoi(port_str.c_str());
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "neptop: bad port '%s'\n", port_str.c_str());
    return 2;
  }
  return watch(host, static_cast<uint16_t>(port), interval_ms, iterations, clear);
}
