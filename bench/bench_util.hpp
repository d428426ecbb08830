// Shared helpers for the figure/table reproduction benches: aligned table
// printing and a canned three-stage relay runner over the real NEPTUNE
// runtime (paper Figure 1 — the workhorse of Figures 2 and 7).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"

namespace neptune::bench {

// --- allocation counting ----------------------------------------------------

/// Heap traffic observed between reset_alloc_counts() and alloc_counts().
struct AllocCounts {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

inline std::atomic<uint64_t> g_alloc_calls{0};
inline std::atomic<uint64_t> g_alloc_bytes{0};

inline void reset_alloc_counts() {
  g_alloc_calls.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
}

inline AllocCounts alloc_counts() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

/// Machine-readable bench results: every bench builds one of these and
/// writes `BENCH_<name>.json` into $NEPTUNE_BENCH_OUT (or the cwd), so CI
/// can archive throughput/latency numbers per run without scraping stdout.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    root_["bench"] = JsonValue(name_);
  }

  void set(const std::string& key, double v) { root_[key] = JsonValue(v); }
  void set(const std::string& key, int64_t v) { root_[key] = JsonValue(v); }
  void set(const std::string& key, uint64_t v) { root_[key] = JsonValue(static_cast<int64_t>(v)); }
  void set(const std::string& key, const std::string& v) { root_[key] = JsonValue(v); }
  void set(const std::string& key, JsonValue v) { root_[key] = std::move(v); }

  /// Append one per-configuration result row (a JSON object) to "rows".
  void add_row(JsonObject row) { rows_.push_back(JsonValue(std::move(row))); }

  std::string path() const {
    const char* dir = std::getenv("NEPTUNE_BENCH_OUT");
    std::string base = dir && *dir ? std::string(dir) + "/" : std::string();
    return base + "BENCH_" + name_ + ".json";
  }

  /// Resolve a sibling output path (e.g. a JSONL timeline) in the same dir.
  std::string sibling(const std::string& filename) const {
    const char* dir = std::getenv("NEPTUNE_BENCH_OUT");
    std::string base = dir && *dir ? std::string(dir) + "/" : std::string();
    return base + filename;
  }

  bool write() const {
    JsonObject root = root_;
    if (!rows_.empty()) root["rows"] = JsonValue(rows_);
    std::string text = JsonValue(std::move(root)).dump(2);
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path().c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path().c_str());
    return true;
  }

 private:
  std::string name_;
  JsonObject root_;
  JsonArray rows_;
};


/// Print a row of right-aligned columns under a fixed width.
inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return std::string(buf);
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Latency snapshot captured from a sink's histogram.
struct LatencySummary {
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
  uint64_t count = 0;
};

/// The named operator's metrics within a snapshot, or nullptr.
inline const OperatorMetricsSnapshot* find_op(const JobMetricsSnapshot& m, const std::string& id) {
  for (const auto& op : m.operators)
    if (op.operator_id == id) return &op;
  return nullptr;
}

/// Sink-latency percentiles of the named operator (zeros when the operator
/// is missing or recorded no samples).
inline LatencySummary latency_of(const JobMetricsSnapshot& m, const std::string& op_id) {
  LatencySummary l;
  const OperatorMetricsSnapshot* op = find_op(m, op_id);
  if (op == nullptr || op->sink_latency_count == 0) return l;
  l.mean_ms = op->sink_latency_mean_ns * 1e-6;
  l.p50_ms = static_cast<double>(op->sink_latency_p50_ns) * 1e-6;
  l.p99_ms = static_cast<double>(op->sink_latency_p99_ns) * 1e-6;
  l.p999_ms = static_cast<double>(op->sink_latency_p999_ns) * 1e-6;
  l.max_ms = static_cast<double>(op->sink_latency_max_ns) * 1e-6;
  l.count = op->sink_latency_count;
  return l;
}

/// Append the standard latency fields ("<prefix>mean_ms", "<prefix>p50_ms",
/// "<prefix>p99_ms", "<prefix>p999_ms", "<prefix>max_ms") to a report row.
inline void add_latency_fields(JsonObject& row, const LatencySummary& l,
                               const std::string& prefix = "latency_") {
  row[prefix + "mean_ms"] = JsonValue(l.mean_ms);
  row[prefix + "p50_ms"] = JsonValue(l.p50_ms);
  row[prefix + "p99_ms"] = JsonValue(l.p99_ms);
  row[prefix + "p999_ms"] = JsonValue(l.p999_ms);
  row[prefix + "max_ms"] = JsonValue(l.max_ms);
}

/// Process peak resident set (VmHWM) in kB; 0 when /proc is unavailable.
inline uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

struct RelayResult {
  double seconds = 0;
  uint64_t packets = 0;
  double throughput_pps = 0;
  double goodput_bytes_per_s = 0;   ///< application payload bytes/s at the sink
  double wire_bytes_per_s = 0;      ///< framed (post-compression) bytes/s
  LatencySummary latency;
  uint64_t flushes = 0;
  uint64_t timer_flushes = 0;
  uint64_t blocked_sends = 0;
  uint64_t seq_violations = 0;
  uint64_t frame_copies = 0;  ///< inbound frames the runtime had to copy (0 = zero-copy held)
};

struct RelayOptions {
  uint64_t packets = 200'000;
  size_t payload_bytes = 50;
  size_t buffer_bytes = 1 << 20;
  int64_t flush_interval_ns = 5'000'000;
  size_t channel_bytes = 8 << 20;
  workload::PayloadKind payload_kind = workload::PayloadKind::kText;
  CompressionPolicy compression = {};
  size_t resources = 2;  ///< sender+receiver on res 0, relay on res 1 (paper's layout)
  /// Cross-resource transport for the relay edges (kTcp = loopback TCP,
  /// carried by the supervised channel).
  EdgeTransport transport = EdgeTransport::kInproc;
};

/// Run the Figure-1 relay (source -> relay -> sink) on the real runtime and
/// collect the paper's three metrics.
class LatencyTapSink;  // fwd

inline RelayResult run_relay(const RelayOptions& opt) {
  using namespace workload;
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = opt.buffer_bytes;
  cfg.buffer.flush_interval_ns = opt.flush_interval_ns;
  cfg.channel.capacity_bytes = opt.channel_bytes;
  cfg.channel.low_watermark_bytes = opt.channel_bytes / 4;

  RuntimeOptions ro;
  ro.cross_resource_transport = opt.transport;
  Runtime rt(opt.resources, {.worker_threads = 1, .io_threads = 1}, ro);
  StreamGraph g("relay-bench", cfg);
  uint64_t total = opt.packets;
  size_t payload = opt.payload_bytes;
  auto kind = opt.payload_kind;
  g.add_source("sender", [=] { return std::make_unique<BytesSource>(total, payload, kind); }, 1,
               0);
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("receiver", [] { return std::make_unique<CountingSink>(); }, 1, 0);
  g.connect("sender", "relay", nullptr, opt.compression);
  g.connect("relay", "receiver", nullptr, opt.compression);

  auto job = rt.submit(g);
  Stopwatch sw;
  job->start();
  job->wait(std::chrono::minutes(10));
  double secs = sw.elapsed_s();

  auto m = job->metrics();
  RelayResult r;
  r.seconds = secs;
  r.packets = m.total("receiver", &OperatorMetricsSnapshot::packets_in);
  r.throughput_pps = static_cast<double>(r.packets) / secs;
  r.goodput_bytes_per_s =
      r.throughput_pps * static_cast<double>(opt.payload_bytes);
  r.wire_bytes_per_s =
      static_cast<double>(m.total(&OperatorMetricsSnapshot::bytes_out)) / secs / 2.0;
  r.flushes = m.total(&OperatorMetricsSnapshot::flushes);
  r.timer_flushes = m.total(&OperatorMetricsSnapshot::timer_flushes);
  r.blocked_sends = m.total(&OperatorMetricsSnapshot::blocked_sends);
  r.seq_violations = m.total(&OperatorMetricsSnapshot::seq_violations);
  r.frame_copies = m.total(&OperatorMetricsSnapshot::frame_copies);

  r.latency = latency_of(m, "receiver");
  return r;
}

/// The standard result row for a relay-based bench (BenchReport::add_row).
inline JsonObject relay_row(const RelayResult& r) {
  JsonObject row;
  row["seconds"] = JsonValue(r.seconds);
  row["packets"] = JsonValue(static_cast<int64_t>(r.packets));
  row["throughput_pps"] = JsonValue(r.throughput_pps);
  row["goodput_bytes_per_s"] = JsonValue(r.goodput_bytes_per_s);
  row["wire_bytes_per_s"] = JsonValue(r.wire_bytes_per_s);
  add_latency_fields(row, r.latency);
  row["flushes"] = JsonValue(static_cast<int64_t>(r.flushes));
  row["timer_flushes"] = JsonValue(static_cast<int64_t>(r.timer_flushes));
  row["blocked_sends"] = JsonValue(static_cast<int64_t>(r.blocked_sends));
  row["seq_violations"] = JsonValue(static_cast<int64_t>(r.seq_violations));
  row["frame_copies"] = JsonValue(static_cast<int64_t>(r.frame_copies));
  return row;
}

}  // namespace neptune::bench

// Counting global allocator, used by the micro benches to report heap
// traffic per operation (the zero-copy claim, measured rather than argued).
// Replacement operator new/delete must be defined exactly once per binary:
// define NEPTUNE_BENCH_COUNT_ALLOCS in exactly one TU before including this
// header. Over-aligned and nothrow forms stay on the library defaults (the
// nothrow forms forward here anyway).
// noinline: keeps gcc from inlining the malloc/free bodies into call sites
// and mis-diagnosing the pairing as -Wmismatched-new-delete.
#ifdef NEPTUNE_BENCH_COUNT_ALLOCS
__attribute__((noinline)) void* operator new(std::size_t n) {
  neptune::bench::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  neptune::bench::g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // NEPTUNE_BENCH_COUNT_ALLOCS
