// Fault-recovery bench: sustained relay throughput over supervised TCP
// edges while a failure schedule fires (default: one kill of resource 1
// every 10 s; every failure is a whole-resource kill). Reports the
// per-second throughput timeline (the dip and re-ramp around each failure),
// checkpoint count, reconnects, and the coordinator's measured recovery
// latency — the robustness counterpart of the paper's §V throughput runs.
//
// Usage: fault_recovery [duration_s] [failure_period_s]
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fault/recovery.hpp"
#include "obs/exporter.hpp"
#include "obs/incident.hpp"
#include "obs/telemetry.hpp"

using namespace neptune;
using namespace neptune::bench;

namespace {

/// Checkpointable counting sink shared across job incarnations so the count
/// is exact across recoveries (restored, then replayed — never doubled).
class SharedCountSink : public StreamProcessor, public Checkpointable {
 public:
  void process(StreamPacket&, Emitter&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  void snapshot_state(ByteBuffer& out) const override { out.write_varint(count_.load()); }
  void restore_state(ByteReader& in) override { count_.store(in.read_varint()); }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

}  // namespace

int main(int argc, char** argv) {
  const int duration_s = argc > 1 ? std::atoi(argv[1]) : 25;
  const int failure_period_s = argc > 2 ? std::atoi(argv[2]) : 10;

  // Incident bundles land next to the bench JSON so CI archives them; every
  // injected recovery below fires the global reporter (rate-limited).
  BenchReport report("fault_recovery");
  const std::string incident_dir = report.sibling("incidents");
  auto reporter = obs::IncidentReporter::configure_global(
      {.dir = incident_dir, .min_interval_ns = 1'000'000'000});

  auto injector = std::make_shared<fault::FaultInjector>();
  RuntimeOptions rt_opt;
  rt_opt.cross_resource_transport = EdgeTransport::kTcp;
  rt_opt.fault_injector = injector;
  rt_opt.supervisor.heartbeat_interval_ns = 20'000'000;
  rt_opt.supervisor.peer_timeout_ns = 300'000'000;
  rt_opt.supervisor.reconnect_backoff_ns = 5'000'000;
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, rt_opt);

  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 64 << 10;
  cfg.buffer.flush_interval_ns = 2'000'000;
  cfg.channel.capacity_bytes = 4 << 20;
  cfg.channel.low_watermark_bytes = 1 << 20;

  auto sink = std::make_shared<SharedCountSink>();
  StreamGraph g("fault-recovery-bench", cfg);
  g.add_source("src", [] { return std::make_unique<workload::BytesSource>(0, 200); }, 1, 0);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor, Checkpointable {
      std::shared_ptr<SharedCountSink> inner;
      explicit Fwd(std::shared_ptr<SharedCountSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
      void snapshot_state(ByteBuffer& out) const override { inner->snapshot_state(out); }
      void restore_state(ByteReader& in) override { inner->restore_state(in); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 1);
  g.connect("src", "sink");

  fault::RecoveryOptions rec_opt;
  rec_opt.checkpoint_interval_ns = 500'000'000;
  fault::RecoveryCoordinator coord(rt, std::move(g), rec_opt);

  print_header("fault recovery: throughput under a failure schedule");
  std::printf("duration %d s, one injected failure every %d s (kill resource 1)\n\n",
              duration_s, failure_period_s);

  // Sample the global registry at 10 Hz: the dumped timeline shows the
  // checkpoint/recovery counters stepping and throughput dipping per failure.
  obs::TelemetrySampler sampler(obs::TelemetryRegistry::global(),
                                {.interval_ns = 100'000'000, .ring_capacity = 16384});
  sampler.start();

  const int64_t t0 = now_ns();
  coord.start();

  // Sample the sink count once a second; inject a failure every period.
  std::vector<uint64_t> per_second;
  std::vector<bool> failure_second;
  uint64_t prev_count = 0;
  int64_t next_failure_ns = static_cast<int64_t>(failure_period_s) * 1'000'000'000;
  int64_t end_ns = static_cast<int64_t>(duration_s) * 1'000'000'000;
  bool fail_this_window = false;
  for (int64_t elapsed = 0; elapsed < end_ns;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    elapsed = now_ns() - t0;
    if (elapsed >= next_failure_ns) {
      injector->schedule_resource_kill(/*resource_index=*/1, /*at_ns_after_start=*/0);
      next_failure_ns += static_cast<int64_t>(failure_period_s) * 1'000'000'000;
      fail_this_window = true;
    }
    if (elapsed >= static_cast<int64_t>(per_second.size() + 1) * 1'000'000'000) {
      uint64_t cur = sink->count();
      per_second.push_back(cur > prev_count ? cur - prev_count : 0);
      failure_second.push_back(fail_this_window);
      fail_this_window = false;
      prev_count = cur;
    }
  }

  JobMetricsSnapshot m = coord.metrics();
  uint64_t final_count = sink->count();
  coord.stop();
  sampler.stop();

  print_row({"second", "pkts/s", ""});
  uint64_t steady_peak = 0;
  for (size_t s = 0; s < per_second.size(); ++s) {
    steady_peak = std::max(steady_peak, per_second[s]);
    print_row({fmt("%.0f", static_cast<double>(s + 1)),
               fmt("%.0f", static_cast<double>(per_second[s])),
               failure_second[s] ? "<- failure injected" : ""});
    JsonObject row;
    row["second"] = JsonValue(static_cast<int64_t>(s + 1));
    row["pkts"] = JsonValue(static_cast<int64_t>(per_second[s]));
    row["failure_injected"] = JsonValue(static_cast<bool>(failure_second[s]));
    report.add_row(std::move(row));
  }

  std::printf("\n");
  print_row({"metric", "value"}, 26);
  print_row({"packets delivered", fmt("%.0f", static_cast<double>(final_count))}, 26);
  print_row({"peak pkts/s", fmt("%.0f", static_cast<double>(steady_peak))}, 26);
  print_row({"checkpoints", fmt("%.0f", static_cast<double>(m.checkpoints_taken))}, 26);
  print_row({"recoveries", fmt("%.0f", static_cast<double>(m.recoveries))}, 26);
  print_row({"mean recovery latency ms",
             fmt("%.1f", m.recoveries ? static_cast<double>(m.recovery_ns) * 1e-6 /
                                            static_cast<double>(m.recoveries)
                                      : 0.0)}, 26);
  print_row({"edge reconnects", fmt("%.0f", static_cast<double>(
                                        m.total(&OperatorMetricsSnapshot::reconnects)))}, 26);
  print_row({"dup frames dropped", fmt("%.0f", static_cast<double>(m.total(
                                           &OperatorMetricsSnapshot::dup_frames_dropped)))}, 26);
  print_row({"seq violations", fmt("%.0f", static_cast<double>(m.total(
                                       &OperatorMetricsSnapshot::seq_violations)))}, 26);
  const auto snaps = sampler.snapshots();
  const std::string timeline_path = report.sibling("TIMELINE_fault_recovery.jsonl");
  if (obs::write_timeline_jsonl(timeline_path, obs::TelemetryRegistry::global(), snaps))
    std::printf("wrote %s (%zu snapshots)\n", timeline_path.c_str(), snaps.size());

  report.set("duration_s", static_cast<int64_t>(duration_s));
  report.set("failure_period_s", static_cast<int64_t>(failure_period_s));
  report.set("packets_delivered", final_count);
  report.set("peak_pps", steady_peak);
  report.set("checkpoints", m.checkpoints_taken);
  report.set("recoveries", m.recoveries);
  report.set("recovery_ns", static_cast<int64_t>(m.recovery_ns));
  report.set("reconnects", m.total(&OperatorMetricsSnapshot::reconnects));
  report.set("dup_frames_dropped", m.total(&OperatorMetricsSnapshot::dup_frames_dropped));
  report.set("seq_violations", m.total(&OperatorMetricsSnapshot::seq_violations));
  report.set("timeline", timeline_path);
  report.set("incident_dir", incident_dir);
  report.set("incident_bundles", reporter->bundles_written());
  report.set("last_incident_bundle", reporter->last_bundle_path());
  report.write();
  if (reporter->bundles_written() > 0)
    std::printf("wrote %llu incident bundle(s), last: %s\n",
                static_cast<unsigned long long>(reporter->bundles_written()),
                reporter->last_bundle_path().c_str());

  std::printf("\ncorrectness: seq_violations %s zero across %d failures\n",
              m.total(&OperatorMetricsSnapshot::seq_violations) == 0 ? "stayed" : "DID NOT stay",
              static_cast<int>(m.recoveries));
  return m.total(&OperatorMetricsSnapshot::seq_violations) == 0 ? 0 : 1;
}
