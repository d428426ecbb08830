// CI gate for the zero-copy TCP transport (docs/INTERNALS.md §14).
//
// Runs the headline 3-stage relay over loopback (supervised) TCP under the
// counting global allocator, and exits non-zero when the zero-copy claim
// regresses:
//
//   * frame_copies != 0            (a received frame was copied)
//   * rx frames were not carved    (socket-side frame carving stopped working)
//   * heap traffic per packet rose (the send/receive path started allocating)
//
// The allocation gate is differential: the workload itself allocates per
// packet (BytesSource moves a payload vector into every StreamPacket —
// ~3 allocs/pkt on any transport), so the gate first measures the inproc
// relay as a baseline, then requires the TCP runs to add at most
// kMaxExtraAllocsPerPacket on top of it. That pins exactly this PR's
// claim: carrying the edge over TCP adds no per-packet heap traffic —
// frames ride pinned pool refs outbound and pooled recv chunks inbound.
// A single allocation per packet (or per frame) on the transport path
// shifts the delta by ≥ 1.0 and trips the gate.
#define NEPTUNE_BENCH_COUNT_ALLOCS
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "net/tcp_transport.hpp"

using namespace neptune;
using namespace neptune::bench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_run = argc > 1 && std::strcmp(argv[1], "--short") == 0;
  const uint64_t packets = short_run ? 100'000 : 500'000;
  // TCP setup (loop threads, sockets, supervised channels) is a fixed count
  // of allocations the inproc baseline doesn't pay; amortized over the run
  // it stays well under this slack, while any per-packet allocation on the
  // transport path shifts the delta by >= 1.0.
  const double kMaxExtraAllocsPerPacket = short_run ? 0.50 : 0.20;

  std::printf("NEPTUNE gate: zero-copy TCP relay (%lu packets/run)\n",
              static_cast<unsigned long>(packets));
  BenchReport report("tcp_zero_copy_gate");

  // Warm the frame/chunk pools and the lazy singletons outside the counted
  // window so all measured runs start from the same steady state.
  {
    RelayOptions warm;
    warm.payload_bytes = 100;
    warm.packets = 20'000;
    warm.transport = EdgeTransport::kTcp;
    (void)run_relay(warm);
  }

  // Inproc baseline: the workload's own per-packet heap traffic.
  double baseline_allocs_per_packet = 0;
  {
    print_header("inproc relay baseline, 100 B packets");
    RelayOptions opt;
    opt.payload_bytes = 100;
    opt.buffer_bytes = 1 << 20;
    opt.packets = packets;
    reset_alloc_counts();
    RelayResult r = run_relay(opt);
    AllocCounts ac = alloc_counts();
    baseline_allocs_per_packet =
        static_cast<double>(ac.calls) / static_cast<double>(packets);
    print_row({"kpkt/s", "allocs/pkt"});
    print_row({fmt("%.0f", r.throughput_pps / 1e3), fmt("%.4f", baseline_allocs_per_packet)});
    expect(r.packets == packets && r.seq_violations == 0, "baseline: clean run");
    JsonObject row = relay_row(r);
    row["config"] = JsonValue(std::string("inproc_baseline_100B"));
    row["alloc_calls"] = JsonValue(static_cast<int64_t>(ac.calls));
    row["allocs_per_packet"] = JsonValue(baseline_allocs_per_packet);
    report.add_row(std::move(row));
  }

  auto& ts = TcpTransportStats::global();
  {
    print_header("TCP relay, 100 B packets, supervised transport");

    RelayOptions opt;
    opt.payload_bytes = 100;
    opt.buffer_bytes = 1 << 20;
    opt.packets = packets;
    opt.transport = EdgeTransport::kTcp;

    uint64_t rx_frames0 = ts.rx_frames.load();
    reset_alloc_counts();
    RelayResult r = run_relay(opt);
    AllocCounts ac = alloc_counts();
    uint64_t rx_frames_delta = ts.rx_frames.load() - rx_frames0;
    double allocs_per_packet =
        static_cast<double>(ac.calls) / static_cast<double>(packets);
    double extra = allocs_per_packet - baseline_allocs_per_packet;

    print_row({"kpkt/s", "frame-copies", "allocs/pkt", "vs-inproc"});
    print_row({fmt("%.0f", r.throughput_pps / 1e3),
               fmt("%.0f", static_cast<double>(r.frame_copies)),
               fmt("%.4f", allocs_per_packet),
               fmt("%+.4f", extra)});

    expect(r.packets == packets, "supervised: all packets delivered");
    expect(r.seq_violations == 0, "supervised: in order");
    expect(r.frame_copies == 0, "supervised: frame_copies == 0");
    expect(rx_frames_delta > 0, "supervised: frames carved from pooled rx chunks");
    expect(extra < kMaxExtraAllocsPerPacket,
           "supervised: TCP adds no per-packet heap traffic (" + fmt("%+.4f", extra) +
               " allocs/pkt vs inproc, fixed setup amortized)");

    JsonObject row = relay_row(r);
    row["config"] = JsonValue(std::string("tcp_gate_100B_supervised"));
    row["alloc_calls"] = JsonValue(static_cast<int64_t>(ac.calls));
    row["alloc_bytes"] = JsonValue(static_cast<int64_t>(ac.bytes));
    row["allocs_per_packet"] = JsonValue(allocs_per_packet);
    row["extra_allocs_per_packet_vs_inproc"] = JsonValue(extra);
    row["tcp_rx_frames_delta"] = JsonValue(static_cast<int64_t>(rx_frames_delta));
    report.add_row(std::move(row));
  }

  uint64_t calls = ts.sendmsg_calls.load();
  uint64_t iovecs = ts.sendmsg_iovecs.load();
  double iov_avg = calls ? static_cast<double>(iovecs) / static_cast<double>(calls) : 0.0;
  std::printf("\nsendmsg batching: %.2f iovecs/call across the process\n", iov_avg);
  report.set("sendmsg_iovecs_avg", iov_avg);
  report.set("failures", static_cast<int64_t>(g_failures));
  report.write();

  if (g_failures != 0) {
    std::fprintf(stderr, "tcp_zero_copy_gate: %d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("tcp_zero_copy_gate: all gates passed\n");
  return 0;
}
