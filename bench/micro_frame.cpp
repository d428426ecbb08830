// Microbenchmark: frame encode (with CRC), whole-frame decode and stream
// carving — the fixed per-flush costs that application-level buffering
// amortizes over a whole batch (paper §III-B1). The *Pooled variants
// measure the zero-copy hot path: encode into recycled FrameBufs and
// whole-frame decode straight out of them, with heap traffic reported via
// the bench_util.hpp counting allocator.
#define NEPTUNE_BENCH_COUNT_ALLOCS
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "net/frame.hpp"
#include "net/frame_buf.hpp"

namespace {

using neptune::ByteBuffer;
using neptune::FrameBufPool;
using neptune::FrameBufRef;
using neptune::FrameHeader;

void report_allocs(benchmark::State& state, neptune::bench::AllocCounts a) {
  auto iters = static_cast<double>(state.iterations());
  if (iters == 0) return;
  state.counters["allocs_per_op"] = static_cast<double>(a.calls) / iters;
  state.counters["alloc_bytes_per_op"] = static_cast<double>(a.bytes) / iters;
}

std::vector<uint8_t> payload_of(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 131);
  return v;
}

void BM_FrameEncode(benchmark::State& state) {
  auto payload = payload_of(static_cast<size_t>(state.range(0)));
  ByteBuffer out;
  FrameHeader h;
  h.raw_size = static_cast<uint32_t>(payload.size());
  h.batch_count = 100;
  for (auto _ : state) {
    out.clear();
    encode_frame(h, payload, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameEncode)->Arg(128)->Arg(4096)->Arg(1 << 20);

void BM_FrameEncodePooled(benchmark::State& state) {
  // Encode into a pooled FrameBuf acquired per flush and recycled on
  // release — after warm-up the loop should be allocation-free.
  auto payload = payload_of(static_cast<size_t>(state.range(0)));
  FrameBufPool pool;
  FrameHeader h;
  h.raw_size = static_cast<uint32_t>(payload.size());
  h.batch_count = 100;
  {
    FrameBufRef warm = pool.acquire();  // size the recycled buffer once
    encode_frame(h, payload, warm->buffer());
  }
  neptune::bench::reset_alloc_counts();
  for (auto _ : state) {
    FrameBufRef f = pool.acquire();
    encode_frame(h, payload, f->buffer());
    benchmark::DoNotOptimize(f->size());
  }
  report_allocs(state, neptune::bench::alloc_counts());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameEncodePooled)->Arg(128)->Arg(4096)->Arg(1 << 20);

void BM_FrameDecodeWholePooled(benchmark::State& state) {
  // The inproc receive fast path: wire bytes live in a pooled FrameBuf and
  // decode_whole_frame returns spans into it — zero payload copies, zero
  // allocations.
  auto payload = payload_of(static_cast<size_t>(state.range(0)));
  FrameBufRef wire = FrameBufPool::global().acquire();
  FrameHeader h;
  h.raw_size = static_cast<uint32_t>(payload.size());
  encode_frame(h, payload, wire->buffer());
  neptune::bench::reset_alloc_counts();
  for (auto _ : state) {
    auto decoded = neptune::decode_whole_frame(wire->contents());
    benchmark::DoNotOptimize(decoded.has_value());
  }
  report_allocs(state, neptune::bench::alloc_counts());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameDecodeWholePooled)->Arg(128)->Arg(4096)->Arg(1 << 20);

void BM_FrameCarveStream(benchmark::State& state) {
  // The TCP receive path: carve a recv chunk holding many small frames
  // (peek_frame_extent) and validate each (decode_whole_frame).
  auto payload = payload_of(static_cast<size_t>(state.range(0)));
  ByteBuffer wire;
  FrameHeader h;
  h.raw_size = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 64; ++i) encode_frame(h, payload, wire);
  for (auto _ : state) {
    int frames = 0;
    size_t off = 0;
    size_t extent = 0;
    while (neptune::peek_frame_extent({wire.data() + off, wire.size() - off}, &extent) ==
           neptune::FrameDecodeStatus::kFrame) {
      frames += neptune::decode_whole_frame({wire.data() + off, extent}).has_value();
      off += extent;
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_FrameCarveStream)->Arg(128)->Arg(4096);

void BM_Crc32(benchmark::State& state) {
  auto payload = payload_of(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(neptune::crc32(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_Crc32)->Arg(128)->Arg(65536)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
