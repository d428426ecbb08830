#include "harness.hpp"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/clock.hpp"
#include "net/tcp_transport.hpp"

namespace perfbench {

using neptune::now_ns;

uint64_t (*alloc_calls_hook)() = nullptr;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- LatencyRecorder ------------------------------------------------------------

namespace {
constexpr uint64_t kMaxValue = (uint64_t{1} << 44) - 1;  // ~4.9 hours in ns
constexpr size_t kSub = size_t{1} << 9;
}  // namespace

LatencyRecorder::LatencyRecorder() : buckets_(index_of(kMaxValue) + 1, 0) {}

size_t LatencyRecorder::index_of(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  int msb = 63 - __builtin_clzll(v);
  int shift = msb - kSubBits;
  return static_cast<size_t>(shift + 1) * kSub + static_cast<size_t>((v >> shift) - kSub);
}

uint64_t LatencyRecorder::lower_of(size_t idx) {
  if (idx < kSub) return idx;
  size_t shift = idx / kSub - 1;
  return static_cast<uint64_t>(idx % kSub + kSub) << shift;
}

void LatencyRecorder::record(int64_t ns) {
  uint64_t v = ns < 0 ? 0 : std::min<uint64_t>(static_cast<uint64_t>(ns), kMaxValue);
  ++buckets_[index_of(v)];
  ++count_;
}

void LatencyRecorder::merge(const LatencyRecorder& o) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double LatencyRecorder::quantile(double q) const {
  if (count_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  target = std::clamp<uint64_t>(target, 1, count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (seen + c >= target) {
      // Spread the bucket's samples evenly over its width.
      double width = static_cast<double>(lower_of(i + 1) - lower_of(i));
      double frac = (static_cast<double>(target - seen) - 0.5) / static_cast<double>(c);
      return static_cast<double>(lower_of(i)) + frac * width;
    }
    seen += c;
  }
  return static_cast<double>(kMaxValue);
}

void SlicedLatency::arm(int64_t begin_ns, int slices) {
  begin_ = begin_ns;
  slices_.assign(static_cast<size_t>(slices), LatencyRecorder());
}

// --- pacing ---------------------------------------------------------------------

void sleep_until_ns(int64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1'000'000'000), static_cast<long>(t_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// --- ProcSample -------------------------------------------------------------------

namespace {

int64_t read_schedstat_ns(const std::string& dir) {
  std::ifstream f(dir + "/schedstat");
  int64_t ns = 0;
  f >> ns;
  return ns;
}

std::string read_comm(const std::string& dir) {
  std::ifstream f(dir + "/comm");
  std::string s;
  std::getline(f, s);
  return s;
}

// Runtime thread names are "<resource>-w<K>" (workers) and
// "<resource>-io<K>" (IO loops); see granules::Resource::start.
enum class ThreadKind { kWorker, kIo, kOther };
ThreadKind classify(const std::string& comm) {
  size_t dash = comm.rfind('-');
  if (dash == std::string::npos || comm.compare(0, 3, "res") != 0) return ThreadKind::kOther;
  std::string tail = comm.substr(dash + 1);
  auto digits_from = [&](size_t i) {
    return i < tail.size() && std::all_of(tail.begin() + static_cast<long>(i), tail.end(),
                                          [](char c) { return c >= '0' && c <= '9'; });
  };
  if (tail.size() > 1 && tail[0] == 'w' && digits_from(1)) return ThreadKind::kWorker;
  if (tail.size() > 2 && tail.compare(0, 2, "io") == 0 && digits_from(2)) return ThreadKind::kIo;
  return ThreadKind::kOther;
}

}  // namespace

ProcSample ProcSample::take() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_ns = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000'000LL +
             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1000LL;
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      std::string dir = std::string("/proc/self/task/") + e->d_name;
      int64_t ns = read_schedstat_ns(dir);
      switch (classify(read_comm(dir))) {
        case ThreadKind::kWorker: s.worker_ns += ns; break;
        case ThreadKind::kIo: s.io_ns += ns; break;
        case ThreadKind::kOther: s.other_ns += ns; break;
      }
    }
    closedir(d);
  }
  read_host_ticks(s.host_total_ticks, s.host_steal_ticks);
  s.wall_ns = now_ns();
  return s;
}

void read_host_ticks(uint64_t& total, uint64_t& steal) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  total = steal = 0;
  for (int i = 0; i < 10 && stat; ++i) {
    uint64_t v = 0;
    stat >> v;
    total += v;
    if (i == 7) steal = v;
  }
}

SetupTimer::SetupTimer() : t0_(now_ns()) { read_host_ticks(total0_, steal0_); }

SetupSample SetupTimer::stop() const {
  SetupSample s;
  s.secs = static_cast<double>(now_ns() - t0_) * 1e-9;
  uint64_t total = 0, steal = 0;
  read_host_ticks(total, steal);
  s.host_ticks = total - total0_;
  s.steal_ticks = steal - steal0_;
  return s;
}

void SetupSample::add(const SetupSample& o) {
  secs += o.secs;
  host_ticks += o.host_ticks;
  steal_ticks += o.steal_ticks;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

void release_freed_memory() { malloc_trim(0); }

namespace {
double resident_mb() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}
}  // namespace

PeakRssProbe::PeakRssProbe(int64_t interval_ns)
    : interval_ns_(interval_ns), thread_([this] { run(); }) {}

PeakRssProbe::~PeakRssProbe() { finish(); }

void PeakRssProbe::run() {
  constexpr int64_t kSampleNs = 10'000'000;
  std::unique_lock lk(mu_);
  int64_t interval_end = now_ns() + interval_ns_;
  double peak = 0;
  while (!cv_.wait_for(lk, std::chrono::nanoseconds(kSampleNs), [&] { return stop_; })) {
    peak = std::max(peak, resident_mb());
    if (now_ns() >= interval_end) {
      peaks_.push_back(peak);
      peak = 0;
      interval_end += interval_ns_;
    }
  }
}

double PeakRssProbe::finish() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return peaks_.empty() ? peak_rss_mb() : median(peaks_);
}

// --- spans ------------------------------------------------------------------------

namespace {
std::mutex g_names_mu;
std::vector<std::string>& name_table() {
  static std::vector<std::string> t;
  return t;
}
}  // namespace

uint32_t SpanLog::intern(const std::string& name) {
  std::lock_guard lk(g_names_mu);
  auto& t = name_table();
  for (size_t i = 0; i < t.size(); ++i)
    if (t[i] == name) return static_cast<uint32_t>(i);
  t.push_back(name);
  return static_cast<uint32_t>(t.size() - 1);
}

std::vector<std::string> SpanLog::names() {
  std::lock_guard lk(g_names_mu);
  return name_table();
}

bool SpanLog::sample(uint32_t name, uint32_t every) {
  auto& c = calls_[name];
  bool take = c.first % every == 0;
  ++c.first;
  if (take) ++c.second;
  return take;
}

size_t SpanLog::open(uint32_t name, uint32_t parent, int64_t start_ns) {
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  spans_.push_back(s);
  return spans_.size() - 1;
}

std::shared_ptr<SpanLog> SpanRegistry::make() {
  auto log = std::make_shared<SpanLog>();
  std::lock_guard lk(mu_);
  logs_.push_back(log);
  return log;
}

std::vector<std::shared_ptr<SpanLog>> SpanRegistry::logs() const {
  std::lock_guard lk(mu_);
  return logs_;
}

namespace {
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

SpanTotals derive_totals(const SpanRegistry& reg) {
  SpanTotals t;
  std::vector<std::string> names = SpanLog::names();
  for (const auto& log : reg.logs()) {
    for (const Span& s : log->spans()) {
      if (s.end_ns == 0) continue;  // still open when the run ended
      const std::string& name = names.at(s.name);
      auto it = log->calls().find(s.name);
      double scale = 1.0;
      if (it != log->calls().end() && it->second.second > 0)
        scale = static_cast<double>(it->second.first) / static_cast<double>(it->second.second);
      double dur = static_cast<double>(s.end_ns - s.start_ns);
      t.emit_ns += static_cast<double>(s.child_ns) * scale;
      if (name == "checkpoint_now") {
        t.checkpoint_ms.push_back(dur * 1e-6);
      } else if (name == "sink.decode") {
        t.decode_ns += dur * scale;
      } else if (ends_with(name, ".process") || ends_with(name, ".on_batch")) {
        std::string type = name.substr(0, name.rfind('.'));
        t.self_ns[type] += (dur - static_cast<double>(s.child_ns)) * scale;
      }
    }
  }
  return t;
}

bool write_spans(const SpanRegistry& reg, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::string> names = SpanLog::names();
  size_t log_index = 0;
  for (const auto& log : reg.logs()) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"log\":%zu,\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"children\":%u,\"child_ns\":%lld}\n",
                   log_index, s.id, s.parent, names.at(s.name).c_str(),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.children, static_cast<long long>(s.child_ns));
    }
    ++log_index;
  }
  return std::fclose(f) == 0;
}

// --- wrappers -----------------------------------------------------------------------

EmitStatus TimedEmitter::emit(size_t link, StreamPacket&& p) {
  if (p.event_time_ns() == 0) p.set_event_time_ns(due_ns);
  if (log == nullptr) return inner->emit(link, std::move(p));
  int64_t t0 = now_ns();
  EmitStatus st = inner->emit(link, std::move(p));
  log->child(span, now_ns() - t0);
  return st;
}

EmitStatus TimedEmitter::emit(size_t link, const neptune::PacketView& v) {
  if (log == nullptr) return inner->emit(link, v);
  int64_t t0 = now_ns();
  EmitStatus st = inner->emit(link, v);
  log->child(span, now_ns() - t0);
  return st;
}

WrappedProcessor::WrappedProcessor(std::unique_ptr<neptune::StreamProcessor> inner,
                                   const std::string& type, std::shared_ptr<SpanLog> log)
    : inner_(std::move(inner)),
      log_(std::move(log)),
      process_name_(SpanLog::intern(type + ".process")),
      batch_name_(SpanLog::intern(type + ".on_batch")) {}

void WrappedProcessor::process(StreamPacket& packet, Emitter& out) {
  out_.inner = &out;
  out_.due_ns = packet.event_time_ns();
  if (log_ == nullptr || !log_->sample(process_name_, SpanLog::kEveryPacket)) {
    inner_->process(packet, out_);
    return;
  }
  out_.log = log_.get();
  out_.span = log_->open(process_name_, 0, now_ns());
  inner_->process(packet, out_);
  log_->close(out_.span, now_ns());
  out_.log = nullptr;
}

void WrappedProcessor::on_batch(neptune::BatchView& batch, Emitter& out) {
  out_.inner = &out;
  out_.due_ns = 0;
  if (log_ == nullptr || !log_->sample(batch_name_, SpanLog::kEveryBatch)) {
    inner_->on_batch(batch, out_);
    return;
  }
  out_.log = log_.get();
  out_.span = log_->open(batch_name_, 0, now_ns());
  inner_->on_batch(batch, out_);
  log_->close(out_.span, now_ns());
  out_.log = nullptr;
}

void WrappedProcessor::close(Emitter& out) {
  // Final flushes (open windows at end of stream) are timed from their
  // emission: no input packet triggered them.
  out_.inner = &out;
  out_.due_ns = 0;
  inner_->close(out_);
}

void WrappedProcessor::snapshot_state(neptune::ByteBuffer& out) const {
  if (auto* c = dynamic_cast<const neptune::Checkpointable*>(inner_.get())) c->snapshot_state(out);
}

void WrappedProcessor::restore_state(neptune::ByteReader& in) {
  if (auto* c = dynamic_cast<neptune::Checkpointable*>(inner_.get())) c->restore_state(in);
}

neptune::ProcessorFactory wrap(std::function<std::unique_ptr<neptune::StreamProcessor>()> make,
                               const std::string& type, SpanRegistry* spans) {
  return [make = std::move(make), type, spans] {
    return std::make_unique<WrappedProcessor>(make(), type, spans ? spans->make() : nullptr);
  };
}

// --- counters -------------------------------------------------------------------------

void LayerCounters::add(const LayerCounters& o) {
  flushes += o.flushes;
  timer_flushes += o.timer_flushes;
  bytes_out += o.bytes_out;
  executions += o.executions;
  blocked_ns += o.blocked_ns;
  serde_alloc_bytes += o.serde_alloc_bytes;
  frame_copies += o.frame_copies;
  wakeups += o.wakeups;
  dup_frames_dropped += o.dup_frames_dropped;
  reconnects += o.reconnects;
  seq_violations += o.seq_violations;
  tcp_sendmsg += o.tcp_sendmsg;
  tcp_iovecs += o.tcp_iovecs;
  tcp_rx_chunks += o.tcp_rx_chunks;
  tcp_rx_copies += o.tcp_rx_copies;
  emitting_instances = std::max(emitting_instances, o.emitting_instances);
}

LayerCounters read_counters(const neptune::Job& job, neptune::Runtime& rt) {
  using S = neptune::OperatorMetricsSnapshot;
  neptune::JobMetricsSnapshot m = job.metrics();
  LayerCounters c;
  c.flushes = m.total(&S::flushes);
  c.timer_flushes = m.total(&S::timer_flushes);
  c.bytes_out = m.total(&S::bytes_out);
  c.executions = m.total(&S::executions);
  c.blocked_ns = m.total(&S::blocked_ns);
  c.serde_alloc_bytes = m.total(&S::serde_alloc_bytes);
  c.frame_copies = m.total(&S::frame_copies);
  c.dup_frames_dropped = m.total(&S::dup_frames_dropped);
  c.reconnects = m.total(&S::reconnects);
  c.seq_violations = m.total(&S::seq_violations);
  for (const auto& op : m.operators)
    if (op.packets_out > 0 || op.bytes_out > 0) ++c.emitting_instances;
  for (size_t i = 0; i < rt.resource_count(); ++i) c.wakeups += rt.resource(i)->stats().scheduler_wakeups;
  auto& tcp = neptune::TcpTransportStats::global();
  c.tcp_sendmsg = tcp.sendmsg_calls.load(std::memory_order_relaxed);
  c.tcp_iovecs = tcp.sendmsg_iovecs.load(std::memory_order_relaxed);
  c.tcp_rx_chunks = tcp.rx_chunks.load(std::memory_order_relaxed);
  c.tcp_rx_copies = tcp.rx_copies.load(std::memory_order_relaxed);
  return c;
}

LayerCounters diff(const LayerCounters& e, const LayerCounters& b) {
  LayerCounters d;
  d.flushes = e.flushes - b.flushes;
  d.timer_flushes = e.timer_flushes - b.timer_flushes;
  d.bytes_out = e.bytes_out - b.bytes_out;
  d.executions = e.executions - b.executions;
  d.blocked_ns = e.blocked_ns - b.blocked_ns;
  d.serde_alloc_bytes = e.serde_alloc_bytes - b.serde_alloc_bytes;
  d.frame_copies = e.frame_copies - b.frame_copies;
  d.wakeups = e.wakeups - b.wakeups;
  d.dup_frames_dropped = e.dup_frames_dropped - b.dup_frames_dropped;
  d.reconnects = e.reconnects - b.reconnects;
  d.seq_violations = e.seq_violations - b.seq_violations;
  d.tcp_sendmsg = e.tcp_sendmsg - b.tcp_sendmsg;
  d.tcp_iovecs = e.tcp_iovecs - b.tcp_iovecs;
  d.tcp_rx_chunks = e.tcp_rx_chunks - b.tcp_rx_chunks;
  d.tcp_rx_copies = e.tcp_rx_copies - b.tcp_rx_copies;
  d.emitting_instances = std::max(e.emitting_instances, b.emitting_instances);
  return d;
}

Edge take_edge(uint64_t delivered, int64_t gen_ns, const neptune::Job& job, neptune::Runtime& rt) {
  Edge e;
  e.counters = read_counters(job, rt);
  e.allocs = alloc_calls_hook ? alloc_calls_hook() : 0;
  e.delivered = delivered;
  e.gen_ns = gen_ns;
  e.proc = ProcSample::take();
  return e;
}

void account_window(const Edge& b, const Edge& e, RunResult& r) {
  r.delivered += e.delivered - b.delivered;
  int64_t gen = e.gen_ns - b.gen_ns;
  r.gen_ns += gen;
  r.allocs += e.allocs - b.allocs;
  ProcSample& d = r.proc_delta;
  d.wall_ns += e.proc.wall_ns - b.proc.wall_ns;
  d.cpu_ns += e.proc.cpu_ns - b.proc.cpu_ns;
  d.ctx_switches += e.proc.ctx_switches - b.proc.ctx_switches;
  d.worker_ns += e.proc.worker_ns - b.proc.worker_ns;
  d.io_ns += e.proc.io_ns - b.proc.io_ns;
  d.other_ns += e.proc.other_ns - b.proc.other_ns;
  d.host_total_ticks += e.proc.host_total_ticks - b.proc.host_total_ticks;
  d.host_steal_ticks += e.proc.host_steal_ticks - b.proc.host_steal_ticks;
  r.counters.add(diff(e.counters, b.counters));
}

int slices_in(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * 1e9 / static_cast<double>(kSliceNs))));
}

std::vector<Edge> sample_window(int64_t begin_ns, int slices, const std::function<Edge()>& take,
                                const std::function<void(int64_t)>& idle_until) {
  std::vector<Edge> edges;
  idle_until(begin_ns);
  edges.push_back(take());
  for (int i = 1; i <= slices; ++i) {
    idle_until(begin_ns + i * kSliceNs);
    edges.push_back(take());
  }
  return edges;
}

namespace {
std::vector<Slice> slices_of(const std::vector<Edge>& edges,
                             const std::vector<const SlicedLatency*>& lats) {
  std::vector<Slice> out(edges.size() - 1);
  for (size_t i = 0; i < out.size(); ++i) {
    const Edge& b = edges[i];
    const Edge& e = edges[i + 1];
    Slice& s = out[i];
    s.wall_ns = e.proc.wall_ns - b.proc.wall_ns;
    s.delivered = e.delivered - b.delivered;
    s.cpu_ns = (e.proc.cpu_ns - b.proc.cpu_ns) - (e.gen_ns - b.gen_ns);
    s.host_ticks = e.proc.host_total_ticks - b.proc.host_total_ticks;
    s.steal_ticks = e.proc.host_steal_ticks - b.proc.host_steal_ticks;
    for (const SlicedLatency* l : lats)
      if (i < l->slices().size()) s.latency.merge(l->slices()[i]);
  }
  return out;
}

void pool(std::vector<Slice>& into, const std::vector<Slice>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (size_t i = 0; i < from.size(); ++i) into[i].add(from[i]);
}
}  // namespace

void account_slices(const std::vector<Edge>& edges, const std::vector<const SlicedLatency*>& lats,
                    RunResult& r) {
  RunResult w;
  account_window(edges.front(), edges.back(), w);
  w.slices = slices_of(edges, lats);
  for (const Slice& s : w.slices) w.latency.merge(s.latency);
  r.add_phase(w);
}

void account_latency_slices(const std::vector<Edge>& edges,
                            const std::vector<const SlicedLatency*>& lats, RunResult& r) {
  std::vector<Slice> slices = slices_of(edges, lats);
  for (const Slice& s : slices) r.latency.merge(s.latency);
  pool(r.latency_slices, slices);
}

void Slice::add(const Slice& o) {
  wall_ns += o.wall_ns;
  delivered += o.delivered;
  cpu_ns += o.cpu_ns;
  host_ticks += o.host_ticks;
  steal_ticks += o.steal_ticks;
  latency.merge(o.latency);
}

std::vector<const Slice*> RunResult::quiet(const std::vector<Slice>& of) {
  std::vector<double> shares;
  for (const Slice& s : of) shares.push_back(s.steal_share());
  double limit = median(shares);
  std::vector<const Slice*> kept;
  for (const Slice& s : of)
    if (s.steal_share() <= limit) kept.push_back(&s);
  return kept;
}

double RunResult::setup_median() const {
  std::vector<double> shares, kept;
  for (const SetupSample& s : setups) shares.push_back(s.steal_share());
  double limit = median(shares);
  for (const SetupSample& s : setups)
    if (s.steal_share() <= limit) kept.push_back(s.secs);
  return median(kept);
}

double RunResult::slice_throughput() const {
  std::vector<double> v;
  for (const Slice* s : quiet_slices())
    if (s->wall_ns > 0) v.push_back(static_cast<double>(s->delivered) * 1e9 / static_cast<double>(s->wall_ns));
  return median(v);
}

double RunResult::slice_cpu_per_pkt() const {
  std::vector<double> v;
  for (const Slice* s : quiet_slices())
    if (s->delivered > 0) v.push_back(static_cast<double>(s->cpu_ns) / static_cast<double>(s->delivered));
  return median(v);
}

LatencyRecorder RunResult::quiet_latency() const {
  LatencyRecorder pooled;
  for (const Slice* s : quiet(latency_slices.empty() ? slices : latency_slices))
    pooled.merge(s->latency);
  return pooled;
}

// --- results ---------------------------------------------------------------------------

void RunResult::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void RunResult::add_phase(const RunResult& p) {
  correct = correct && p.correct;
  errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  expected += p.expected;
  failed += p.failed;
  delivered += p.delivered;
  gen_ns += p.gen_ns;
  ProcSample& d = proc_delta;
  d.wall_ns += p.proc_delta.wall_ns;
  d.cpu_ns += p.proc_delta.cpu_ns;
  d.ctx_switches += p.proc_delta.ctx_switches;
  d.worker_ns += p.proc_delta.worker_ns;
  d.io_ns += p.proc_delta.io_ns;
  d.other_ns += p.proc_delta.other_ns;
  d.host_total_ticks += p.proc_delta.host_total_ticks;
  d.host_steal_ticks += p.proc_delta.host_steal_ticks;
  latency.merge(p.latency);
  pool(slices, p.slices);
  pool(latency_slices, p.latency_slices);
  lag.merge(p.lag);
  setups.insert(setups.end(), p.setups.begin(), p.setups.end());
  peak_rss_mb = std::max(peak_rss_mb, p.peak_rss_mb);
  counters.add(p.counters);
  source_bytes += p.source_bytes;
  source_wire_bytes += p.source_wire_bytes;
  checkpoints += p.checkpoints;
  quiesce_timeouts += p.quiesce_timeouts;
  reference_ns += p.reference_ns;
  reference_packets += p.reference_packets;
  allocs += p.allocs;
  untraced_packets += p.untraced_packets;
  proc.packets += p.proc.packets;
  proc.supervisor_cpu_ns += p.proc.supervisor_cpu_ns;
  proc.workers_cpu_ns += p.proc.workers_cpu_ns;
  proc.worker_peak_rss_mb = std::max(proc.worker_peak_rss_mb, p.proc.worker_peak_rss_mb);
  proc.checkpoints += p.proc.checkpoints;
  proc.quiesce_timeouts += p.proc.quiesce_timeouts;
  stall_dumps.insert(stall_dumps.end(), p.stall_dumps.begin(), p.stall_dumps.end());
}

void drain_setup(neptune::Job& job, const std::string& label, RunResult& r) {
  ++r.expected;
  if (!drain_or_stall(job, 10.0, label + " set-up deploy", r)) ++r.failed;
}

std::string dump_operator_counters(const neptune::JobMetricsSnapshot& m) {
  std::ostringstream os;
  for (const auto& op : m.operators) {
    os << "{\"operator\":\"" << op.operator_id << "\",\"instance\":" << op.instance
       << ",\"packets_in\":" << op.packets_in << ",\"packets_out\":" << op.packets_out
       << ",\"blocked_sends\":" << op.blocked_sends
       << ",\"outbound_buffered_bytes\":" << op.outbound_buffered_bytes
       << ",\"inbound_ready_batches\":" << op.inbound_ready_batches << "}\n";
  }
  return os.str();
}

bool drain_or_stall(neptune::Job& job, double deadline_s, const std::string& label, RunResult& r) {
  if (job.wait(std::chrono::nanoseconds(static_cast<int64_t>(deadline_s * 1e9)))) return true;
  r.fail(label + ": no progress before the " + std::to_string(deadline_s) + " s deadline");
  r.stall_dumps.push_back(label + "\n" + dump_operator_counters(job.metrics()));
  job.stop();
  job.wait(std::chrono::seconds(5));
  return false;
}

}  // namespace perfbench
