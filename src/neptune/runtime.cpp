#include "neptune/runtime.hpp"

#include <cstdlib>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"
#include "obs/build_info.hpp"
#include "obs/http_server.hpp"
#include "obs/incident.hpp"
#include "obs/trace.hpp"

namespace neptune {

// --- Job -----------------------------------------------------------------------

Job::~Job() {
  for (size_t i = 0; i < timers_.size(); ++i) timer_loops_[i]->cancel_timer(timers_[i]);
}

void Job::start() {
  start_ns_.store(now_ns());
  // Kick every source instance once; they self-reschedule from then on.
  for (auto& inst : instances_) inst->wake();
}

void Job::on_instance_done(const detail::InstanceRuntime& inst) {
  std::lock_guard lk(done_mu_);
  ++done_count_;
  if (done_count_ == instances_.size()) end_ns_.store(now_ns(), std::memory_order_release);
  checkpoint_.on_barrier(inst, checkpoint_.epoch());  // its final state
  done_cv_.notify_all();
}

void Job::on_barrier(const detail::InstanceRuntime& inst, uint64_t epoch) {
  std::lock_guard lk(done_mu_);
  checkpoint_.on_barrier(inst, epoch);
  done_cv_.notify_all();
}

void Job::begin_checkpoint(uint64_t epoch) {
  std::vector<detail::InstanceRuntime*> instances;
  for (auto& inst : instances_) instances.push_back(inst.get());
  std::lock_guard lk(done_mu_);
  checkpoint_.begin(epoch, instances);
  done_cv_.notify_all();
}

std::optional<JobSnapshot> Job::await_checkpoint(uint64_t epoch,
                                                 std::chrono::nanoseconds timeout) {
  std::unique_lock lk(done_mu_);
  done_cv_.wait_for(lk, timeout, [&] {
    return checkpoint_.epoch() != epoch || checkpoint_.complete() || stopped_ || failed();
  });
  // A stopped or failed job's instances report no consistent cut.
  if (stopped_ || failed() || checkpoint_.epoch() != epoch || !checkpoint_.complete())
    return std::nullopt;
  return checkpoint_.take();
}

bool Job::wait_idle(std::chrono::nanoseconds timeout) {
  return executing_->wait_idle(timeout);
}

bool Job::wait(std::chrono::nanoseconds timeout) {
  std::unique_lock lk(done_mu_);
  return done_cv_.wait_for(lk, timeout, [&] { return done_count_ == instances_.size(); });
}

bool Job::completed() const {
  std::lock_guard lk(done_mu_);
  return done_count_ == instances_.size();
}

void Job::set_failure_handler(std::function<void(const std::string&)> handler) {
  std::lock_guard lk(failure_mu_);
  failure_handler_ = std::move(handler);
}

std::string Job::failure_reason() const {
  std::lock_guard lk(failure_mu_);
  return failure_reason_;
}

void Job::report_failure(const std::string& what) {
  std::function<void(const std::string&)> handler;
  {
    std::lock_guard lk(failure_mu_);
    if (failed_.exchange(true, std::memory_order_acq_rel)) return;  // first failure wins
    failure_reason_ = what;
    handler = failure_handler_;
  }
  {
    std::lock_guard lk(done_mu_);  // release a checkpoint waiter
    done_cv_.notify_all();
  }
  NEPTUNE_LOG_ERROR("job %s: permanent failure: %s", name_.c_str(), what.c_str());
  if (handler) handler(what);
}

void Job::stop() {
  {
    std::lock_guard lk(done_mu_);
    stopped_ = true;
    done_cv_.notify_all();
  }
  for (auto& inst : instances_) {
    inst->request_stop();
    inst->wake();
  }
}

void Job::restore_state(const JobSnapshot& snapshot) {
  for (auto& inst : instances_) inst->restore_state(snapshot);
}

void Job::note_watchdog_stall(const std::string& op_id, uint32_t instance) {
  for (auto& inst : instances_) {
    if (inst->op_id() == op_id && inst->instance_index() == instance) {
      inst->metrics().watchdog_stalls.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

JobMetricsSnapshot Job::metrics() const {
  JobMetricsSnapshot snap;
  for (const auto& inst : instances_) {
    OperatorMetricsSnapshot m = snapshot_of(inst->metrics());
    m.operator_id = inst->op_id();
    m.instance = inst->instance_index();
    snap.operators.push_back(std::move(m));
  }
  int64_t end = end_ns_.load(std::memory_order_acquire);
  snap.wall_time_ns = (end != 0 ? end : now_ns()) - start_ns_.load();
  return snap;
}

// --- Runtime ----------------------------------------------------------------------

Runtime::Runtime(size_t resources, granules::ResourceConfig base_config, RuntimeOptions options)
    : options_(options) {
  if (resources == 0) resources = 1;
  for (size_t i = 0; i < resources; ++i) {
    granules::ResourceConfig cfg = base_config;
    if (cfg.name == "resource") cfg.name = "res" + std::to_string(i);
    resources_.push_back(std::make_unique<granules::Resource>(cfg));
    resources_.back()->start();
  }

  // Build identity on /metrics for every runtime, however it's scraped.
  obs::ensure_build_info_registered();

  // Incident reporter ("black box" dumps): explicit dir via options, or
  // opt-in through the NEPTUNE_INCIDENT_DIR env var. First configurer wins
  // so a bench spawning several runtimes keeps one bundle directory.
  std::string incident_dir = options_.obs.incident_dir;
  if (incident_dir.empty()) {
    if (const char* env = std::getenv("NEPTUNE_INCIDENT_DIR")) incident_dir = env;
  }
  if (!incident_dir.empty() && obs::IncidentReporter::active() == nullptr) {
    obs::IncidentOptions inc;
    inc.dir = incident_dir;
    inc.max_bundles = options_.obs.incident_max_bundles;
    obs::IncidentReporter::configure_global(std::move(inc));
    NEPTUNE_LOG_INFO("incident reporter writing to %s", incident_dir.c_str());
  }

  // Observability endpoint: explicit port via options, or opt-in through the
  // NEPTUNE_METRICS_PORT env var so any bench/example can be scraped without
  // code changes. A failed bind degrades to "no endpoint", never to a crash.
  int port = options_.obs.metrics_port;
  if (port < 0) {
    if (const char* env = std::getenv("NEPTUNE_METRICS_PORT")) port = std::atoi(env);
  }
  if (port >= 0 && port <= 65535) {
    sampler_ = std::make_unique<obs::TelemetrySampler>(obs::TelemetryRegistry::global(),
                                                       options_.obs.sampler);
    sampler_->start();
    try {
      metrics_server_ = std::make_unique<obs::MetricsHttpServer>(
          static_cast<uint16_t>(port), &obs::TelemetryRegistry::global(), sampler_.get(),
          &obs::TraceCollector::global());
      NEPTUNE_LOG_INFO("metrics endpoint on 127.0.0.1:%u", metrics_server_->port());
    } catch (const std::exception& e) {
      NEPTUNE_LOG_WARN("metrics endpoint disabled: %s", e.what());
      sampler_->stop();
      sampler_.reset();
    }
  }
}

Runtime::~Runtime() { shutdown(); }

void Runtime::shutdown() {
  if (metrics_server_) metrics_server_->stop();
  if (sampler_) sampler_->stop();
  std::vector<std::shared_ptr<Job>> jobs;
  {
    std::lock_guard lk(jobs_mu_);
    jobs.swap(jobs_);
  }
  for (auto& job : jobs) {
    if (!job->completed()) job->stop();
  }
  // Join the workers before the jobs are released: an instance still
  // finishing its stop reports completion to its Job.
  for (auto& r : resources_) r->stop();
}

namespace {

/// Registers the process-wide TCP transport counters as telemetry series the
/// first time a TCP edge is built. The stats object and the handles are both
/// process-lifetime (leaked), matching TcpTransportStats::global().
void register_tcp_transport_telemetry() {
  static const bool once = [] {
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    TcpTransportStats& s = TcpTransportStats::global();
    auto counter = [&](const char* name, const char* help,
                       const std::atomic<uint64_t>& field) {
      return reg.register_series({name, {}, obs::SeriesKind::kCounter, help},
                                 [&field] {
                                   return static_cast<double>(
                                       field.load(std::memory_order_relaxed));
                                 });
    };
    static std::vector<obs::TelemetryRegistry::Handle>* handles =
        new std::vector<obs::TelemetryRegistry::Handle>();
    handles->push_back(counter("neptune_tcp_rx_copies_total",
                               "Partial-frame tails spliced across pooled recv chunks",
                               s.rx_copies));
    handles->push_back(counter("neptune_tcp_rx_splice_bytes_total",
                               "Bytes moved by cross-chunk partial-frame splices",
                               s.rx_splice_bytes));
    handles->push_back(counter("neptune_tcp_tx_frames_total",
                               "Frames enqueued on TCP connections", s.tx_frames));
    handles->push_back(counter("neptune_tcp_rx_frames_total",
                               "Whole frames carved from pooled recv chunks", s.rx_frames));
    handles->push_back(counter("neptune_tcp_sendmsg_calls_total",
                               "sendmsg() drain syscalls issued", s.sendmsg_calls));
    handles->push_back(reg.register_series(
        {"neptune_tcp_sendmsg_iovecs_avg",
         {},
         obs::SeriesKind::kGauge,
         "Mean iovecs per sendmsg (scatter-gather batching factor)"},
        [&s] {
          uint64_t calls = s.sendmsg_calls.load(std::memory_order_relaxed);
          if (calls == 0) return 0.0;
          return static_cast<double>(s.sendmsg_iovecs.load(std::memory_order_relaxed)) /
                 static_cast<double>(calls);
        }));
    return true;
  }();
  (void)once;
}

}  // namespace

Runtime::EdgeChannel Runtime::make_edge_channel(granules::Resource* src, granules::Resource* dst,
                                                const ChannelConfig& config,
                                                const fault::EdgeId& edge,
                                                OperatorMetrics* src_metrics,
                                                OperatorMetrics* dst_metrics,
                                                const std::shared_ptr<Job>& job) {
  fault::FaultInjector* injector = options_.fault_injector.get();
  if (src == dst || options_.cross_resource_transport == EdgeTransport::kInproc) {
    // SPSC ring: each edge has exactly one producing StreamBuffer
    // (serialized by its mutex, including timer-thread flushes) and one
    // consuming task — with or without fault decorators on top.
    InprocPipe pipe = make_inproc_pipe(config);
    return {fault::wrap_sender(injector, edge, pipe.sender, src->io_loop(0)),
            fault::wrap_receiver(injector, edge, pipe.receiver, dst->io_loop(0))};
  }
  // Self-healing TCP edge: the receiver keeps a persistent listener so the
  // sender can reconnect after any failure; the injector (if any) is
  // applied *inside* the supervision, per connection incarnation.
  register_tcp_transport_telemetry();
  auto receiver = std::make_shared<fault::SupervisedTcpReceiver>(
      dst->io_loop(0), config, options_.supervisor, edge, injector,
      dst_metrics ? &dst_metrics->corrupt_frames_dropped : nullptr);
  auto sender = std::make_shared<fault::SupervisedTcpSender>(
      src->io_loop(0), receiver->port(), config, options_.supervisor, edge, injector,
      src_metrics ? &src_metrics->reconnects : nullptr,
      // Weak: channels can outlive the Job (resources hold task refs), and
      // a late budget-exhaustion report must not touch a freed Job.
      [weak_job = std::weak_ptr<Job>(job)](const std::string& what) {
        if (auto j = weak_job.lock()) j->report_failure(what);
      });
  return {sender, receiver};
}

// Topology descriptor for incident bundles: flightdump joins flush events
// (link id) to downstream dispatches through the links' "to" field.
void Runtime::note_topology_for_incidents(const StreamGraph& graph) {
  auto reporter = obs::IncidentReporter::active();
  if (!reporter) return;
  JsonObject topo;
  topo["job"] = JsonValue(graph.name());
  JsonArray ops;
  for (const OperatorDecl& op : graph.operators()) {
    JsonObject o;
    o["id"] = JsonValue(op.id);
    o["parallelism"] = JsonValue(static_cast<int64_t>(op.parallelism));
    ops.push_back(JsonValue(std::move(o)));
  }
  topo["operators"] = JsonValue(std::move(ops));
  JsonArray links;
  for (const LinkDecl& link : graph.links()) {
    JsonObject l;
    l["id"] = JsonValue(static_cast<int64_t>(link.link_id));
    l["from"] = JsonValue(graph.operators()[link.from_op].id);
    l["to"] = JsonValue(graph.operators()[link.to_op].id);
    links.push_back(JsonValue(std::move(l)));
  }
  topo["links"] = JsonValue(std::move(links));
  reporter->note_topology(JsonValue(std::move(topo)));
}

/// An instance as this runtime places it: the granules resource it runs on
/// and the task id it is deployed under. The wake hook reads the id, which
/// stays 0 until deploy: a remote slice may send before this one finished
/// wiring, and that early wake is a no-op (Job::start kicks every task).
struct Runtime::Placed {
  std::shared_ptr<detail::InstanceRuntime> rt;
  granules::Resource* resource = nullptr;
  std::shared_ptr<std::atomic<uint64_t>> task_id;
};

std::shared_ptr<Job> Runtime::submit(const StreamGraph& graph) {
  graph.validate();
  const GraphConfig& cfg = graph.config();

  note_topology_for_incidents(graph);

  auto job = std::shared_ptr<Job>(new Job());
  job->name_ = graph.name();
  if (options_.quarantine.enabled)
    job->dead_letters_ = std::make_shared<fault::DeadLetterQueue>(options_.quarantine.dead_letter);

  // 1. Instantiate operator instances. Placement: explicit resource pin, or
  //    round-robin over resources.
  OpInstances op_instances(graph.operators().size());
  size_t placement_cursor = 0;
  for (size_t oi = 0; oi < graph.operators().size(); ++oi) {
    const OperatorDecl& op = graph.operators()[oi];
    for (uint32_t inst = 0; inst < op.parallelism; ++inst) {
      size_t res_index = op.resource >= 0 ? static_cast<size_t>(op.resource) % resources_.size()
                                          : placement_cursor++ % resources_.size();
      op_instances[oi].push_back(make_instance(op, inst, cfg, resources_[res_index].get(), job));
    }
  }

  // 2. Wire links: one channel + StreamBuffer per (src-instance, dst-instance).
  for (const LinkDecl& link : graph.links()) {
    auto& srcs = op_instances[link.from_op];
    link.partitioning->prepare(static_cast<uint32_t>(srcs.size()));
    for (Placed& src : srcs) {
      for (Placed& dst : op_instances[link.to_op]) wire_local_edge(link, cfg, src, dst, job);
    }
  }

  // 3. Deploy tasks and flush timers (the wake hooks read the task id at
  //    fire time, and nothing fires before start()), 4. telemetry.
  deploy_instances(job, op_instances);
  register_job_telemetry(job);

  {
    std::lock_guard lk(jobs_mu_);
    jobs_.push_back(job);
  }
  return job;
}

Runtime::Placed Runtime::make_instance(const OperatorDecl& op, uint32_t inst,
                                       const GraphConfig& cfg, granules::Resource* resource,
                                       const std::shared_ptr<Job>& job) {
  auto task_id = std::make_shared<std::atomic<uint64_t>>(0);
  detail::InstanceHost* host = job.get();
  auto rt = std::make_shared<detail::InstanceRuntime>(
      op.id, inst, op.parallelism, op.kind, cfg, host, &SteadyClock::instance(),
      [resource, task_id] {
        if (uint64_t id = task_id->load(std::memory_order_acquire)) resource->notify_data(id);
      });
  if (op.kind == OperatorKind::kSource) {
    rt->source = op.source_factory();
  } else {
    rt->processor = op.processor_factory();
  }
  rt->dlq = job->dead_letters_;
  rt->executing = job->executing_;
  rt->packet_deadline_ns = options_.quarantine.packet_deadline_ns;
  return Placed{std::move(rt), resource, std::move(task_id)};
}

void Runtime::wire_local_edge(const LinkDecl& link, const GraphConfig& cfg, Placed& src,
                              Placed& dst, const std::shared_ptr<Job>& job) {
  uint32_t si = src.rt->instance_index();
  uint32_t di = dst.rt->instance_index();
  EdgeChannel pipe = make_edge_channel(src.resource, dst.resource, cfg.channel,
                                       fault::EdgeId{link.link_id, si, di}, &src.rt->metrics(),
                                       &dst.rt->metrics(), job);
  // Backpressure wiring (paper §III-B4): the sender is woken when the edge
  // drains below its low watermark, the receiver when data lands.
  src.rt->add_output(link, pipe.sender);
  dst.rt->add_input(link, si, pipe.receiver);
  // In-flight gauge for this edge: bytes accepted by the sender that the
  // receiver has not yet pulled — the backpressure-visible lag.
  job->telemetry_.push_back(obs::TelemetryRegistry::global().register_series(
      {"neptune_edge_inflight_bytes",
       {{"job", job->name_},
        {"link", std::to_string(link.link_id)},
        {"src", std::to_string(si)},
        {"dst", std::to_string(di)}},
       obs::SeriesKind::kGauge,
       "Bytes in flight on the edge (sent minus received)"},
      [tx = pipe.sender, rx = pipe.receiver] {
        uint64_t sent = tx->bytes_sent();
        uint64_t recv = rx->bytes_received();
        return sent > recv ? static_cast<double>(sent - recv) : 0.0;
      }));
}

// One periodic flush timer per instance that has a timed output buffer, on
// its resource's IO loop.
void Runtime::deploy_instances(const std::shared_ptr<Job>& job, OpInstances& op_instances) {
  for (auto& group : op_instances) {
    for (Placed& p : group) {
      p.task_id->store(p.resource->deploy(p.rt, granules::ScheduleSpec::on_data()),
                       std::memory_order_release);
      job->instances_.push_back(p.rt);
      if (int64_t period = p.rt->flush_timer_period_ns(); period > 0) {
        EventLoop* loop = p.resource->io_loop(0);
        auto weak = std::weak_ptr<detail::InstanceRuntime>(p.rt);
        job->timers_.push_back(loop->run_every(period, [weak] {
          if (auto inst = weak.lock()) inst->on_flush_timer();
        }));
        job->timer_loops_.push_back(loop);
      }
    }
  }
}

// Register one set of series per operator instance. Samplers capture
// shared_ptrs, so the series stay valid for exactly as long as the handles
// (owned by the Job) live.
void Runtime::register_job_telemetry(const std::shared_ptr<Job>& job) {
  {
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    const std::string& job_name = job->name_;
    auto labels = [&](const std::shared_ptr<detail::InstanceRuntime>& inst) {
      return std::vector<std::pair<std::string, std::string>>{
          {"job", job_name},
          {"op", inst->op_id()},
          {"inst", std::to_string(inst->instance_index())}};
    };
    for (auto& inst : job->instances_) {
      struct CounterSpec {
        const char* name;
        const char* help;
        std::atomic<uint64_t> OperatorMetrics::* field;
      };
      static constexpr CounterSpec kCounters[] = {
          {"neptune_packets_in_total", "Packets processed by the instance",
           &OperatorMetrics::packets_in},
          {"neptune_packets_out_total", "Packets emitted by the instance",
           &OperatorMetrics::packets_out},
          {"neptune_bytes_out_total", "Wire bytes sent (framed, post-compression)",
           &OperatorMetrics::bytes_out},
          {"neptune_flushes_total", "Stream buffer flushes", &OperatorMetrics::flushes},
          {"neptune_blocked_sends_total", "Flushes rejected by flow control",
           &OperatorMetrics::blocked_sends},
          {"neptune_executions_total", "Scheduled executions of the instance task",
           &OperatorMetrics::executions},
          {"neptune_serde_alloc_bytes_total",
           "Heap bytes allocated deserializing inbound packets (string/bytes fields)",
           &OperatorMetrics::serde_alloc_bytes},
          {"neptune_frame_copies_total",
           "Inbound frames copied on receive (0: channels hand over whole pooled frames)",
           &OperatorMetrics::frame_copies},
          {"neptune_batch_dispatches_total", "Batches dispatched to on_batch() as views",
           &OperatorMetrics::batch_dispatches},
          {"neptune_packets_shed_total",
           "Best-effort packets dropped by admission control / load shedding",
           &OperatorMetrics::packets_shed},
          {"neptune_shed_bytes_total", "Serialized bytes the shed packets would have sent",
           &OperatorMetrics::shed_bytes},
          {"neptune_shed_gaps_total",
           "Packets a receiver observed missing on lossy (best-effort) edges",
           &OperatorMetrics::shed_gaps},
          {"neptune_packets_quarantined_total",
           "Poison packets / batch remainders captured to the dead-letter queue",
           &OperatorMetrics::packets_quarantined},
          {"neptune_deadline_overruns_total",
           "Dispatches that exceeded the configured per-packet deadline",
           &OperatorMetrics::deadline_overruns},
          {"neptune_watchdog_stalls_detected_total",
           "Watchdog stall detections attributed to this instance",
           &OperatorMetrics::watchdog_stalls},
      };
      for (const CounterSpec& c : kCounters) {
        job->telemetry_.push_back(reg.register_series(
            {c.name, labels(inst), obs::SeriesKind::kCounter, c.help},
            [inst, field = c.field] {
              return static_cast<double>(
                  (inst->metrics().*field).load(std::memory_order_relaxed));
            }));
      }
      job->telemetry_.push_back(reg.register_series(
          {"neptune_blocked_seconds_total", labels(inst), obs::SeriesKind::kCounter,
           "Cumulative time the instance's outputs sat blocked by backpressure"},
          [inst] {
            return static_cast<double>(
                       inst->metrics().blocked_ns.load(std::memory_order_relaxed)) * 1e-9;
          }));
      // Occupancy gauge: walks the instance's stream buffers (brief per-buffer
      // locks) and refreshes the OperatorMetrics mirror as a side effect.
      job->telemetry_.push_back(reg.register_series(
          {"neptune_outbound_buffered_bytes", labels(inst), obs::SeriesKind::kGauge,
           "Bytes parked in the instance's outbound stream buffers"},
          [inst] {
            size_t total = 0;
            for (const auto& out : inst->outputs) {
              for (const auto& buf : out.dst) total += buf->buffered_bytes();
            }
            inst->metrics().outbound_buffered_bytes.store(static_cast<int64_t>(total),
                                                          std::memory_order_relaxed);
            return static_cast<double>(total);
          }));
      job->telemetry_.push_back(reg.register_series(
          {"neptune_ready_batches", labels(inst), obs::SeriesKind::kGauge,
           "Decoded inbound batches awaiting execution"},
          [inst] {
            return static_cast<double>(
                inst->metrics().inbound_ready_batches.load(std::memory_order_relaxed));
          }));
      if (inst->outputs.empty()) {
        job->telemetry_.push_back(reg.register_series(
            {"neptune_sink_latency_p99_seconds", labels(inst), obs::SeriesKind::kGauge,
             "End-to-end p99 latency observed at the sink"},
            [inst] {
              const LatencyHistogram& h = inst->metrics().sink_latency;
              return h.count() == 0 ? 0.0 : static_cast<double>(h.percentile(99)) * 1e-9;
            }));
      }
    }
    if (job->dead_letters_) {
      job->telemetry_.push_back(reg.register_series(
          {"neptune_dead_letter_entries",
           {{"job", job_name}},
           obs::SeriesKind::kGauge,
           "Entries retained in the job's dead-letter queue (memory + spilled)"},
          [dlq = job->dead_letters_] { return static_cast<double>(dlq->size()); }));
      job->telemetry_.push_back(reg.register_series(
          {"neptune_dead_letter_dropped_total",
           {{"job", job_name}},
           obs::SeriesKind::kCounter,
           "Quarantined entries discarded by the dead-letter queue's bounds"},
          [dlq = job->dead_letters_] { return static_cast<double>(dlq->dropped()); }));
    }
  }
}

namespace {

// Cross-process edges need a pre-agreed port; a missing entry means the
// slice plan and the topology drifted apart — fail before any task runs.
uint16_t slice_edge_port(const SliceOptions& slice, const fault::EdgeId& edge) {
  auto it = slice.edge_ports.find({edge.link_id, edge.src_instance, edge.dst_instance});
  if (it == slice.edge_ports.end())
    throw GraphError("submit_slice: no port assigned for cross-process edge link=" +
                     std::to_string(edge.link_id) + " src=" + std::to_string(edge.src_instance) +
                     " dst=" + std::to_string(edge.dst_instance) +
                     " — was the port plan built from the same topology?");
  return it->second;
}

}  // namespace

std::shared_ptr<Job> Runtime::submit_slice(const StreamGraph& graph, const SliceOptions& slice) {
  graph.validate();
  const GraphConfig& cfg = graph.config();
  if (resources_.size() != 1)
    throw GraphError("submit_slice: the worker Runtime must own exactly one resource "
                     "(one OS process per resource)");
  if (slice.total_resources == 0 || slice.local_resource >= slice.total_resources)
    throw GraphError("submit_slice: local_resource " + std::to_string(slice.local_resource) +
                     " out of range for " + std::to_string(slice.total_resources) + " resources");
  // Multi-process placement must be explicit: round-robin placement would
  // need every worker to agree on a cursor, which is exactly the kind of
  // implicit coordination that breaks under recovery. topology_lint
  // --slices N checks this statically.
  for (const OperatorDecl& op : graph.operators()) {
    if (op.resource < 0 || static_cast<size_t>(op.resource) >= slice.total_resources)
      throw GraphError("submit_slice: operator '" + op.id +
                       "' needs an explicit resource pin in [0, " +
                       std::to_string(slice.total_resources) + ")");
  }

  note_topology_for_incidents(graph);

  auto job = std::shared_ptr<Job>(new Job());
  job->name_ = graph.name();
  granules::Resource* local = resources_[0].get();
  if (options_.quarantine.enabled)
    job->dead_letters_ = std::make_shared<fault::DeadLetterQueue>(options_.quarantine.dead_letter);

  // 1. Instantiate only the local operators' instances; remote operators
  //    keep empty slots so link wiring can index by op.
  OpInstances op_instances(graph.operators().size());
  for (size_t oi = 0; oi < graph.operators().size(); ++oi) {
    const OperatorDecl& op = graph.operators()[oi];
    if (static_cast<size_t>(op.resource) != slice.local_resource) continue;
    for (uint32_t inst = 0; inst < op.parallelism; ++inst)
      op_instances[oi].push_back(make_instance(op, inst, cfg, local, job));
  }

  // 2. Wire links. Three cases per link: both endpoints local (the in-process
  //    channel, exactly as submit()), local sender -> remote receiver (a
  //    supervised TCP sender connecting to the peer's pre-agreed port), and
  //    remote sender -> local receiver (a supervised TCP receiver bound to
  //    that port). Cross-process edges are always supervised: recovery
  //    depends on their reconnect + exactly-once retransmission protocol.
  fault::FaultInjector* injector = options_.fault_injector.get();
  for (const LinkDecl& link : graph.links()) {
    const OperatorDecl& from = graph.operators()[link.from_op];
    const OperatorDecl& to = graph.operators()[link.to_op];
    const bool src_local = static_cast<size_t>(from.resource) == slice.local_resource;
    const bool dst_local = static_cast<size_t>(to.resource) == slice.local_resource;
    if (!src_local && !dst_local) continue;

    if (src_local) {
      auto& srcs = op_instances[link.from_op];
      link.partitioning->prepare(static_cast<uint32_t>(srcs.size()));
      for (Placed& src : srcs) {
        if (dst_local) {
          for (Placed& dst : op_instances[link.to_op]) wire_local_edge(link, cfg, src, dst, job);
          continue;
        }
        // The outputs must hold exactly `to.parallelism` buffers in
        // destination-instance order — partitioning indexes by dst instance.
        register_tcp_transport_telemetry();
        for (uint32_t di = 0; di < to.parallelism; ++di) {
          fault::EdgeId edge_id{link.link_id, src.rt->instance_index(), di};
          src.rt->add_output(
              link, std::make_shared<fault::SupervisedTcpSender>(
                        local->io_loop(0), slice_edge_port(slice, edge_id), cfg.channel,
                        options_.supervisor, edge_id, injector, &src.rt->metrics().reconnects,
                        [weak_job = std::weak_ptr<Job>(job)](const std::string& what) {
                          if (auto j = weak_job.lock()) j->report_failure(what);
                        }));
        }
      }
    } else {
      // Remote sender, local receiver(s): bind the pre-agreed port and wait
      // for the peer process to connect. One receiver per (remote src
      // instance, local dst instance) pair, mirroring the sender side.
      register_tcp_transport_telemetry();
      for (uint32_t si = 0; si < from.parallelism; ++si) {
        for (Placed& dst : op_instances[link.to_op]) {
          fault::EdgeId edge_id{link.link_id, si, dst.rt->instance_index()};
          dst.rt->add_input(link, si,
                            std::make_shared<fault::SupervisedTcpReceiver>(
                                local->io_loop(0), cfg.channel, options_.supervisor, edge_id,
                                injector, &dst.rt->metrics().corrupt_frames_dropped,
                                slice_edge_port(slice, edge_id)));
        }
      }
    }
  }

  // 3./4. Deploy local tasks, flush timers and telemetry as in submit().
  deploy_instances(job, op_instances);
  register_job_telemetry(job);

  {
    std::lock_guard lk(jobs_mu_);
    jobs_.push_back(job);
  }
  return job;
}

}  // namespace neptune
