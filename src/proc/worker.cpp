#include "proc/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <set>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "fault/fault_injector.hpp"
#include "fault/snapshot_store.hpp"
#include "proc/control.hpp"
#include "proc/slice.hpp"
#include "scenarios/scenario.hpp"

namespace neptune::proc {

namespace {

JsonValue stat_message(const Job& job, const char* type) {
  JobMetricsSnapshot m = job.metrics();
  uint64_t in = 0, seq = 0;
  for (const auto& op : m.operators) {
    in += op.packets_in;
    seq += op.seq_violations;
  }
  JsonValue msg = control_message(type);
  msg.as_object()["in"] = JsonValue(static_cast<int64_t>(in));
  msg.as_object()["seq"] = JsonValue(static_cast<int64_t>(seq));
  return msg;
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  ControlChannel ctl(opts.control_fd);
  auto send_failed = [&](const std::string& what) {
    JsonValue msg = control_message("failed");
    msg.as_object()["error"] = JsonValue(what);
    msg.as_object()["generation"] = JsonValue(static_cast<int64_t>(opts.generation));
    ctl.send(msg);
  };

  try {
    scenarios::ScenarioSpec spec = scenarios::load_scenario(opts.scenario_path);
    scenarios::TraceSpec trace = spec.trace;
    if (opts.events_override > 0) trace.events = opts.events_override;

    scenarios::ScenarioContext ctx;
    StreamGraph graph = scenarios::build_scenario_graph(spec, trace, ctx, /*fastlane=*/false);

    SlicePlan plan = plan_slices(graph, opts.total_resources);
    if (opts.ports.size() != plan.cross_edges.size())
      throw GraphError("worker: got " + std::to_string(opts.ports.size()) + " ports for " +
                       std::to_string(plan.cross_edges.size()) + " cross edges");
    plan.ports = opts.ports;
    SliceOptions slice = slice_options_for(plan, opts.resource);

    granules::ResourceConfig base;
    base.worker_threads = opts.worker_threads;
    RuntimeOptions ro;
    // Cross-process edges must ride out peer restarts: workers come up in
    // arbitrary order (a sender may try to connect before its peer has
    // bound the port) and a SIGSTOPped peer looks dead for the whole gray
    // period, so the reconnect budget is far wider than the in-process
    // default. Permanent edge failure still exists — it just means the
    // supervisor's full-deployment recovery has already taken over.
    ro.supervisor.max_reconnect_attempts = 40;
    ro.supervisor.peer_timeout_ns = 2'000'000'000;
    ro.supervisor.jitter_seed = opts.resource + 1;
    if (!opts.partitions.empty()) {
      auto injector = std::make_shared<fault::FaultInjector>();
      for (const WorkerOptions::Partition& p : opts.partitions)
        injector->add_overload(fault::OverloadProfile::burst(p.at_ms * 1'000'000,
                                                             p.duration_ms * 1'000'000,
                                                             /*stall_ns=*/5'000'000));
      ro.fault_injector = std::move(injector);
    }

    Runtime runtime(1, base, ro);
    std::shared_ptr<Job> job = runtime.submit_slice(graph, slice);

    fault::SnapshotStore store(opts.snapshot_dir);
    if (opts.restore_epoch >= 0) {
      auto snap = store.load_tagged(static_cast<uint64_t>(opts.restore_epoch));
      if (!snap) {
        // The supervisor commits an epoch only after every worker acked it,
        // so a missing/corrupt file here is real trouble — report and exit
        // rather than silently starting from scratch, which would desync
        // this slice's state from the peers'.
        send_failed("restore: snapshot epoch " + std::to_string(opts.restore_epoch) +
                    " missing or corrupt in " + opts.snapshot_dir);
        return 2;
      }
      job->restore_state(*snap);
    }

    {
      JsonValue hello = control_message("hello");
      JsonObject& o = hello.as_object();
      o["resource"] = JsonValue(static_cast<int64_t>(opts.resource));
      o["pid"] = JsonValue(static_cast<int64_t>(::getpid()));
      o["generation"] = JsonValue(static_cast<int64_t>(opts.generation));
      ctl.send(hello);
    }

    // ctx.sinks registers every digest-sink in the topology, but only the
    // local instances feed their accumulators — report only those, or the
    // supervisor would merge remote sinks' zero-count ghosts.
    std::set<std::string> local_ops;
    for (const OperatorDecl& op : graph.operators()) {
      if (static_cast<size_t>(op.resource) == opts.resource) local_ops.insert(op.id);
    }

    job->start();

    bool completed_sent = false;
    bool failed_sent = false;
    int64_t last_hb = 0;
    uint64_t open_epoch = 0;  // checkpoint begun but not yet acked
    for (;;) {
      std::optional<JsonValue> msg;
      if (open_epoch != 0) {
        // Barriers are in flight: wait on the job, not the control link,
        // so the ack leaves the moment the last local instance reports.
        std::optional<JobSnapshot> snap = job->await_checkpoint(
            open_epoch, std::chrono::milliseconds(opts.heartbeat_interval_ms));
        if (snap || job->failed()) {
          JsonValue ack = control_message("checkpointed");
          ack.as_object()["epoch"] = JsonValue(static_cast<int64_t>(open_epoch));
          ack.as_object()["ok"] = JsonValue(snap && store.save_tagged(*snap, open_epoch));
          ctl.send(ack);
          open_epoch = 0;
        }
        msg = ctl.poll(0);
      } else {
        msg = ctl.poll(static_cast<int>(opts.heartbeat_interval_ms));
      }
      if (ctl.eof()) {
        // Supervisor died: there is nobody left to coordinate recovery, so
        // tear down rather than stream into half a deployment.
        job->stop();
        return 0;
      }
      if (msg) {
        const std::string type = msg->as_object().at("type").as_string();
        if (type == "checkpoint") {  // barriers from peers arrive in-band
          open_epoch = static_cast<uint64_t>(msg->number_or("epoch", 0));
          job->begin_checkpoint(open_epoch);
        } else if (type == "stop") {
          job->stop();
          return 0;
        }
      }
      int64_t now = now_ms();
      if (now - last_hb >= opts.heartbeat_interval_ms) {
        last_hb = now;
        ctl.send(stat_message(*job, "hb"));
      }
      if (!completed_sent && job->completed()) {
        completed_sent = true;
        JsonValue done = stat_message(*job, "completed");  // final counts
        JsonObject& o = done.as_object();
        o["generation"] = JsonValue(static_cast<int64_t>(opts.generation));
        JsonObject sinks;
        for (const auto& [id, acc] : ctx.sinks) {
          if (!local_ops.count(id)) continue;
          JsonObject s;
          s["packets"] = JsonValue(static_cast<int64_t>(acc->count()));
          s["digest"] = JsonValue(acc->digest());
          sinks[id] = JsonValue(std::move(s));
        }
        o["sinks"] = JsonValue(std::move(sinks));
        ctl.send(done);
      }
      if (!failed_sent && job->failed()) {
        failed_sent = true;
        send_failed(job->failure_reason());
      }
    }
  } catch (const std::exception& e) {
    NEPTUNE_LOG_WARN("worker r%zu: %s", opts.resource, e.what());
    send_failed(e.what());
    return 1;
  }
}

}  // namespace neptune::proc
