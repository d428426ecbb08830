#include "storm/storm.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_util.hpp"
#include "net/frame.hpp"
#include "net/inproc_transport.hpp"

namespace neptune::storm {

// --- TopologyBuilder ----------------------------------------------------------

TopologyBuilder& TopologyBuilder::set_spout(const std::string& id, SpoutFactory factory,
                                            uint32_t parallelism) {
  ComponentDecl d;
  d.id = id;
  d.is_spout = true;
  d.spout_factory = std::move(factory);
  d.parallelism = parallelism;
  components_.push_back(std::move(d));
  return *this;
}

TopologyBuilder::BoltHandle TopologyBuilder::set_bolt(const std::string& id, BoltFactory factory,
                                                      uint32_t parallelism) {
  ComponentDecl d;
  d.id = id;
  d.is_spout = false;
  d.bolt_factory = std::move(factory);
  d.parallelism = parallelism;
  components_.push_back(std::move(d));
  return BoltHandle(this, components_.size() - 1);
}

TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::shuffle_grouping(
    const std::string& from) {
  builder_->components_[index_].inputs.push_back({from, Grouping::kShuffle, 0});
  return *this;
}
TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::fields_grouping(const std::string& from,
                                                                          size_t field_index) {
  builder_->components_[index_].inputs.push_back({from, Grouping::kFields, field_index});
  return *this;
}
TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::broadcast_grouping(
    const std::string& from) {
  builder_->components_[index_].inputs.push_back({from, Grouping::kBroadcast, 0});
  return *this;
}
TopologyBuilder::BoltHandle& TopologyBuilder::BoltHandle::global_grouping(
    const std::string& from) {
  builder_->components_[index_].inputs.push_back({from, Grouping::kGlobal, 0});
  return *this;
}

// --- runtime structures ----------------------------------------------------------

namespace {

/// An in-flight tuple plus its reliability lineage (Storm's anchoring):
/// `root` identifies the spout tuple tree, `id` this edge of the tree.
/// Zero ids mean acking is disabled.
struct Envelope {
  Tuple tuple;
  uint64_t root = 0;
  uint64_t id = 0;
};

/// Unbounded blocking queue — deliberately unbounded: Storm 0.9.x had no
/// end-to-end backpressure; overload shows up as queue growth and latency.
template <typename T>
class UnboundedQueue {
 public:
  void push(T&& t) {
    {
      std::lock_guard lk(mu_);
      q_.push_back(std::move(t));
    }
    cv_.notify_one();
  }

  /// Pop one element; returns nullopt when closed and drained.
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return std::nullopt;
    T t = std::move(q_.front());
    q_.pop_front();
    return t;
  }

  size_t size() const {
    std::lock_guard lk(mu_);
    return q_.size();
  }

  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
  bool closed_ = false;
};

using TupleQueue = UnboundedQueue<Envelope>;

/// A routed tuple as it crosses worker boundaries.
struct TransferItem {
  uint32_t dest_task = 0;
  Envelope env;
};
using TransferQueue = UnboundedQueue<TransferItem>;

/// One message to the topology's acker task (Storm's XOR scheme): on init,
/// `value` is the spout tuple id; on ack, the XOR of the consumed input id
/// and all child ids anchored to it. A tuple tree is complete when the
/// accumulated XOR reaches zero.
struct AckMessage {
  uint64_t root = 0;
  uint64_t value = 0;
  bool init = false;
  uint32_t spout_task = 0;  // init only
};
using AckQueue = UnboundedQueue<AckMessage>;

struct TaskRuntime;
struct WorkerRuntime;

/// One downstream subscription: which tasks consume a component's output
/// and how the stream is partitioned among them.
struct Subscription {
  Grouping grouping = Grouping::kShuffle;
  size_t field_index = 0;
  std::vector<uint32_t> dest_tasks;    // global task ids
  std::atomic<uint32_t> rr_cursor{0};  // shared round-robin cursor (atomic: producers race)

  Subscription() = default;
  Subscription(Subscription&& o) noexcept
      : grouping(o.grouping),
        field_index(o.field_index),
        dest_tasks(std::move(o.dest_tasks)),
        rr_cursor(o.rr_cursor.load()) {}
};

}  // namespace

struct StormTopology::Impl {
  StormConfig config;
  std::atomic<bool> killed{false};
  std::atomic<uint64_t> thread_hops{0};
  int64_t start_ns = 0;

  struct Task;  // forward

  /// A Storm worker process analogue: hosts tasks, runs the worker-level
  /// receive thread and transfer thread (two of the four hops).
  struct Worker {
    size_t index = 0;
    Impl* owner = nullptr;
    TransferQueue transfer_queue;
    std::thread transfer_thread;
    std::thread receive_thread;
    // Channels to every other worker (by worker index).
    std::vector<std::shared_ptr<ChannelSender>> tx;
    std::vector<std::shared_ptr<ChannelReceiver>> rx;
    std::vector<Task*> tasks;
  };

  struct Task {
    uint32_t task_id = 0;
    uint32_t index_in_component = 0;
    size_t component = 0;  // index into components
    Worker* worker = nullptr;
    std::unique_ptr<Spout> spout;
    std::unique_ptr<Bolt> bolt;
    TupleQueue incoming;        // executor incoming queue (hop 2)
    TupleQueue outgoing;        // executor outgoing queue (hop 3)
    std::thread executor_thread;
    std::thread send_thread;
    std::atomic<bool> spout_done{false};
    std::atomic<uint64_t> processing{0};  // tuples popped but not yet routed
    // Acking state (used only when acking is enabled):
    std::atomic<uint64_t> spout_pending{0};  // tuple trees awaiting full ack
    uint64_t cur_root = 0;                   // lineage of the tuple being executed
    uint64_t cur_xor = 0;                    // input id XOR emitted child ids
    Xoshiro256 id_rng{0x5EED};               // per-task tuple-id generator
  };

  struct Component {
    ComponentDecl decl;
    ComponentMetrics metrics;
    std::vector<Subscription> subs;  // consumers of this component's output
    std::vector<uint32_t> task_ids;
    bool is_sink = false;
  };

  std::vector<std::unique_ptr<Component>> components;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::unique_ptr<Task>> tasks;  // indexed by task_id

  // --- acker (Storm's reliability bolt; runs only with acking enabled) ---
  AckQueue acker_queue;
  std::thread acker_thread;
  std::atomic<uint64_t> trees_completed{0};

  void acker_main() {
    set_thread_name("storm-acker");
    // root -> (accumulated XOR, owning spout task). The XOR reaches zero
    // exactly when every tuple in the tree has been acked (Storm's scheme).
    std::unordered_map<uint64_t, std::pair<uint64_t, uint32_t>> state;
    while (auto m = acker_queue.pop()) {
      if (m->init) {
        auto& entry = state[m->root];
        entry.first ^= m->value;
        entry.second = m->spout_task;
        continue;  // the init value is never zero
      }
      auto it = state.find(m->root);
      if (it == state.end()) continue;  // already completed / unknown
      it->second.first ^= m->value;
      if (it->second.first == 0) {
        tasks[it->second.second]->spout_pending.fetch_sub(1, std::memory_order_acq_rel);
        trees_completed.fetch_add(1, std::memory_order_relaxed);
        state.erase(it);
      }
    }
  }

  // --- routing ------------------------------------------------------------------

  class Collector : public OutputCollector {
   public:
    Collector(Impl* impl, Task* task) : impl_(impl), task_(task) {}
    void emit(Tuple&& tuple) override { impl_->route(task_, std::move(tuple)); }

   private:
    Impl* impl_;
    Task* task_;
  };

  void route(Task* from, Tuple&& tuple) {
    Component& comp = *components[from->component];
    comp.metrics.tuples_out.fetch_add(1, std::memory_order_relaxed);
    if (tuple.event_time_ns() == 0) tuple.set_event_time_ns(now_ns());

    Envelope env;
    env.tuple = std::move(tuple);
    if (config.acking_enabled) {
      env.id = from->id_rng.next_u64() | 1;  // never zero
      if (from->spout) {
        // New tuple tree rooted at this spout emission.
        env.root = env.id;
        from->spout_pending.fetch_add(1, std::memory_order_acq_rel);
        acker_queue.push(AckMessage{env.root, env.id, /*init=*/true, from->task_id});
      } else {
        // Anchor to the input currently being executed.
        env.root = from->cur_root;
        from->cur_xor ^= env.id;
      }
    }
    Tuple& routed = env.tuple;
    (void)routed;
    if (comp.subs.empty()) return;  // terminal emit
    // Per Storm semantics every subscription receives the stream.
    for (size_t s = 0; s < comp.subs.size(); ++s) {
      Subscription& sub = comp.subs[s];
      bool last_sub = s + 1 == comp.subs.size();
      switch (sub.grouping) {
        case Grouping::kBroadcast:
          for (uint32_t dest : sub.dest_tasks) deliver(from, dest, Envelope(env));
          break;
        case Grouping::kFields: {
          uint64_t h = env.tuple.field_hash(sub.field_index);
          uint32_t dest = sub.dest_tasks[h % sub.dest_tasks.size()];
          if (last_sub) {
            deliver(from, dest, std::move(env));
          } else {
            deliver(from, dest, Envelope(env));
          }
          break;
        }
        case Grouping::kGlobal: {
          uint32_t dest = sub.dest_tasks.front();
          if (last_sub) {
            deliver(from, dest, std::move(env));
          } else {
            deliver(from, dest, Envelope(env));
          }
          break;
        }
        case Grouping::kShuffle:
        default: {
          // Storm's shuffle: round-robin over destination tasks.
          uint32_t cursor = sub.rr_cursor.fetch_add(1, std::memory_order_relaxed);
          uint32_t dest = sub.dest_tasks[cursor % sub.dest_tasks.size()];
          if (last_sub) {
            deliver(from, dest, std::move(env));
          } else {
            deliver(from, dest, Envelope(env));
          }
          break;
        }
      }
    }
  }

  /// Enqueue a routed tuple on the executor outgoing queue (hop 3); the
  /// destination task id rides along as a trailing field until the send
  /// thread strips it.
  void deliver(Task* from, uint32_t dest_task, Envelope&& env) {
    env.tuple.add_i32(static_cast<int32_t>(dest_task));
    from->outgoing.push(std::move(env));
    thread_hops.fetch_add(1, std::memory_order_relaxed);
  }

  /// Destination task id is carried as a trailing i32 field while the tuple
  /// sits in the executor outgoing queue; stripped before delivery.
  static uint32_t strip_dest(Tuple& t) {
    uint32_t dest = static_cast<uint32_t>(t.i32(t.field_count() - 1));
    // Rebuild without the last field (packets have no pop_back; emulate).
    Tuple stripped;
    stripped.set_event_time_ns(t.event_time_ns());
    for (size_t i = 0; i + 1 < t.field_count(); ++i) stripped.add(Value(t.field(i)));
    t = std::move(stripped);
    return dest;
  }

  // --- threads --------------------------------------------------------------------

  void executor_main(Task* task) {
    set_thread_name("storm-exec-" + std::to_string(task->task_id));
    Component& comp = *components[task->component];
    Collector collector(this, task);
    if (task->spout) {
      task->spout->open(task->index_in_component, comp.decl.parallelism);
      while (!killed.load(std::memory_order_acquire)) {
        if (config.acking_enabled &&
            task->spout_pending.load(std::memory_order_acquire) >= config.max_spout_pending) {
          // topology.max.spout.pending throttle: the only flow control
          // Storm offers, and only with acking on.
          std::this_thread::sleep_for(std::chrono::nanoseconds(config.spout_idle_sleep_ns));
          continue;
        }
        uint64_t before = comp.metrics.tuples_out.load(std::memory_order_relaxed);
        bool alive = task->spout->next_tuple(collector);
        if (!alive) break;
        if (comp.metrics.tuples_out.load(std::memory_order_relaxed) == before) {
          // Idle spout: Storm sleeps 1 ms.
          std::this_thread::sleep_for(std::chrono::nanoseconds(config.spout_idle_sleep_ns));
        }
      }
      task->spout->close();
      task->spout_done.store(true, std::memory_order_release);
      return;
    }
    task->bolt->prepare(task->index_in_component, comp.decl.parallelism);
    while (true) {
      auto t = task->incoming.pop();
      if (!t) break;
      task->processing.fetch_add(1, std::memory_order_acq_rel);
      comp.metrics.tuples_in.fetch_add(1, std::memory_order_relaxed);
      if (comp.is_sink && t->tuple.event_time_ns() > 0) {
        int64_t lat = now_ns() - t->tuple.event_time_ns();
        if (lat > 0) comp.metrics.sink_latency.record(static_cast<uint64_t>(lat));
      }
      task->cur_root = t->root;
      task->cur_xor = t->id;  // children emitted during execute() XOR in here
      task->bolt->execute(t->tuple, collector);
      if (config.acking_enabled && t->root != 0) {
        acker_queue.push(AckMessage{t->root, task->cur_xor, /*init=*/false, 0});
      }
      task->cur_root = 0;
      task->processing.fetch_sub(1, std::memory_order_acq_rel);
    }
    task->bolt->cleanup();
  }

  /// Hop 3->4: executor send thread moves routed tuples to the worker
  /// transfer queue (per-tuple, no batching — the Storm contrast).
  void send_main(Task* task) {
    set_thread_name("storm-send-" + std::to_string(task->task_id));
    while (true) {
      auto t = task->outgoing.pop();
      if (!t) break;
      task->processing.fetch_add(1, std::memory_order_acq_rel);
      Envelope env = std::move(*t);
      uint32_t dest = strip_dest(env.tuple);
      task->worker->transfer_queue.push(TransferItem{dest, std::move(env)});
      thread_hops.fetch_add(1, std::memory_order_relaxed);
      task->processing.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// Hop 4: worker transfer thread serializes each tuple into its own frame
  /// and ships it to the destination worker's channel.
  void transfer_main(Worker* worker) {
    set_thread_name("storm-xfer-" + std::to_string(worker->index));
    ByteBuffer scratch;
    while (true) {
      auto item = worker->transfer_queue.pop();
      if (!item) break;
      Task* dest_task = tasks[item->dest_task].get();
      Worker* dest_worker = dest_task->worker;
      if (dest_worker == worker) {
        // Local task: still a thread handoff (transfer -> executor).
        dest_task->incoming.push(std::move(item->env));
        thread_hops.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Remote: serialize this single tuple as one frame (no batching —
      // the per-message overhead the paper contrasts against).
      scratch.clear();
      scratch.write_u32(item->dest_task);
      scratch.write_u64(item->env.root);
      scratch.write_u64(item->env.id);
      item->env.tuple.serialize(scratch);
      FrameBufRef framed = FrameBufPool::global().acquire();
      FrameHeader h;
      h.link_id = static_cast<uint32_t>(worker->index);
      h.batch_count = 1;
      h.raw_size = static_cast<uint32_t>(scratch.size());
      encode_frame(h, scratch.contents(), framed->buffer());
      components[dest_task->component]->metrics.bytes_out.fetch_add(framed.size(),
                                                                   std::memory_order_relaxed);
      // Spin until the channel accepts: Storm blocks on the socket.
      auto& tx = worker->tx[dest_worker->index];
      for (;;) {
        SendStatus s = tx->try_send(framed);
        if (s == SendStatus::kOk) break;
        if (s == SendStatus::kClosed || killed.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
      }
      bytes_shipped.fetch_add(framed.size(), std::memory_order_relaxed);
    }
  }

  /// Hop 1: worker receive thread demuxes frames to executor queues.
  void receive_main(Worker* worker) {
    set_thread_name("storm-recv-" + std::to_string(worker->index));
    while (!killed.load(std::memory_order_acquire)) {
      bool any = false;
      for (size_t w = 0; w < workers.size(); ++w) {
        if (!worker->rx[w]) continue;
        auto frame = worker->rx[w]->try_receive_buf();
        if (!frame) continue;
        any = true;
        auto f = decode_whole_frame(frame->contents());
        if (!f) continue;  // in-process frames are never corrupt
        ByteReader r(f->payload);
        uint32_t dest = r.read_u32();
        Envelope env;
        env.root = r.read_u64();
        env.id = r.read_u64();
        env.tuple.deserialize(r);
        tasks[dest]->incoming.push(std::move(env));
        thread_hops.fetch_add(1, std::memory_order_relaxed);
      }
      if (!any) {
        // Poll-sleep: the receive thread parks briefly when idle.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        if (all_upstream_closed(worker)) return;
      }
    }
  }

  bool all_upstream_closed(Worker* worker) const {
    for (size_t w = 0; w < workers.size(); ++w) {
      if (worker->rx[w] && !worker->rx[w]->closed()) return false;
    }
    return true;
  }

  std::atomic<uint64_t> bytes_shipped{0};

  // --- lifecycle ------------------------------------------------------------------

  void shutdown_threads() {
    killed.store(true, std::memory_order_release);
    for (auto& t : tasks) {
      t->incoming.close();
      t->outgoing.close();
    }
    for (auto& w : workers) w->transfer_queue.close();
    for (auto& w : workers) {
      for (auto& tx : w->tx) {
        if (tx) tx->close();
      }
    }
    for (auto& t : tasks) {
      if (t->executor_thread.joinable()) t->executor_thread.join();
      if (t->send_thread.joinable()) t->send_thread.join();
    }
    for (auto& w : workers) {
      if (w->transfer_thread.joinable()) w->transfer_thread.join();
      if (w->receive_thread.joinable()) w->receive_thread.join();
    }
    acker_queue.close();
    if (acker_thread.joinable()) acker_thread.join();
  }
};

// --- StormTopology -----------------------------------------------------------------

StormTopology::~StormTopology() { kill(); }

void StormTopology::kill() {
  if (impl_ && !impl_->killed.load()) impl_->shutdown_threads();
}

bool StormTopology::wait_for_drain(std::chrono::nanoseconds timeout) {
  int64_t deadline = now_ns() + timeout.count();
  int stable = 0;
  while (now_ns() < deadline) {
    bool spouts_done = true;
    for (const auto& t : impl_->tasks) {
      if (t->spout && !t->spout_done.load(std::memory_order_acquire)) spouts_done = false;
    }
    bool queues_empty = true;
    for (const auto& t : impl_->tasks) {
      if (t->incoming.size() || t->outgoing.size() ||
          t->processing.load(std::memory_order_acquire)) {
        queues_empty = false;
        break;
      }
    }
    for (const auto& w : impl_->workers) {
      if (w->transfer_queue.size()) queues_empty = false;
    }
    if (impl_->config.acking_enabled) {
      if (impl_->acker_queue.size() != 0) queues_empty = false;
      for (const auto& t : impl_->tasks) {
        if (t->spout && t->spout_pending.load(std::memory_order_acquire) != 0)
          queues_empty = false;
      }
    }
    // Bytes in flight inside inter-worker channels are invisible to the
    // queue checks; compare shipped vs. consumed byte counters.
    for (const auto& w : impl_->workers) {
      for (size_t b = 0; b < impl_->workers.size(); ++b) {
        if (w->tx[b] &&
            w->tx[b]->bytes_sent() != impl_->workers[b]->rx[w->index]->bytes_received()) {
          queues_empty = false;
        }
      }
    }
    if (spouts_done && queues_empty) {
      // Require several consecutive quiescent observations so tuples
      // in-flight between queues are not missed.
      if (++stable >= 5) return true;
    } else {
      stable = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

StormMetricsSnapshot StormTopology::metrics() const {
  StormMetricsSnapshot s;
  for (const auto& cp : impl_->components) {
    const auto& c = *cp;
    StormMetricsSnapshot::Component out;
    out.id = c.decl.id;
    out.tuples_in = c.metrics.tuples_in.load(std::memory_order_relaxed);
    out.tuples_out = c.metrics.tuples_out.load(std::memory_order_relaxed);
    out.bytes_out = c.metrics.bytes_out.load(std::memory_order_relaxed);
    s.components.push_back(std::move(out));
  }
  s.wall_time_ns = now_ns() - impl_->start_ns;
  s.thread_hops = impl_->thread_hops.load(std::memory_order_relaxed);
  return s;
}

uint64_t StormTopology::sink_latency_p99_ns() const {
  uint64_t worst = 0;
  for (const auto& c : impl_->components) {
    if (c->is_sink) worst = std::max(worst, c->metrics.sink_latency.percentile(99));
  }
  return worst;
}

uint64_t StormTopology::tuples_completed() const {
  return impl_->trees_completed.load(std::memory_order_relaxed);
}

uint64_t StormTopology::tuples_pending() const {
  uint64_t pending = 0;
  for (const auto& t : impl_->tasks) {
    if (t->spout) pending += t->spout_pending.load(std::memory_order_acquire);
  }
  return pending;
}

uint64_t StormTopology::sink_latency_p50_ns() const {
  uint64_t worst = 0;
  for (const auto& c : impl_->components) {
    if (c->is_sink) worst = std::max(worst, c->metrics.sink_latency.percentile(50));
  }
  return worst;
}

// --- LocalCluster --------------------------------------------------------------------

LocalCluster::LocalCluster(StormConfig config) : config_(config) {
  if (config_.workers == 0) config_.workers = 1;
}

std::shared_ptr<StormTopology> LocalCluster::submit(const TopologyBuilder& topology) {
  auto topo = std::shared_ptr<StormTopology>(new StormTopology());
  topo->impl_ = std::make_unique<StormTopology::Impl>();
  auto* impl = topo->impl_.get();
  impl->config = config_;
  impl->start_ns = now_ns();

  // Components.
  for (const auto& decl : topology.components()) {
    auto c = std::make_unique<StormTopology::Impl::Component>();
    c->decl = decl;
    impl->components.push_back(std::move(c));
  }
  // Sink detection: a component nobody subscribes to.
  for (auto& c : impl->components) {
    bool has_consumer = false;
    for (const auto& other : impl->components) {
      for (const auto& in : other->decl.inputs) {
        if (in.from == c->decl.id) has_consumer = true;
      }
    }
    c->is_sink = !has_consumer && !c->decl.is_spout;
  }

  // Workers and all-pairs channels.
  for (size_t w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<StormTopology::Impl::Worker>();
    worker->index = w;
    worker->owner = impl;
    worker->tx.resize(config_.workers);
    worker->rx.resize(config_.workers);
    impl->workers.push_back(std::move(worker));
  }
  ChannelConfig ch;
  ch.capacity_bytes = config_.channel_capacity_bytes;
  ch.low_watermark_bytes = config_.channel_capacity_bytes / 4;
  for (size_t a = 0; a < config_.workers; ++a) {
    for (size_t b = 0; b < config_.workers; ++b) {
      if (a == b) continue;
      InprocPipe pipe = make_inproc_pipe(ch);
      impl->workers[a]->tx[b] = pipe.sender;
      impl->workers[b]->rx[a] = pipe.receiver;
    }
  }

  // Tasks, assigned round-robin over workers (Storm's even scheduler).
  size_t cursor = 0;
  for (size_t ci = 0; ci < impl->components.size(); ++ci) {
    auto& comp = *impl->components[ci];
    for (uint32_t i = 0; i < comp.decl.parallelism; ++i) {
      auto task = std::make_unique<StormTopology::Impl::Task>();
      task->task_id = static_cast<uint32_t>(impl->tasks.size());
      task->index_in_component = i;
      task->component = ci;
      task->worker = impl->workers[cursor++ % impl->workers.size()].get();
      task->id_rng = Xoshiro256(0x5EED0000 ^ (static_cast<uint64_t>(task->task_id) *
                                              0x9E3779B97F4A7C15ULL));
      if (comp.decl.is_spout) {
        task->spout = comp.decl.spout_factory();
      } else {
        task->bolt = comp.decl.bolt_factory();
      }
      comp.task_ids.push_back(task->task_id);
      task->worker->tasks.push_back(task.get());
      impl->tasks.push_back(std::move(task));
    }
  }

  // Subscriptions: for each bolt input, the upstream component gains a
  // subscription pointing at the bolt's tasks.
  for (auto& comp : impl->components) {
    for (const auto& in : comp->decl.inputs) {
      for (auto& up : impl->components) {
        if (up->decl.id == in.from) {
          Subscription sub;
          sub.grouping = in.grouping;
          sub.field_index = in.field_index;
          sub.dest_tasks = comp->task_ids;
          up->subs.push_back(std::move(sub));
        }
      }
    }
  }

  if (config_.acking_enabled) {
    impl->acker_thread = std::thread([impl] { impl->acker_main(); });
  }

  // Launch the four thread tiers.
  for (auto& w : impl->workers) {
    auto* worker = w.get();
    w->transfer_thread = std::thread([impl, worker] { impl->transfer_main(worker); });
    w->receive_thread = std::thread([impl, worker] { impl->receive_main(worker); });
  }
  for (auto& t : impl->tasks) {
    auto* task = t.get();
    t->executor_thread = std::thread([impl, task] { impl->executor_main(task); });
    t->send_thread = std::thread([impl, task] { impl->send_main(task); });
  }
  return topo;
}

}  // namespace neptune::storm
