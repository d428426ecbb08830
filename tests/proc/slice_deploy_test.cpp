// The slice deploy path without forking: the golden etl_taxi scenario
// (pins 0/1) deployed as two one-resource Runtimes in one process, each
// through Runtime::submit_slice with the port plan a supervisor would ship
// to its workers. The cross-resource edge is a real supervised TCP edge on
// a pre-agreed loopback port, so this runs the same code a neptuned worker
// runs, minus the processes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "neptune/workload.hpp"
#include "proc/slice.hpp"
#include "scenarios/scenario.hpp"

namespace neptune::proc {
namespace {

using namespace std::chrono_literals;

std::string scenario_path(const std::string& name) {
  return std::string(NEPTUNE_SCENARIO_DIR) + "/" + name + ".json";
}

// Bind an ephemeral loopback port, read it back and release it, as the
// supervisor does before it ships the port list to its workers.
uint16_t probe_free_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  uint16_t port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

size_t pin_of(const StreamGraph& graph, const std::string& op_id) {
  for (const OperatorDecl& op : graph.operators())
    if (op.id == op_id) return static_cast<size_t>(op.resource);
  ADD_FAILURE() << "no operator '" << op_id << "'";
  return 0;
}

TEST(SliceDeploy, TwoSlicesInOneProcessMatchGolden) {
  const scenarios::ScenarioSpec spec = scenarios::load_scenario(scenario_path("etl_taxi"));
  ASSERT_FALSE(spec.expect.empty());
  constexpr size_t kResources = 2;

  // One graph and digest context per slice, as each worker loads its own.
  scenarios::ScenarioContext ctx[kResources];
  std::unique_ptr<StreamGraph> graph[kResources];
  for (size_t r = 0; r < kResources; ++r)
    graph[r] = std::make_unique<StreamGraph>(
        scenarios::build_scenario_graph(spec, spec.trace, ctx[r], /*fastlane=*/false));

  SlicePlan plan = plan_slices(*graph[0], kResources);
  ASSERT_FALSE(plan.cross_edges.empty()) << "etl_taxi must straddle its two resources";
  for (size_t i = 0; i < plan.cross_edges.size(); ++i) {
    plan.ports.push_back(probe_free_port());
    ASSERT_NE(plan.ports.back(), 0);
  }

  // Both slices are submitted before either starts; a sender that comes up
  // before its peer's listener retries inside its reconnect budget.
  std::unique_ptr<Runtime> runtime[kResources];
  std::shared_ptr<Job> job[kResources];
  for (size_t r = 0; r < kResources; ++r) {
    runtime[r] = std::make_unique<Runtime>(1);
    job[r] = runtime[r]->submit_slice(*graph[r], slice_options_for(plan, r));
  }
  for (auto& j : job) j->start();
  for (size_t r = 0; r < kResources; ++r) {
    ASSERT_TRUE(job[r]->wait(120s)) << "slice " << r << " did not drain";
    EXPECT_EQ(job[r]->failure_reason(), "") << "slice " << r;
    const JobMetricsSnapshot m = job[r]->metrics();
    EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
    // A slice runs exactly the operators pinned to it.
    for (const auto& op : m.operators)
      EXPECT_EQ(pin_of(*graph[r], op.operator_id), r) << op.operator_id << " in slice " << r;
  }

  // Each sink's digest lives in the slice that hosts it; the other slice's
  // copy of the accumulator never sees a packet.
  for (const auto& [id, want] : spec.expect) {
    const size_t host = pin_of(*graph[0], id);
    ASSERT_LT(host, kResources);
    EXPECT_EQ(ctx[host].sinks.at(id)->count(), want.packets) << "sink '" << id << "'";
    EXPECT_EQ(ctx[host].sinks.at(id)->digest(), want.digest) << "sink '" << id << "'";
    EXPECT_EQ(ctx[1 - host].sinks.at(id)->count(), 0u) << "sink '" << id << "' ran twice";
  }
  for (auto& rt : runtime) rt->shutdown();
}

TEST(SliceDeploy, UnpinnedOperatorThrowsBeforeAnyTaskRuns) {
  // The check runs before placement: no operator is even instantiated.
  auto instantiated = std::make_shared<std::atomic<bool>>(false);
  StreamGraph g("unpinned");
  g.add_source(
      "src",
      [instantiated] {
        instantiated->store(true);
        return std::make_unique<workload::BytesSource>(10, 16);
      },
      1, 0);
  g.add_processor("sink", [] { return std::make_unique<workload::RelayProcessor>(); });
  g.connect("src", "sink");

  SliceOptions slice;
  slice.local_resource = 0;
  slice.total_resources = 2;
  Runtime rt(1);
  try {
    rt.submit_slice(g, slice);
    FAIL() << "submit_slice accepted an unpinned operator";
  } catch (const GraphError& e) {
    EXPECT_NE(std::string(e.what()).find("'sink' needs an explicit resource pin"),
              std::string::npos)
        << e.what();
  }
  rt.shutdown();
  EXPECT_FALSE(instantiated->load());
}

}  // namespace
}  // namespace neptune::proc
