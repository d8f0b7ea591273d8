// The daemon and the simulator take identical decisions.
//
// One request trace is served twice: through server::ServiceEngine, one
// session-opening GET per request (offset 0, the object clamped to
// wire::kMaxGetLength), and through sim::Simulator with no warm-up
// window. Under the constant scenario and the oracle estimator no
// decision depends on the clock or on a bandwidth draw, so the two
// consumers of sim::ProxyUnit must agree exactly — same request count,
// hit ratio, final occupancy and cached-object count — for every
// registered policy. docs/SERVER.md ("Simulator ↔ daemon mapping")
// records what differs in the other settings and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/registry.h"
#include "server/engine.h"
#include "server/wire.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sc {
namespace {

constexpr std::size_t kObjects = 400;
constexpr std::size_t kRequests = 20000;
constexpr std::uint64_t kSeed = 42;
constexpr double kCacheFraction = 0.05;

TEST(DaemonOracle, EveryPolicyDecidesAsTheSimulator) {
  workload::Workload trace{server::ServiceEngine::make_catalog(kObjects, kSeed),
                          {}};
  workload::TraceConfig trace_config;
  trace_config.num_requests = kRequests;
  util::Rng trace_rng(kSeed + 1);
  trace.requests =
      workload::generate_trace(trace.catalog, trace_config, trace_rng);
  const double capacity = kCacheFraction * trace.catalog.total_bytes();
  const core::Scenario scenario = core::registry::make_scenario("constant");

  std::size_t policies = 0;
  for (const std::string& policy :
       core::registry::names(core::registry::Kind::kPolicy)) {
    SCOPED_TRACE(policy);
    ++policies;

    server::ServiceConfig service;
    service.objects = kObjects;
    service.seed = kSeed;
    service.policy = policy;
    service.estimator = "oracle";
    service.cache_capacity_bytes = capacity;
    service.origin.scenario = "constant";
    server::ServiceEngine engine(service);
    for (const workload::Request& request : trace.requests) {
      const std::uint64_t length = std::min(
          engine.object_size(request.object), server::wire::kMaxGetLength);
      ASSERT_EQ(engine.serve_range(request.object, 0, length).status,
                server::wire::kOk);
    }
    const server::ServiceStats daemon = engine.snapshot();

    sim::SimulationConfig config;
    config.cache_capacity_bytes = capacity;
    config.policy = policy;
    config.estimator = "oracle";
    config.path_config.mode = scenario.mode;
    config.warmup_fraction = 0.0;
    config.seed = kSeed;
    const sim::SimulationResult simulated =
        sim::Simulator(trace, scenario.base, scenario.ratio, config).run();

    EXPECT_EQ(daemon.requests, simulated.metrics.requests());
    EXPECT_EQ(daemon.hit_ratio, simulated.metrics.hit_ratio());
    EXPECT_EQ(daemon.occupancy_bytes, simulated.final_occupancy_bytes);
    EXPECT_EQ(daemon.cached_objects, simulated.final_cached_objects);
    // A decision that admitted nothing would make the comparison vacuous.
    EXPECT_GT(daemon.cached_objects, 0u);
  }
  EXPECT_GE(policies, 8u);
}

}  // namespace
}  // namespace sc
