// Arena reuse against fresh construction: a sim::SimulationArena engine
// rebinds its cached components between simulations, and every rebound
// run must equal, field for field, the run sim::Simulator produces with
// freshly built components. Runs are interleaved on one arena — different
// spec pairs, catalog sizes, seeds, extensions and fault plans back to
// back — so any state a rebind forgets to reset shows up as a mismatch.

#include "sim/arena.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/sweep.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace sc::sim {
namespace {

void expect_results_identical(const SimulationResult& a,
                              const SimulationResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.policy_name, b.policy_name) << label;
  EXPECT_EQ(a.warmup_requests, b.warmup_requests) << label;
  EXPECT_EQ(a.measured_requests, b.measured_requests) << label;
  EXPECT_EQ(a.final_occupancy_bytes, b.final_occupancy_bytes) << label;
  EXPECT_EQ(a.final_cached_objects, b.final_cached_objects) << label;
  EXPECT_EQ(a.estimator_overhead_packets, b.estimator_overhead_packets)
      << label;
  const MetricsCollector& x = a.metrics;
  const MetricsCollector& y = b.metrics;
  EXPECT_EQ(x.traffic_reduction_ratio(), y.traffic_reduction_ratio()) << label;
  EXPECT_EQ(x.average_delay_s(), y.average_delay_s()) << label;
  EXPECT_EQ(x.average_quality(), y.average_quality()) << label;
  EXPECT_EQ(x.total_added_value(), y.total_added_value()) << label;
  EXPECT_EQ(x.hit_ratio(), y.hit_ratio()) << label;
  EXPECT_EQ(x.immediate_ratio(), y.immediate_ratio()) << label;
  EXPECT_EQ(x.fill_bytes(), y.fill_bytes()) << label;
  EXPECT_EQ(x.denied_requests(), y.denied_requests()) << label;
  EXPECT_EQ(x.denied_bytes(), y.denied_bytes()) << label;
  EXPECT_EQ(x.truncated_ratio(), y.truncated_ratio()) << label;
  EXPECT_EQ(x.average_viewed_fraction(), y.average_viewed_fraction())
      << label;
}

std::shared_ptr<const workload::Workload> make_workload(
    std::size_t objects, std::size_t requests, std::uint64_t seed) {
  workload::WorkloadConfig cfg;
  cfg.catalog.num_objects = objects;
  cfg.trace.num_requests = requests;
  util::Rng rng(seed);
  return std::make_shared<const workload::Workload>(
      workload::generate_workload(cfg, rng));
}

/// Run `config`, with a cache of `fraction` of `w`'s catalog bytes, over
/// `w` once on `arena` (with a shared path model) and once freshly built
/// (drawing its own); expect identical results.
void expect_reuse_matches_fresh(
    SimulationArena& arena, const std::shared_ptr<const workload::Workload>& w,
    const core::Scenario& scenario, SimulationConfig config, double fraction,
    const std::string& label) {
  config.cache_capacity_bytes = fraction * w->catalog.total_bytes();
  config.path_config.mode = scenario.mode;
  const workload::RequestStream stream = workload::RequestStream::replay(w);
  RunContext context;
  context.stream = &stream;
  context.model = std::make_shared<const net::PathModel>(
      w->catalog.size(), scenario.base, scenario.ratio, config.path_config,
      util::Rng(config.seed).fork("paths"));
  context.config = &config;
  context.seed = config.seed;
  // Driven as a sweep lane is: the caller pulls the blocks and fills the
  // draws.
  SimulationArena::Engine& engine = arena.engine(config);
  engine.begin(context);
  workload::RequestCursor cursor;
  BlockDraws draws;
  cursor.bind(stream, config.stream_chunk);
  draws.reset(stream.catalog().view(), context.model, config.interactivity,
              util::Rng(config.seed));
  while (const workload::RequestBlock* block = cursor.next()) {
    draws.fill(*block);
    engine.consume(*block, draws);
  }
  const SimulationResult reused = engine.finish();
  const SimulationResult fresh =
      Simulator(*w, scenario.base, scenario.ratio, config).run();
  expect_results_identical(reused, fresh, label);
}

std::vector<std::string> builtin_names(core::registry::Kind kind) {
  std::vector<std::string> out;
  for (const std::string& name : core::registry::names(kind)) {
    // Skip the components this binary registers itself.
    if (name.rfind("test-", 0) != 0) out.push_back(name);
  }
  return out;
}

TEST(ArenaReuse, EveryRegisteredPairMatchesFreshConstruction) {
  // Two interleaved passes over every (policy, estimator) pair: the
  // first builds each engine, the second rebinds it to a different
  // catalog size and seed after every other engine has run.
  const auto scenario = core::measured_variability_scenario();
  std::vector<std::string> policies =
      builtin_names(core::registry::Kind::kPolicy);
  policies.push_back("hybrid:e=0.5");
  policies.push_back("pbv:e=0.7");
  std::vector<std::string> estimators =
      builtin_names(core::registry::Kind::kEstimator);
  estimators.push_back("ewma:alpha=0.5,prior_kbps=80");
  estimators.push_back("probe:interval_s=600,train_packets=50");

  SimulationArena arena;
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    std::size_t pair = 0;
    for (const std::string& policy : policies) {
      for (const std::string& estimator : estimators) {
        const std::size_t objects = pass == 0 ? 150 : 90 + 10 * (pair % 3);
        const std::uint64_t seed = 1 + pass + 2 * (pair % 4);
        SimulationConfig cfg;
        cfg.policy = policy;
        cfg.estimator = estimator;
        cfg.seed = 100 * seed + pair;
        expect_reuse_matches_fresh(
            arena, make_workload(objects, 3000, seed), scenario, cfg,
            0.05 + 0.03 * static_cast<double>(pass),
            policy + " x " + estimator + " pass " + std::to_string(pass));
        ++pair;
      }
    }
  }
  EXPECT_EQ(arena.size(), policies.size() * estimators.size());
}

TEST(ArenaReuse, ExtensionsSessionsAndFaultsDoNotLeakAcrossRuns) {
  // One engine per estimator, reused across viewing + patching, every
  // session model with and without patching, and a fault plan followed
  // by clean runs: none of the per-run tables (in-flight streams, fault
  // schedule, session draws) may carry over.
  const auto scenario = core::measured_variability_scenario();
  // Recorded viewing durations, for the "trace" session model.
  auto recorded =
      std::make_shared<workload::Workload>(*make_workload(200, 4000, 9));
  util::Rng view_rng(10);
  for (auto& r : recorded->requests) {
    if (view_rng.uniform() < 0.5) r.view_s = view_rng.uniform(10.0, 2000.0);
  }

  SimulationArena arena;
  std::uint64_t seed = 500;
  const auto check = [&](SimulationConfig cfg, const std::string& label) {
    cfg.policy = "pb";
    cfg.seed = seed++;
    expect_reuse_matches_fresh(arena, recorded, scenario, cfg, 0.05,
                               label + " x " + cfg.estimator);
  };
  for (const char* estimator : {"oracle", "ewma:alpha=0.3"}) {
    SimulationConfig cfg;
    cfg.estimator = estimator;
    check(cfg, "plain");

    cfg.viewing.enabled = true;
    cfg.patching.enabled = true;
    check(cfg, "viewing + patching");
    cfg.viewing.enabled = false;

    for (const char* mode : {"full", "exp:mean=900", "empirical", "trace"}) {
      for (const bool patching : {true, false}) {
        cfg.interactivity = InteractivityConfig::parse(mode);
        cfg.patching.enabled = patching;
        check(cfg, std::string("interactivity=") + mode +
                       (patching ? " + patching" : ""));
      }
    }

    cfg.interactivity = InteractivityConfig{};
    cfg.patching.enabled = false;
    cfg.fault = net::FaultPlan::parse("fault:outage=15000+5000");
    check(cfg, "outage");
    cfg.fault = net::FaultPlan{};
    check(cfg, "clean after outage");
  }
  EXPECT_EQ(arena.size(), 2u);
}

/// Forwards to a built-in policy but keeps CachePolicy's default
/// rebind(), so an arena must rebuild it for every simulation.
class ForwardingPolicy final : public cache::CachePolicy {
 public:
  explicit ForwardingPolicy(std::unique_ptr<cache::CachePolicy> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_access(workload::ObjectId id, double now_s,
                 cache::PartialStore& store) override {
    inner_->on_access(id, now_s, store);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<cache::CachePolicy> inner_;
};

/// The estimator counterpart of ForwardingPolicy.
class ForwardingEstimator final : public net::BandwidthEstimator {
 public:
  explicit ForwardingEstimator(std::unique_ptr<net::BandwidthEstimator> inner)
      : inner_(std::move(inner)) {}
  void observe(net::PathId path, double throughput, double now_s) override {
    inner_->observe(path, throughput, now_s);
  }
  [[nodiscard]] bool uses_observations() const override {
    return inner_->uses_observations();
  }
  [[nodiscard]] double estimate(net::PathId path, double now_s) override {
    return inner_->estimate(path, now_s);
  }
  [[nodiscard]] std::size_t overhead_packets() const override {
    return inner_->overhead_packets();
  }

 private:
  std::unique_ptr<net::BandwidthEstimator> inner_;
};

const core::registry::PolicyRegistrar kForwardingPb{
    {"test-forwarding-pb", {}, "PB behind a policy without rebind()", {}},
    [](const util::Spec&, const core::registry::PolicyContext& ctx) {
      return std::make_unique<ForwardingPolicy>(
          std::make_unique<cache::PbPolicy>(ctx.catalog, ctx.estimator));
    }};

const core::registry::EstimatorRegistrar kForwardingProbe{
    {"test-forwarding-probe", {}, "probe behind an estimator without rebind()",
     {}},
    [](const util::Spec&, core::registry::EstimatorContext& ctx) {
      return std::make_unique<ForwardingEstimator>(
          core::registry::make_estimator("probe:interval_s=600", ctx.paths,
                                         ctx.rng));
    }};

TEST(ArenaReuse, ComponentsWithoutRebindAreRebuiltAndMatchTheirTwins) {
  // A user-registered component with no rebind() override is rebuilt for
  // every simulation (together with its partner); interleaved with the
  // built-in twin on one arena, each run must equal the twin's run.
  const auto scenario = core::measured_variability_scenario();
  SimulationArena arena;
  const struct {
    const char* policy;
    const char* estimator;
    const char* twin_policy;
    const char* twin_estimator;
  } pairs[] = {
      {"test-forwarding-pb", "ewma", "pb", "ewma"},
      {"pb", "test-forwarding-probe", "pb", "probe:interval_s=600"},
      {"test-forwarding-pb", "test-forwarding-probe", "pb",
       "probe:interval_s=600"},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& p : pairs) {
      SimulationConfig custom;
      custom.policy = p.policy;
      custom.estimator = p.estimator;
      custom.seed = 40 + seed;
      const auto w = make_workload(100 + 20 * seed, 3000, seed);
      const std::string label = std::string(p.policy) + " x " + p.estimator;
      expect_reuse_matches_fresh(arena, w, scenario, custom, 0.05, label);

      custom.cache_capacity_bytes = 0.05 * w->catalog.total_bytes();
      custom.path_config.mode = scenario.mode;
      SimulationConfig twin = custom;
      twin.policy = p.twin_policy;
      twin.estimator = p.twin_estimator;
      expect_results_identical(
          Simulator(*w, scenario.base, scenario.ratio, custom).run(),
          Simulator(*w, scenario.base, scenario.ratio, twin).run(),
          label + " vs its twin");
    }
  }
}

TEST(ArenaReuse, SweepCellsMatchFreshSimulatorRuns) {
  // The sweep's lanes run on per-worker arenas (lockstep groups under
  // kStream); each cell's averages must equal those of fresh Simulator
  // runs over the same per-replication workloads and seeds.
  const auto scenario = core::measured_variability_scenario();
  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 120;
  cfg.workload.trace.num_requests = 3000;
  cfg.runs = 2;
  cfg.base_seed = 77;
  cfg.threads = 1;
  cfg.sim.estimator = "ewma";
  std::vector<core::SweepCell> cells;
  for (const char* policy : {"pb", "lru", "hybrid:e=0.5"}) {
    for (const double fraction : {0.01, 0.05}) {
      cells.push_back(core::SweepCell{policy, -1.0, fraction, {}, {}, {}});
    }
  }

  std::vector<workload::Workload> workloads;
  std::vector<std::uint64_t> path_seeds;
  for (std::size_t r = 0; r < cfg.runs; ++r) {
    // core::SweepRunner's per-replication seed stream.
    const util::Rng run_rng(util::splitmix64(cfg.base_seed + 0x9e37 * r));
    util::Rng workload_rng = run_rng.fork("workload");
    workloads.push_back(
        workload::generate_workload(cfg.workload, workload_rng));
    path_seeds.push_back(run_rng.fork("paths").seed());
  }

  for (const auto streaming : {workload::StreamingMode::kMaterialize,
                               workload::StreamingMode::kStream}) {
    cfg.streaming = streaming;
    const auto swept = core::SweepRunner(cfg, scenario).run(cells);
    ASSERT_EQ(swept.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      SimulationConfig sim = cfg.sim;
      sim.policy = cells[c].policy;
      sim.cache_capacity_bytes =
          core::capacity_for_fraction(cfg.workload.catalog,
                                      cells[c].cache_fraction);
      sim.path_config.mode = scenario.mode;
      stats::RunningStats hit, traffic, delay, quality, fill, occupancy;
      for (std::size_t r = 0; r < cfg.runs; ++r) {
        sim.seed = path_seeds[r];
        const SimulationResult fresh =
            Simulator(workloads[r], scenario.base, scenario.ratio, sim).run();
        hit.add(fresh.metrics.hit_ratio());
        traffic.add(fresh.metrics.traffic_reduction_ratio());
        delay.add(fresh.metrics.average_delay_s());
        quality.add(fresh.metrics.average_quality());
        fill.add(fresh.metrics.fill_bytes());
        occupancy.add(fresh.final_occupancy_bytes);
      }
      const std::string label = cells[c].policy + " @ " +
                                std::to_string(cells[c].cache_fraction);
      EXPECT_EQ(swept[c].hit_ratio, hit.mean()) << label;
      EXPECT_EQ(swept[c].traffic_reduction, traffic.mean()) << label;
      EXPECT_EQ(swept[c].delay_s, delay.mean()) << label;
      EXPECT_EQ(swept[c].quality, quality.mean()) << label;
      EXPECT_EQ(swept[c].fill_bytes, fill.mean()) << label;
      EXPECT_EQ(swept[c].occupancy_bytes, occupancy.mean()) << label;
    }
  }
}

}  // namespace
}  // namespace sc::sim
