// Steady-state allocation regression for the simulator hot path.
//
// The per-request path — event queue (POD observations), partial store
// (dense array), policy heap (pre-reserved), bandwidth sampling (alias
// table / empirical lookup) — must not allocate. We can't hook the
// middle of a run, but we can assert the scaling consequence: doubling
// the trace length must not add allocations, because everything that
// allocates (workload, catalog, policy, estimator, path table) is
// sized by the catalog, not the trace. Global operator new is replaced
// with a counting wrapper for this binary only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <utility>

#include "core/experiment.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_new_bytes{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sc::sim {
namespace {

workload::Workload make_workload(std::size_t requests) {
  workload::WorkloadConfig cfg;
  cfg.catalog.num_objects = 300;
  cfg.trace.num_requests = requests;
  util::Rng rng(42);
  return workload::generate_workload(cfg, rng);
}

std::uint64_t allocations_for_run(const workload::Workload& w,
                                  const std::string& policy,
                                  const std::string& estimator,
                                  bool patching = false,
                                  bool viewing = false) {
  const auto base = core::constant_scenario().base;
  const auto ratio = core::constant_scenario().ratio;
  SimulationConfig cfg;
  cfg.cache_capacity_bytes =
      core::capacity_for_fraction(workload::CatalogConfig{}, 0.001);
  cfg.policy = policy;
  cfg.estimator = estimator;
  cfg.patching.enabled = patching;
  cfg.viewing.enabled = viewing;
  Simulator simulator(w, base, ratio, cfg);
  const std::uint64_t before = g_news.load();
  (void)simulator.run();
  return g_news.load() - before;
}

TEST(HotPathAllocations, DoNotScaleWithTraceLength) {
  const auto short_trace = make_workload(5000);
  const auto long_trace = make_workload(20000);

  for (const char* policy : {"pb", "if", "lru"}) {
    // Warm once so lazy registry/static setup doesn't count.
    (void)allocations_for_run(short_trace, policy, "oracle");
    const auto a_short = allocations_for_run(short_trace, policy, "oracle");
    const auto a_long = allocations_for_run(long_trace, policy, "oracle");
    // 4x the requests may not cost more than a sliver of extra
    // allocations (event-queue storage growing to its steady size).
    EXPECT_LE(a_long, a_short + 64)
        << policy << ": " << a_short << " allocs at 5k requests vs "
        << a_long << " at 20k";
  }
}

TEST(HotPathAllocations, PatchingAndViewingScenariosAreAllocationFreeToo) {
  // The patching in-flight table is a dense per-object vector (sized by
  // the catalog, filled before the loop) and viewing only draws from a
  // pre-forked RNG, so enabling both must not reintroduce per-request
  // allocation (the old per-request std::unordered_map did).
  const auto short_trace = make_workload(5000);
  const auto long_trace = make_workload(20000);
  (void)allocations_for_run(short_trace, "pb", "oracle", /*patching=*/true,
                            /*viewing=*/true);
  const auto a_short = allocations_for_run(short_trace, "pb", "oracle", true,
                                           true);
  const auto a_long = allocations_for_run(long_trace, "pb", "oracle", true,
                                          true);
  EXPECT_LE(a_long, a_short + 64)
      << a_short << " allocs at 5k requests vs " << a_long << " at 20k";
}

TEST(HotPathAllocations, SweepAllocationsDoNotScaleWithCellCount) {
  // The arena guarantee: with per-worker engine caches, per-simulation
  // setup (event queue, store, policy heap, estimator state) is
  // reset()-reused, so quadrupling the number of sweep cells — same
  // policies, more cache fractions — must not add allocations beyond
  // fixed per-sweep bookkeeping (result vectors sized by the grid).
  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 300;
  cfg.workload.trace.num_requests = 4000;
  cfg.runs = 2;
  cfg.threads = 1;
  const auto scenario = core::constant_scenario();

  const auto cells_for = [](std::size_t fractions) {
    std::vector<core::SweepCell> cells;
    for (const char* policy : {"pb", "if", "lru"}) {
      for (std::size_t f = 1; f <= fractions; ++f) {
        cells.push_back(
            core::SweepCell{policy, -1.0, 0.01 * static_cast<double>(f), {}, {}, {}});
      }
    }
    return cells;
  };
  const auto small_grid = cells_for(2);   // 6 cells
  const auto large_grid = cells_for(8);   // 24 cells

  core::SweepRunner runner(cfg, scenario);
  const auto allocations_for = [&](const std::vector<core::SweepCell>& cells) {
    (void)runner.run(cells);  // warm lazy registry/static setup
    const std::uint64_t before = g_news.load();
    (void)runner.run(cells);
    return g_news.load() - before;
  };

  const auto a_small = allocations_for(small_grid);
  const auto a_large = allocations_for(large_grid);
  EXPECT_LE(a_large, a_small + 64)
      << a_small << " allocs at " << small_grid.size() << " cells vs "
      << a_large << " at " << large_grid.size();
}

TEST(HotPathAllocations, LockstepSweepAllocationsDoNotScaleWithCellCount) {
  // The same guarantee on the lockstep path: under kStream every group
  // rebinds its worker's one cursor and reuses its lane storage, so
  // quadrupling the cells (and the groups) must not add allocations
  // beyond fixed per-sweep bookkeeping either.
  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 300;
  cfg.workload.trace.num_requests = 4000;
  cfg.runs = 2;
  cfg.threads = 1;
  cfg.streaming = workload::StreamingMode::kStream;
  const auto cells_for = [](std::size_t fractions) {
    std::vector<core::SweepCell> cells;
    for (const char* policy : {"pb", "if", "lru"}) {
      for (std::size_t f = 1; f <= fractions; ++f) {
        cells.push_back(core::SweepCell{
            policy, -1.0, 0.01 * static_cast<double>(f), {}, {}, {}});
      }
    }
    return cells;
  };
  core::SweepRunner runner(cfg, core::constant_scenario());
  const auto allocations_for = [&](const std::vector<core::SweepCell>& cells) {
    (void)runner.run(cells);  // warm lazy registry/static setup
    const std::uint64_t before = g_news.load();
    (void)runner.run(cells);
    return g_news.load() - before;
  };
  const auto a_small = allocations_for(cells_for(2));  // 6 cells, 4 groups
  const auto a_large = allocations_for(cells_for(8));  // 24 cells, 16 groups
  EXPECT_LE(a_large, a_small + 64)
      << a_small << " allocs at 6 cells vs " << a_large << " at 24";
}

TEST(HotPathAllocations, TraceReplayLoadsOncePerGridNotPerCell) {
  // The trace scenario's contract: the file is read once per
  // make_scenario call into one immutable workload; SweepRunner shares
  // it across every cell and replication, so quadrupling the grid must
  // not add workload (or any other) allocations beyond fixed per-sweep
  // bookkeeping — and a sweep over the replay generates zero workloads.
  const auto w = make_workload(4000);
  const auto trace_path =
      std::filesystem::temp_directory_path() / "sc_alloc_trace.trace";
  workload::write_trace(w, trace_path);
  const auto scenario = core::registry::make_scenario(
      "trace:file=" + trace_path.string());
  std::filesystem::remove(trace_path);

  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 300;
  cfg.runs = 2;
  cfg.threads = 1;

  const auto cells_for = [](std::size_t fractions) {
    std::vector<core::SweepCell> cells;
    for (const char* policy : {"pb", "if", "lru"}) {
      for (std::size_t f = 1; f <= fractions; ++f) {
        cells.push_back(core::SweepCell{
            policy, -1.0, 0.01 * static_cast<double>(f), {}, {}, {}});
      }
    }
    return cells;
  };
  const auto small_grid = cells_for(2);   // 6 cells
  const auto large_grid = cells_for(8);   // 24 cells

  core::SweepRunner runner(cfg, scenario);
  const auto allocations_for = [&](const std::vector<core::SweepCell>& cells) {
    core::SweepStats stats;
    (void)runner.run(cells, &stats);  // warm lazy registry/static setup
    EXPECT_EQ(stats.workloads_generated, 0u);
    const std::uint64_t before = g_news.load();
    (void)runner.run(cells);
    return g_news.load() - before;
  };

  const auto a_small = allocations_for(small_grid);
  const auto a_large = allocations_for(large_grid);
  EXPECT_LE(a_large, a_small + 64)
      << a_small << " allocs at " << small_grid.size() << " cells vs "
      << a_large << " at " << large_grid.size();
}

TEST(HotPathAllocations, SessionDynamicsAreAllocationFreeToo) {
  // The interactivity draw is a pre-forked RNG stream plus constexpr
  // inverse-CDF math: enabling it must not reintroduce per-request
  // allocation.
  const auto short_trace = make_workload(5000);
  const auto long_trace = make_workload(20000);
  const auto base = core::constant_scenario().base;
  const auto ratio = core::constant_scenario().ratio;
  const auto allocations_for = [&](const workload::Workload& w) {
    SimulationConfig cfg;
    cfg.cache_capacity_bytes =
        core::capacity_for_fraction(workload::CatalogConfig{}, 0.001);
    cfg.policy = "pb";
    cfg.estimator = "oracle";
    cfg.patching.enabled = true;
    cfg.interactivity = InteractivityConfig::parse("empirical");
    Simulator simulator(w, base, ratio, cfg);
    const std::uint64_t before = g_news.load();
    (void)simulator.run();
    return g_news.load() - before;
  };
  (void)allocations_for(short_trace);  // warm lazy setup
  const auto a_short = allocations_for(short_trace);
  const auto a_long = allocations_for(long_trace);
  EXPECT_LE(a_long, a_short + 64)
      << a_short << " allocs at 5k requests vs " << a_long << " at 20k";
}

TEST(HotPathAllocations, StreamingAllocationsDoNotScaleWithTraceLength) {
  // The O(chunk) memory claim, as an enforced scaling property: under
  // StreamingMode::kStream a 4x longer synthetic trace may not add
  // allocation *calls* or cumulative allocated *bytes* beyond a fixed
  // sliver — no materialized request vector, and the cursor's chunk
  // buffers are sized by stream_chunk, not by num_requests.
  const auto run_streamed = [](std::size_t requests) {
    core::ExperimentConfig cfg;
    cfg.workload.catalog.num_objects = 300;
    cfg.workload.trace.num_requests = requests;
    cfg.runs = 2;
    cfg.threads = 1;
    cfg.streaming = workload::StreamingMode::kStream;
    cfg.sim.cache_capacity_bytes =
        core::capacity_for_fraction(workload::CatalogConfig{}, 0.001);
    const std::uint64_t news_before = g_news.load();
    const std::uint64_t bytes_before = g_new_bytes.load();
    (void)core::run_experiment(cfg, core::constant_scenario());
    return std::pair<std::uint64_t, std::uint64_t>{
        g_news.load() - news_before, g_new_bytes.load() - bytes_before};
  };
  (void)run_streamed(20000);  // warm lazy registry/static setup
  const auto [calls_short, bytes_short] = run_streamed(20000);
  const auto [calls_long, bytes_long] = run_streamed(80000);
  EXPECT_LE(calls_long, calls_short + 64)
      << calls_short << " allocs at 20k requests vs " << calls_long
      << " at 80k";
  // 4x the requests would materialize ~60k extra Request structs
  // (~1.4 MB); a fixed 64 KiB sliver proves nothing scales with N.
  EXPECT_LE(bytes_long, bytes_short + 64 * 1024)
      << bytes_short << " bytes at 20k requests vs " << bytes_long
      << " at 80k";
}

TEST(HotPathAllocations, PassiveEstimatorPathIsAllocationFreeToo) {
  // The EWMA estimator exercises the deferred ObservationEvent path for
  // every origin transfer; it must not bring back per-event allocation.
  const auto short_trace = make_workload(5000);
  const auto long_trace = make_workload(20000);
  (void)allocations_for_run(short_trace, "pb", "ewma:alpha=0.3");
  const auto a_short = allocations_for_run(short_trace, "pb", "ewma:alpha=0.3");
  const auto a_long = allocations_for_run(long_trace, "pb", "ewma:alpha=0.3");
  EXPECT_LE(a_long, a_short + 64)
      << a_short << " allocs at 5k requests vs " << a_long << " at 20k";
}

}  // namespace
}  // namespace sc::sim
