// Microbenchmarks (google-benchmark): the data-structure and hot-path
// costs behind the paper's O(log n) replacement claim (§2.4), workload
// generation throughput, and end-to-end simulation speed.

#include <benchmark/benchmark.h>

#include "cache/min_heap.h"
#include "cache/policy.h"
#include "cache/store.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "net/bandwidth_model.h"
#include "net/estimator.h"
#include "net/variability.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace {

using namespace sc;

void BM_HeapPushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    cache::IndexedMinHeap heap(n);
    for (std::size_t i = 0; i < n; ++i) heap.push(i, rng.uniform());
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop_min());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_HeapPushPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HeapUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  cache::IndexedMinHeap heap(n);
  for (std::size_t i = 0; i < n; ++i) heap.push(i, rng.uniform());
  std::size_t i = 0;
  for (auto _ : state) {
    heap.update(i % n, rng.uniform());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HeapUpdate)->Arg(1000)->Arg(100000);

void BM_PolicyOnAccess(benchmark::State& state, const char* spec) {
  // Steady-state access cost of one registry policy on the paper-scale
  // catalog, through the simulator's CachePolicy boundary.
  util::Rng rng(3);
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 5000;
  wcfg.trace.num_requests = 20000;
  const auto w = workload::generate_workload(wcfg, rng);
  net::PathModelConfig pcfg;
  const net::PathModel paths(w.catalog.size(), net::nlanr_base_model(),
                             net::constant_variability_model(), pcfg,
                             rng.fork());
  net::OracleEstimator estimator(paths);
  cache::PartialStore store(
      core::capacity_for_fraction(wcfg.catalog, 0.08));
  const auto policy = core::registry::make_policy(spec, w.catalog, estimator);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& req = w.requests[i % w.requests.size()];
    policy->on_access(req.object, req.time_s, store);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_PolicyOnAccess, pb, "pb");
BENCHMARK_CAPTURE(BM_PolicyOnAccess, lru, "lru");

void BM_RegistryMakePolicy(benchmark::State& state) {
  // Spec parse + registry lookup + construction; must stay negligible
  // next to a simulation run (it happens once per replication).
  util::Rng rng(7);
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 5000;
  const auto catalog = workload::Catalog::generate(wcfg.catalog, rng);
  net::PathModelConfig pcfg;
  const net::PathModel paths(catalog.size(), net::nlanr_base_model(),
                             net::constant_variability_model(), pcfg,
                             rng.fork());
  net::OracleEstimator estimator(paths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::registry::make_policy("hybrid:e=0.5", catalog, estimator));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryMakePolicy);

void BM_WorkloadGeneration(benchmark::State& state) {
  workload::WorkloadConfig cfg;
  cfg.catalog.num_objects = 5000;
  cfg.trace.num_requests = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(workload::generate_workload(cfg, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WorkloadGeneration)->Arg(100000);

void BM_SimulationEndToEnd(benchmark::State& state) {
  util::Rng rng(4);
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 5000;
  wcfg.trace.num_requests = static_cast<std::size_t>(state.range(0));
  const auto w = workload::generate_workload(wcfg, rng);
  const auto base = net::nlanr_base_model();
  const auto ratio = net::measured_variability_model();
  sim::SimulationConfig scfg;
  scfg.cache_capacity_bytes = core::capacity_for_fraction(wcfg.catalog, 0.08);
  scfg.policy = "pb";
  scfg.path_config.mode = net::VariationMode::kIidRatio;
  for (auto _ : state) {
    sim::Simulator simulator(w, base, ratio, scfg);
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulationEndToEnd)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
