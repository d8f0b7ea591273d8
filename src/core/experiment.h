// Experiment harness: named bandwidth scenarios, multi-run averaging, and
// parameter sweeps. Every paper figure is a composition of these pieces
// (see DESIGN.md §5 for the figure -> bench mapping).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/bandwidth_model.h"
#include "net/variability.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace sc::core {

/// A bandwidth environment (base model + ratio model + variation mode),
/// optionally replaying a recorded workload instead of the synthetic
/// generator.
struct Scenario {
  std::string name;
  stats::EmpiricalDistribution base;
  stats::EmpiricalDistribution ratio;
  net::VariationMode mode = net::VariationMode::kConstant;
  /// Trace replay ("trace:file=PATH" scenarios): when non-null, every
  /// sweep cell and replication replays this immutable workload instead
  /// of generating one — the file is loaded once per registry::
  /// make_scenario call and shared across the whole grid, so workload
  /// shape knobs (objects/requests/zipf alpha) are ignored and
  /// replications differ only in their bandwidth draws. Cache fractions
  /// resolve against the replayed catalog's actual total size.
  std::shared_ptr<const workload::Workload> replay;
  /// Streaming replay ("trace:file=PATH,stream=1"): like `replay`, but
  /// only the catalog stays resident; request records re-stream from
  /// disk chunk-wise, once per lockstep group of simulations (O(chunk)
  /// memory for multi-GB traces). At most one of `replay`/`stream` is set; results
  /// are field-identical between the two.
  std::shared_ptr<const workload::RequestStream> stream;
};

/// NLANR base means, no time variation (Figs 5, 6, 10).
[[nodiscard]] Scenario constant_scenario();
/// NLANR base means, iid per-request ratio from the Fig-3 model (Fig 7).
[[nodiscard]] Scenario nlanr_variability_scenario();
/// NLANR base means, iid ratio from the pooled Fig-4 model (Figs 8, 11, 12).
[[nodiscard]] Scenario measured_variability_scenario();
/// NLANR base means, AR(1) time-series ratios (extension experiments).
[[nodiscard]] Scenario timeseries_scenario(net::MeasuredPath path);

/// Cross-run mean and standard deviation for each §3.3 metric.
struct AveragedMetrics {
  std::size_t runs = 0;
  double traffic_reduction = 0.0, traffic_reduction_sd = 0.0;
  double delay_s = 0.0, delay_s_sd = 0.0;
  double quality = 0.0, quality_sd = 0.0;
  double added_value = 0.0, added_value_sd = 0.0;
  double hit_ratio = 0.0;
  double immediate_ratio = 0.0;
  double fill_bytes = 0.0;
  double occupancy_bytes = 0.0;
  /// Mean per-replication requests/bytes denied by unreachable origins
  /// (fault injection; identically 0 without a fault plan).
  double denied_requests = 0.0;
  double denied_bytes = 0.0;
  /// Fleet cells only (SweepCell::fleet; identically 0 / 1 / 0 for
  /// single-cell sweeps): mean origin-uplink utilization, mean max/mean
  /// per-proxy load imbalance, and mean peer-assisted request fraction.
  double uplink_utilization = 0.0;
  double load_imbalance = 0.0;
  double peer_hit_ratio = 0.0;
};

struct ExperimentConfig {
  workload::WorkloadConfig workload{};
  /// Per-simulation knobs: component specs, capacity, extensions, fault
  /// plan and seed.
  sim::SimulationConfig sim{};
  /// Independent replications; the paper averages ten runs per point.
  std::size_t runs = 10;
  std::uint64_t base_seed = 42;
  /// Run replications on a thread pool. Results are bit-identical to the
  /// serial path regardless (see core/sweep.h).
  bool parallel = true;
  /// Simulations run at once when parallel: 0 = the process-wide shared
  /// pool (util::ThreadPool::default_threads()), 1 = inline serial, else
  /// a dedicated pool of that many threads, the calling thread included.
  std::size_t threads = 0;
  /// Build one immutable net::PathModel per replication and share it
  /// across every sweep cell (means depend only on the replication seed;
  /// see docs/PERF.md). `false` rebuilds the model inside every
  /// simulation — bit-identical results, only slower; kept as a
  /// regression-test oracle and diagnostic escape hatch.
  bool share_path_models = true;
  /// How per-(alpha, run) workloads reach the simulations: materialized
  /// request vectors (O(num_requests) memory each) or regenerating
  /// streams (O(stream_chunk) memory; each lockstep group of
  /// simulations re-derives the byte-identical sequence once from the
  /// shared per-(alpha, run) RNG snapshot, see core/sweep.h). kAuto
  /// streams above workload::kAutoStreamThreshold requests. Results are bit-identical across all three modes.
  workload::StreamingMode streaming = workload::StreamingMode::kAuto;
};

/// Run `config.runs` independent replications (fresh workload and path
/// table per run, seeds derived from base_seed) under `scenario` and
/// average the measured-window metrics.
[[nodiscard]] AveragedMetrics run_experiment(const ExperimentConfig& config,
                                             const Scenario& scenario);

/// Convenience: express a cache size as a fraction of the *expected*
/// total unique object size (the paper's x-axis, "Cache Size (Percentage
/// of Unique Object Size)").
[[nodiscard]] double capacity_for_fraction(
    const workload::CatalogConfig& catalog, double fraction);

/// The paper's evaluated cache sizes, 4 GB .. 128 GB as fractions of the
/// ~790 GB corpus: {0.005, 0.01, 0.02, 0.04, 0.085, 0.169}.
[[nodiscard]] std::vector<double> paper_cache_fractions();

}  // namespace sc::core
