// Trace-driven proxy-cache simulator (§3 methodology).
//
// Wires together workload, path bandwidth processes, bandwidth estimation,
// the cache store + replacement policy, and joint delivery. Following the
// paper: the first half of the trace warms the cache; metrics accumulate
// over the second half.
#pragma once

#include <cstdint>
#include <string>

#include "net/fault.h"
#include "net/path_process.h"
#include "sim/interactivity.h"
#include "sim/metrics.h"
#include "workload/generator.h"
#include "workload/request_stream.h"

namespace sc::sim {

/// Client interactivity (extension; the paper's §5 cites measurement
/// studies showing most sessions terminate early). When enabled, each
/// request watches the whole stream with `complete_probability`,
/// otherwise a Uniform[min_fraction, 1) fraction of it. Startup metrics
/// (delay / quality / added value) are unaffected; byte accounting
/// (traffic reduction, transfer durations) scales with the viewed part.
struct ViewingConfig {
  bool enabled = false;
  double complete_probability = 0.6;
  double min_fraction = 0.05;
};

/// Proxy-side stream sharing (the paper's future-work "patching and
/// batching techniques at caching proxies"). While an origin stream of an
/// object is in flight (paced at the playout rate over the object's
/// duration), later requests for the same object share its remainder and
/// fetch only the missed prefix ("patch") from cache + origin. Shared
/// bytes traverse the backbone once; see
/// MetricsCollector::backbone_reduction_ratio.
struct PatchingConfig {
  bool enabled = false;
};

struct SimulationConfig {
  double cache_capacity_bytes = 0.0;

  /// Replacement policy spec, resolved through core::registry
  /// ("pb", "hybrid:e=0.5", "pbv:e=0.7", ...).
  std::string policy = "pb";

  /// Bandwidth estimator spec ("oracle", "ewma:alpha=0.3,prior_kbps=50",
  /// "last", "probe:interval_s=3600"). The paper's simulations assume
  /// the cache knows each path's average bandwidth, i.e. the oracle;
  /// the others exist for the measurement-realism experiments. Tuning
  /// knobs (EWMA alpha, probe interval, priors) are spec parameters.
  std::string estimator = "oracle";

  ViewingConfig viewing{};
  PatchingConfig patching{};

  /// Client session dynamics: per-request viewing duration model (see
  /// sim/interactivity.h). The default ("full") is observationally
  /// identical to the simulator before session dynamics existed and
  /// serves as its regression oracle; "exp:mean=S", "empirical", and
  /// "trace" truncate sessions, cancelling the remainder of in-flight
  /// deliveries and re-deriving startup/quality/byte metrics over the
  /// viewed prefix.
  InteractivityConfig interactivity{};

  /// Deterministic fault injection (net/fault.h): origin outages, path
  /// degradation windows, estimator blackouts, flapping. The default
  /// empty plan is provably inert — the run loop skips every fault hook
  /// when `fault.empty()`, so results are bit-identical to a build
  /// without the fault layer (golden-CSV enforced).
  net::FaultPlan fault{};

  net::PathModelConfig path_config{};    // constant / iid / AR(1) variation
  double warmup_fraction = 0.5;          // fraction of trace used to warm
  std::uint64_t seed = 1;                // path means + variability streams

  /// Request-cursor chunk size (workload::RequestCursor): how many
  /// requests are materialized/gathered per block in the run loop.
  /// Results are bit-identical for every value >= 1; this knob trades
  /// per-chunk overhead against SoA scratch locality (and bounds peak
  /// memory for regenerated streams at O(stream_chunk)).
  std::size_t stream_chunk = workload::kDefaultStreamChunk;
};

struct SimulationResult {
  std::string policy_name;
  MetricsCollector metrics;  // measured window only
  std::size_t warmup_requests = 0;
  std::size_t measured_requests = 0;
  double final_occupancy_bytes = 0.0;
  std::size_t final_cached_objects = 0;
  std::size_t estimator_overhead_packets = 0;
};

/// One simulation run over a fixed workload, with its components built
/// fresh through the registry (sim::make_virtual_proxy). Sweeps run
/// their simulations on per-worker sim::SimulationArena instances
/// instead, which reuse the components; results are bit-identical.
class Simulator {
 public:
  /// `workload` must outlive the simulator. `base_bandwidth` is the
  /// per-path mean model (Fig 2); `ratio_model` the variability model
  /// (constant / Fig 3 / Fig 4) applied per `config.path_config.mode`.
  /// The path model (per-path mean draws) is built inside run() from
  /// `config.seed`.
  Simulator(const workload::Workload& workload,
            const stats::EmpiricalDistribution& base_bandwidth,
            const stats::EmpiricalDistribution& ratio_model,
            SimulationConfig config);

  /// Execute the full trace and return measured-window metrics.
  [[nodiscard]] SimulationResult run();

 private:
  workload::RequestStream stream_;
  stats::EmpiricalDistribution base_;
  stats::EmpiricalDistribution ratio_;
  SimulationConfig config_;
};

}  // namespace sc::sim
