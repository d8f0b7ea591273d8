// Trace-driven proxy-cache simulator (§3 methodology).
//
// Wires together workload, path bandwidth processes, bandwidth estimation,
// the cache store + replacement policy, and joint delivery. Following the
// paper: the first half of the trace warms the cache; metrics accumulate
// over the second half.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/fault.h"
#include "net/path_process.h"
#include "sim/interactivity.h"
#include "sim/metrics.h"
#include "workload/generator.h"
#include "workload/request_stream.h"

namespace sc::sim {

class BlockDraws;

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

  /// Run on the monomorphized engine when the (policy, estimator) pair
  /// is covered by the built-in dispatch table (sim/arena.h): the
  /// request loop is compiled per concrete kernel pair, so estimate()
  /// and the admission path are inlined with no virtual dispatch.
  /// Results are bit-identical either way; `false` forces the virtual
  /// fallback path, kept as a regression oracle. Out-of-table
  /// (user-registered) specs always take the fallback path.
  bool monomorphize = true;
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

class SimulationArena;

/// One simulation run over a fixed workload.
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

  /// Shared-path-model form: run() samples bandwidth from `path_model`
  /// (which must have one path per catalog object) instead of drawing a
  /// fresh model. Because the model snapshots its post-draw RNG state,
  /// results are bit-identical to the unshared constructor when the
  /// model was built from `Rng(config.seed).fork("paths")` — this is how
  /// core::SweepRunner shares one model per replication across a whole
  /// grid (see docs/PERF.md).
  Simulator(const workload::Workload& workload,
            std::shared_ptr<const net::PathModel> path_model,
            SimulationConfig config);

  /// Stream forms: as above, but over any workload::RequestStream —
  /// replayed, regenerated-on-the-fly, or file-backed. The Workload
  /// constructors are equivalent to wrapping the workload in a replay
  /// stream; results are bit-identical across all four constructors.
  Simulator(workload::RequestStream stream,
            const stats::EmpiricalDistribution& base_bandwidth,
            const stats::EmpiricalDistribution& ratio_model,
            SimulationConfig config);
  Simulator(workload::RequestStream stream,
            std::shared_ptr<const net::PathModel> path_model,
            SimulationConfig config);

  /// Execute the full trace and return measured-window metrics.
  [[nodiscard]] SimulationResult run();

  /// As run(), reusing `arena`'s cached monomorphized engine (and its
  /// event queue / store / heap / estimator storage) when the config's
  /// (policy, estimator) pair is in the dispatch table. Sweep workers
  /// pass their per-worker arena so back-to-back simulations allocate
  /// nothing; a null arena uses a run-local one.
  [[nodiscard]] SimulationResult run(SimulationArena* arena);

  /// The virtual-path run fed by the caller, block by block: begin(),
  /// then consume() every block of the simulator's stream in order (from
  /// any cursor over it) with its draws (sim/block_draws.h, reset for
  /// this run's path model, session model and seed), then finish().
  /// Bit-identical to run(); core::SweepRunner drives several
  /// simulations of one stream in lockstep this way so each block and
  /// its draws are produced once per group. This always takes the
  /// virtual fallback path — the monomorphized engines expose the same
  /// surface through MonoEngineBase.
  void begin();
  void consume(const workload::RequestBlock& block, const BlockDraws& draws);
  [[nodiscard]] SimulationResult finish();

  ~Simulator();

 private:
  /// The virtual-path components of one run (registry-built policy and
  /// estimator, run state, and the lockstep request loop when begun).
  struct Fallback;

  [[nodiscard]] std::unique_ptr<Fallback> make_fallback(util::Rng& rng) const;
  [[nodiscard]] SimulationResult run_fallback();

  Simulator(workload::RequestStream stream,
            const stats::EmpiricalDistribution* base_bandwidth,
            const stats::EmpiricalDistribution* ratio_model,
            std::shared_ptr<const net::PathModel> path_model,
            SimulationConfig config);

  workload::RequestStream stream_;
  // Engaged only for the unshared constructor (run() builds the model).
  std::optional<stats::EmpiricalDistribution> base_;
  std::optional<stats::EmpiricalDistribution> ratio_;
  std::shared_ptr<const net::PathModel> path_model_;
  SimulationConfig config_;
  // The in-progress begin()..finish() run.
  std::unique_ptr<Fallback> fallback_;
};

}  // namespace sc::sim
