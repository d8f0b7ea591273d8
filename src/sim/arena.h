// Per-worker simulation arenas: component reuse across simulations.
//
// A sweep executes cells x replications simulations, and built from
// scratch every one of them re-allocates its setup state: the event
// queue, the partial store's id array, the policy's frequency vector and
// index, the estimator's per-path arrays, the in-flight patching table.
// None of that state depends on anything but the catalog size and the
// component specs, so a worker thread can build it once and reuse it
// across every simulation it executes.
//
// SimulationArena is that per-worker cache. It maps a raw (policy spec,
// estimator spec) pair to an Engine: the pair's registry-built components
// (sim::make_virtual_proxy, the one construction path), their reusable
// RunState, and the in-progress RequestLoop of a lockstep run. Starting a
// simulation rebinds the cached components to the run's catalog, path
// model and seed (cache::CachePolicy::rebind,
// net::BandwidthEstimator::rebind), which leaves them bit-identical to
// freshly built ones. A component whose rebind returns false (a
// user-registered one without an override) is rebuilt for every
// simulation, and so is its partner, because the policy holds the
// estimator. core::SweepRunner owns one arena per util::ThreadPool slot,
// so steady-state sweep allocations are O(workers x distinct specs), not
// O(cells x replications).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/run_loop.h"

namespace sc::sim {

/// Everything an arena engine needs to execute one simulation. Strings
/// and heavyweight state are referenced, not copied, so building a
/// context allocates nothing.
struct RunContext {
  /// The run's request source (replayed, regenerated, or file-backed;
  /// see workload/request_stream.h). Shared per (alpha, replication) by
  /// core::SweepRunner.
  const workload::RequestStream* stream = nullptr;
  /// Shared immutable path model (one per replication, see core::Sweep).
  /// When null the engine draws its own from `base`/`ratio` and the
  /// config's path seed — bit-identical by the PathModel RNG-snapshot
  /// contract.
  std::shared_ptr<const net::PathModel> model;
  const stats::EmpiricalDistribution* base = nullptr;
  const stats::EmpiricalDistribution* ratio = nullptr;
  /// Component specs and simulation knobs. `config->seed` is ignored in
  /// favor of `seed` so sweep tasks need not copy the config per
  /// replication.
  const SimulationConfig* config = nullptr;
  std::uint64_t seed = 0;
};

/// Per-worker cache of component pairs keyed by the *raw* (policy,
/// estimator) spec strings (so a steady-state lookup is a pair of string
/// compares — no parsing, no hashing, no allocation). Not thread-safe:
/// each worker owns its arena exclusively.
class SimulationArena {
 public:
  /// One spec pair's components and run state. Spec parsing, the
  /// registry lock and the policy's name formatting happen only when the
  /// components are built: once, for components that rebind.
  class Engine {
   public:
    Engine(std::string policy, std::string estimator)
        : policy_(std::move(policy)), estimator_(std::move(estimator)) {}

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    [[nodiscard]] const std::string& policy() const noexcept {
      return policy_;
    }
    [[nodiscard]] const std::string& estimator() const noexcept {
      return estimator_;
    }

    /// One simulation fed by the caller, block by block: begin(context),
    /// then consume() every block of `context.stream` in order with its
    /// draws (sim/block_draws.h, reset for the context's path model,
    /// session model and seed), then finish(). core::SweepRunner drives
    /// several engines in lockstep from one shared cursor and shared
    /// draws this way. begin() rebinds the components (or rebuilds them,
    /// see above) for the context's workload, model and seed.
    void begin(const RunContext& context);
    void consume(const workload::RequestBlock& block,
                 const BlockDraws& draws) {
      loop_->consume(block, draws);
    }
    [[nodiscard]] SimulationResult finish();

   private:
    std::string policy_;
    std::string estimator_;
    VirtualProxy proxy_;
    RunState state_;
    /// The in-progress lockstep run (begin() .. finish()).
    std::optional<RequestLoop<>> loop_;
  };

  /// The engine for `config`'s (policy, estimator) pair, added on first
  /// use. Its components are built by its first run; a malformed spec
  /// throws util::SpecError there, exactly like the registry factories.
  [[nodiscard]] Engine& engine(const SimulationConfig& config);

  [[nodiscard]] std::size_t size() const noexcept { return engines_.size(); }

 private:
  // A handful of entries; linear scan. Engines are pinned (lockstep
  // lanes hold pointers to them).
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace sc::sim
