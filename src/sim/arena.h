// Per-worker simulation arenas and the monomorphized engine boundary.
//
// A sweep executes cells x replications simulations, and before this
// layer existed every one of them re-allocated its setup state: the
// event queue, the partial store's id array, the policy's frequency
// vector and heap, the estimator's per-path arrays, the in-flight
// patching table. None of that state depends on anything but the
// catalog size and the component specs, so a worker thread can build it
// once and reset()-reuse it across every simulation it executes.
//
// SimulationArena is that per-worker cache. It maps a
// (policy spec, estimator spec) pair to a MonoEngineBase: a fully
// *monomorphized* simulation engine whose request loop was instantiated
// at compile time over the concrete (PolicyKernel, EstimatorKernel)
// pair (see sim/run_loop.h), carrying its reusable RunState and
// component objects. core::SweepRunner owns one arena per
// util::ThreadPool worker slot and hands each simulation task its
// worker's arena, driving steady-state sweep allocations from
// O(cells x replications) to O(workers x distinct specs).
//
// The dispatch table behind acquire_mono_engine covers the registry's
// built-in policy x estimator spec space (8 x 4). Out-of-table specs —
// user-registered components — return nullptr and run on the virtual
// fallback path (sim::Simulator's BandwidthEstimator / CachePolicy
// interfaces), which is also kept as a bit-identity regression oracle
// behind SimulationConfig::monomorphize = false.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace sc::sim {

/// Everything a monomorphized engine needs to execute one simulation.
/// Strings and heavyweight state are referenced, not copied, so building
/// a context allocates nothing.
struct MonoRunContext {
  /// The run's request source (replayed, regenerated, or file-backed;
  /// see workload/request_stream.h). Shared per (alpha, replication) by
  /// core::SweepRunner exactly as materialized workloads used to be.
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

/// A compiled (policy kernel, estimator kernel) pair plus its reusable
/// run state. Starting a run rebinds the cached components to the
/// context's workload/model/seed — bit-identical to constructing them
/// fresh. Everything inside a call is inlined.
class MonoEngineBase {
 public:
  virtual ~MonoEngineBase() = default;

  /// One whole simulation, pulling the context's stream through the
  /// engine's own cursor: one virtual call per *simulation*.
  [[nodiscard]] virtual SimulationResult run(const MonoRunContext& context) = 0;

  /// The same simulation fed by the caller, block by block:
  /// begin(context), then consume() every block of `context.stream` in
  /// order with its draws (sim/block_draws.h, reset for the context's
  /// path model, session model and seed), then finish().
  /// core::SweepRunner uses this to drive several engines in lockstep
  /// from one shared cursor and shared draws (one virtual call per
  /// request block). Results are bit-identical to run().
  virtual void begin(const MonoRunContext& context) = 0;
  virtual void consume(const workload::RequestBlock& block,
                       const BlockDraws& draws) = 0;
  [[nodiscard]] virtual SimulationResult finish() = 0;
};

/// Per-worker cache of monomorphized engines keyed by the *raw*
/// (policy, estimator) spec strings (so a steady-state lookup is a pair
/// of string compares — no parsing, no hashing, no allocation). Not
/// thread-safe: each worker owns its arena exclusively.
class SimulationArena {
 public:
  struct Slot {
    std::string policy;
    std::string estimator;
    /// Null for negatively cached pairs (out-of-table specs), so the
    /// fallback decision is also made once per arena, not per task.
    std::unique_ptr<MonoEngineBase> engine;
  };

  /// The slot for (policy, estimator), or nullptr if never seen.
  [[nodiscard]] Slot* find(const std::string& policy,
                           const std::string& estimator) noexcept {
    for (Slot& slot : slots_) {
      if (slot.policy == policy && slot.estimator == estimator) return &slot;
    }
    return nullptr;
  }

  Slot& insert(std::string policy, std::string estimator,
               std::unique_ptr<MonoEngineBase> engine) {
    slots_.push_back(
        Slot{std::move(policy), std::move(estimator), std::move(engine)});
    return slots_.back();
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  void clear() noexcept { slots_.clear(); }

 private:
  std::vector<Slot> slots_;  // a handful of entries; linear scan
};

/// The monomorphized engine for `config`'s (policy, estimator) pair,
/// cached in (or newly added to) `arena`; nullptr when the pair is not
/// in the built-in dispatch table (caller must use the virtual fallback
/// path). Throws util::SpecError on malformed specs, exactly like the
/// registry factories.
[[nodiscard]] MonoEngineBase* acquire_mono_engine(
    SimulationArena& arena, const SimulationConfig& config);

/// Whether the (policy, estimator) pair of `config` is covered by the
/// monomorphized dispatch table (test/diagnostic hook).
[[nodiscard]] bool mono_dispatchable(const SimulationConfig& config);

}  // namespace sc::sim
