// The per-request simulation loop: the one body every trace-driven run
// executes, as a template over the couplings between proxy units.
//
// There is exactly one implementation of the trace-driven request loop
// (§3 methodology: warmup half, measured half, deferred completion
// observations, viewing/patching extensions). It serves an array of one
// or more *proxy units*: a unit is one cache — a policy, an estimator,
// and the unit's ProxyState (store, observation queue, in-flight
// patching table, fault schedule). What couples the units is a
// compile-time Couplings type whose hooks the body calls at fixed
// points: routing (which unit serves the request), peer cooperation
// (between the viewing step and patching), the shared uplink (after
// patching), and per-unit stats. Every unit reaches its components
// through the virtual cache::CachePolicy / net::BandwidthEstimator
// interfaces. The loop is instantiated twice:
//
//   - a single cell (sim::Simulator, sim::SimulationArena): one unit, no
//     couplings.
//   - the edge fleet (fleet/fleet.cpp): one unit per proxy and the
//     fleet's couplings.
//
// A single cell's Couplings is SingleCell: every hook is an empty inline
// function and its only unit lives inline in the loop, bound once per
// block, so the single-cell instantiations compile to the plain one-cache
// loop. A one-proxy fleet executes the same body over the same unit, so
// it matches the single cell field for field by construction.
//
// The per-request path bandwidth samples and session lengths are not
// drawn here: sim/block_draws.h fills them per request block, and
// consume() reads them from the block's draw lanes.
//
// The *decision* half of the loop — admission, utility eviction,
// partial-prefix management, estimator observe/estimate with deferred
// completion observations — lives in sim/decision.h as the
// clock-agnostic DecisionKernel; this file contributes the *simulated
// delivery* half (trace iteration, the §2.2 delivery model, session
// dynamics, patching, metrics) and drives the kernel from the simulated
// clock. The live proxy daemon (src/server/) drives one ProxyUnit of its
// own, built and fault-bound exactly as here, from the wall clock.
//
// Because every run executes the identical expressions in the identical
// order over the identical RNG streams, results do not depend on who
// built the components or pulls the blocks (tests/test_arena.cpp asserts
// this for arena reuse against fresh construction over every registered
// policy x estimator pair, tests/test_fleet.cpp for one-proxy fleets, and
// the golden CSVs under tests/golden/ pin the series across refactors of
// this file).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/policy.h"
#include "cache/store.h"
#include "net/estimator.h"
#include "net/fault.h"
#include "net/path_process.h"
#include "sim/block_draws.h"
#include "sim/decision.h"
#include "sim/delivery.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/request_stream.h"

namespace sc::sim {

/// Per-object in-flight origin stream (patching extension), paced at the
/// playout rate. Dense per-object slots (ids are dense) keep the lookup a
/// single array access and the loop allocation-free; end == 0 means "no
/// stream in flight" (every real completion time is > 0).
struct InFlightStream {
  double start = 0.0;
  double end = 0.0;
};

/// The reusable mutable state of one proxy unit. reset() restores it to
/// its freshly-constructed state, reusing the storage; the unit's
/// bind_faults() compiles its fault schedule.
struct ProxyState {
  ObservationQueue events;
  cache::PartialStore store{0.0};
  std::vector<InFlightStream> in_flight;
  net::FaultSchedule faults;

  void reset(std::size_t n_objects, double capacity_bytes, bool patching) {
    events.clear();
    events.reserve(64);
    store.reset(capacity_bytes);
    store.reserve(n_objects);
    if (patching) {
      in_flight.assign(n_objects, InFlightStream{});
    } else {
      in_flight.clear();
    }
  }
};

/// The reusable mutable state of one simulation run: everything the
/// request loop mutates that is sized by the catalog rather than learned
/// per run. A sim::SimulationArena keeps one RunState per cached
/// component pair so back-to-back simulations reuse the storage.
struct RunState {
  /// A single cell's only proxy unit (a fleet keeps its proxies' states
  /// itself and leaves this one idle).
  ProxyState proxy;
  /// The run's immutable path model (means, variation mode).
  std::shared_ptr<const net::PathModel> model;
  /// Chunk-wise iteration over the run's request stream and the run's
  /// own per-block draws (both used when the run pulls its own blocks),
  /// plus the dense per-object delivery operands (see sim/delivery.h).
  /// All reuse their buffers across simulations.
  workload::RequestCursor cursor;
  BlockDraws draws;
  DeliveryTable delivery;

  /// Prepare a single-cell run over `catalog` and `model` (bit-identical
  /// to building each member from scratch; storage reused). The cursor
  /// and the draws are bound by run_request_loop; a run fed by an
  /// external cursor and draws (a lockstep group, see RequestLoop) leaves
  /// them idle.
  void reset(const workload::Catalog& catalog,
             std::shared_ptr<const net::PathModel> model,
             double capacity_bytes, bool patching) {
    proxy.reset(catalog.size(), capacity_bytes, patching);
    this->model = std::move(model);
  }
};

/// One proxy unit as the request loop (or the daemon) serves it: the
/// decision kernel over the unit's components, its state, and its fault
/// schedule (null with an empty fault plan).
struct ProxyUnit {
  ProxyUnit(cache::CachePolicy& policy, net::BandwidthEstimator& estimator,
            ProxyState& state)
      : decisions(policy, estimator, state.store, state.events),
        state(&state) {}

  /// Compile `plan` over `n_paths` paths into the state's schedule for
  /// `scope`, seeded from the run's tag-keyed "faults" fork (so it is
  /// identical across engines, units, thread counts and the daemon),
  /// and attach it; an empty plan detaches it, keeping every hook inert.
  void bind_faults(const net::FaultPlan& plan, std::size_t n_paths,
                   const util::Rng& run_rng, net::FaultScope scope = {}) {
    if (plan.empty()) {
      state->faults.clear();
      faults = nullptr;
    } else {
      state->faults.compile(plan, n_paths, run_rng.fork("faults").seed(),
                            scope);
      faults = &state->faults;
    }
    decisions.set_faults(faults);
  }

  DecisionKernel decisions;
  ProxyState* state;
  const net::FaultSchedule* faults = nullptr;
};

/// The registry-built components of one virtual-path proxy unit.
struct VirtualProxy {
  std::unique_ptr<net::BandwidthEstimator> estimator;
  std::unique_ptr<cache::CachePolicy> policy;
};

/// Build proxy `proxy`'s components from the registry specs `policy`
/// and `estimator`: the estimator seeded from `rng`'s "estimator" fork
/// ("estimator#<proxy>" after the first, so a fleet's proxy 0 is seeded
/// as a single cell), then the policy over it. The one construction path
/// of sim::Simulator, sim::SimulationArena, every fleet::FleetLoop proxy
/// and the daemon's server::ServiceEngine.
[[nodiscard]] VirtualProxy make_virtual_proxy(const std::string& policy,
                                              const std::string& estimator,
                                              const workload::Catalog& catalog,
                                              const net::PathModel& model,
                                              const util::Rng& rng,
                                              std::size_t proxy);

/// The path model of the registry scenario spec `scenario` ("constant",
/// "measured", ...) over `n_paths` paths for run seed `seed`: the
/// scenario's base and ratio models and variation mode through
/// net::make_path_model. The daemon's origin samples these paths.
[[nodiscard]] std::shared_ptr<const net::PathModel> make_scenario_model(
    const std::string& scenario, std::size_t n_paths, std::uint64_t seed);

/// The couplings of a single cell: none. One standalone unit (unscoped
/// fault windows only) serves every request and every hook is empty.
/// The fleet's couplings (fleet/fleet.cpp) fill the same hooks.
struct SingleCell {
  /// Whether the couplings route each request to one of several units
  /// through route(request index, object id) (false: the loop binds its
  /// one unit once per block).
  static constexpr bool kRoutes = false;
  /// The fault scope unit `p` compiles the run's plan for.
  static net::FaultScope fault_scope(std::size_t) { return {}; }
  /// Serve part of the origin remainder from peer units; returns the
  /// peer bytes used.
  static double cooperate(std::uint32_t, workload::ObjectId, double,
                          ServiceOutcome&) {
    return 0.0;
  }
  /// Pass the origin remainder through a shared uplink.
  static void share_uplink(double, ServiceOutcome&) {}
  /// Per-unit measured-window stats.
  static void record(std::uint32_t, double, const ServiceOutcome&, double) {}
  static void record_denied(std::uint32_t, double) {}
  static void record_fill(std::uint32_t, double) {}
};

/// One simulation's request loop as a resumable object: the constructor
/// does the per-run setup, consume() runs the per-request body over one
/// request block and its draws, finish() drains the deferred
/// observations and returns the measured-window metrics. Blocks must
/// arrive in stream order, each exactly once, with the draws filled for
/// that block by a BlockDraws reset for this run's path model, session
/// model and seed. run_request_loop below drives one loop from its own
/// cursor and draws; core::SweepRunner drives several loops in lockstep
/// from one shared cursor and shared draws, so a regenerated block is
/// produced (and its draws sampled) once per group of simulations
/// instead of once per simulation. Either way the loop executes the
/// identical expressions in the identical order, so results cannot
/// depend on who pulls the blocks.
///
/// `rng` must be the run's root stream (Rng(seed), with "paths" already
/// forked off by the caller if it built the model here); the loop forks
/// only the tag-keyed "faults" and "viewing" children during
/// construction, so fork order elsewhere cannot perturb them. All
/// referenced objects must outlive the loop.
template <typename Couplings = SingleCell>
class RequestLoop {
 public:
  /// A single cell: one unit over `policy`, `estimator` and
  /// `state.proxy`.
  RequestLoop(const workload::RequestStream& stream,
              const SimulationConfig& config, RunState& state,
              cache::CachePolicy& policy, net::BandwidthEstimator& estimator,
              const util::Rng& rng)
      : config_(&config),
        state_(&state),
        own_unit_(std::in_place, policy, estimator, state.proxy),
        view_(stream.catalog().view()),
        total_requests_(stream.num_requests()),
        viewing_rng_(rng.fork("viewing")) {
    bind(&*own_unit_, 1, rng);
  }

  /// Several coupled units, `units[0, n_units)` (each over its own
  /// ProxyState), served under `couplings`; `state` supplies the path
  /// model and the delivery table, and its own proxy stays idle.
  RequestLoop(const workload::RequestStream& stream,
              const SimulationConfig& config, RunState& state, ProxyUnit* units,
              std::size_t n_units, Couplings couplings, const util::Rng& rng)
      : config_(&config),
        state_(&state),
        couplings_(std::move(couplings)),
        view_(stream.catalog().view()),
        total_requests_(stream.num_requests()),
        viewing_rng_(rng.fork("viewing")) {
    bind(units, n_units, rng);
  }

  RequestLoop(const RequestLoop&) = delete;
  RequestLoop& operator=(const RequestLoop&) = delete;

  [[nodiscard]] Couplings& couplings() noexcept { return couplings_; }

  /// Run the per-request body over every request of `block` (the next
  /// block of the stream, in order) with `draws` filled for it. The
  /// block's and the draws' SoA lanes are read sequentially; nothing is
  /// retained past the call.
  void consume(const workload::RequestBlock& block, const BlockDraws& draws) {
    // Loop invariants as locals, so the per-request body reads them
    // from registers rather than through `this`.
    const SimulationConfig& config = *config_;
    const workload::CatalogView view = view_;
    const DeliveryTable& pre = state_->delivery;
    const double* const drawn_bw = draws.bw();
    const double* const drawn_viewed = draws.viewed_fraction();
    if ((!constant_bw_ && drawn_bw == nullptr) ||
        (interactive_ && drawn_viewed == nullptr)) {
      throw std::logic_error(
          "RequestLoop::consume: draws not filled for this run's path or "
          "session model");
    }
    const bool constant_bw = constant_bw_;
    const bool interactive = interactive_;
    const std::size_t warm_count = warm_count_;
    MetricsCollector& metrics = metrics_;
    Couplings& couplings = couplings_;
    ProxyUnit* const units = units_;
    // The serving unit; without routing, the only unit, bound once per
    // block.
    std::uint32_t p = 0;
    ProxyUnit* unit = units;
    const net::FaultSchedule* faults = unit->faults;
    for (std::size_t i = 0; i < block.size; ++i) {
      const std::size_t idx = block.first + i;
      const double now_s = block.time_s[i];
      const workload::ObjectId id = block.object[i];
      if constexpr (Couplings::kRoutes) {
        p = couplings.route(idx, id);
        unit = units + p;
        faults = unit->faults;
      }
      DecisionKernel& decisions = unit->decisions;
      // Deliver pending transfer-completion observations first.
      decisions.tick(now_s);

      const double duration_s = view.duration_s[id];
      const double bitrate = view.bitrate[id];
      const double size_bytes = view.size_bytes[id];
      double bw, db;
      if (constant_bw) {
        bw = pre.bw[id];
        db = pre.db[id];
      } else {
        bw = drawn_bw[i];
        db = duration_s * bw;
      }
      // Fault injection: an active degrade window scales this path's
      // instantaneous bandwidth; an outage or down flap half-period
      // (scale == 0) cuts the origin entirely and the request is served
      // cache-only.
      double fault_scale = 1.0;
      if (faults != nullptr) {
        fault_scale = faults->bandwidth_scale(view.path[id], now_s);
        if (fault_scale > 0.0 && fault_scale != 1.0) {
          bw *= fault_scale;
          db = duration_s * bw;
        }
      }
      const double cached_before = decisions.cached(id);
      double request_bytes = size_bytes;
      ServiceOutcome outcome;

      // Session dynamics: a client that departs after watching a
      // fraction of the stream only needed the viewed prefix delivered.
      // The outcome is derived over that prefix — startup delay and
      // quality are what the client experienced for the part it
      // watched, the origin connection is cancelled at departure (its
      // completion observation below uses the truncated transfer), and
      // byte accounting covers only shipped bytes.
      const double viewed_fraction = interactive ? drawn_viewed[i] : 1.0;
      double session_s = duration_s;
      if (viewed_fraction < 1.0) {
        session_s = viewed_fraction * duration_s;
        const double viewed_bytes = session_s * bitrate;
        request_bytes = viewed_bytes;
        if (fault_scale > 0.0) {
          outcome = deliver(session_s, bitrate, viewed_bytes, bw,
                            std::min(cached_before, viewed_bytes));
        } else {
          outcome = deliver_cache_only(viewed_bytes,
                                       std::min(cached_before, viewed_bytes));
        }
      } else if (fault_scale > 0.0) {
        outcome =
            deliver_precomputed(size_bytes, pre.dr[id], db, bw, cached_before);
      } else {
        outcome = deliver_cache_only(size_bytes, cached_before);
      }

      // Client interactivity: scale the byte accounting (not the startup
      // metrics) by the viewed fraction of the stream.
      if (config.viewing.enabled) {
        double fraction = 1.0;
        if (viewing_rng_.uniform() >= config.viewing.complete_probability) {
          fraction = viewing_rng_.uniform(config.viewing.min_fraction, 1.0);
        }
        const double viewed = fraction * size_bytes;
        request_bytes = viewed;
        outcome.bytes_from_cache = std::min(outcome.bytes_from_cache, viewed);
        // During a full outage the deficit beyond the cached prefix is
        // denied, not fetched (fault_scale == 1 whenever faults are off,
        // so the inert path is the historical expression).
        outcome.bytes_from_origin =
            fault_scale > 0.0
                ? std::max(0.0, viewed - outcome.bytes_from_cache)
                : 0.0;
        outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                        ? outcome.bytes_from_origin / bw
                                        : 0.0;
      }

      const double peer_bytes = couplings.cooperate(p, id, bw, outcome);

      // Patching: share the tail of an in-flight transmission of the
      // same object; only the missed prefix still needs the origin.
      if (config.patching.enabled && outcome.bytes_from_origin > 0) {
        InFlightStream& flight = unit->state->in_flight[id];
        if (now_s < flight.end) {
          // flight.end is start + the originating session's transmission
          // time: the full playout duration, or its departure point when
          // session dynamics truncated it (bit-identical to the old
          // `flight.start + duration_s` expression for full sessions).
          const double remaining_shareable =
              std::min(size_bytes, bitrate * (flight.end - now_s));
          const double shared = std::min(outcome.bytes_from_origin,
                                         std::max(0.0, remaining_shareable));
          // deliver*() leave bytes_shared at 0, so without peer bytes
          // this is the plain assignment.
          outcome.bytes_shared += shared;
          outcome.bytes_from_origin -= shared;
          outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                          ? outcome.bytes_from_origin / bw
                                          : 0.0;
        }
        if (outcome.bytes_from_origin > 0) {
          // This request starts (or replaces) the object's shared
          // stream, paced at the playout rate until the session ends
          // (the full duration, or the client's early departure).
          flight.start = now_s;
          flight.end = now_s + session_s;
        }
      }

      couplings.share_uplink(now_s, outcome);

      const bool measured = idx >= warm_count;
      if (measured) {
        metrics.record(outcome, view.value[id]);
        couplings.record(p, cached_before, outcome, peer_bytes);
        if (faults != nullptr && fault_scale <= 0.0) {
          // Cache-only service: the part of the (viewed) request the
          // cached prefix could not cover was denied, not delayed.
          const double denied = request_bytes - outcome.bytes_from_cache;
          metrics.record_denied(denied);
          couplings.record_denied(p, denied);
        }
        // Session stats only when a session model is active: the
        // accessors default to "every session full" on zero samples, so
        // the disabled path pays nothing (its throughput is perf-gated).
        if (interactive) {
          metrics.record_session(viewed_fraction, viewed_fraction < 1.0);
        }
      }

      // Passive estimators learn this transfer's throughput at
      // completion; the replacement decision follows the service.
      // During a full outage the origin cannot supply fill bytes, so
      // the whole decision (frequency update, admission, eviction) is
      // skipped: the cache holds its state until the path recovers.
      // This is also what keeps occupancy <= budget under chaos — no
      // admission can be granted that the origin cannot back.
      const double fill = decisions.settle(
          id, view.path[id], outcome, now_s, now_s + outcome.origin_transfer_s,
          fault_scale > 0.0, cached_before);
      // Growth of this object's prefix is origin->cache fill traffic.
      if (measured && fill > 0.0) {
        metrics.record_fill(fill);
        couplings.record_fill(p, fill);
      }
    }
  }

  /// Flush the pending completion observations and return the
  /// measured-window metrics, with the final occupancy, cached objects
  /// and estimator overhead summed over the units. Call once, after the
  /// stream's last block.
  [[nodiscard]] SimulationResult finish() {
    for (std::size_t p = 0; p < n_units_; ++p) units_[p].decisions.drain();
    SimulationResult result;
    result.policy_name = units_[0].decisions.policy().name();
    result.metrics = metrics_;
    result.warmup_requests = warm_count_;
    result.measured_requests = total_requests_ - warm_count_;
    for (std::size_t p = 0; p < n_units_; ++p) {
      DecisionKernel& decisions = units_[p].decisions;
      result.final_occupancy_bytes += decisions.store().used();
      result.final_cached_objects += decisions.store().object_count();
      result.estimator_overhead_packets +=
          decisions.estimator().overhead_packets();
    }
    return result;
  }

 private:
  /// The per-run setup shared by both constructors.
  void bind(ProxyUnit* units, std::size_t n_units, const util::Rng& rng) {
    const SimulationConfig& config = *config_;
    units_ = units;
    n_units_ = n_units;
    const net::PathModel& model = *state_->model;
    // Constant-bandwidth scenarios (the paper's main setting) sample the
    // mean directly: no switch, no sampler state, one contiguous load.
    constant_bw_ = model.mode() == net::VariationMode::kConstant;
    // One up-front scan keeps the unchecked fast-path read in consume()
    // safe for hand-built catalogs whose per-object path ids exceed the
    // model (generated catalogs always use path == id < size).
    for (std::size_t i = 0; i < view_.size; ++i) {
      if (view_.path[i] >= model.size()) {
        throw std::out_of_range("run_request_loop: object path id " +
                                std::to_string(view_.path[i]) +
                                " outside the path model");
      }
    }
    // Fault injection (net/fault.h): compile the plan once per run, for
    // each unit's scope. With an empty plan every unit's `faults` stays
    // null and every hook in consume() short-circuits on a constant
    // pointer/scale test, so the loop executes the exact pre-fault
    // expression stream — bit-identical results, golden-CSV enforced.
    // Fault timing is independent across replications (the seed is the
    // run's).
    for (std::size_t p = 0; p < n_units; ++p) {
      units[p].bind_faults(config.fault, model.size(), rng,
                           couplings_.fault_scope(p));
    }
    warm_count_ = static_cast<std::size_t>(
        static_cast<double>(total_requests_) * config.warmup_fraction);
    // Session dynamics draw from their own tag-keyed stream (in
    // BlockDraws) so enabling them never perturbs the viewing/path/
    // estimator streams (and "full" mode draws nothing at all, keeping
    // it a field-identical oracle).
    interactive_ = config.interactivity.enabled();
    if (interactive_ && config.viewing.enabled) {
      throw std::invalid_argument(
          "run_request_loop: ViewingConfig and a non-full interactivity "
          "model are both session-length models and cannot be combined; "
          "use --interactivity alone (it supersedes --viewing)");
    }
    // Per-object §2.2 products, premultiplied once per run in the
    // contiguous vectorizable fills of sim/delivery.h — they depend only
    // on the catalog (and constant-mode path means), so per-request
    // recomputation would be pure overhead.
    build_delivery_table(view_, constant_bw_ ? model.means().data() : nullptr,
                         state_->delivery);
  }

  const SimulationConfig* config_;
  RunState* state_;
  // A single cell's unit; coupled loops serve units they do not own.
  std::optional<ProxyUnit> own_unit_;
  ProxyUnit* units_ = nullptr;
  std::size_t n_units_ = 0;
  Couplings couplings_;
  workload::CatalogView view_;
  std::size_t total_requests_;
  util::Rng viewing_rng_;
  MetricsCollector metrics_;
  std::size_t warm_count_ = 0;
  bool constant_bw_ = false;
  bool interactive_ = false;
};

/// Execute the full trace and return measured-window metrics: one
/// single-cell RequestLoop fed from `state.cursor` and `state.draws`.
/// The stream is consumed in chunks — the cursor materializes one SoA
/// request block at a time (replayed, regenerated, or re-read from disk;
/// sources are interchangeable and byte-identical) — so results are
/// bit-identical at every chunk size.
[[nodiscard]] inline SimulationResult run_request_loop(
    const workload::RequestStream& stream, const SimulationConfig& config,
    RunState& state, cache::CachePolicy& policy,
    net::BandwidthEstimator& estimator, const util::Rng& rng) {
  RequestLoop<> loop(stream, config, state, policy, estimator, rng);
  workload::RequestCursor& cursor = state.cursor;
  BlockDraws& draws = state.draws;
  cursor.bind(stream, config.stream_chunk);
  draws.reset(stream.catalog().view(), state.model, config.interactivity,
              rng);
  while (const workload::RequestBlock* block = cursor.next()) {
    draws.fill(*block);
    loop.consume(*block, draws);
  }
  return loop.finish();
}

}  // namespace sc::sim
