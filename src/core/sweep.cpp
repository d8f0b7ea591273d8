#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/registry.h"
#include "fleet/fleet.h"
#include "sim/arena.h"
#include "sim/block_draws.h"
#include "stats/summary.h"
#include "util/thread_pool.h"

namespace sc::core {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Raw per-replication measurements, reduced into AveragedMetrics in run
/// order (the fold order matters for floating-point bit-identity).
struct RunOutcome {
  double traffic = 0.0;
  double delay = 0.0;
  double quality = 0.0;
  double value = 0.0;
  double hit = 0.0;
  double immediate = 0.0;
  double fill = 0.0;
  double occupancy = 0.0;
  double denied_requests = 0.0;
  double denied_bytes = 0.0;
  // Fleet cells only (0 / 1 / 0 otherwise).
  double uplink_utilization = 0.0;
  double load_imbalance = 1.0;
  double peer_hit_ratio = 0.0;
};

RunOutcome extract_outcome(const sim::SimulationResult& r) {
  RunOutcome out;
  out.traffic = r.metrics.traffic_reduction_ratio();
  out.delay = r.metrics.average_delay_s();
  out.quality = r.metrics.average_quality();
  out.value = r.metrics.total_added_value();
  out.hit = r.metrics.hit_ratio();
  out.immediate = r.metrics.immediate_ratio();
  out.fill = r.metrics.fill_bytes();
  out.occupancy = r.final_occupancy_bytes;
  out.denied_requests = static_cast<double>(r.metrics.denied_requests());
  out.denied_bytes = r.metrics.denied_bytes();
  return out;
}

/// One simulation of a lockstep group (see SweepRunner::run): its
/// (cell * runs + replication) slot, what executes it (the worker arena's
/// engine for a single cell, a fleet::FleetLoop for a fleet cell), the
/// draws it reads, and the wall time of its own begin/consume/finish
/// calls.
struct Lane {
  std::size_t slot = 0;
  sim::SimulationArena::Engine* engine = nullptr;
  std::unique_ptr<fleet::FleetLoop> fleet;
  /// Index of the worker's draw set this lane reads.
  std::size_t draws = 0;
  double wall_s = 0.0;

  void consume(const workload::RequestBlock& block,
               const sim::BlockDraws& block_draws) {
    if (engine != nullptr) {
      engine->consume(block, block_draws);
    } else {
      fleet->consume(block, block_draws);
    }
  }
  [[nodiscard]] RunOutcome finish() {
    if (engine != nullptr) return extract_outcome(engine->finish());
    const fleet::FleetResult fr = fleet->finish();
    fleet.reset();
    RunOutcome out = extract_outcome(fr.aggregate);
    out.uplink_utilization = fr.uplink_utilization;
    out.load_imbalance = fr.load_imbalance;
    out.peer_hit_ratio = fr.peer_hit_ratio;
    return out;
  }
};

/// Whether two session models draw identical viewed fractions from the
/// same seed.
bool same_sessions(const sim::InteractivityConfig& a,
                   const sim::InteractivityConfig& b) {
  return a.mode == b.mode &&
         (a.mode != sim::InteractivityMode::kExponential ||
          a.mean_s == b.mean_s);
}

/// The per-request draws (sim/block_draws.h) of one session model within
/// a group, filled once per block for every lane of that model.
struct DrawSet {
  std::size_t sessions = 0;
  sim::BlockDraws draws;
};

/// One pool slot's private execution state: the arena engines it has
/// built (reused across every simulation it executes), the cursor
/// its groups pull request blocks from, the current group's lanes, and
/// its draw sets (the first `active_draws` belong to the current group).
/// Not shared between threads.
struct Worker {
  sim::SimulationArena arena;
  workload::RequestCursor cursor;
  std::vector<Lane> lanes;
  std::vector<DrawSet> draws;
  std::size_t active_draws = 0;
};

/// Start one simulation over an already-built request stream on a fresh
/// `lane`:
/// a pure function of (stream, seeds, config), so any thread may run it
/// in any order. `path_model` may be null, in which case the engine
/// draws its own (bit-identical by the PathModel RNG-snapshot contract).
/// `sim_config.path_config.mode` was already resolved against the
/// scenario by SweepRunner::run. A non-null `fleet_config` makes the
/// lane a fleet cell: the multi-proxy loop (fleet/fleet.h) over the same
/// stream, path model and seeds.
void begin_lane(Lane& lane, const workload::RequestStream& stream,
                const Scenario& scenario,
                const sim::SimulationConfig& sim_config,
                const fleet::FleetConfig* fleet_config,
                std::uint64_t path_seed,
                std::shared_ptr<const net::PathModel> path_model,
                sim::SimulationArena& arena) {
  if (fleet_config != nullptr) {
    lane.fleet = std::make_unique<fleet::FleetLoop>(
        stream, *fleet_config, sim_config, path_seed, std::move(path_model),
        &scenario.base, &scenario.ratio);
    return;
  }
  sim::RunContext context;
  context.stream = &stream;
  context.model = std::move(path_model);
  context.base = &scenario.base;
  context.ratio = &scenario.ratio;
  context.config = &sim_config;
  context.seed = path_seed;
  lane.engine = &arena.engine(sim_config);
  lane.engine->begin(context);
}

/// A pool task: the simulation slots order[first, last), one lockstep
/// group over one request stream.
struct Task {
  std::size_t first = 0;
  std::size_t last = 0;
};

double seconds_since(std::chrono::steady_clock::time_point& mark) {
  const auto now = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(now - mark).count();
  mark = now;
  return s;
}

/// The per-replication seed stream, identical to the original serial
/// run_experiment derivation: every cell with the same run index shares
/// one workload seed and one path seed (the paired-seed design).
util::Rng run_rng(std::uint64_t base_seed, std::size_t run_index) {
  return util::Rng(util::splitmix64(base_seed + 0x9e37 * run_index));
}

AveragedMetrics reduce(const RunOutcome* outcomes, std::size_t runs) {
  stats::RunningStats traffic, delay, quality, value, hit, immediate, fill,
      occupancy, denied_requests, denied_bytes, uplink, imbalance, peer;
  for (std::size_t r = 0; r < runs; ++r) {
    const RunOutcome& o = outcomes[r];
    traffic.add(o.traffic);
    delay.add(o.delay);
    quality.add(o.quality);
    value.add(o.value);
    hit.add(o.hit);
    immediate.add(o.immediate);
    fill.add(o.fill);
    occupancy.add(o.occupancy);
    denied_requests.add(o.denied_requests);
    denied_bytes.add(o.denied_bytes);
    uplink.add(o.uplink_utilization);
    imbalance.add(o.load_imbalance);
    peer.add(o.peer_hit_ratio);
  }

  AveragedMetrics m;
  m.runs = runs;
  m.traffic_reduction = traffic.mean();
  m.traffic_reduction_sd = traffic.stddev();
  m.delay_s = delay.mean();
  m.delay_s_sd = delay.stddev();
  m.quality = quality.mean();
  m.quality_sd = quality.stddev();
  m.added_value = value.mean();
  m.added_value_sd = value.stddev();
  m.hit_ratio = hit.mean();
  m.immediate_ratio = immediate.mean();
  m.fill_bytes = fill.mean();
  m.occupancy_bytes = occupancy.mean();
  m.denied_requests = denied_requests.mean();
  m.denied_bytes = denied_bytes.mean();
  m.uplink_utilization = uplink.mean();
  m.load_imbalance = imbalance.mean();
  m.peer_hit_ratio = peer.mean();
  return m;
}

}  // namespace

SweepRunner::SweepRunner(ExperimentConfig base, Scenario scenario)
    : base_(std::move(base)), scenario_(std::move(scenario)) {
  if (base_.runs == 0) {
    throw std::invalid_argument("SweepRunner: runs == 0");
  }
}

std::vector<AveragedMetrics> SweepRunner::run(
    const std::vector<SweepCell>& cells, SweepStats* stats) const {
  if (stats != nullptr) *stats = SweepStats{};
  if (cells.empty()) return {};
  const std::size_t runs = base_.runs;

  // Resolve each cell against the base config, validating specs eagerly
  // so a typo fails here rather than inside a pool task. Each *distinct*
  // policy spec is validated once (cells repeat a handful of policies
  // across fractions/alphas, and a validation parse allocates).
  std::vector<sim::SimulationConfig> sims(cells.size());
  std::vector<std::shared_ptr<const fleet::FleetConfig>> fleets(cells.size());
  std::vector<double> cell_alpha(cells.size());
  std::vector<const std::string*> validated;
  const auto validate_policy_once = [&validated](const std::string& spec) {
    for (const std::string* seen : validated) {
      if (*seen == spec) return;
    }
    registry::validate(registry::Kind::kPolicy, spec);
    validated.push_back(&spec);
  };
  // Trace replay: one immutable request stream, loaded when the
  // scenario was made, shared by every cell and replication (no
  // generation at all). A materialized `replay` workload is wrapped in
  // a replay stream; `scenario_.stream` (trace:...,stream=1) is used
  // as-is and re-reads the file chunk-wise inside each simulation.
  std::shared_ptr<const workload::RequestStream> fixed = scenario_.stream;
  if (fixed == nullptr && scenario_.replay != nullptr) {
    fixed = std::make_shared<const workload::RequestStream>(
        workload::RequestStream::replay(scenario_.replay));
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    sims[c] = base_.sim;
    // Resolve the scenario's variation mode up front so simulation tasks
    // can reference the cell config without copying it per replication.
    sims[c].path_config.mode = scenario_.mode;
    if (!cells[c].policy.empty()) sims[c].policy = cells[c].policy;
    validate_policy_once(sims[c].policy);
    if (cells[c].cache_fraction >= 0) {
      // A replayed catalog has a known actual size; the synthetic path
      // keeps the paper's expected-corpus x-axis convention.
      sims[c].cache_capacity_bytes =
          fixed != nullptr
              ? cells[c].cache_fraction * fixed->catalog().total_bytes()
              : capacity_for_fraction(base_.workload.catalog,
                                      cells[c].cache_fraction);
    }
    if (!cells[c].interactivity.empty()) {
      sims[c].interactivity =
          sim::InteractivityConfig::parse(cells[c].interactivity);
    }
    if (!cells[c].fault.empty()) {
      sims[c].fault = net::FaultPlan::parse(cells[c].fault);
    }
    if (!cells[c].fleet.empty()) {
      fleets[c] = std::make_shared<const fleet::FleetConfig>(
          fleet::FleetConfig::parse(cells[c].fleet));
    }
    cell_alpha[c] = cells[c].zipf_alpha >= 0 ? cells[c].zipf_alpha
                                             : base_.workload.trace.zipf_alpha;
  }
  registry::validate(registry::Kind::kEstimator, base_.sim.estimator);

  // Distinct alphas, in order of first appearance; each (alpha, run)
  // workload is generated exactly once and shared by every cell.
  std::vector<double> alphas;
  std::vector<std::size_t> alpha_of_cell(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::size_t a = 0;
    while (a < alphas.size() && alphas[a] != cell_alpha[c]) ++a;
    if (a == alphas.size()) alphas.push_back(cell_alpha[c]);
    alpha_of_cell[c] = a;
  }

  std::vector<std::uint64_t> path_seeds(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    path_seeds[r] = run_rng(base_.base_seed, r).fork("paths").seed();
  }

  // Workload materialization policy (see ExperimentConfig::streaming):
  // short traces are cheaper to generate once per (alpha, run) and
  // replay from memory; long traces become regenerating streams whose
  // simulations re-derive the identical sequence in O(chunk) memory.
  const bool materialize =
      base_.streaming == workload::StreamingMode::kMaterialize ||
      (base_.streaming == workload::StreamingMode::kAuto &&
       base_.workload.trace.num_requests <= workload::kAutoStreamThreshold);
  std::vector<std::shared_ptr<const workload::RequestStream>> streams(
      fixed != nullptr ? 0 : alphas.size() * runs);
  const auto generate = [&](std::size_t task) {
    const std::size_t a = task / runs;
    const std::size_t r = task % runs;
    workload::WorkloadConfig wcfg = base_.workload;
    wcfg.trace.zipf_alpha = alphas[a];
    util::Rng workload_rng = run_rng(base_.base_seed, r).fork("workload");
    if (materialize) {
      streams[task] = std::make_shared<const workload::RequestStream>(
          workload::RequestStream::replay(
              std::make_shared<const workload::Workload>(
                  workload::generate_workload(wcfg, workload_rng))));
    } else {
      // The catalog consumes the head of the workload stream exactly as
      // generate_workload would; the stream snapshots the post-catalog
      // state so cursors regenerate the byte-identical request tail.
      auto catalog = std::make_shared<const workload::Catalog>(
          workload::Catalog::generate(wcfg.catalog, workload_rng));
      streams[task] = std::make_shared<const workload::RequestStream>(
          workload::RequestStream::synthetic(std::move(catalog), wcfg.trace,
                                             std::move(workload_rng)));
    }
  };

  // One immutable path model per replication, shared by every cell: the
  // per-path mean draws depend only on (base_seed, r) and the scenario,
  // never on the cell's policy, alpha, or cache fraction. A disabled
  // toggle leaves the vector null and every simulation draws its own —
  // bit-identical by construction (regression-tested in test_sweep.cpp).
  const bool share_models = base_.share_path_models;
  std::vector<std::shared_ptr<const net::PathModel>> path_models(
      share_models ? runs : 0);
  net::PathModelConfig path_config = base_.sim.path_config;
  path_config.mode = scenario_.mode;
  const std::size_t n_paths = fixed != nullptr
                                  ? fixed->catalog().size()
                                  : base_.workload.catalog.num_objects;
  const auto build_model = [&](std::size_t r) {
    path_models[r] = net::make_path_model(n_paths, scenario_.base,
                                          scenario_.ratio, path_config,
                                          path_seeds[r]);
  };

  // Workload generation and model construction are independent; one task
  // list covers both so the pool drains them together.
  const std::size_t setup_tasks = streams.size() + path_models.size();
  const auto setup = [&](std::size_t task) {
    if (task < streams.size()) {
      generate(task);
    } else {
      build_model(task - streams.size());
    }
  };

  // Lockstep grouping. A regenerating stream (synthetic or trace-file)
  // re-derives every request block for each simulation that pulls it,
  // so simulations of one stream run side by side instead: one cursor
  // pass feeds each block to every simulation of the group. Group k of
  // a stream holds the k-th simulation of each distinct (policy,
  // estimator) spec pair on it, so no group needs the same arena engine
  // twice. Fleet
  // cells all share one key, so a group holds at most one fleet: a
  // 16-proxy fleet is several single cells' worth of memory, and one per
  // group keeps the peak at one fleet per pool slot, as when fleets ran
  // alone. Replay streams hand out zero-copy slices, so each of their
  // simulations is a group of one. Every simulation still sees every
  // block in stream order, so results do not depend on grouping (or on
  // threads, or on the chunk size).
  std::vector<std::size_t> pair_of_cell(cells.size());
  std::size_t n_pairs = 0;
  std::size_t fleet_pair = kNone;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (fleets[c] != nullptr) {
      if (fleet_pair == kNone) fleet_pair = n_pairs++;
      pair_of_cell[c] = fleet_pair;
      continue;
    }
    std::size_t p = 0;
    while (p < c &&
           (fleets[p] != nullptr || sims[p].policy != sims[c].policy ||
            sims[p].estimator != sims[c].estimator)) {
      ++p;
    }
    pair_of_cell[c] = p == c ? n_pairs++ : pair_of_cell[p];
  }
  // Session-model key of each cell: the first cell with an identical
  // interactivity config. A group fills one set of draws per distinct
  // session model among its lanes.
  std::vector<std::size_t> sessions_of_cell(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::size_t p = 0;
    while (!same_sessions(sims[p].interactivity, sims[c].interactivity)) ++p;
    sessions_of_cell[c] = p;
  }
  const bool regenerating =
      fixed != nullptr ? fixed->replayed() == nullptr : !materialize;
  const std::size_t n_streams = fixed != nullptr ? 1 : alphas.size() * runs;
  // Sort key of each simulation slot: (k, stream) for lockstep members,
  // a key of its own otherwise; then order[] lists slots group by group.
  // Group k+1 of a stream never has more members than group k, so this
  // runs the largest groups first and leaves the pool's tail to the
  // smallest tasks.
  const std::size_t n_sims = cells.size() * runs;
  std::vector<std::size_t> order(n_sims);
  std::vector<std::pair<std::size_t, std::size_t>> group_key(n_sims);
  std::vector<std::size_t> seen(regenerating ? n_streams * n_pairs : 0);
  for (std::size_t slot = 0; slot < n_sims; ++slot) {
    const std::size_t c = slot / runs;
    const std::size_t st =
        fixed != nullptr ? 0 : alpha_of_cell[c] * runs + slot % runs;
    order[slot] = slot;
    if (regenerating) {
      group_key[slot] = {seen[st * n_pairs + pair_of_cell[c]]++, st};
    } else {
      group_key[slot] = {kNone, slot};
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return group_key[a] != group_key[b] ? group_key[a] < group_key[b]
                                        : a < b;
  });
  std::vector<Task> tasks;
  tasks.reserve(n_sims);
  for (std::size_t i = 0; i < n_sims; ++i) {
    if (i == 0 || group_key[order[i]] != group_key[order[i - 1]]) {
      tasks.push_back(Task{i, i});
    }
    tasks.back().last = i + 1;
  }

  // The path model a draw set samples from: the replication's shared
  // model, or (share_path_models off) one drawn exactly as each
  // simulation draws its own.
  const auto draw_model = [&](std::size_t r) {
    if (share_models) return path_models[r];
    return net::make_path_model(n_paths, scenario_.base, scenario_.ratio,
                                path_config, path_seeds[r]);
  };

  std::vector<RunOutcome> outcomes(n_sims);
  // Per-simulation wall times land in preallocated slots keyed by the
  // deterministic (cell * runs + replication) index, so collection is
  // thread-safe and the reported distribution is scheduling-independent
  // up to timing noise. A group member is charged its own begin /
  // consume / finish time plus an equal share of the group's block
  // production and draws, so the slots still sum to the pool's busy
  // time.
  std::vector<double> sim_wall(stats != nullptr ? n_sims : 0);
  const std::size_t chunk = base_.sim.stream_chunk;
  const auto execute = [&](Worker& worker, std::size_t t) {
    const Task& task = tasks[t];
    const std::size_t c0 = order[task.first] / runs;
    const std::size_t r0 = order[task.first] % runs;
    const workload::RequestStream& stream =
        fixed != nullptr ? *fixed : *streams[alpha_of_cell[c0] * runs + r0];
    const workload::CatalogView view = stream.catalog().view();
    auto mark = std::chrono::steady_clock::now();
    std::vector<Lane>& lanes = worker.lanes;
    lanes.clear();
    lanes.resize(task.last - task.first);
    worker.active_draws = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Lane& lane = lanes[i];
      lane.slot = order[task.first + i];
      const std::size_t c = lane.slot / runs;
      begin_lane(lane, stream, scenario_, sims[c], fleets[c].get(),
                 path_seeds[r0], share_models ? path_models[r0] : nullptr,
                 worker.arena);
      // Every lane of a group runs the group's replication r0 (group k
      // of a stream holds the k-th simulation of each spec pair, and
      // slot = cell * runs + run, so k % runs == run), so draws are
      // keyed by session model alone.
      std::size_t d = 0;
      while (d < worker.active_draws &&
             worker.draws[d].sessions != sessions_of_cell[c]) {
        ++d;
      }
      if (d == worker.active_draws) {
        if (d == worker.draws.size()) worker.draws.emplace_back();
        DrawSet& set = worker.draws[d];
        set.sessions = sessions_of_cell[c];
        set.draws.reset(view, draw_model(r0), sims[c].interactivity,
                        util::Rng(path_seeds[r0]));
        ++worker.active_draws;
      }
      lane.draws = d;
      lane.wall_s = seconds_since(mark);
    }
    double produce_s = 0.0;
    workload::RequestCursor& cursor = worker.cursor;
    cursor.bind(stream, chunk);
    for (;;) {
      const workload::RequestBlock* block = cursor.next();
      if (block != nullptr) {
        for (std::size_t d = 0; d < worker.active_draws; ++d) {
          worker.draws[d].draws.fill(*block);
        }
      }
      produce_s += seconds_since(mark);
      if (block == nullptr) break;
      for (Lane& lane : lanes) {
        lane.consume(*block, worker.draws[lane.draws].draws);
        lane.wall_s += seconds_since(mark);
      }
    }
    for (Lane& lane : lanes) {
      outcomes[lane.slot] = lane.finish();
      lane.wall_s += seconds_since(mark);
      if (!sim_wall.empty()) {
        sim_wall[lane.slot] =
            lane.wall_s + produce_s / static_cast<double>(lanes.size());
      }
    }
  };

  const bool serial = !base_.parallel || base_.threads == 1 || n_sims == 1;
  if (serial) {
    Worker worker;
    for (std::size_t t = 0; t < setup_tasks; ++t) setup(t);
    for (std::size_t t = 0; t < tasks.size(); ++t) execute(worker, t);
  } else {
    std::unique_ptr<util::ThreadPool> owned;
    util::ThreadPool* pool;
    if (base_.threads == 0) {
      pool = &util::ThreadPool::shared();
    } else {
      owned = std::make_unique<util::ThreadPool>(base_.threads);
      pool = owned.get();
    }
    // One worker state per pool slot: each slot caches the arena
    // engines (components plus their reusable event queue / store /
    // index / estimator state) for the spec pairs it executes, so
    // steady-state sweep allocations are O(workers x distinct specs),
    // not O(cells x replications).
    std::vector<Worker> workers(pool->thread_count());
    pool->parallel_for(setup_tasks, setup);
    pool->parallel_for_slots(tasks.size(),
                             [&](std::size_t slot, std::size_t task) {
                               execute(workers[slot], task);
                             });
  }

  if (stats != nullptr) {
    stats->workloads_generated = streams.size();
    stats->path_models_built =
        share_models ? runs : cells.size() * runs;
    stats->lockstep_groups = static_cast<std::size_t>(
        std::count_if(tasks.begin(), tasks.end(), [](const Task& t) {
          return t.last - t.first > 1;
        }));
    stats->sim_wall_s = std::move(sim_wall);
  }

  std::vector<AveragedMetrics> results;
  results.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results.push_back(reduce(&outcomes[c * runs], runs));
  }
  return results;
}

}  // namespace sc::core
