// The simulator-side subcommands: `grid` (end-to-end sweep grids through
// core::SweepRunner) and `replay` (per-layer replay of the same request
// stream through each layer's public functions).
//
// Two grid shapes, both over one streamed Zipf-0.73 trace of the default
// 5000-object catalog:
//
//   paper    §4.1 setting: constant bandwidth, oracle estimator,
//            {if, pb, ib, lru} x the six paper cache fractions.
//   dynamic  measured variability, EWMA estimator, exponential session
//            truncation; single-cell {pb, lru} plus 16-proxy fleet cells
//            (hash sharding + finite uplink; random + uplink + coop).
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "fleet/fleet.h"
#include "fleet/sharding.h"
#include "net/path_process.h"
#include "sim/delivery.h"
#include "sim/event_queue.h"
#include "sim/interactivity.h"
#include "sim/metrics.h"
#include "workload/request_stream.h"

namespace pb {
namespace {

using sc::core::SweepCell;

constexpr const char* kFleetHash =
    "fleet:proxies=16,sharding=hash:vnodes=64,uplink_mbps=200";
constexpr const char* kFleetCoop =
    "fleet:proxies=16,sharding=random,uplink_mbps=200,coop=1";
constexpr const char* kExpSessions = "exp:mean=600";
constexpr double kReplayFraction = 0.04;
/// Replications per grid: each its own catalog and trace, derived from
/// the seed, so one corpus's quirks average out.
constexpr std::size_t kRuns = 8;
/// Trace length of the set-up grid: short enough that what is timed is
/// the per-sweep and per-cell fixed cost.
constexpr std::size_t kSetupRequests = 2000;
/// Set-up repetitions: at least this many, then as many as the set-up
/// time budget allows, up to the cap.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 10000;
/// Trace length of the fleet accounting check.
constexpr std::size_t kCheckRequests = 200000;

struct Shape {
  sc::core::ExperimentConfig base;
  sc::core::Scenario scenario;
  std::vector<SweepCell> cells;
  std::vector<std::string> labels;
  /// (policy) configurations the per-layer replay runs.
  std::vector<std::string> replay_policies;
};

Shape make_shape(const std::string& name, std::uint64_t seed,
                 std::size_t requests, std::size_t runs, std::size_t threads) {
  if (name != "paper" && name != "dynamic") {
    throw std::invalid_argument("unknown grid shape " + name);
  }
  const bool paper = name == "paper";
  Shape s{{},
          paper ? sc::core::constant_scenario()
                : sc::core::measured_variability_scenario(),
          {}, {}, {}};
  s.base.runs = runs;
  s.base.base_seed = seed;
  s.base.threads = threads;
  s.base.parallel = threads != 1;
  s.base.workload.trace.num_requests = requests;
  s.base.workload.trace.zipf_alpha = 0.73;
  s.base.streaming = sc::workload::StreamingMode::kStream;
  if (paper) {
    s.base.sim.estimator = "oracle";
    for (const char* p : {"if", "pb", "ib", "lru"}) {
      for (double f : sc::core::paper_cache_fractions()) {
        s.cells.push_back(SweepCell{p, -1.0, f, {}, {}, {}});
        s.labels.push_back(std::string(p) + "@" + std::to_string(f));
      }
    }
    s.replay_policies = {"if", "pb", "ib", "lru"};
  } else {
    s.base.sim.estimator = "ewma";
    s.base.sim.interactivity =
        sc::sim::InteractivityConfig::parse(kExpSessions);
    for (const char* p : {"pb", "lru"}) {
      for (double f : {0.01, 0.04, 0.169}) {
        s.cells.push_back(SweepCell{p, -1.0, f, {}, {}, {}});
        s.labels.push_back(std::string(p) + "@" + std::to_string(f));
      }
    }
    for (const char* fleet : {kFleetHash, kFleetCoop}) {
      for (double f : {0.04, 0.169}) {
        s.cells.push_back(SweepCell{"pb", -1.0, f, {}, {}, fleet});
        s.labels.push_back(std::string(fleet) + "@" + std::to_string(f));
      }
    }
    s.replay_policies = {"pb", "lru"};
  }
  return s;
}

/// The shape's trace as a standalone stream plus its path model, built
/// the way the public API allows a caller to (for the replay and the
/// fleet accounting check).
struct Inputs {
  std::shared_ptr<const sc::workload::Catalog> catalog;
  sc::workload::RequestStream stream;
  std::shared_ptr<const sc::net::PathModel> model;
};

Inputs make_inputs(const Shape& s, std::size_t requests) {
  sc::util::Rng rng(s.base.base_seed);
  sc::util::Rng wrng = rng.fork("workload");
  auto catalog = std::make_shared<const sc::workload::Catalog>(
      sc::workload::Catalog::generate(s.base.workload.catalog, wrng));
  sc::workload::TraceConfig trace = s.base.workload.trace;
  trace.num_requests = requests;
  auto stream = sc::workload::RequestStream::synthetic(catalog, trace, wrng);
  sc::net::PathModelConfig pc = s.base.sim.path_config;
  pc.mode = s.scenario.mode;
  auto model = std::make_shared<const sc::net::PathModel>(
      catalog->size(), s.scenario.base, s.scenario.ratio, pc,
      rng.fork("paths"));
  return Inputs{catalog, std::move(stream), std::move(model)};
}

sc::sim::SimulationConfig sim_config(const Shape& s, const std::string& policy,
                                     double fraction) {
  sc::sim::SimulationConfig c = s.base.sim;
  c.policy = policy;
  c.cache_capacity_bytes =
      sc::core::capacity_for_fraction(s.base.workload.catalog, fraction);
  c.path_config.mode = s.scenario.mode;
  c.seed = s.base.base_seed;
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void cell_json(Json& j, const sc::core::AveragedMetrics& m,
               const std::string& label, bool fleet) {
  j.begin_object()
      .str("label", label)
      .boolean("fleet", fleet)
      .num("traffic_reduction", m.traffic_reduction)
      .num("delay_s", m.delay_s)
      .num("quality", m.quality)
      .num("hit_ratio", m.hit_ratio)
      .num("immediate_ratio", m.immediate_ratio)
      .num("fill_bytes", m.fill_bytes)
      .num("occupancy_bytes", m.occupancy_bytes)
      .num("uplink_utilization", m.uplink_utilization)
      .num("load_imbalance", m.load_imbalance)
      .num("peer_hit_ratio", m.peer_hit_ratio)
      .end_object();
}

}  // namespace

int run_grid(const Cli& cli) {
  cli.check_unknown({"shape", "seed", "requests", "threads", "budget-s",
                     "min-reps", "max-reps", "setup-budget-s"});
  const std::string shape_name = cli.get_or("shape", std::string("paper"));
  const std::uint64_t seed = cli.get_count("seed", 1);
  const std::size_t requests = cli.get_count("requests", 1000000);
  const std::size_t runs = kRuns;
  const std::size_t threads = cli.get_count("threads", 4);
  const double budget_s = cli.get_or("budget-s", 5.0);
  const std::size_t min_reps = cli.get_count("min-reps", 3);
  const std::size_t max_reps = cli.get_count("max-reps", 50);
  const double setup_budget_s = cli.get_or("setup-budget-s", 0.0);

  // Set-up: the same grid over a trace too short to matter, so what is
  // timed is the per-sweep and per-cell fixed cost (workload stream and
  // path-model construction, pools, stores, delivery tables, fleets).
  // Repeated for the whole set-up budget (none when it is 0).
  std::vector<double> setup_s;
  if (setup_budget_s > 0.0) {
    const Shape s = make_shape(shape_name, seed, kSetupRequests, runs, threads);
    const std::int64_t start = now_ns();
    while (setup_s.size() < kMaxSetupReps &&
           (setup_s.size() < kMinSetupReps ||
            static_cast<double>(now_ns() - start) * 1e-9 < setup_budget_s)) {
      const std::int64_t t0 = now_ns();
      const sc::core::SweepRunner runner(s.base, s.scenario);
      const auto r = runner.run(s.cells);
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (r.size() != s.cells.size()) throw std::runtime_error("setup grid");
    }
  }

  const Shape s = make_shape(shape_name, seed, requests, runs, threads);
  const sc::core::SweepRunner runner(s.base, s.scenario);
  const std::size_t simulated = requests * runs * s.cells.size();
  Json j;
  // An explicit threads > 1 runs on a dedicated util::ThreadPool of
  // `threads` workers whose parallel_for_slots also runs simulations on
  // the calling thread: threads + 1 slots.
  const std::size_t slots = threads > 1 ? threads + 1 : 1;
  j.begin_object()
      .str("shape", shape_name)
      .integer("threads", static_cast<long long>(threads))
      .integer("slots", static_cast<long long>(slots))
      .integer("runs", static_cast<long long>(runs));
  j.nums("setup_s", setup_s);
  j.begin_array("reps");
  std::string first_cells;
  bool identical = true;
  const std::int64_t start = now_ns();
  for (std::size_t rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps &&
        static_cast<double>(now_ns() - start) * 1e-9 >= budget_s) {
      break;
    }
    sc::core::SweepStats stats;
    const std::uint64_t a0 = allocation_count();
    const std::int64_t t0 = now_ns();
    const auto results = runner.run(s.cells, &stats);
    const std::int64_t t1 = now_ns();
    const std::uint64_t allocs = allocation_count() - a0;
    Json cells;
    cells.begin_array();
    for (std::size_t c = 0; c < results.size(); ++c) {
      cell_json(cells, results[c], s.labels[c], !s.cells[c].fleet.empty());
    }
    cells.end_array();
    if (rep == 0) {
      first_cells = cells.text();
    } else if (cells.text() != first_cells) {
      identical = false;
    }
    j.begin_object()
        .num("wall_s", static_cast<double>(t1 - t0) * 1e-9)
        .integer("requests", static_cast<long long>(simulated))
        .integer("allocations", static_cast<long long>(allocs))
        .nums("sim_wall_s", stats.sim_wall_s)
        .end_object();
  }
  j.end_array();
  j.boolean("identical", identical);
  j.begin_array("cell_is_fleet");
  for (const SweepCell& c : s.cells) j.integer(nullptr, !c.fleet.empty());
  j.end_array();

  // Fleet accounting identity: per-proxy measured requests must sum to
  // the aggregate's measured requests, for every fleet configuration of
  // the grid (run directly through fleet::run_fleet on a shorter trace).
  j.begin_array("fleet_checks");
  const Inputs in = make_inputs(s, kCheckRequests);
  for (const SweepCell& c : s.cells) {
    if (c.fleet.empty() || c.cache_fraction != s.cells.back().cache_fraction) {
      continue;
    }
    const auto fleet_cfg = sc::fleet::FleetConfig::parse(c.fleet);
    const auto r = sc::fleet::run_fleet(
        in.stream, fleet_cfg, sim_config(s, c.policy, c.cache_fraction),
        in.model, nullptr, nullptr);
    std::uint64_t sum = 0;
    for (const auto& p : r.per_proxy) sum += p.requests;
    j.begin_object()
        .str("fleet", c.fleet)
        .integer("proxies", static_cast<long long>(r.per_proxy.size()))
        .integer("per_proxy_sum", static_cast<long long>(sum))
        .integer("aggregate", static_cast<long long>(r.aggregate.measured_requests))
        .end_object();
  }
  j.end_array();
  j.raw("cells", first_cells);
  j.num("peak_rss_mb", peak_rss_mb());
  j.end_object().print();
  return 0;
}

namespace {

/// One replay configuration's result.
struct ReplayResult {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  double fill_bytes = 0.0;
  std::uint64_t events = 0;
  std::uint64_t peak_depth = 0;
  double checksum = 0.0;
};

/// Replays `in.stream` through the layers of one single-cell decision
/// path, one block (cursor chunk) at a time. Within a block every layer
/// runs as its own loop over the block's requests, so each layer's calls
/// are timed by one span per block: per-request spans would cost more
/// than the calls they time. The order per request is the run loop's
/// (sample, serve from the pre-decision prefix, deliver, record, admit);
/// completion observations are delivered once per block.
ReplayResult replay(const Shape& s, const Inputs& in, const std::string& policy,
                    SpanRecorder& rec, std::int64_t root_req) {
  const sc::sim::SimulationConfig cfg = sim_config(s, policy, kReplayFraction);
  const sc::workload::Catalog& catalog = *in.catalog;
  sc::net::PathSampler sampler(in.model);
  auto estimator = sc::core::registry::make_estimator(
      cfg.estimator, *in.model, sc::util::Rng(s.base.base_seed).fork("est"));
  auto pol = sc::core::registry::make_policy(cfg.policy, catalog, *estimator);
  sc::cache::PartialStore store(cfg.cache_capacity_bytes);
  store.reserve(catalog.size());
  sc::sim::ObservationQueue events;
  sc::sim::MetricsCollector metrics;
  sc::util::Rng session_rng = sc::util::Rng(s.base.base_seed).fork("session");
  // The dynamic shape: variable bandwidth, and its fleet cells route.
  const bool dynamic = s.scenario.mode != sc::net::VariationMode::kConstant;
  const bool interactive = cfg.interactivity.enabled();
  const bool observes = estimator->uses_observations();
  sc::fleet::Sharder sharder;
  if (dynamic) {
    sharder.compile(sc::fleet::FleetConfig::parse(kFleetHash).sharding, 16,
                    s.base.base_seed);
  }
  const char* access_name = rec.intern("cache.on_access." + policy);

  sc::workload::RequestCursor cursor;
  cursor.bind(in.stream, sc::workload::kDefaultStreamChunk);
  const std::size_t chunk = sc::workload::kDefaultStreamChunk;
  std::vector<double> bw(chunk), before(chunk), after(chunk), frac(chunk);
  std::vector<sc::sim::ServiceOutcome> out(chunk);
  struct Due {
    double now;
    sc::sim::ObservationEvent ev;
  };
  std::vector<Due> due;
  ReplayResult r;
  const std::int64_t t_start = now_ns();
  const std::int64_t root = rec.open("replay", -1, root_req);
  std::int64_t block_req = 0;
  for (;;) {
    const std::int64_t blk = rec.open("block", root, block_req);
    const sc::workload::RequestBlock* b = nullptr;
    {
      Scoped sp(rec, "workload.next", blk, block_req);
      b = cursor.next();
    }
    if (b == nullptr) {
      rec.close(blk, 0);
      break;
    }
    block_req = static_cast<std::int64_t>(b->first);
    const std::size_t n = b->size;
    const auto calls = static_cast<std::int64_t>(n);
    {
      Scoped sp(rec, "net.sample", blk, block_req);
      sp.set_calls(calls);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& o = catalog.object(b->object[i]);
        bw[i] = dynamic ? sampler.sample_bandwidth(o.path, b->time_s[i])
                        : sampler.mean_bandwidth(o.path);
      }
    }
    {
      Scoped sp(rec, "net.estimate", blk, block_req);
      sp.set_calls(calls);
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += estimator->estimate(catalog.object(b->object[i]).path,
                                   b->time_s[i]);
      }
      r.checksum += acc * 1e-12;
    }
    {
      Scoped sp(rec, access_name, blk, block_req);
      sp.set_calls(calls);
      for (std::size_t i = 0; i < n; ++i) {
        const auto id = b->object[i];
        before[i] = store.cached(id);
        pol->on_access(id, b->time_s[i], store);
        after[i] = store.cached(id);
      }
    }
    if (interactive) {
      Scoped sp(rec, "sim.interactivity", blk, block_req);
      sp.set_calls(calls);
      for (std::size_t i = 0; i < n; ++i) {
        frac[i] = sc::sim::sample_viewed_fraction(
            cfg.interactivity, catalog.object(b->object[i]).duration_s,
            b->view_s[i], session_rng);
      }
    } else {
      std::fill(frac.begin(), frac.begin() + static_cast<long>(n), 1.0);
    }
    {
      Scoped sp(rec, "sim.deliver", blk, block_req);
      sp.set_calls(calls);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& o = catalog.object(b->object[i]);
        const double session_s = frac[i] * o.duration_s;
        const double bytes = frac[i] < 1.0 ? session_s * o.bitrate : o.size_bytes;
        out[i] = sc::sim::deliver(session_s, o.bitrate, bytes, bw[i],
                                  std::min(before[i], bytes));
      }
    }
    {
      Scoped sp(rec, "sim.metrics_record", blk, block_req);
      sp.set_calls(calls);
      for (std::size_t i = 0; i < n; ++i) {
        metrics.record(out[i], catalog.object(b->object[i]).value);
        if (after[i] > before[i]) metrics.record_fill(after[i] - before[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (before[i] > 0) ++r.hits;
      if (after[i] > before[i]) r.fill_bytes += after[i] - before[i];
    }
    if (observes) {
      std::int64_t scheduled = 0;
      {
        Scoped sp(rec, "sim.events_schedule", blk, block_req);
        for (std::size_t i = 0; i < n; ++i) {
          if (out[i].bytes_from_origin <= 0) continue;
          events.schedule(b->time_s[i] + out[i].origin_transfer_s,
                          sc::sim::ObservationEvent{
                              catalog.object(b->object[i]).path,
                              out[i].origin_throughput});
          ++scheduled;
        }
        sp.set_calls(scheduled);
      }
      due.clear();
      {
        Scoped sp(rec, "sim.events_run_until", blk, block_req);
        events.run_until(b->time_s[n - 1],
                         [&](double now, sc::sim::ObservationEvent& ev) {
                           due.push_back(Due{now, ev});
                         });
        sp.set_calls(static_cast<std::int64_t>(due.size()));
      }
      // Transfers still in flight at the block's last arrival.
      r.peak_depth = std::max<std::uint64_t>(r.peak_depth, events.size());
      {
        Scoped sp(rec, "net.observe", blk, block_req);
        sp.set_calls(static_cast<std::int64_t>(due.size()));
        for (const Due& d : due) {
          estimator->observe(d.ev.path, d.ev.throughput, d.now);
        }
      }
      r.events += static_cast<std::uint64_t>(scheduled);
    }
    if (dynamic) {
      Scoped sp(rec, "fleet.route", blk, block_req);
      sp.set_calls(calls);
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += sharder.proxy_for(b->first + i, b->object[i]);
      }
      r.checksum += static_cast<double>(acc);
    }
    r.requests += n;
    rec.close(blk, calls);
  }
  rec.close(root, static_cast<std::int64_t>(r.requests));
  r.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  r.checksum += metrics.traffic_reduction_ratio() + metrics.average_delay_s();
  return r;
}

}  // namespace

int run_replay(const Cli& cli) {
  cli.check_unknown({"shape", "seed", "requests", "spans"});
  const std::string shape_name = cli.get_or("shape", std::string("paper"));
  const std::uint64_t seed = cli.get_count("seed", 1);
  const std::size_t requests = cli.get_count("requests", 1000000);
  const Shape s = make_shape(shape_name, seed, requests, 1, 1);
  const Inputs in = make_inputs(s, requests);

  Json j;
  j.begin_object().str("shape", shape_name).begin_array("configs");
  SpanRecorder off(false);
  SpanRecorder on(true);
  std::int64_t root_req = 0;
  // One discarded pass first, so neither timed pass pays the first
  // touch of the inputs.
  (void)replay(s, in, s.replay_policies.front(), off, -1);
  for (const std::string& policy : s.replay_policies) {
    // Untraced, then traced, each from fresh state over the same inputs:
    // the wall-time gap is the tracing overhead.
    const ReplayResult u = replay(s, in, policy, off, root_req);
    const ReplayResult t = replay(s, in, policy, on, root_req++);
    if (u.checksum != t.checksum || u.hits != t.hits) {
      throw std::runtime_error("traced replay diverged from untraced");
    }
    j.begin_object()
        .str("policy", policy)
        .num("untraced_wall_s", u.wall_s)
        .num("traced_wall_s", t.wall_s)
        .integer("requests", static_cast<long long>(t.requests))
        .integer("hits", static_cast<long long>(t.hits))
        .num("fill_bytes", t.fill_bytes)
        .integer("events", static_cast<long long>(t.events))
        .integer("peak_depth", static_cast<long long>(t.peak_depth))
        .end_object();
  }
  j.end_array().end_object().print();
  on.write(cli.get_or("spans", std::string()));
  return 0;
}

}  // namespace pb
