#include "bench/harness.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <stdexcept>

#include "core/registry.h"
#include "core/sweep.h"
#include "util/thread_pool.h"

// Resolved by CMake (1 only when check_ipo_supported passed and the
// build type is Release); default off for non-CMake builds.
#ifndef SC_LTO
#define SC_LTO 0
#endif

// ---------------------------------------------------------------------
// Global allocation counter. Every bench binary links this translation
// unit, so operator new is replaced process-wide with a malloc wrapper
// that bumps an atomic. This is how --json reports allocations/request
// and how the hot-path zero-allocation claim is measured (docs/PERF.md).
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sc::bench {

std::uint64_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

double peak_rss_mb() noexcept {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#ifdef __APPLE__
  // macOS reports ru_maxrss in bytes; Linux in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

namespace {
SweepTelemetry g_last_telemetry;

workload::StreamingMode parse_streaming_mode(const std::string& mode) {
  if (mode == "auto") return workload::StreamingMode::kAuto;
  if (mode == "materialize") return workload::StreamingMode::kMaterialize;
  if (mode == "stream") return workload::StreamingMode::kStream;
  throw std::invalid_argument(
      "--streaming must be auto, materialize, or stream (got \"" + mode +
      "\")");
}
}  // namespace

const SweepTelemetry& last_sweep_telemetry() { return g_last_telemetry; }

FigureConfig parse_figure_args(int argc, char** argv,
                               const std::string& default_csv,
                               const std::vector<std::string>& extra_flags) {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: %s [flags]\n\n"
        "  --quick              4 runs x 30,000 requests (CI smoke)\n"
        "  --runs=N --requests=N --objects=N --zipf=A --seed=S\n"
        "                       counts accept 250k / 100M / 2G / 1e8 forms;\n"
        "                       --num-requests is an alias for --requests\n"
        "  --streaming=M        auto | materialize | stream (bit-identical;\n"
        "                       stream regenerates workloads in O(chunk)\n"
        "                       memory instead of materializing them)\n"
        "  --csv=PATH           series output (default %s)\n"
        "  --json=PATH          machine-readable perf record of the sweep\n"
        "  --threads=N          simulations run at once (0 = all cores,\n"
        "                       1 = serial; results identical for every N)\n"
        "  --parallel=0|1       run the sweep on a thread pool\n"
        "  --policy=<spec>      override the figure's policy set\n"
        "  --estimator=<spec>   bandwidth estimator (default oracle)\n"
        "  --scenario=<spec>    override the figure's scenario\n"
        "                       (trace:file=PATH replays a recorded trace)\n"
        "  --interactivity=<s>  session dynamics: full | exp:mean=S |\n"
        "                       empirical | trace (default full)\n"
        "  --fault=<spec>       deterministic fault injection (default\n"
        "                       none; e.g. fault:outage=120+60 — see\n"
        "                       docs/CHAOS.md for the window grammar)\n"
        "  --latency-percentiles  report p50/p95/p99 of per-simulation\n"
        "                       wall times after each sweep\n\n%s",
        cli.program().c_str(), default_csv.c_str(),
        core::registry::help().c_str());
    std::exit(0);
  }
  std::vector<std::string> known = {"quick",    "runs",     "requests",
                                    "num-requests", "objects", "zipf",
                                    "seed",     "streaming",
                                    "csv",      "json",     "threads",
                                    "parallel", "policy",   "estimator",
                                    "scenario", "interactivity", "fault",
                                    "help", "latency-percentiles"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  cli.check_unknown(known);
  FigureConfig cfg;
  if (cli.get_or("quick", false)) {
    cfg.runs = 4;
    cfg.requests = 30000;
    cfg.objects = 2000;
  }
  cfg.runs = cli.get_count("runs", cfg.runs);
  cfg.requests = cli.get_count("requests", cfg.requests);
  // --num-requests is an alias; when both are passed it wins (it is the
  // more explicit spelling).
  cfg.requests = cli.get_count("num-requests", cfg.requests);
  cfg.objects = cli.get_count("objects", cfg.objects);
  cfg.zipf_alpha = cli.get_or("zipf", cfg.zipf_alpha);
  cfg.seed = static_cast<std::uint64_t>(
      cli.get_or("seed", static_cast<long long>(cfg.seed)));
  cfg.csv_path = cli.get_or("csv", default_csv);
  cfg.json_path = cli.get_or("json", std::string());
  cfg.parallel = cli.get_or("parallel", true);
  const long long threads = cli.get_or("threads", 0LL);
  if (threads < 0) {
    throw std::invalid_argument(
        "--threads must be >= 0 (0 = all cores, 1 = serial)");
  }
  cfg.threads = static_cast<std::size_t>(threads);
  const std::string& prog = cli.program();
  const auto slash = prog.find_last_of('/');
  cfg.bench_name = slash == std::string::npos ? prog : prog.substr(slash + 1);
  cfg.estimator = cli.get_or("estimator", cfg.estimator);
  core::registry::validate(core::registry::Kind::kEstimator, cfg.estimator);
  cfg.interactivity = cli.get_or("interactivity", cfg.interactivity);
  // Fail fast on a bad session-dynamics spec, like the other axes.
  (void)sim::InteractivityConfig::parse(cfg.interactivity);
  cfg.fault = cli.get_or("fault", cfg.fault);
  (void)net::FaultPlan::parse(cfg.fault);  // fail fast on typos
  cfg.streaming = cli.get_or("streaming", cfg.streaming);
  (void)parse_streaming_mode(cfg.streaming);  // fail fast on typos
  if (const auto v = cli.get("policy")) {
    core::registry::validate(core::registry::Kind::kPolicy, *v);
    cfg.policy_override = *v;
  }
  if (const auto v = cli.get("scenario")) {
    core::registry::validate(core::registry::Kind::kScenario, *v);
    cfg.scenario_override = *v;
  }
  cfg.latency_percentiles = cli.get_or("latency-percentiles", false);
  return cfg;
}

PolicySpec spec(const std::string& spec_string, std::string label) {
  core::registry::validate(core::registry::Kind::kPolicy, spec_string);
  const util::Spec parsed = util::Spec::parse(spec_string);
  PolicySpec s;
  s.spec = spec_string;
  s.label = label.empty() ? parsed.to_string() : std::move(label);
  s.param_e = parsed.get_double("e", 1.0);
  return s;
}

core::Scenario scenario_for(const FigureConfig& config,
                            const std::string& default_spec) {
  return core::registry::make_scenario(
      config.scenario_override.value_or(default_spec));
}

std::vector<PolicySpec> policies_for(const FigureConfig& config,
                                     std::vector<PolicySpec> defaults) {
  if (config.policy_override) return {spec(*config.policy_override)};
  return defaults;
}

namespace {

core::ExperimentConfig base_experiment(const FigureConfig& config) {
  core::ExperimentConfig e;
  e.workload.catalog.num_objects = config.objects;
  e.workload.trace.num_requests = config.requests;
  e.workload.trace.zipf_alpha = config.zipf_alpha;
  e.runs = config.runs;
  e.base_seed = config.seed;
  e.parallel = config.parallel;
  e.threads = config.threads;
  e.sim.estimator = config.estimator;
  e.sim.interactivity = sim::InteractivityConfig::parse(config.interactivity);
  e.sim.fault = net::FaultPlan::parse(config.fault);
  e.streaming = parse_streaming_mode(config.streaming);
  return e;
}

}  // namespace

std::vector<SweepPoint> sweep_cache_sizes(
    const FigureConfig& config, const core::Scenario& scenario,
    const std::vector<PolicySpec>& policies,
    const std::vector<double>& fractions) {
  return sweep_alpha_and_cache(config, scenario, policies,
                               {config.zipf_alpha}, fractions);
}

std::vector<core::AveragedMetrics> run_cells(
    const FigureConfig& config, const core::Scenario& scenario,
    const std::vector<core::SweepCell>& cells) {
  core::SweepRunner runner(base_experiment(config), scenario);
  core::SweepStats stats;
  const std::uint64_t allocs_before = allocation_count();
  const auto start = std::chrono::steady_clock::now();
  auto metrics = runner.run(cells, &stats);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  // Under trace replay the per-run shape comes from the file, not
  // --requests/--objects; report the replayed values so requests/sec
  // and the record's metadata stay honest.
  SweepTelemetry t;
  if (scenario.replay != nullptr) {
    t.requests_per_run = scenario.replay->requests.size();
    t.objects = scenario.replay->catalog.size();
  } else if (scenario.stream != nullptr) {
    t.requests_per_run = scenario.stream->num_requests();
    t.objects = scenario.stream->catalog().size();
  } else {
    t.requests_per_run = config.requests;
    t.objects = config.objects;
  }
  t.wall_s = elapsed.count();
  t.simulations = cells.size() * config.runs;
  t.requests_simulated = t.simulations * t.requests_per_run;
  t.workloads_generated = stats.workloads_generated;
  t.path_models_built = stats.path_models_built;
  t.threads = !config.parallel || config.threads == 1
                  ? 1
                  : (config.threads == 0 ? util::ThreadPool::default_threads()
                                         : config.threads);
  t.allocations = allocation_count() - allocs_before;
  t.peak_rss_mb = peak_rss_mb();
  t.sim_latency = stats::summarize_latencies(stats.sim_wall_s);
  g_last_telemetry = t;
  if (config.latency_percentiles) {
    print_latency_summary("per-simulation wall time", t.sim_latency);
  }
  if (!config.json_path.empty()) {
    write_bench_json(config, t, config.json_path);
  }
  return metrics;
}

void print_latency_summary(const std::string& label,
                           const stats::LatencySummary& s, double scale,
                           const char* unit) {
  std::printf(
      "%s: n=%zu mean=%.3f%s p50=%.3f%s p95=%.3f%s p99=%.3f%s max=%.3f%s\n",
      label.c_str(), s.count, s.mean * scale, unit, s.p50 * scale, unit,
      s.p95 * scale, unit, s.p99 * scale, unit, s.max * scale, unit);
}

std::vector<SweepPoint> sweep_alpha_and_cache(
    const FigureConfig& config, const core::Scenario& scenario,
    const std::vector<PolicySpec>& policies,
    const std::vector<double>& alphas, const std::vector<double>& fractions) {
  // Flatten the whole grid into one SweepRunner task list: workloads are
  // shared per (alpha, replication) and the pool spans every point.
  std::vector<SweepPoint> points;
  std::vector<core::SweepCell> cells;
  points.reserve(policies.size() * alphas.size() * fractions.size());
  cells.reserve(points.capacity());
  for (const double alpha : alphas) {
    for (const auto& policy : policies) {
      for (const double fraction : fractions) {
        cells.push_back(core::SweepCell{policy.spec, alpha, fraction, {}, {}, {}});
        SweepPoint p;
        p.policy = policy.label;
        p.cache_fraction = fraction;
        p.zipf_alpha = alpha;
        p.param_e = policy.param_e;
        points.push_back(std::move(p));
      }
    }
  }

  const auto metrics = run_cells(config, scenario, cells);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].metrics = metrics[i];
  }
  return points;
}

void write_bench_json(const FigureConfig& config,
                      const SweepTelemetry& telemetry,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const double reqs = static_cast<double>(telemetry.requests_simulated);
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"%s\",\n"
      "  \"threads\": %zu,\n"
      "  \"runs\": %zu,\n"
      "  \"requests_per_run\": %zu,\n"
      "  \"objects\": %zu,\n"
      "  \"simulations\": %zu,\n"
      "  \"workloads_generated\": %zu,\n"
      "  \"path_models_built\": %zu,\n"
      "  \"requests_simulated\": %zu,\n"
      "  \"lto\": %s,\n"
      "  \"wall_s\": %.6f,\n"
      "  \"requests_per_sec\": %.0f,\n"
      "  \"allocations\": %llu,\n"
      "  \"allocations_per_request\": %.6f,\n"
      "  \"peak_rss_mb\": %.3f\n"
      "}\n",
      config.bench_name.c_str(), telemetry.threads, config.runs,
      telemetry.requests_per_run, telemetry.objects, telemetry.simulations,
      telemetry.workloads_generated, telemetry.path_models_built,
      telemetry.requests_simulated,
      // Resolved build flag (CMake's check_ipo_supported gate), so
      // trajectory records are comparable across build configurations.
      SC_LTO ? "true" : "false",
      telemetry.wall_s, telemetry.wall_s > 0 ? reqs / telemetry.wall_s : 0.0,
      static_cast<unsigned long long>(telemetry.allocations),
      reqs > 0 ? static_cast<double>(telemetry.allocations) / reqs : 0.0,
      telemetry.peak_rss_mb);
  std::fclose(f);
  std::printf("[perf record written to %s]\n", path.c_str());
}

std::string metric_name(Metric metric) {
  switch (metric) {
    case Metric::kTrafficReduction: return "traffic reduction ratio";
    case Metric::kDelay: return "average service delay (s)";
    case Metric::kQuality: return "average stream quality";
    case Metric::kAddedValue: return "total added value ($K)";
  }
  return "?";
}

double metric_value(const core::AveragedMetrics& m, Metric metric) {
  switch (metric) {
    case Metric::kTrafficReduction: return m.traffic_reduction;
    case Metric::kDelay: return m.delay_s;
    case Metric::kQuality: return m.quality;
    case Metric::kAddedValue: return m.added_value / 1000.0;  // $K
  }
  return 0.0;
}

void print_panel(const std::vector<SweepPoint>& points, Metric metric,
                 const std::string& title) {
  // Group by policy label, preserving insertion order.
  std::vector<std::string> order;
  std::map<std::string, util::Series> series;
  for (const auto& p : points) {
    auto [it, inserted] = series.try_emplace(p.policy);
    if (inserted) {
      it->second.name = p.policy;
      order.push_back(p.policy);
    }
    it->second.x.push_back(p.cache_fraction);
    it->second.y.push_back(metric_value(p.metrics, metric));
  }

  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> cols = {"cache size (frac)"};
  for (const auto& name : order) cols.push_back(name);
  util::Table table(cols);

  // Collect the distinct fractions in order of appearance.
  std::vector<double> fracs;
  for (const auto& p : points) {
    bool seen = false;
    for (const double f : fracs) {
      if (f == p.cache_fraction) {
        seen = true;
        break;
      }
    }
    if (!seen) fracs.push_back(p.cache_fraction);
  }

  for (const double f : fracs) {
    std::vector<std::string> row = {util::Table::num(f, 3)};
    for (const auto& name : order) {
      const auto& s = series[name];
      std::string cell = "-";
      for (std::size_t i = 0; i < s.x.size(); ++i) {
        if (s.x[i] == f) {
          cell = util::Table::num(s.y[i], 4);
          break;
        }
      }
      row.push_back(cell);
    }
    table.add_row(row);
  }
  table.print();

  std::vector<util::Series> chart;
  for (const auto& name : order) chart.push_back(series[name]);
  std::fputs(util::ascii_chart(chart, 64, 14, "", "cache fraction",
                               metric_name(metric))
                 .c_str(),
             stdout);
}

void write_points_csv(const std::vector<SweepPoint>& points,
                      const std::string& path) {
  util::CsvWriter csv(path);
  csv.header({"policy", "cache_fraction", "zipf_alpha", "e", "runs",
              "traffic_reduction", "traffic_reduction_sd", "delay_s",
              "delay_s_sd", "quality", "quality_sd", "added_value",
              "added_value_sd", "hit_ratio", "immediate_ratio"});
  for (const auto& p : points) {
    const auto& m = p.metrics;
    csv.field(p.policy)
        .field(p.cache_fraction)
        .field(p.zipf_alpha)
        .field(p.param_e)
        .field(static_cast<long long>(m.runs))
        .field(m.traffic_reduction)
        .field(m.traffic_reduction_sd)
        .field(m.delay_s)
        .field(m.delay_s_sd)
        .field(m.quality)
        .field(m.quality_sd)
        .field(m.added_value)
        .field(m.added_value_sd)
        .field(m.hit_ratio)
        .field(m.immediate_ratio);
    csv.endrow();
  }
  std::printf("\n[series written to %s]\n", path.c_str());
}

TempDir::TempDir(const std::string& prefix) {
  std::string tmpl = prefix + "XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("TempDir: mkdtemp failed for " + tmpl);
  }
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;  // best effort — never throw from a destructor
  std::filesystem::remove_all(path_, ec);
}

}  // namespace sc::bench
