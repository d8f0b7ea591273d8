// workload::RequestStream property tests: the streaming engine's whole
// contract is that results are BYTE-IDENTICAL to the materialized path —
// for every registered (policy, estimator) pair, every chunk size, every
// thread count, every scenario mode, and for trace-file re-streaming.
// Every comparison below is exact (==) on doubles: "close" would hide
// a reordered floating-point reduction.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "util/spec.h"
#include "workload/generator.h"
#include "workload/request_stream.h"
#include "workload/trace.h"

namespace sc::workload {
namespace {

WorkloadConfig small_config(std::size_t objects = 200,
                            std::size_t requests = 3000,
                            double alpha = 0.73) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = objects;
  cfg.trace.num_requests = requests;
  cfg.trace.zipf_alpha = alpha;
  return cfg;
}

/// The shared-RNG contract used by core::SweepRunner: catalog draws
/// first, then the trace; a synthetic stream snapshots the post-catalog
/// state.
RequestStream stream_for(const WorkloadConfig& cfg, std::uint64_t seed) {
  util::Rng rng(seed);
  auto catalog =
      std::make_shared<const Catalog>(Catalog::generate(cfg.catalog, rng));
  return RequestStream::synthetic(catalog, cfg.trace, std::move(rng));
}

TEST(RequestStream, SyntheticMatchesGenerateWorkloadExactly) {
  const auto cfg = small_config();
  util::Rng rng(7);
  const Workload w = generate_workload(cfg, rng);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    RequestStream stream = stream_for(cfg, 7);
    ASSERT_EQ(stream.num_requests(), w.requests.size());
    RequestCursor cursor;
    cursor.bind(stream, chunk);
    std::size_t i = 0;
    while (const RequestBlock* block = cursor.next()) {
      ASSERT_EQ(block->first, i);
      for (std::size_t k = 0; k < block->size; ++k, ++i) {
        ASSERT_LT(i, w.requests.size());
        EXPECT_EQ(block->time_s[k], w.requests[i].time_s) << "chunk " << chunk;
        EXPECT_EQ(block->object[k], w.requests[i].object);
        EXPECT_EQ(block->view_s[k], w.requests[i].view_s);
      }
    }
    EXPECT_EQ(i, w.requests.size()) << "chunk " << chunk;
    // And the catalogs come from the same draws.
    ASSERT_EQ(stream.catalog().size(), w.catalog.size());
    for (std::size_t o = 0; o < w.catalog.size(); ++o) {
      EXPECT_EQ(stream.catalog().objects()[o].duration_s,
                w.catalog.objects()[o].duration_s);
      EXPECT_EQ(stream.catalog().objects()[o].bitrate,
                w.catalog.objects()[o].bitrate);
    }
  }
}

TEST(RequestStream, MaterializeRoundTripsAndRewinds) {
  const auto cfg = small_config(100, 500);
  RequestStream stream = stream_for(cfg, 11);
  const std::vector<Request> a = stream.materialize();
  const std::vector<Request> b =
      stream.materialize();  // cursors never consume the stream
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].object, b[i].object);
  }
}

TEST(RequestStream, ReplayRejectsNullAndZeroChunk) {
  EXPECT_THROW((void)RequestStream::replay(nullptr), std::invalid_argument);
  RequestStream stream = stream_for(small_config(50, 100), 3);
  RequestCursor cursor;
  EXPECT_THROW(cursor.bind(stream, 0), std::invalid_argument);
}

TEST(RequestStream, TraceFileStreamMatchesReplay) {
  util::Rng rng(13);
  const Workload w = generate_workload(small_config(80, 800), rng);
  const auto path =
      std::filesystem::temp_directory_path() / "sc_stream_roundtrip.trace";
  write_trace(w, path);

  RequestStream stream = RequestStream::trace_file(path);
  ASSERT_EQ(stream.num_requests(), w.requests.size());
  ASSERT_EQ(stream.catalog().size(), w.catalog.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    RequestCursor cursor;
    cursor.bind(stream, chunk);
    std::size_t i = 0;
    while (const RequestBlock* block = cursor.next()) {
      for (std::size_t k = 0; k < block->size; ++k, ++i) {
        EXPECT_EQ(block->time_s[k], w.requests[i].time_s);
        EXPECT_EQ(block->object[k], w.requests[i].object);
        EXPECT_EQ(block->view_s[k], w.requests[i].view_s);
      }
    }
    EXPECT_EQ(i, w.requests.size()) << "chunk " << chunk;
  }
  std::filesystem::remove(path);
}

TEST(RequestStream, TraceFileValidatesUpFront) {
  const auto path =
      std::filesystem::temp_directory_path() / "sc_stream_bad.trace";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("streamcache-trace v1 2 5\n", f);  // declares 5, holds 0
    std::fputs("O 0 300 1.5e6 4.5e8\n", f);
    std::fputs("O 1 300 1.5e6 4.5e8\n", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)RequestStream::trace_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sc::workload

namespace sc::core {
namespace {

void expect_identical(const AveragedMetrics& a, const AveragedMetrics& b,
                      const std::string& label) {
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.traffic_reduction, b.traffic_reduction) << label;
  EXPECT_EQ(a.traffic_reduction_sd, b.traffic_reduction_sd) << label;
  EXPECT_EQ(a.delay_s, b.delay_s) << label;
  EXPECT_EQ(a.delay_s_sd, b.delay_s_sd) << label;
  EXPECT_EQ(a.quality, b.quality) << label;
  EXPECT_EQ(a.quality_sd, b.quality_sd) << label;
  EXPECT_EQ(a.added_value, b.added_value) << label;
  EXPECT_EQ(a.added_value_sd, b.added_value_sd) << label;
  EXPECT_EQ(a.hit_ratio, b.hit_ratio) << label;
  EXPECT_EQ(a.immediate_ratio, b.immediate_ratio) << label;
  EXPECT_EQ(a.fill_bytes, b.fill_bytes) << label;
  EXPECT_EQ(a.occupancy_bytes, b.occupancy_bytes) << label;
}

ExperimentConfig base_config(std::size_t threads, std::size_t chunk) {
  ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 200;
  cfg.workload.trace.num_requests = 3000;
  cfg.runs = 2;
  cfg.threads = threads;
  cfg.sim.stream_chunk = chunk;
  cfg.sim.cache_capacity_bytes =
      capacity_for_fraction(cfg.workload.catalog, 0.02);
  return cfg;
}

AveragedMetrics run_mode(ExperimentConfig cfg, const Scenario& scenario,
                         workload::StreamingMode mode) {
  cfg.streaming = mode;
  return run_experiment(cfg, scenario);
}

TEST(StreamedSimulation, MatchesMaterializedForEveryRegistryPair) {
  // The full cross: every registered (policy, estimator) pair, chunk
  // sizes {1, 7, 4096}, threads {1, 4}. Exact equality on every metric.
  const Scenario scenario = constant_scenario();
  for (const auto& policy : registry::list(registry::Kind::kPolicy)) {
    for (const auto& estimator :
         registry::list(registry::Kind::kEstimator)) {
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{4096}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          ExperimentConfig cfg = base_config(threads, chunk);
          cfg.sim.policy = policy.name;
          cfg.sim.estimator = estimator.name;
          const std::string label = policy.name + "/" + estimator.name +
                                    " chunk=" + std::to_string(chunk) +
                                    " threads=" + std::to_string(threads);
          expect_identical(
              run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
              run_mode(cfg, scenario, workload::StreamingMode::kStream),
              label);
        }
      }
    }
  }
}

TEST(StreamedSimulation, MatchesMaterializedUnderVariableBandwidth) {
  // The variable-bandwidth loop takes the sequential per-request
  // sampling branch instead of the batched gather; both scenario modes
  // must still be bit-identical streamed vs materialized.
  for (const Scenario& scenario :
       {measured_variability_scenario(),
        timeseries_scenario(net::MeasuredPath::kTaiwan)}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ExperimentConfig cfg = base_config(threads, 64);
      cfg.sim.policy = "pb";
      cfg.sim.estimator = "ewma";
      expect_identical(
          run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
          run_mode(cfg, scenario, workload::StreamingMode::kStream),
          scenario.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(StreamedSimulation, MatchesMaterializedWithExtensionsEnabled) {
  // Patching re-deliveries and session dynamics read per-request fields
  // (now_s, view_s) off the block; keep them identical too.
  const Scenario scenario = constant_scenario();
  ExperimentConfig cfg = base_config(1, 37);
  cfg.sim.policy = "pb";
  cfg.sim.patching.enabled = true;
  cfg.sim.interactivity = sim::InteractivityConfig::parse("empirical");
  expect_identical(
      run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
      run_mode(cfg, scenario, workload::StreamingMode::kStream),
      "patching+interactivity");
}

TEST(StreamedSimulation, MatchesMaterializedOnRandomWorkloads) {
  // Property sweep over randomized workload shapes: seeds drive the
  // shape parameters, so failures reproduce exactly.
  const Scenario scenario = constant_scenario();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng shape(seed * 977);
    ExperimentConfig cfg = base_config(/*threads=*/seed % 2 == 0 ? 4 : 1,
                                       /*chunk=*/static_cast<std::size_t>(shape.uniform_int(1, 512)));
    cfg.workload.catalog.num_objects = static_cast<std::size_t>(shape.uniform_int(50, 350));
    cfg.workload.trace.num_requests = static_cast<std::size_t>(shape.uniform_int(500, 4500));
    cfg.workload.trace.zipf_alpha = 0.4 + 0.1 * static_cast<double>(seed % 7);
    cfg.base_seed = seed;
    cfg.sim.policy = seed % 2 == 0 ? "pb" : "hybrid";
    const std::string label = "seed=" + std::to_string(seed);
    expect_identical(
        run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
        run_mode(cfg, scenario, workload::StreamingMode::kStream), label);
  }
}

void expect_all_fields_identical(const AveragedMetrics& a,
                                 const AveragedMetrics& b,
                                 const std::string& label) {
  expect_identical(a, b, label);
  EXPECT_EQ(a.denied_requests, b.denied_requests) << label;
  EXPECT_EQ(a.denied_bytes, b.denied_bytes) << label;
  EXPECT_EQ(a.uplink_utilization, b.uplink_utilization) << label;
  EXPECT_EQ(a.load_imbalance, b.load_imbalance) << label;
  EXPECT_EQ(a.peer_hit_ratio, b.peer_hit_ratio) << label;
}

TEST(StreamedSimulation, LockstepGroupsMatchMaterializedOnAMixedGrid) {
  // Under kStream the runner feeds every simulation of a regenerating
  // stream from one shared cursor, group by group. A grid mixing every
  // kind of simulation a group can hold — repeated spec pairs (several
  // groups per stream), an out-of-table user-registered policy (a
  // virtual-fallback member), session dynamics, a fault plan, a second
  // alpha, and a fleet cell (a lane of the stream's first group) — must
  // come out field-identical to the materialized path at threads 1 and
  // 4.
  static const registry::PolicyRegistrar registrar(
      {"test-stream-pb", {}, "test-only PB clone (fallback path)", {}},
      [](const util::Spec&, const registry::PolicyContext& ctx) {
        return std::make_unique<cache::PbPolicy>(ctx.catalog, ctx.estimator);
      });
  (void)registrar;
  const std::vector<SweepCell> cells = {
      {"pb", -1.0, 0.01, {}, {}, {}},
      {"lru", -1.0, 0.01, {}, {}, {}},
      {"pb", -1.0, 0.04, {}, {}, {}},
      {"lru", -1.0, 0.04, {}, {}, {}},
      {"test-stream-pb", -1.0, 0.02, {}, {}, {}},
      {"pb", -1.0, 0.02, "exp:mean=600", {}, {}},
      {"lru", -1.0, 0.02, {}, "fault:outage=5000+4000,degrade=1000+2000x0.5", {}},
      {"if", 1.0, 0.02, {}, {}, {}},
      {"pb", -1.0, 0.04, {}, {}, "fleet:proxies=4,sharding=hash:vnodes=16"},
  };
  const Scenario scenario = measured_variability_scenario();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExperimentConfig cfg = base_config(threads, 256);
    cfg.sim.estimator = "ewma";
    cfg.streaming = workload::StreamingMode::kMaterialize;
    SweepStats materialized_stats;
    const auto materialized =
        SweepRunner(cfg, scenario).run(cells, &materialized_stats);
    cfg.streaming = workload::StreamingMode::kStream;
    SweepStats streamed_stats;
    const auto streamed = SweepRunner(cfg, scenario).run(cells, &streamed_stats);
    ASSERT_EQ(materialized.size(), cells.size());
    ASSERT_EQ(streamed.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_all_fields_identical(
          materialized[c], streamed[c],
          "cell " + std::to_string(c) + " threads=" + std::to_string(threads));
    }
    // Replayed streams run every simulation alone. Per run, the
    // alpha-0.73 stream holds three groups ({pb, lru, test-stream-pb,
    // fleet}, then {pb, lru} twice); the lone alpha-1.0 cell runs alone.
    EXPECT_EQ(materialized_stats.lockstep_groups, 0u);
    EXPECT_EQ(streamed_stats.lockstep_groups, 3 * cfg.runs);
  }
}

TEST(StreamedSimulation, LockstepGroupsShareDrawsExactly) {
  // A group fills one set of per-request draws (bandwidth samples and
  // session lengths) per distinct (replication, session model) and
  // hands it to every lane of that key. Under both variable-bandwidth
  // samplers (i.i.d. ratios and the stateful AR(1) time series), with
  // and without shared path models, a group mixing four session models,
  // a fault plan, a hash fleet and a cooperating fleet behind a finite
  // uplink must match the materialized path (every simulation alone,
  // with its own draws) field for field.
  const std::vector<SweepCell> cells = {
      {"pb", -1.0, 0.01, {}, {}, {}},
      {"lru", -1.0, 0.01, "empirical", {}, {}},
      {"if", -1.0, 0.02, "exp:mean=300", {}, {}},
      {"pb", -1.0, 0.04, "full", {}, {}},
      {"lru", -1.0, 0.04, {}, "fault:outage=5000+4000,degrade=1000+2000x0.5",
       {}},
      {"pb", -1.0, 0.04, {}, {}, "fleet:proxies=4,sharding=hash:vnodes=16"},
      {"pb", -1.0, 0.04, "empirical", {},
       "fleet:proxies=4,sharding=random,uplink_mbps=50,coop=1"},
      {"pb", -1.0, 0.02, "exp:mean=300", "fault:outage=5000+4000", {}},
  };
  for (const Scenario& scenario :
       {measured_variability_scenario(),
        timeseries_scenario(net::MeasuredPath::kTaiwan)}) {
    for (const bool share_models : {true, false}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ExperimentConfig cfg = base_config(threads, 256);
        cfg.sim.estimator = "ewma";
        cfg.sim.interactivity =
            sim::InteractivityConfig::parse("exp:mean=600");
        cfg.share_path_models = share_models;
        cfg.streaming = workload::StreamingMode::kMaterialize;
        const auto materialized = SweepRunner(cfg, scenario).run(cells);
        cfg.streaming = workload::StreamingMode::kStream;
        SweepStats stats;
        const auto streamed = SweepRunner(cfg, scenario).run(cells, &stats);
        ASSERT_EQ(materialized.size(), cells.size());
        ASSERT_EQ(streamed.size(), cells.size());
        const std::string label = scenario.name +
                                  (share_models ? " shared" : " unshared") +
                                  " threads=" + std::to_string(threads);
        for (std::size_t c = 0; c < cells.size(); ++c) {
          expect_all_fields_identical(materialized[c], streamed[c],
                                      label + " cell " + std::to_string(c));
        }
        // Per run: {pb, lru, if, fleet} and {pb, lru, fleet}; the third
        // pb cell runs alone.
        EXPECT_EQ(stats.lockstep_groups, 2 * cfg.runs) << label;
      }
    }
  }
}

TEST(StreamedSimulation, TraceFileGroupsNeverShareDrawsAcrossReplications) {
  // A trace:...,stream=1 scenario has one stream for the whole grid, so
  // every replication's simulations are grouped over the same stream,
  // while their path models and session seeds differ. Under variable
  // bandwidth and session dynamics, with fleets in the groups, the
  // streamed file must match its in-memory replay (every simulation
  // alone) field for field.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 150;
  wcfg.trace.num_requests = 3000;
  util::Rng rng(79);
  const auto w = workload::generate_workload(wcfg, rng);
  const auto trace_path =
      std::filesystem::temp_directory_path() / "sc_stream_draws.trace";
  workload::write_trace(w, trace_path);
  const std::string spec =
      "trace:file=" + trace_path.string() + ",bw=measured";
  const auto replayed = registry::make_scenario(spec);
  const auto streamed = registry::make_scenario(spec + ",stream=1");
  const std::vector<SweepCell> cells = {
      {"pb", -1.0, 0.02, {}, {}, {}},
      {"lru", -1.0, 0.02, "empirical", {}, {}},
      {"pb", -1.0, 0.05, {}, {}, "fleet:proxies=4,sharding=hash:vnodes=16"},
      {"pb", -1.0, 0.05, {}, {},
       "fleet:proxies=4,sharding=random,uplink_mbps=50,coop=1"},
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExperimentConfig cfg = base_config(threads, 256);
    cfg.runs = 3;
    cfg.sim.estimator = "ewma";
    cfg.sim.interactivity = sim::InteractivityConfig::parse("exp:mean=600");
    SweepStats replay_stats;
    const auto a = SweepRunner(cfg, replayed).run(cells, &replay_stats);
    SweepStats stream_stats;
    const auto b = SweepRunner(cfg, streamed).run(cells, &stream_stats);
    ASSERT_EQ(a.size(), cells.size());
    ASSERT_EQ(b.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_all_fields_identical(
          a[c], b[c],
          "cell " + std::to_string(c) + " threads=" + std::to_string(threads));
    }
    // One stream for the grid: per run, {pb, lru, first fleet}; the
    // second fleet of each run runs alone.
    EXPECT_EQ(replay_stats.lockstep_groups, 0u);
    EXPECT_EQ(stream_stats.lockstep_groups, cfg.runs);
  }
  std::filesystem::remove(trace_path);
}

TEST(StreamedSimulation, SweepSharesOneStreamPerAlphaRun) {
  // Under kStream the runner builds one RequestStream per (alpha, run)
  // and shares it across cells, mirroring the materialized sharing.
  ExperimentConfig cfg = base_config(1, 128);
  cfg.streaming = workload::StreamingMode::kStream;
  SweepRunner runner(cfg, constant_scenario());
  std::vector<SweepCell> cells;
  for (const char* policy : {"pb", "if"}) {
    cells.push_back(SweepCell{policy, 0.73, 0.02, {}, {}, {}});
    cells.push_back(SweepCell{policy, 1.0, 0.02, {}, {}, {}});
  }
  SweepStats stats;
  (void)runner.run(cells, &stats);
  EXPECT_EQ(stats.workloads_generated, 2 * cfg.runs);  // alphas x runs
}

}  // namespace
}  // namespace sc::core
