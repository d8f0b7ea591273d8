// Quickstart: build a small streaming workload, put the network-aware
// partial-caching decision kernel (the paper's PB policy) in front of its
// origin paths, and watch service delay collapse as the cache learns the
// workload. sim::DecisionKernel is the online decision object the live
// proxy daemon drives; here the trace's arrival times are its clock.
//
// Run: ./quickstart [--objects N] [--requests N] [--cache-gb G]
//                    [--policy <spec>] [--estimator <spec>]
//                    [--scenario <spec>]

#include <cstdio>

#include "cache/store.h"
#include "core/registry.h"
#include "net/bandwidth_model.h"
#include "net/path_process.h"
#include "net/units.h"
#include "net/variability.h"
#include "sim/decision.h"
#include "sim/delivery.h"
#include "sim/event_queue.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/generator.h"

int run_main(int argc, char** argv) {
  using namespace sc;
  const util::Cli cli(argc, argv);
  cli.check_unknown({"objects", "requests", "cache-gb", "policy", "estimator", "scenario"});

  // 1. A catalog of streaming objects and a Zipf-like request trace
  //    (defaults follow Table 1 of the paper, scaled down for a demo).
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects =
      static_cast<std::size_t>(cli.get_or("objects", 500LL));
  wcfg.trace.num_requests =
      static_cast<std::size_t>(cli.get_or("requests", 20000LL));
  util::Rng rng(7);
  const workload::Workload w = workload::generate_workload(wcfg, rng);

  // 2. Internet paths to the origin servers, from a registered scenario
  //    spec (default: NLANR means, measured-path variability). The
  //    immutable model (per-path means) is shareable; the sampler holds
  //    this run's variability stream.
  const auto scenario = core::registry::make_scenario(
      cli.get_or("scenario", std::string("measured")));
  net::PathModelConfig pcfg;
  pcfg.mode = scenario.mode;
  const auto model = std::make_shared<const net::PathModel>(
      w.catalog.size(), scenario.base, scenario.ratio, pcfg,
      rng.fork("paths"));
  net::PathSampler paths(model);

  // 3. The decision kernel: a partial-object store managed by a
  //    network-aware policy, fed by a bandwidth estimator — both
  //    addressed by spec strings — plus the queue that defers each
  //    transfer's throughput observation until the transfer completes.
  const auto estimator = core::registry::make_estimator(
      cli.get_or("estimator", std::string("ewma:alpha=0.3")), *model,
      rng.fork("estimator"));
  const auto policy = core::registry::make_policy(
      cli.get_or("policy", std::string("pb")), w.catalog, *estimator);
  cache::PartialStore store(net::from_gb(cli.get_or("cache-gb", 8.0)));
  sim::ObservationQueue observations;
  sim::DecisionKernel kernel(*policy, *estimator, store, observations);

  // 4. Replay the trace; report delay/quality in trace quarters so the
  //    learning effect is visible.
  util::Table table({"quarter", "avg delay (s)", "avg quality",
                     "traffic from cache", "cache occupancy (GB)"});
  const std::size_t quarter = w.requests.size() / 4;
  double delay_acc = 0, quality_acc = 0, cache_bytes = 0, total_bytes = 0;
  std::size_t in_quarter = 0;

  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const auto& req = w.requests[i];
    const auto& obj = w.catalog.object(req.object);
    const double bw = paths.sample_bandwidth(obj.path, req.time_s);

    // Serve from the cached prefix plus the origin (§2.2), then let the
    // policy decide what to keep. Passive measurement: the estimator
    // learns the origin transfer's throughput when it completes.
    kernel.tick(req.time_s);
    const double cached = kernel.cached(req.object);
    const sim::ServiceOutcome outcome = sim::deliver(obj, bw, cached);
    kernel.settle(req.object, obj.path, outcome, req.time_s,
                  req.time_s + outcome.origin_transfer_s,
                  /*can_fill=*/true, cached);

    delay_acc += outcome.delay_s;
    quality_acc += outcome.quality;
    cache_bytes += outcome.bytes_from_cache;
    total_bytes += obj.size_bytes;
    ++in_quarter;

    if (in_quarter == quarter || i + 1 == w.requests.size()) {
      const auto q = static_cast<double>(in_quarter);
      table.add_row({std::to_string((i + 1) / quarter),
                     util::Table::num(delay_acc / q, 1),
                     util::Table::num(quality_acc / q, 3),
                     util::Table::num(cache_bytes / total_bytes, 3),
                     util::Table::num(
                         net::to_gb(store.used()), 2)});
      delay_acc = quality_acc = cache_bytes = total_bytes = 0;
      in_quarter = 0;
    }
  }

  std::printf("Network-aware partial caching quickstart (%s policy)\n",
              policy->name().c_str());
  std::printf("objects=%zu requests=%zu cache=%.1f GB\n\n", w.catalog.size(),
              w.requests.size(), net::to_gb(store.capacity()));
  table.print();
  std::printf(
      "\nThe cache admits prefixes of objects whose origin bandwidth cannot\n"
      "sustain their bit-rate; delay drops as the estimator converges.\n");
  return 0;
}

int main(int argc, char** argv) {
  return sc::util::guarded_main(run_main, argc, argv);
}
