#include "sim/simulator.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/registry.h"
#include "net/estimator.h"
#include "sim/run_loop.h"

namespace sc::sim {

namespace {

/// A replay stream over a caller-owned workload (the constructor's
/// documented "must outlive the simulator" contract): the aliasing
/// shared_ptr shares no ownership, it only points.
workload::RequestStream borrow(const workload::Workload& workload) {
  return workload::RequestStream::replay(
      std::shared_ptr<const workload::Workload>(
          std::shared_ptr<const workload::Workload>(), &workload));
}

}  // namespace

Simulator::Simulator(const workload::Workload& workload,
                     const stats::EmpiricalDistribution& base_bandwidth,
                     const stats::EmpiricalDistribution& ratio_model,
                     SimulationConfig config)
    : stream_(borrow(workload)),
      base_(base_bandwidth),
      ratio_(ratio_model),
      config_(std::move(config)) {
  if (config_.cache_capacity_bytes < 0) {
    throw std::invalid_argument("Simulator: negative cache capacity");
  }
  if (config_.warmup_fraction < 0 || config_.warmup_fraction >= 1) {
    throw std::invalid_argument("Simulator: warmup_fraction must be [0, 1)");
  }
  if (stream_.num_requests() == 0) {
    throw std::invalid_argument("Simulator: empty request trace");
  }
  if (config_.stream_chunk == 0) {
    throw std::invalid_argument("Simulator: stream_chunk must be >= 1");
  }
  if (config_.viewing.enabled && config_.interactivity.enabled()) {
    throw std::invalid_argument(
        "Simulator: ViewingConfig and a non-full interactivity model "
        "cannot be combined; use the interactivity spec alone");
  }
  // Fail fast on bad component specs (util::SpecError derives from
  // std::invalid_argument) instead of deep inside run().
  core::registry::validate(core::registry::Kind::kPolicy, config_.policy);
  core::registry::validate(core::registry::Kind::kEstimator,
                           config_.estimator);
}

VirtualProxy make_virtual_proxy(const std::string& policy,
                                const std::string& estimator,
                                const workload::Catalog& catalog,
                                const net::PathModel& model,
                                const util::Rng& rng, std::size_t proxy) {
  std::string tag = "estimator";
  if (proxy > 0) tag += "#" + std::to_string(proxy);
  VirtualProxy out;
  out.estimator =
      core::registry::make_estimator(estimator, model, rng.fork(tag));
  out.policy = core::registry::make_policy(policy, catalog, *out.estimator);
  return out;
}

std::shared_ptr<const net::PathModel> make_scenario_model(
    const std::string& scenario, std::size_t n_paths, std::uint64_t seed) {
  const core::Scenario s = core::registry::make_scenario(scenario);
  net::PathModelConfig config;
  config.mode = s.mode;
  return net::make_path_model(n_paths, s.base, s.ratio, config, seed);
}

SimulationResult Simulator::run() {
  const workload::Catalog& catalog = stream_.catalog();
  util::Rng rng(config_.seed);
  std::shared_ptr<const net::PathModel> model = net::make_path_model(
      catalog.size(), base_, ratio_, config_.path_config, config_.seed);
  const VirtualProxy proxy = make_virtual_proxy(
      config_.policy, config_.estimator, catalog, *model, rng, 0);
  RunState state;
  state.reset(catalog, std::move(model), config_.cache_capacity_bytes,
              config_.patching.enabled);
  return run_request_loop(stream_, config_, state, *proxy.policy,
                          *proxy.estimator, rng);
}

}  // namespace sc::sim
