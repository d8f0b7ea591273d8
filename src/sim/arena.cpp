#include "sim/arena.h"

#include <utility>

namespace sc::sim {

void SimulationArena::Engine::begin(const RunContext& context) {
  const workload::Catalog& catalog = context.stream->catalog();
  const SimulationConfig& config = *context.config;

  util::Rng rng(context.seed);
  std::shared_ptr<const net::PathModel> model = context.model;
  if (model == nullptr) {
    model = net::make_path_model(catalog.size(), *context.base,
                                 *context.ratio, config.path_config,
                                 context.seed);
  }
  // The estimator fork is the one make_virtual_proxy seeds proxy 0 from.
  const bool rebound =
      proxy_.policy != nullptr &&
      proxy_.estimator->rebind(*model, rng.fork("estimator")) &&
      proxy_.policy->rebind(catalog, *proxy_.estimator);
  if (!rebound) {
    proxy_ = make_virtual_proxy(config.policy, config.estimator, catalog,
                                *model, rng, 0);
  }
  state_.reset(catalog, std::move(model), config.cache_capacity_bytes,
               config.patching.enabled);
  loop_.emplace(*context.stream, config, state_, *proxy_.policy,
                *proxy_.estimator, rng);
}

SimulationResult SimulationArena::Engine::finish() {
  SimulationResult result = loop_->finish();
  loop_.reset();
  return result;
}

SimulationArena::Engine& SimulationArena::engine(
    const SimulationConfig& config) {
  for (const std::unique_ptr<Engine>& engine : engines_) {
    if (engine->policy() == config.policy &&
        engine->estimator() == config.estimator) {
      return *engine;
    }
  }
  engines_.push_back(
      std::make_unique<Engine>(config.policy, config.estimator));
  return *engines_.back();
}

}  // namespace sc::sim
