#include "sim/simulator.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/registry.h"
#include "net/estimator.h"
#include "sim/arena.h"
#include "sim/run_loop.h"

namespace sc::sim {

namespace {

/// A replay stream over a caller-owned workload (the Workload&
/// constructors' documented "must outlive the simulator" contract): the
/// aliasing shared_ptr shares no ownership, it only points.
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
    : Simulator(borrow(workload), &base_bandwidth, &ratio_model, nullptr,
                std::move(config)) {}

Simulator::Simulator(const workload::Workload& workload,
                     std::shared_ptr<const net::PathModel> path_model,
                     SimulationConfig config)
    : Simulator(borrow(workload), nullptr, nullptr, std::move(path_model),
                std::move(config)) {}

Simulator::Simulator(workload::RequestStream stream,
                     const stats::EmpiricalDistribution& base_bandwidth,
                     const stats::EmpiricalDistribution& ratio_model,
                     SimulationConfig config)
    : Simulator(std::move(stream), &base_bandwidth, &ratio_model, nullptr,
                std::move(config)) {}

Simulator::Simulator(workload::RequestStream stream,
                     std::shared_ptr<const net::PathModel> path_model,
                     SimulationConfig config)
    : Simulator(std::move(stream), nullptr, nullptr, std::move(path_model),
                std::move(config)) {}

Simulator::Simulator(workload::RequestStream stream,
                     const stats::EmpiricalDistribution* base_bandwidth,
                     const stats::EmpiricalDistribution* ratio_model,
                     std::shared_ptr<const net::PathModel> path_model,
                     SimulationConfig config)
    : stream_(std::move(stream)),
      path_model_(std::move(path_model)),
      config_(std::move(config)) {
  if (base_bandwidth != nullptr) base_.emplace(*base_bandwidth);
  if (ratio_model != nullptr) ratio_.emplace(*ratio_model);
  if (path_model_ == nullptr && !base_.has_value()) {
    throw std::invalid_argument("Simulator: null path model");
  }
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
  if (path_model_ != nullptr &&
      path_model_->size() != stream_.catalog().size()) {
    throw std::invalid_argument(
        "Simulator: shared path model size != catalog size");
  }
  // Fail fast on bad component specs (util::SpecError derives from
  // std::invalid_argument) instead of deep inside run().
  core::registry::validate(core::registry::Kind::kPolicy, config_.policy);
  core::registry::validate(core::registry::Kind::kEstimator,
                           config_.estimator);
}

VirtualProxy make_virtual_proxy(const SimulationConfig& config,
                                const workload::Catalog& catalog,
                                const net::PathModel& model,
                                const util::Rng& rng, std::size_t proxy) {
  std::string tag = "estimator";
  if (proxy > 0) tag += "#" + std::to_string(proxy);
  VirtualProxy out;
  out.estimator =
      core::registry::make_estimator(config.estimator, model, rng.fork(tag));
  out.policy =
      core::registry::make_policy(config.policy, catalog, *out.estimator);
  return out;
}

struct Simulator::Fallback {
  VirtualProxy proxy;
  RunState state;
  std::optional<RequestLoop<cache::CachePolicy, net::BandwidthEstimator>> loop;
};

Simulator::~Simulator() = default;

SimulationResult Simulator::run() { return run(nullptr); }

SimulationResult Simulator::run(SimulationArena* arena) {
  if (config_.monomorphize) {
    // Use the caller's per-worker arena when given (sweep workers reuse
    // engines across simulations); otherwise a run-local one.
    std::optional<SimulationArena> local;
    SimulationArena& cache = arena != nullptr ? *arena : local.emplace();
    if (MonoEngineBase* engine = acquire_mono_engine(cache, config_)) {
      MonoRunContext context;
      context.stream = &stream_;
      context.model = path_model_;
      context.base = base_.has_value() ? &*base_ : nullptr;
      context.ratio = ratio_.has_value() ? &*ratio_ : nullptr;
      context.config = &config_;
      context.seed = config_.seed;
      return engine->run(context);
    }
  }
  return run_fallback();
}

std::unique_ptr<Simulator::Fallback> Simulator::make_fallback(
    util::Rng& rng) const {
  const workload::Catalog& catalog = stream_.catalog();
  // Shared immutable means + per-run sampler. Without a shared model the
  // draws happen here, from the same seed stream a shared builder uses.
  std::shared_ptr<const net::PathModel> model = path_model_;
  if (model == nullptr) {
    model = std::make_shared<const net::PathModel>(
        catalog.size(), *base_, *ratio_, config_.path_config,
        rng.fork("paths"));
  }

  auto fallback = std::make_unique<Fallback>();
  fallback->proxy = make_virtual_proxy(config_, catalog, *model, rng, 0);
  fallback->state.reset(catalog, std::move(model),
                        config_.cache_capacity_bytes,
                        config_.patching.enabled);
  return fallback;
}

SimulationResult Simulator::run_fallback() {
  util::Rng rng(config_.seed);
  const std::unique_ptr<Fallback> f = make_fallback(rng);
  // The loop body is shared with the monomorphized engines
  // (sim/run_loop.h); this instantiation dispatches through the virtual
  // CachePolicy / BandwidthEstimator interfaces.
  return run_request_loop(stream_, config_, f->state, *f->proxy.policy,
                          *f->proxy.estimator, rng);
}

void Simulator::begin() {
  util::Rng rng(config_.seed);
  fallback_ = make_fallback(rng);
  fallback_->loop.emplace(stream_, config_, fallback_->state,
                          *fallback_->proxy.policy,
                          *fallback_->proxy.estimator, rng);
}

void Simulator::consume(const workload::RequestBlock& block,
                        const BlockDraws& draws) {
  fallback_->loop->consume(block, draws);
}

SimulationResult Simulator::finish() {
  SimulationResult result = fallback_->loop->finish();
  fallback_.reset();
  return result;
}

}  // namespace sc::sim
