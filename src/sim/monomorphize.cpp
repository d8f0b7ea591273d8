// The monomorphized engine dispatch table (see sim/arena.h).
//
// One MonoEngine<PolicyKernel, EstimatorKernel> class template
// instantiates the shared request loop (sim/run_loop.h) over every
// built-in (policy, estimator) pair of the registry's spec space —
// 8 policies x 4 estimators. Selection happens ONCE per simulation; the
// engine is then driven by one virtual MonoEngineBase::run call, or by
// one virtual consume call per request block in a lockstep group.
// Inside, estimate(), observe(), uses_observations(), and the policy
// admission path are direct inlined code.
//
// Bit-identity with the virtual fallback is a hard contract: engines
// construct their components with exactly the parameter defaults and
// RNG fork tags the registry factories use (core/registry.cpp), and the
// loop body is shared, so tests/test_mono.cpp can assert field-identical
// metrics for every pair.

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cache/policy.h"
#include "core/registry.h"
#include "net/estimator.h"
#include "net/probe.h"
#include "net/units.h"
#include "sim/arena.h"
#include "sim/run_loop.h"
#include "util/spec.h"

namespace sc::sim {

namespace {

// ---- estimator construction/rebinding, one specialization per kernel.
// `create` must match the corresponding registry factory exactly;
// `rebind` must leave the kernel bit-identical to `create`.

template <typename EstKernel>
struct EstimatorTraits;

template <>
struct EstimatorTraits<net::OracleKernel> {
  struct Params {};
  static Params parse(const util::Spec&) { return {}; }
  static void create(std::optional<net::KernelEstimator<net::OracleKernel>>& slot,
                     const Params&, const net::PathModel& model, util::Rng) {
    slot.emplace(model);
  }
  static void rebind(net::KernelEstimator<net::OracleKernel>& estimator,
                     const Params&, const net::PathModel& model, util::Rng) {
    estimator.kernel().rebind(model);
  }
};

template <>
struct EstimatorTraits<net::EwmaKernel> {
  struct Params {
    double alpha = net::estimator_defaults::kEwmaAlpha;
    double prior = net::from_kb(net::estimator_defaults::kPriorKbps);
  };
  static Params parse(const util::Spec& spec) {
    Params p;
    p.alpha = spec.get_double("alpha", net::estimator_defaults::kEwmaAlpha);
    p.prior = net::from_kb(
        spec.get_double("prior_kbps", net::estimator_defaults::kPriorKbps));
    return p;
  }
  static void create(std::optional<net::KernelEstimator<net::EwmaKernel>>& slot,
                     const Params& p, const net::PathModel& model, util::Rng) {
    slot.emplace(model.size(), p.alpha, p.prior);
  }
  static void rebind(net::KernelEstimator<net::EwmaKernel>& estimator,
                     const Params&, const net::PathModel& model, util::Rng) {
    estimator.kernel().rebind(model.size());
  }
};

template <>
struct EstimatorTraits<net::LastSampleKernel> {
  struct Params {
    double prior = net::from_kb(net::estimator_defaults::kPriorKbps);
  };
  static Params parse(const util::Spec& spec) {
    Params p;
    p.prior = net::from_kb(
        spec.get_double("prior_kbps", net::estimator_defaults::kPriorKbps));
    return p;
  }
  static void create(
      std::optional<net::KernelEstimator<net::LastSampleKernel>>& slot,
      const Params& p, const net::PathModel& model, util::Rng) {
    slot.emplace(model.size(), p.prior);
  }
  static void rebind(net::KernelEstimator<net::LastSampleKernel>& estimator,
                     const Params&, const net::PathModel& model, util::Rng) {
    estimator.kernel().rebind(model.size());
  }
};

template <>
struct EstimatorTraits<net::ProbeKernel> {
  struct Params {
    net::ProbeConfig config;
    double interval_s = net::estimator_defaults::kProbeIntervalS;
  };
  static Params parse(const util::Spec& spec) {
    Params p;
    p.config.train_packets = static_cast<std::size_t>(spec.get_int(
        "train_packets", static_cast<long long>(p.config.train_packets)));
    p.interval_s = spec.get_double(
        "interval_s", net::estimator_defaults::kProbeIntervalS);
    return p;
  }
  static void create(std::optional<net::KernelEstimator<net::ProbeKernel>>& slot,
                     const Params& p, const net::PathModel& model,
                     util::Rng rng) {
    // Identical fork tags to the registry's probe factory.
    slot.emplace(std::make_unique<net::ProbeModel>(model.means(), p.config,
                                                   rng.fork("probe")),
                 p.interval_s, rng.fork("probe-rng"));
  }
  static void rebind(net::KernelEstimator<net::ProbeKernel>& estimator,
                     const Params& p, const net::PathModel& model,
                     util::Rng rng) {
    estimator.kernel().rebind(
        std::make_unique<net::ProbeModel>(model.means(), p.config,
                                          rng.fork("probe")),
        rng.fork("probe-rng"));
  }
};

/// Construct a policy engine, forwarding the `e` parameter only to the
/// kernels that take one (Hybrid, PB-V) — mirroring cache::make_policy.
template <typename PolKernel>
void create_policy(std::optional<cache::UtilityPolicy<PolKernel>>& slot,
                   const workload::Catalog& catalog,
                   net::BandwidthEstimator& estimator, double e) {
  if constexpr (std::is_constructible_v<PolKernel, double>) {
    slot.emplace(catalog, estimator, e);
  } else {
    (void)e;
    slot.emplace(catalog, estimator);
  }
}

/// What the run loop sees as "the policy": forwards on_access to the
/// estimator-templated access body so the whole admission path inlines
/// against the concrete estimator kernel, and serves the cached name so
/// per-run name() formatting (Hybrid's ostringstream) is paid once per
/// engine, not once per simulation.
template <typename PolKernel, typename EstKernel>
struct MonoPolicyRef {
  cache::UtilityPolicy<PolKernel>* policy;
  EstKernel* estimator;
  const std::string* cached_name;

  void on_access(workload::ObjectId id, double now_s,
                 cache::PartialStore& store) {
    policy->access(id, now_s, store, *estimator);
  }
  [[nodiscard]] const std::string& name() const { return *cached_name; }
};

template <typename PolKernel, typename EstKernel>
class MonoEngine final : public MonoEngineBase {
 public:
  MonoEngine(const util::Spec& policy_spec, const util::Spec& estimator_spec)
      : param_e_(policy_spec.get_double("e", cache::kDefaultKernelE)),
        estimator_params_(EstimatorTraits<EstKernel>::parse(estimator_spec)) {}

  SimulationResult run(const MonoRunContext& context) override {
    const util::Rng rng = prepare(context);
    return run_request_loop(*context.stream, *context.config, state_,
                            policy_ref_, estimator_->kernel(), rng);
  }

  void begin(const MonoRunContext& context) override {
    const util::Rng rng = prepare(context);
    loop_.emplace(*context.stream, *context.config, state_, policy_ref_,
                  estimator_->kernel(), rng);
  }

  void consume(const workload::RequestBlock& block,
               const BlockDraws& draws) override {
    loop_->consume(block, draws);
  }

  SimulationResult finish() override {
    SimulationResult result = loop_->finish();
    loop_.reset();
    return result;
  }

 private:
  using Loop = RequestLoop<MonoPolicyRef<PolKernel, EstKernel>, EstKernel>;

  /// Rebind the cached components to the context's workload, model and
  /// seed (bit-identical to constructing them fresh); returns the run's
  /// root RNG stream for the request loop.
  util::Rng prepare(const MonoRunContext& context) {
    const workload::Catalog& catalog = context.stream->catalog();
    const SimulationConfig& config = *context.config;

    util::Rng rng(context.seed);
    std::shared_ptr<const net::PathModel> model = context.model;
    if (model == nullptr) {
      model = std::make_shared<const net::PathModel>(
          catalog.size(), *context.base, *context.ratio, config.path_config,
          rng.fork("paths"));
    }

    if (estimator_.has_value()) {
      EstimatorTraits<EstKernel>::rebind(*estimator_, estimator_params_,
                                         *model, rng.fork("estimator"));
    } else {
      EstimatorTraits<EstKernel>::create(estimator_, estimator_params_,
                                         *model, rng.fork("estimator"));
    }
    if (policy_.has_value()) {
      policy_->rebind(catalog, *estimator_);
    } else {
      create_policy(policy_, catalog, *estimator_, param_e_);
      name_ = policy_->name();
    }
    state_.reset(catalog, std::move(model), config.cache_capacity_bytes,
                 config.patching.enabled);
    policy_ref_ = {&*policy_, &estimator_->kernel(), &name_};
    return rng;
  }

  double param_e_;
  typename EstimatorTraits<EstKernel>::Params estimator_params_;
  std::optional<net::KernelEstimator<EstKernel>> estimator_;
  std::optional<cache::UtilityPolicy<PolKernel>> policy_;
  std::string name_;
  RunState state_;
  MonoPolicyRef<PolKernel, EstKernel> policy_ref_{};
  /// The in-progress lockstep run (begin() .. finish()).
  std::optional<Loop> loop_;
};

// ---- the dispatch table over the registry's built-in spec space.

enum class PolicyId { kIf, kPb, kIb, kHybrid, kPbv, kIbv, kLru, kLfu };
enum class EstimatorId { kOracle, kEwma, kLast, kProbe };

/// Canonical registry name for `name` on `kind` (resolving aliases
/// through the registry itself, so the builtin alias tables live only
/// in core/registry.cpp); empty when unregistered. Allocates and takes
/// the registry lock — reached only on an arena miss with a
/// non-canonical spelling.
std::string canonical_name(core::registry::Kind kind,
                           const std::string& name) {
  for (const core::registry::ComponentInfo& info :
       core::registry::list(kind)) {
    if (info.name == name) return info.name;
    for (const std::string& alias : info.aliases) {
      if (alias == name) return info.name;
    }
  }
  return {};
}

std::optional<PolicyId> policy_from_canonical(const std::string& name) {
  if (name == "if") return PolicyId::kIf;
  if (name == "pb") return PolicyId::kPb;
  if (name == "ib") return PolicyId::kIb;
  if (name == "hybrid") return PolicyId::kHybrid;
  if (name == "pbv") return PolicyId::kPbv;
  if (name == "ibv") return PolicyId::kIbv;
  if (name == "lru") return PolicyId::kLru;
  if (name == "lfu") return PolicyId::kLfu;
  return std::nullopt;
}

std::optional<EstimatorId> estimator_from_canonical(const std::string& name) {
  if (name == "oracle") return EstimatorId::kOracle;
  if (name == "ewma") return EstimatorId::kEwma;
  if (name == "last") return EstimatorId::kLast;
  if (name == "probe") return EstimatorId::kProbe;
  return std::nullopt;
}

std::optional<PolicyId> policy_id(const std::string& name) {
  if (const auto id = policy_from_canonical(name)) return id;
  // Aliases resolve through the registry (one alias table, in
  // core/registry.cpp); unregistered names stay on the fallback path.
  return policy_from_canonical(
      canonical_name(core::registry::Kind::kPolicy, name));
}

std::optional<EstimatorId> estimator_id(const std::string& name) {
  if (const auto id = estimator_from_canonical(name)) return id;
  return estimator_from_canonical(
      canonical_name(core::registry::Kind::kEstimator, name));
}

template <typename PolKernel>
std::unique_ptr<MonoEngineBase> make_engine_for(EstimatorId estimator,
                                                const util::Spec& policy_spec,
                                                const util::Spec& est_spec) {
  switch (estimator) {
    case EstimatorId::kOracle:
      return std::make_unique<MonoEngine<PolKernel, net::OracleKernel>>(
          policy_spec, est_spec);
    case EstimatorId::kEwma:
      return std::make_unique<MonoEngine<PolKernel, net::EwmaKernel>>(
          policy_spec, est_spec);
    case EstimatorId::kLast:
      return std::make_unique<MonoEngine<PolKernel, net::LastSampleKernel>>(
          policy_spec, est_spec);
    case EstimatorId::kProbe:
      return std::make_unique<MonoEngine<PolKernel, net::ProbeKernel>>(
          policy_spec, est_spec);
  }
  return nullptr;
}

std::unique_ptr<MonoEngineBase> make_engine(PolicyId policy,
                                            EstimatorId estimator,
                                            const util::Spec& policy_spec,
                                            const util::Spec& est_spec) {
  switch (policy) {
    case PolicyId::kIf:
      return make_engine_for<cache::IfKernel>(estimator, policy_spec,
                                              est_spec);
    case PolicyId::kPb:
      return make_engine_for<cache::PbKernel>(estimator, policy_spec,
                                              est_spec);
    case PolicyId::kIb:
      return make_engine_for<cache::IbKernel>(estimator, policy_spec,
                                              est_spec);
    case PolicyId::kHybrid:
      return make_engine_for<cache::HybridKernel>(estimator, policy_spec,
                                                  est_spec);
    case PolicyId::kPbv:
      return make_engine_for<cache::PbvKernel>(estimator, policy_spec,
                                               est_spec);
    case PolicyId::kIbv:
      return make_engine_for<cache::IbvKernel>(estimator, policy_spec,
                                               est_spec);
    case PolicyId::kLru:
      return make_engine_for<cache::LruKernel>(estimator, policy_spec,
                                               est_spec);
    case PolicyId::kLfu:
      return make_engine_for<cache::LfuKernel>(estimator, policy_spec,
                                               est_spec);
  }
  return nullptr;
}

}  // namespace

MonoEngineBase* acquire_mono_engine(SimulationArena& arena,
                                    const SimulationConfig& config) {
  if (SimulationArena::Slot* slot =
          arena.find(config.policy, config.estimator)) {
    return slot->engine.get();  // null for negatively-cached pairs
  }
  const util::Spec policy_spec = util::Spec::parse(config.policy);
  const util::Spec est_spec = util::Spec::parse(config.estimator);
  const auto policy = policy_id(policy_spec.name);
  const auto estimator = estimator_id(est_spec.name);
  std::unique_ptr<MonoEngineBase> engine;
  if (policy.has_value() && estimator.has_value()) {
    // Unknown parameters must fail exactly as on the fallback path.
    core::registry::validate(core::registry::Kind::kPolicy, config.policy);
    core::registry::validate(core::registry::Kind::kEstimator,
                             config.estimator);
    engine = make_engine(*policy, *estimator, policy_spec, est_spec);
  }
  return arena.insert(config.policy, config.estimator, std::move(engine))
      .engine.get();
}

bool mono_dispatchable(const SimulationConfig& config) {
  return policy_id(util::Spec::parse(config.policy).name).has_value() &&
         estimator_id(util::Spec::parse(config.estimator).name).has_value();
}

}  // namespace sc::sim
