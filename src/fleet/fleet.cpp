#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/registry.h"
#include "sim/run_loop.h"
#include "util/spec.h"

namespace sc::fleet {

FleetConfig FleetConfig::parse(const std::string& text) {
  const util::Spec spec = util::Spec::parse(text);
  if (spec.name != "fleet") {
    std::string msg =
        "unknown fleet spec \"" + spec.name + "\" (valid: fleet";
    if (const auto near = util::closest_match(spec.name, {"fleet"})) {
      msg += "; did you mean \"" + *near + "\"?";
    }
    throw util::SpecError(msg + ")");
  }
  spec.require_only({"proxies", "regions", "sharding", "uplink_mbps",
                     "burst_mb", "coop", "peer_latency_ms"});
  FleetConfig config;
  const long long proxies = spec.get_int("proxies", 16);
  if (proxies < 1 || proxies > 4096) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": proxies must be in [1, 4096]");
  }
  config.proxies = static_cast<std::size_t>(proxies);
  const long long regions = spec.get_int("regions", 1);
  if (regions < 1 || static_cast<std::size_t>(regions) > config.proxies) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": regions must be in [1, proxies]");
  }
  config.regions = static_cast<std::size_t>(regions);
  config.sharding = ShardingConfig::parse(spec.get_string("sharding", ""));
  config.uplink_mbps = spec.get_double("uplink_mbps", 0.0);
  if (config.uplink_mbps < 0) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": uplink_mbps must be >= 0 (0 = unlimited)");
  }
  config.burst_mb = spec.get_double("burst_mb", 8.0);
  if (config.burst_mb <= 0) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": burst_mb must be > 0");
  }
  config.coop = spec.get_bool("coop", false);
  const double peer_latency_ms = spec.get_double("peer_latency_ms", 2.0);
  if (peer_latency_ms < 0) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": peer_latency_ms must be >= 0");
  }
  config.peer_latency_s = peer_latency_ms / 1000.0;
  return config;
}

std::string FleetConfig::to_string() const {
  std::string out = "fleet:proxies=" + std::to_string(proxies) +
                    ",regions=" + std::to_string(regions) +
                    ",sharding=" + sharding.to_string();
  char buf[64];
  std::snprintf(buf, sizeof buf, ",uplink_mbps=%g,burst_mb=%g", uplink_mbps,
                burst_mb);
  out += buf;
  if (coop) out += ",coop=1";
  std::snprintf(buf, sizeof buf, ",peer_latency_ms=%g",
                peer_latency_s * 1000.0);
  out += buf;
  return out;
}

namespace {

/// Marks an object whose hash route has not been looked up yet.
constexpr std::uint32_t kUnrouted = ~std::uint32_t{0};

}  // namespace

struct FleetLoop::State {
  using Kernel =
      sim::DecisionKernel<cache::CachePolicy, net::BandwidthEstimator>;

  sim::SimulationConfig config;
  FleetConfig fleet;
  std::size_t n = 0;
  std::size_t total_requests = 0;
  workload::CatalogView view{};
  std::shared_ptr<const net::PathModel> model;
  bool constant_bw = false;

  // Per-proxy decision machinery.
  std::vector<std::unique_ptr<net::BandwidthEstimator>> estimators;
  std::vector<std::unique_ptr<cache::CachePolicy>> policies;
  std::vector<cache::PartialStore> stores;
  std::vector<sim::ObservationQueue> events;
  std::vector<Kernel> kernels;
  bool estimator_observes = false;
  std::vector<net::FaultSchedule> fault_store;
  bool have_faults = false;

  sim::MetricsCollector metrics;
  std::size_t warm_count = 0;
  bool interactive = false;
  util::Rng viewing_rng{0};
  sim::DeliveryTable pre;
  std::vector<std::vector<sim::InFlightStream>> in_flight;

  // The fleet couplings.
  Sharder sharder;
  /// Hash sharding routes on the object id alone, so each object's proxy
  /// is looked up on the ring once, at its first request, and memoized
  /// here (empty in the other modes, which route per request).
  std::vector<std::uint32_t> route;
  UplinkBucket uplink{0.0, 1.0};
  bool uplink_on = false;
  bool coop = false;

  std::vector<ProxyStats> per_proxy;
  double t_first = 0.0;
  double t_last = 0.0;
};

FleetLoop::FleetLoop(const workload::RequestStream& stream,
                     const FleetConfig& fleet, sim::SimulationConfig config,
                     std::shared_ptr<const net::PathModel> path_model,
                     const stats::EmpiricalDistribution* base,
                     const stats::EmpiricalDistribution* ratio)
    : state_(std::make_unique<State>()) {
  const std::size_t n = fleet.proxies;
  if (n == 0) throw std::invalid_argument("run_fleet: proxies == 0");
  if (stream.num_requests() == 0) {
    throw std::invalid_argument("run_fleet: empty request trace");
  }
  if (config.cache_capacity_bytes < 0) {
    throw std::invalid_argument("run_fleet: negative cache capacity");
  }
  if (path_model == nullptr && (base == nullptr || ratio == nullptr)) {
    throw std::invalid_argument("run_fleet: null path model");
  }
  if (config.interactivity.enabled() && config.viewing.enabled) {
    throw std::invalid_argument(
        "run_fleet: ViewingConfig and a non-full interactivity model "
        "cannot be combined; use the interactivity spec alone");
  }

  State& st = *state_;
  st.config = std::move(config);
  st.fleet = fleet;
  st.n = n;
  const sim::SimulationConfig& cfg = st.config;
  const workload::Catalog& catalog = stream.catalog();
  st.total_requests = stream.num_requests();
  const std::size_t n_objects = catalog.size();
  st.view = catalog.view();

  // Root RNG and path model exactly as sim::Simulator::run_fallback —
  // every fork below is tag-keyed (const), so fork order cannot perturb
  // any stream and the N == 1 inertness oracle holds.
  util::Rng rng(cfg.seed);
  st.model = std::move(path_model);
  if (st.model == nullptr) {
    st.model = std::make_shared<const net::PathModel>(
        n_objects, *base, *ratio, cfg.path_config, rng.fork("paths"));
  }
  const net::PathModel& model = *st.model;
  for (std::size_t i = 0; i < st.view.size; ++i) {
    if (st.view.path[i] >= model.size()) {
      throw std::out_of_range("run_fleet: object path id " +
                              std::to_string(st.view.path[i]) +
                              " outside the path model");
    }
  }
  st.constant_bw = model.mode() == net::VariationMode::kConstant;

  // Per-proxy decision machinery: each proxy is a full copy of the
  // single-cell stack (store + policy + estimator + observation queue +
  // kernel), built through the registry. Proxy 0's estimator stream is
  // the single-cell tag ("estimator"); peers get distinct tag-keyed
  // streams so replications stay independent across the fleet.
  const double per_proxy_capacity =
      cfg.cache_capacity_bytes / static_cast<double>(n);
  st.estimators.reserve(n);
  st.policies.reserve(n);
  st.stores.reserve(n);
  st.events.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::string tag = "estimator";
    if (p > 0) tag += "#" + std::to_string(p);
    st.estimators.push_back(
        core::registry::make_estimator(cfg.estimator, model, rng.fork(tag)));
    st.policies.push_back(core::registry::make_policy(cfg.policy, catalog,
                                                      *st.estimators[p]));
    st.stores.emplace_back(per_proxy_capacity);
    st.stores[p].reserve(n_objects);
    st.events[p].reserve(64);
  }
  st.kernels.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    st.kernels.emplace_back(*st.policies[p], *st.estimators[p], st.stores[p],
                            st.events[p]);
  }
  st.estimator_observes = st.kernels[0].observes();

  // Scoped fault schedules: every proxy compiles the same plan from the
  // same tag-keyed seed (identical timing), but for its own
  // FaultScope{proxy, region} — a window tagged @region0 survives
  // compilation only on region 0's proxies.
  st.have_faults = !cfg.fault.empty();
  if (st.have_faults) {
    const std::uint64_t fault_seed = rng.fork("faults").seed();
    st.fault_store.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      st.fault_store[p].compile(
          cfg.fault, model.size(), fault_seed,
          net::FaultScope{static_cast<std::uint32_t>(p), fleet.region_of(p)});
      st.kernels[p].set_faults(&st.fault_store[p]);
    }
  }

  st.warm_count = static_cast<std::size_t>(
      static_cast<double>(st.total_requests) * cfg.warmup_fraction);
  st.interactive = cfg.interactivity.enabled();
  st.viewing_rng = rng.fork("viewing");

  build_delivery_table(st.view,
                       st.constant_bw ? model.means().data() : nullptr, st.pre);

  if (cfg.patching.enabled) {
    st.in_flight.assign(n, std::vector<sim::InFlightStream>(n_objects));
  }

  // The fleet couplings, each inert by flag: routing (n == 1 pins proxy
  // 0 before the sharder is consulted), the shared uplink bucket
  // (uplink_mbps == 0), and peer cooperation (coop == 0).
  st.sharder.compile(fleet.sharding, n, rng.fork("sharding").seed());
  if (n > 1 && fleet.sharding.mode == ShardingConfig::Mode::kHash) {
    st.route.assign(n_objects, kUnrouted);
  }
  st.uplink = UplinkBucket(fleet.uplink_mbps * 125000.0,
                           fleet.burst_mb * 1.0e6);
  st.uplink_on = st.uplink.enabled();
  st.coop = fleet.coop && n > 1;
  st.per_proxy.resize(n);
}

FleetLoop::~FleetLoop() = default;

const std::shared_ptr<const net::PathModel>& FleetLoop::model() const {
  return state_->model;
}

void FleetLoop::consume(const workload::RequestBlock& block,
                        const sim::BlockDraws& draws) {
  State& st = *state_;
  const sim::SimulationConfig& config = st.config;
  const workload::CatalogView view = st.view;
  const sim::DeliveryTable& pre = st.pre;
  const std::size_t n = st.n;
  const bool constant_bw = st.constant_bw;
  const bool have_faults = st.have_faults;
  const bool interactive = st.interactive;
  const bool coop = st.coop;
  const bool uplink_on = st.uplink_on;
  const double* const drawn_bw = draws.bw();
  const double* const drawn_viewed = draws.viewed_fraction();
  if ((!constant_bw && drawn_bw == nullptr) ||
      (interactive && drawn_viewed == nullptr)) {
    throw std::logic_error(
        "FleetLoop::consume: draws not filled for this run's path or "
        "session model");
  }
  std::uint32_t* const route = st.route.empty() ? nullptr : st.route.data();
  sim::MetricsCollector& metrics = st.metrics;
  for (std::size_t i = 0; i < block.size; ++i) {
    const std::size_t idx = block.first + i;
    const double now_s = block.time_s[i];
    if (idx == 0) st.t_first = now_s;
    st.t_last = now_s;

    const workload::ObjectId id = block.object[i];
    std::uint32_t p = 0;
    if (route != nullptr) {
      if (route[id] == kUnrouted) route[id] = st.sharder.proxy_for(0, id);
      p = route[id];
    } else if (n > 1) {
      p = st.sharder.proxy_for(idx, id);
    }
    State::Kernel& decisions = st.kernels[p];
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
    double fault_scale = 1.0;
    if (have_faults) {
      fault_scale = st.fault_store[p].bandwidth_scale(view.path[id], now_s);
      if (fault_scale > 0.0 && fault_scale != 1.0) {
        bw *= fault_scale;
        db = duration_s * bw;
      }
    }
    const double cached_before = decisions.cached(id);
    double request_bytes = size_bytes;
    sim::ServiceOutcome outcome;
    if (fault_scale > 0.0) {
      outcome = sim::deliver_precomputed(size_bytes, pre.dr[id], db, bw,
                                         cached_before);
    } else {
      outcome = sim::deliver_cache_only(size_bytes, cached_before);
    }

    double viewed_fraction = 1.0;
    double session_s = duration_s;
    if (interactive) {
      viewed_fraction = drawn_viewed[i];
      if (viewed_fraction < 1.0) {
        session_s = viewed_fraction * duration_s;
        const double viewed_bytes = session_s * bitrate;
        request_bytes = viewed_bytes;
        if (fault_scale > 0.0) {
          outcome = sim::deliver(session_s, bitrate, viewed_bytes, bw,
                                 std::min(cached_before, viewed_bytes));
        } else {
          outcome = sim::deliver_cache_only(
              viewed_bytes, std::min(cached_before, viewed_bytes));
        }
      }
    }

    if (config.viewing.enabled) {
      double fraction = 1.0;
      if (st.viewing_rng.uniform() >= config.viewing.complete_probability) {
        fraction = st.viewing_rng.uniform(config.viewing.min_fraction, 1.0);
      }
      const double viewed = fraction * size_bytes;
      request_bytes = viewed;
      outcome.bytes_from_cache = std::min(outcome.bytes_from_cache, viewed);
      outcome.bytes_from_origin =
          fault_scale > 0.0 ? std::max(0.0, viewed - outcome.bytes_from_cache)
                            : 0.0;
      outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                      ? outcome.bytes_from_origin / bw
                                      : 0.0;
    }

    // Cooperation: the largest peer prefix extends this proxy's own —
    // both are prefixes of the same object, so the peer contributes
    // only the part beyond what the local cache already served. Peer
    // bytes are backbone-free shared traffic (they never cross the
    // uplink) at one peer hop of extra prefetch wait; startup
    // immediacy is the local §2.2 outcome either way. Outages are not
    // bypassed: a cache-only request has bytes_from_origin == 0.
    double peer_extra = 0.0;
    if (coop && outcome.bytes_from_origin > 0) {
      double best = 0.0;
      for (std::size_t q = 0; q < n; ++q) {
        if (q == p) continue;
        best = std::max(best, st.stores[q].cached(id));
      }
      peer_extra = std::min(outcome.bytes_from_origin,
                            std::max(0.0, best - outcome.bytes_from_cache));
      if (peer_extra > 0.0) {
        outcome.bytes_shared += peer_extra;
        outcome.bytes_from_origin -= peer_extra;
        outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                        ? outcome.bytes_from_origin / bw
                                        : 0.0;
        if (outcome.delay_s > 0.0) outcome.delay_s += st.fleet.peer_latency_s;
      }
    }

    if (config.patching.enabled && outcome.bytes_from_origin > 0) {
      sim::InFlightStream& flight = st.in_flight[p][id];
      if (now_s < flight.end) {
        const double remaining_shareable =
            std::min(size_bytes, bitrate * (flight.end - now_s));
        const double shared = std::min(outcome.bytes_from_origin,
                                       std::max(0.0, remaining_shareable));
        outcome.bytes_shared += shared;
        outcome.bytes_from_origin -= shared;
        outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                        ? outcome.bytes_from_origin / bw
                                        : 0.0;
      }
      if (outcome.bytes_from_origin > 0) {
        flight.start = now_s;
        flight.end = now_s + session_s;
      }
    }

    // Shared finite uplink: what still has to cross the backbone
    // drains the fleet-wide token bucket; a drained bucket queues the
    // transfer, stretching it (and the throughput passive estimators
    // observe) and delaying playout — the cross-proxy coupling.
    if (uplink_on && outcome.bytes_from_origin > 0) {
      const double wait_s = st.uplink.acquire(now_s, outcome.bytes_from_origin);
      if (wait_s > 0.0) {
        outcome.delay_s += wait_s;
        outcome.immediate = false;
        outcome.origin_transfer_s += wait_s;
        outcome.origin_throughput =
            outcome.bytes_from_origin / outcome.origin_transfer_s;
      }
    }

    const bool measured = idx >= st.warm_count;
    if (measured) {
      metrics.record(outcome, view.value[id]);
      ProxyStats& ps = st.per_proxy[p];
      ++ps.requests;
      if (cached_before > 0.0) ++ps.hits;
      ps.origin_bytes += outcome.bytes_from_origin;
      if (peer_extra > 0.0) {
        ++ps.peer_assisted;
        ps.peer_bytes += peer_extra;
      }
      if (have_faults && fault_scale <= 0.0) {
        const double denied = request_bytes - outcome.bytes_from_cache;
        metrics.record_denied(denied);
        ++ps.denied_requests;
        ps.denied_bytes += denied;
      }
      if (interactive) {
        metrics.record_session(viewed_fraction, viewed_fraction < 1.0);
      }
    }

    if (st.estimator_observes && outcome.bytes_from_origin > 0) {
      decisions.record_transfer(view.path[id], outcome.origin_throughput,
                                now_s + outcome.origin_transfer_s);
    }

    if (fault_scale > 0.0) {
      const double cached_after = decisions.admit(id, now_s);
      if (measured && cached_after > cached_before) {
        const double fill = cached_after - cached_before;
        metrics.record_fill(fill);
        st.per_proxy[p].fill_bytes += fill;
      }
    }
  }
}

FleetResult FleetLoop::finish() {
  State& st = *state_;
  const std::size_t n = st.n;
  for (std::size_t p = 0; p < n; ++p) st.kernels[p].drain();

  FleetResult result;
  result.aggregate.policy_name = st.policies[0]->name();
  result.aggregate.metrics = st.metrics;
  result.aggregate.warmup_requests = st.warm_count;
  result.aggregate.measured_requests = st.total_requests - st.warm_count;
  for (std::size_t p = 0; p < n; ++p) {
    result.aggregate.final_occupancy_bytes += st.stores[p].used();
    result.aggregate.final_cached_objects += st.stores[p].object_count();
    result.aggregate.estimator_overhead_packets +=
        st.estimators[p]->overhead_packets();
  }
  result.per_proxy = std::move(st.per_proxy);

  std::uint64_t max_requests = 0;
  std::uint64_t sum_requests = 0;
  std::uint64_t peer_assisted = 0;
  for (const ProxyStats& ps : result.per_proxy) {
    max_requests = std::max(max_requests, ps.requests);
    sum_requests += ps.requests;
    peer_assisted += ps.peer_assisted;
  }
  if (sum_requests > 0) {
    result.load_imbalance = static_cast<double>(max_requests) *
                            static_cast<double>(n) /
                            static_cast<double>(sum_requests);
    result.peer_hit_ratio = static_cast<double>(peer_assisted) /
                            static_cast<double>(sum_requests);
  }
  if (st.uplink_on && st.t_last > st.t_first) {
    result.uplink_utilization =
        st.uplink.total_bytes() /
        (st.fleet.uplink_mbps * 125000.0 * (st.t_last - st.t_first));
  }
  return result;
}

FleetResult run_fleet(const workload::RequestStream& stream,
                      const FleetConfig& fleet,
                      const sim::SimulationConfig& config,
                      std::shared_ptr<const net::PathModel> path_model,
                      const stats::EmpiricalDistribution* base,
                      const stats::EmpiricalDistribution* ratio) {
  FleetLoop loop(stream, fleet, config, std::move(path_model), base, ratio);
  workload::RequestCursor cursor;
  sim::BlockDraws draws;
  cursor.bind(stream, config.stream_chunk);
  draws.reset(stream.catalog().view(), loop.model(), config.interactivity,
              util::Rng(config.seed));
  while (const workload::RequestBlock* block = cursor.next()) {
    draws.fill(*block);
    loop.consume(*block, draws);
  }
  return loop.finish();
}

}  // namespace sc::fleet
