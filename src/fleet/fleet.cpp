#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

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

/// The fleet's couplings between its proxy units, as the Couplings hooks
/// of sim::RequestLoop: routing, peer cooperation, the shared origin
/// uplink and per-proxy stats. Each is inert by flag — routing pins
/// proxy 0 before the sharder is consulted when n == 1, the uplink
/// bucket passes everything at uplink_mbps == 0, and cooperation is off
/// at coop == 0 — so a trivial fleet serves exactly as a single cell.
class FleetCouplings {
 public:
  static constexpr bool kRoutes = true;

  FleetCouplings(const FleetConfig& fleet, const sim::ProxyState* proxies,
                 std::size_t n_objects, std::uint64_t sharding_seed)
      : fleet_(fleet),
        proxies_(proxies),
        coop_(fleet.coop && fleet.proxies > 1),
        uplink_(fleet.uplink_mbps * 125000.0, fleet.burst_mb * 1.0e6),
        per_proxy_(fleet.proxies) {
    sharder_.compile(fleet.sharding, fleet.proxies, sharding_seed);
    if (fleet.proxies > 1 &&
        fleet.sharding.mode == ShardingConfig::Mode::kHash) {
      route_.assign(n_objects, kUnrouted);
    }
  }

  /// Hash sharding routes on the object id alone, so each object's proxy
  /// is looked up on the ring once, at its first request, and memoized
  /// (the other modes route per request).
  std::uint32_t route(std::size_t request_index, workload::ObjectId id) {
    if (!route_.empty()) {
      if (route_[id] == kUnrouted) route_[id] = sharder_.proxy_for(0, id);
      return route_[id];
    }
    return fleet_.proxies > 1 ? sharder_.proxy_for(request_index, id) : 0;
  }

  /// Every proxy compiles the same plan from the same seed (identical
  /// timing), but for its own scope: a window tagged @region0 survives
  /// compilation only on region 0's proxies.
  [[nodiscard]] net::FaultScope fault_scope(std::size_t p) const {
    return net::FaultScope{static_cast<std::uint32_t>(p), fleet_.region_of(p)};
  }

  /// Cooperation: the largest peer prefix extends this proxy's own —
  /// both are prefixes of the same object, so the peer contributes only
  /// the part beyond what the local cache already served. Peer bytes are
  /// backbone-free shared traffic (they never cross the uplink) at one
  /// peer hop of extra prefetch wait; startup immediacy is the local
  /// §2.2 outcome either way. Outages are not bypassed: a cache-only
  /// request has bytes_from_origin == 0.
  double cooperate(std::uint32_t p, workload::ObjectId id, double bw,
                   sim::ServiceOutcome& outcome) const {
    if (!coop_ || !(outcome.bytes_from_origin > 0)) return 0.0;
    double best = 0.0;
    for (std::size_t q = 0; q < fleet_.proxies; ++q) {
      if (q == p) continue;
      best = std::max(best, proxies_[q].store.cached(id));
    }
    const double peer_bytes = std::min(
        outcome.bytes_from_origin,
        std::max(0.0, best - outcome.bytes_from_cache));
    if (peer_bytes > 0.0) {
      outcome.bytes_shared += peer_bytes;
      outcome.bytes_from_origin -= peer_bytes;
      outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                      ? outcome.bytes_from_origin / bw
                                      : 0.0;
      if (outcome.delay_s > 0.0) outcome.delay_s += fleet_.peer_latency_s;
    }
    return peer_bytes;
  }

  /// Shared finite uplink: what still has to cross the backbone drains
  /// the fleet-wide token bucket; a drained bucket queues the transfer,
  /// stretching it (and the throughput passive estimators observe) and
  /// delaying playout — the cross-proxy coupling.
  void share_uplink(double now_s, sim::ServiceOutcome& outcome) {
    const double wait_s = uplink_.acquire(now_s, outcome.bytes_from_origin);
    if (wait_s > 0.0) {
      outcome.delay_s += wait_s;
      outcome.immediate = false;
      outcome.origin_transfer_s += wait_s;
      outcome.origin_throughput =
          outcome.bytes_from_origin / outcome.origin_transfer_s;
    }
  }

  void record(std::uint32_t p, double cached_before,
              const sim::ServiceOutcome& outcome, double peer_bytes) {
    ProxyStats& ps = per_proxy_[p];
    ++ps.requests;
    if (cached_before > 0.0) ++ps.hits;
    ps.origin_bytes += outcome.bytes_from_origin;
    if (peer_bytes > 0.0) {
      ++ps.peer_assisted;
      ps.peer_bytes += peer_bytes;
    }
  }
  void record_denied(std::uint32_t p, double denied) {
    ++per_proxy_[p].denied_requests;
    per_proxy_[p].denied_bytes += denied;
  }
  void record_fill(std::uint32_t p, double fill) {
    per_proxy_[p].fill_bytes += fill;
  }

  /// Fold the per-proxy stats, load imbalance, peer-hit ratio and uplink
  /// utilization (over the trace span [t_first, t_last]) around the
  /// loop's aggregate result.
  [[nodiscard]] FleetResult finish(sim::SimulationResult aggregate,
                                   double t_first, double t_last) {
    FleetResult result;
    result.aggregate = std::move(aggregate);
    result.per_proxy = std::move(per_proxy_);
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
                              static_cast<double>(fleet_.proxies) /
                              static_cast<double>(sum_requests);
      result.peer_hit_ratio = static_cast<double>(peer_assisted) /
                              static_cast<double>(sum_requests);
    }
    if (uplink_.enabled() && t_last > t_first) {
      result.uplink_utilization =
          uplink_.total_bytes() /
          (fleet_.uplink_mbps * 125000.0 * (t_last - t_first));
    }
    return result;
  }

 private:
  FleetConfig fleet_;
  const sim::ProxyState* proxies_;
  bool coop_;
  Sharder sharder_;
  std::vector<std::uint32_t> route_;
  UplinkBucket uplink_;
  std::vector<ProxyStats> per_proxy_;
};

}  // namespace

struct FleetLoop::State {
  using Loop = sim::RequestLoop<FleetCouplings>;

  /// The run's path model and per-object §2.2 operands (its own proxy
  /// stays idle).
  sim::RunState run;
  std::vector<sim::VirtualProxy> components;
  std::vector<sim::ProxyState> proxies;
  std::vector<sim::ProxyUnit> units;
  std::optional<Loop> loop;
  double t_first = 0.0;
  double t_last = 0.0;
};

FleetLoop::FleetLoop(const workload::RequestStream& stream,
                     const FleetConfig& fleet,
                     const sim::SimulationConfig& config, std::uint64_t seed,
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

  State& st = *state_;
  const workload::Catalog& catalog = stream.catalog();
  const std::size_t n_objects = catalog.size();

  // Root RNG and path model exactly as sim::Simulator::run —
  // every fork below is tag-keyed (const), so fork order cannot perturb
  // any stream.
  util::Rng rng(seed);
  if (path_model == nullptr) {
    path_model = net::make_path_model(n_objects, *base, *ratio,
                                      config.path_config, seed);
  }
  st.run.model = std::move(path_model);

  // Each proxy is a full single-cell unit (policy + estimator + store +
  // observation queue + patching table + fault schedule) over an equal
  // share of the aggregate budget, built exactly as the single cell's.
  const double per_proxy_capacity =
      config.cache_capacity_bytes / static_cast<double>(n);
  st.components.reserve(n);
  st.proxies.resize(n);
  st.units.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    st.components.push_back(sim::make_virtual_proxy(
        config.policy, config.estimator, catalog, *st.run.model, rng, p));
    st.proxies[p].reset(n_objects, per_proxy_capacity,
                        config.patching.enabled);
    st.units.emplace_back(*st.components[p].policy,
                          *st.components[p].estimator, st.proxies[p]);
  }
  st.loop.emplace(stream, config, st.run, st.units.data(), n,
                  FleetCouplings(fleet, st.proxies.data(), n_objects,
                                 rng.fork("sharding").seed()),
                  rng);
}

FleetLoop::~FleetLoop() = default;

const std::shared_ptr<const net::PathModel>& FleetLoop::model() const {
  return state_->run.model;
}

void FleetLoop::consume(const workload::RequestBlock& block,
                        const sim::BlockDraws& draws) {
  State& st = *state_;
  if (block.size > 0) {
    if (block.first == 0) st.t_first = block.time_s[0];
    st.t_last = block.time_s[block.size - 1];
  }
  st.loop->consume(block, draws);
}

FleetResult FleetLoop::finish() {
  State& st = *state_;
  return st.loop->couplings().finish(st.loop->finish(), st.t_first,
                                     st.t_last);
}

FleetResult run_fleet(const workload::RequestStream& stream,
                      const FleetConfig& fleet,
                      const sim::SimulationConfig& config,
                      std::shared_ptr<const net::PathModel> path_model,
                      const stats::EmpiricalDistribution* base,
                      const stats::EmpiricalDistribution* ratio) {
  FleetLoop loop(stream, fleet, config, config.seed, std::move(path_model),
                 base, ratio);
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
