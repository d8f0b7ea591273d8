// Edge-fleet simulation: N independent partial-caching proxies sharing
// one origin (the ROADMAP's "edge-fleet scale" item).
//
// The paper evaluates a single cache in front of bottlenecked paths; its
// deployment target is a CDN-style edge of many proxies. A fleet cell
// serves the shared workload::RequestStream through the one request loop
// (sim::RequestLoop, sim/run_loop.h) over N proxy units — each a
// registry-built policy and estimator with its own byte-budget
// cache::PartialStore, observation queue, patching table and fault
// schedule, built exactly as a single cell's — and plugs the fleet-only
// couplings into the loop's hooks: a client→proxy assignment layer
// (fleet/sharding.h) routes every request, and three couplings sit on
// top, each flag-gated so a trivial fleet serves as a single cell:
//
//   * Shared origin uplink: every proxy's misses drain one token bucket
//     (`uplink_mbps` refill, `burst_mb` depth) layered over the §2.2
//     path model. A drained bucket delays the origin stream, lowering
//     the throughput passive estimators observe — origin congestion
//     couples the proxies, which single-cell sweeps cannot express.
//   * Cross-proxy cooperation (`coop=1`): before paying the origin for
//     a miss remainder, a proxy serves what it can from the largest
//     peer prefix at a per-hop latency penalty; peer bytes count as
//     shared (backbone-free) traffic and never cross the uplink.
//   * Scoped fault plans (net/fault.h): each proxy compiles the cell's
//     FaultPlan for its own net::FaultScope{proxy, region}, so
//     `outage=...@region0` takes down exactly the proxies of region 0
//     (regions partition proxies into contiguous equal blocks).
//
// Determinism contract: one fleet run is a single sequential pass over
// the request stream (the shared token bucket must be drained in global
// arrival order), a pure function of (stream, config, seed). FleetLoop
// is that pass as a resumable object fed one request block and its
// draws (sim/block_draws.h) at a time, like sim::RequestLoop: run_fleet
// drives one from its own cursor, and core::SweepRunner drives fleet
// cells as lanes of its lockstep groups next to single-cell
// simulations of the same stream, sharing their blocks and draws (at
// most one fleet per group, which bounds peak memory). Grid parallelism
// is across groups, so results are bit-identical at every --threads,
// and a 10⁸-request fleet stays O(stream_chunk) in memory.
//
// Inertness oracle (tests/test_fleet.cpp): a single-proxy fleet with no
// uplink, no cooperation, and an unscoped fault plan runs the single
// cell's loop body over the single cell's unit, so every field of the
// aggregate result is identical by construction; the test keeps
// checking it, including under patching and client interactivity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharding.h"
#include "net/path_process.h"
#include "sim/block_draws.h"
#include "sim/simulator.h"
#include "stats/empirical.h"

namespace sc::fleet {

/// One fleet cell's shape, parsed from the registry-style spec
/// `fleet:proxies=16,regions=4,sharding=hash:vnodes=64,uplink_mbps=200,
/// burst_mb=8,coop=1,peer_latency_ms=2`.
struct FleetConfig {
  std::size_t proxies = 16;
  /// Fault-scope regions; proxies are partitioned into `regions`
  /// contiguous equal blocks (region_of). Must be in [1, proxies].
  std::size_t regions = 1;
  ShardingConfig sharding{};
  /// Shared origin uplink refill rate in megabits/second; 0 disables
  /// the token bucket entirely (infinite uplink, the inert default).
  double uplink_mbps = 0.0;
  /// Token-bucket depth in megabytes (only meaningful with a finite
  /// uplink).
  double burst_mb = 8.0;
  /// Peer hit lookup before origin miss.
  bool coop = false;
  /// Per-hop latency charged when any peer bytes are used (seconds).
  double peer_latency_s = 0.002;

  /// Parse a fleet spec string. Throws util::SpecError (with
  /// did-you-mean) on unknown names/parameters and invalid values.
  [[nodiscard]] static FleetConfig parse(const std::string& text);

  /// Canonical spec string; parse() of the result reproduces the config.
  [[nodiscard]] std::string to_string() const;

  /// Region of proxy `p`: contiguous equal blocks, e.g. 8 proxies x 2
  /// regions -> proxies 0-3 are region 0, proxies 4-7 region 1.
  [[nodiscard]] std::uint32_t region_of(std::size_t proxy) const noexcept {
    return static_cast<std::uint32_t>(proxy * regions / proxies);
  }
};

/// The shared origin uplink: a token bucket refilled at `rate` bytes/s
/// up to `burst` bytes. acquire() is called in global request-arrival
/// order (time only moves forward), consumes the transfer's bytes, and
/// returns the extra seconds the transfer waits for tokens it drained
/// past the bucket.
class UplinkBucket {
 public:
  UplinkBucket(double rate_bytes_per_s, double burst_bytes)
      : rate_(rate_bytes_per_s),
        burst_(burst_bytes),
        tokens_(burst_bytes) {}

  [[nodiscard]] bool enabled() const noexcept { return rate_ > 0.0; }

  /// Consume `bytes` at `now_s`; returns the queueing delay (0 when the
  /// bucket covers the transfer).
  double acquire(double now_s, double bytes) {
    if (rate_ <= 0.0 || bytes <= 0.0) return 0.0;
    if (now_s > last_s_) {
      tokens_ = std::min(burst_, tokens_ + (now_s - last_s_) * rate_);
      last_s_ = now_s;
    }
    total_bytes_ += bytes;
    if (tokens_ >= bytes) {
      tokens_ -= bytes;
      return 0.0;
    }
    const double deficit = bytes - tokens_;
    tokens_ = 0.0;
    return deficit / rate_;
  }

  /// Total bytes that crossed the uplink (for utilization reporting).
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_s_ = 0.0;
  double total_bytes_ = 0.0;
};

/// Per-proxy load diagnostics, accumulated over the measured window
/// (same window as the aggregate §3.3 metrics).
struct ProxyStats {
  std::uint64_t requests = 0;
  /// Requests that found any locally cached prefix.
  std::uint64_t hits = 0;
  /// Requests that used any peer bytes (cooperation).
  std::uint64_t peer_assisted = 0;
  std::uint64_t denied_requests = 0;
  double denied_bytes = 0.0;
  double origin_bytes = 0.0;
  double peer_bytes = 0.0;
  double fill_bytes = 0.0;
};

struct FleetResult {
  /// Request-order aggregate over the whole fleet; for a single-proxy
  /// inert fleet this equals the single-cell SimulationResult
  /// field-for-field.
  sim::SimulationResult aggregate;
  std::vector<ProxyStats> per_proxy;
  /// Origin bytes / (uplink rate x trace time span); 0 with an infinite
  /// uplink. Can exceed 1: demand beyond the refill rate is queued, not
  /// dropped.
  double uplink_utilization = 0.0;
  /// max/mean of per-proxy measured request counts (1.0 = perfectly
  /// balanced).
  double load_imbalance = 1.0;
  /// Fraction of measured requests that used any peer bytes.
  double peer_hit_ratio = 0.0;
};

/// One fleet run as a resumable object: the constructor builds the
/// proxies and the couplings, consume() routes and serves one request
/// block through sim::RequestLoop, and finish() drains the deferred
/// observations and folds the result. Blocks must arrive in stream
/// order, each exactly once, with `draws` filled for that block by a
/// sim::BlockDraws reset for model(), `config.interactivity` and
/// Rng(seed). `stream` and `config` must outlive the loop.
class FleetLoop {
 public:
  /// Arguments as for run_fleet below, except that the run seed is
  /// `seed` (`config.seed` is ignored).
  FleetLoop(const workload::RequestStream& stream, const FleetConfig& fleet,
            const sim::SimulationConfig& config, std::uint64_t seed,
            std::shared_ptr<const net::PathModel> path_model,
            const stats::EmpiricalDistribution* base,
            const stats::EmpiricalDistribution* ratio);
  ~FleetLoop();

  FleetLoop(const FleetLoop&) = delete;
  FleetLoop& operator=(const FleetLoop&) = delete;

  /// The run's path model (the given one, or the one drawn from the
  /// seed).
  [[nodiscard]] const std::shared_ptr<const net::PathModel>& model() const;

  void consume(const workload::RequestBlock& block,
               const sim::BlockDraws& draws);

  /// Call once, after the stream's last block.
  [[nodiscard]] FleetResult finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Run one fleet cell over `stream`: one FleetLoop fed from its own
/// cursor and draws. `config` supplies the per-proxy component specs,
/// the *aggregate* cache budget (cache_capacity_bytes / proxies per
/// proxy), the session-model and patching extensions, the fault plan,
/// and the run seed. `path_model` may be null, in which case the model
/// is drawn from the seed exactly as sim::Simulator does (`base`/`ratio`
/// must then be non-null).
[[nodiscard]] FleetResult run_fleet(
    const workload::RequestStream& stream, const FleetConfig& fleet,
    const sim::SimulationConfig& config,
    std::shared_ptr<const net::PathModel> path_model,
    const stats::EmpiricalDistribution* base,
    const stats::EmpiricalDistribution* ratio);

}  // namespace sc::fleet
