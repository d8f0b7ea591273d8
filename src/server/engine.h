// The live serving engine: the paper's decision kernel under a wall
// clock and a lock.
//
// ServiceEngine serves through the simulator's own proxy unit: one
// sim::ProxyState (partial-prefix store, deferred-observation queue,
// fault schedule) and one sim::ProxyUnit over the policy and estimator
// that sim::make_virtual_proxy builds — the construction path of the
// simulator, the arena and the fleet. Around the unit it keeps the
// catalog, the simulated origin, the metrics and the persistence layer,
// and exposes the daemon-facing operations:
//
//   serve_range()  answer GET [off, off + len) of an object: split the
//                  range into cached-prefix and origin bytes, run the
//                  §2.2 delivery math for the range, then settle it
//                  through DecisionKernel::settle like the simulated
//                  loop — the estimator's completion observation, and
//                  (on a session-opening request, offset == 0) the
//                  policy's admission/eviction decision.
//   end_session()  map a closed connection's per-object streaming run
//                  onto the session metrics (viewed fraction,
//                  truncation).
//   tick()         deliver due estimator observations at the current
//                  wall time — the daemon's ticker calls this so
//                  EWMA/probe estimators age on real seconds even when
//                  no requests arrive.
//
// Lock discipline (see docs/SERVER.md): one mutex guards every decision
// structure (store, policy, estimator, event queue, sampler, metrics).
// Decision work per request is microseconds, so a single lock
// outperforms anything finer at daemon scale; crucially, NO blocking
// work happens under it — origin stalls are returned as a duration the
// serving thread sleeps after unlocking, and socket IO never touches
// the engine.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "server/origin.h"
#include "server/persist.h"
#include "sim/metrics.h"
#include "sim/run_loop.h"
#include "sim/state_auditor.h"
#include "workload/object_catalog.h"

namespace sc::server {

struct ServiceConfig {
  /// Catalog shape: `objects` objects generated from `seed` (the
  /// workload::CatalogConfig defaults — Table 1's corpus). A client
  /// with the same two values reconstructs the identical catalog, so
  /// it can issue valid ranges without a metadata exchange (STAT
  /// exists for clients that prefer to ask).
  std::size_t objects = 2000;
  std::uint64_t seed = 42;
  /// Registry spec strings, exactly as on every bench/example binary.
  std::string policy = "pb";
  std::string estimator = "oracle";
  /// Cache capacity as a fraction of the catalog's actual total size;
  /// `cache_capacity_bytes > 0` overrides it with an absolute size.
  double cache_fraction = 0.02;
  double cache_capacity_bytes = 0.0;
  OriginConfig origin{};
  /// Per-attempt origin fetch timeout (wall seconds; 0 disables): an
  /// attempt whose upstream stall would exceed it fails as kOriginDown
  /// instead of pinning the connection thread for the full stall.
  double origin_timeout_s = 0.0;
  /// Bounded retries when an attempt finds the origin unreachable:
  /// serve_range re-tries up to `max_retries` times with exponential
  /// backoff (retry_backoff_s doubling up to retry_backoff_max_s),
  /// sleeping OUTSIDE the engine lock between attempts. Only after the
  /// last attempt does the client see kOriginDown.
  std::size_t max_retries = 3;
  double retry_backoff_s = 0.05;
  double retry_backoff_max_s = 1.0;
  /// Crash-safe persistence (docs/SERVER.md, "Persistence & recovery").
  /// An empty dir (the default) disables it entirely: no change
  /// listener on the store, no journal, no snapshots — the serving path
  /// is then exactly the pre-persistence code.
  persist::PersistConfig persist{};
};

/// Everything the wire layer needs to answer one GET.
struct ServeResult {
  std::uint8_t status = 0;         // wire::kOk / kBadObject / kBadRange
  std::uint64_t cache_bytes = 0;   // range bytes covered by the prefix
  std::uint64_t origin_bytes = 0;  // range bytes fetched upstream
  double delay_s = 0.0;            // §2.2 prefetch delay of the range
  /// Wall-clock upstream stall; the caller sleeps this OUTSIDE the
  /// engine lock before writing the response.
  double origin_wall_s = 0.0;
};

/// A consistent point-in-time copy of the serving counters.
struct ServiceStats {
  std::size_t requests = 0;
  double hit_ratio = 0.0;           // GETs with any cached prefix
  double byte_hit_ratio = 0.0;      // bytes from cache / bytes requested
  double mean_delay_s = 0.0;
  double occupancy_bytes = 0.0;
  std::size_t cached_objects = 0;
  double capacity_bytes = 0.0;
  std::size_t sessions = 0;
  double mean_viewed_fraction = 1.0;
  std::size_t estimator_overhead_packets = 0;
  /// Fault/recovery counters (all 0 without a fault plan; docs/CHAOS.md).
  std::size_t origin_down = 0;      // attempts that found the origin down
  std::size_t origin_retries = 0;   // retry attempts made
  std::size_t origin_timeouts = 0;  // attempts over origin_timeout_s
  std::size_t degraded_hits = 0;    // fully-cached kOk while origin down
  /// Persistence counters (all 0 / false without a persist dir).
  bool warm_start = false;          // recovered state at startup
  std::size_t snapshots_written = 0;
  std::size_t journal_records = 0;
  double uptime_s = 0.0;            // wall seconds since construction
};

class ServiceEngine {
 public:
  explicit ServiceEngine(ServiceConfig config);

  /// The catalog both ends of the protocol derive sizes from.
  [[nodiscard]] const workload::Catalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// Deterministic catalog construction shared by the daemon and any
  /// in-process client (bench_service): same (objects, seed) ->
  /// byte-identical catalog.
  [[nodiscard]] static workload::Catalog make_catalog(std::size_t objects,
                                                      std::uint64_t seed);

  /// Servable size of an object on the wire: its whole-byte size.
  [[nodiscard]] std::uint64_t object_size(workload::ObjectId id) const;

  /// Currently cached whole bytes of an object's prefix (the STAT op).
  [[nodiscard]] std::uint64_t cached_bytes(workload::ObjectId id) const;

  /// Seconds since engine construction (the engine's wall clock; every
  /// decision timestamp is in these units).
  [[nodiscard]] double now_s() const;

  /// Serve GET object bytes [offset, offset + length). Validates the
  /// range, runs the decision kernel under the lock, and returns the
  /// byte split plus the upstream stall to sleep outside it. `length`
  /// of zero is valid (a probe); ranges beyond the object or above
  /// wire::kMaxGetLength are rejected.
  ///
  /// Degradation contract under an origin fault (docs/CHAOS.md): a
  /// range the cached prefix fully covers is served kOk regardless of
  /// origin health; a range needing origin bytes is retried with
  /// bounded exponential backoff (ServiceConfig) and, only when every
  /// attempt finds the origin down or over-timeout, fails with the
  /// typed wire::kOriginDown status. Backoff sleeps happen on the
  /// calling thread outside the engine lock.
  [[nodiscard]] ServeResult serve_range(std::uint64_t object,
                                        std::uint64_t offset,
                                        std::uint64_t length);

  /// A connection finished streaming `object` after fetching bytes up
  /// to `high_water` (its largest offset + length). Records the
  /// session's viewed fraction against the session metrics.
  void end_session(workload::ObjectId object, std::uint64_t high_water);

  /// Deliver estimator observations due at the current wall time.
  void tick();

  [[nodiscard]] ServiceStats snapshot() const;

  /// The STATS endpoint's body: `snapshot()` as a small JSON object.
  [[nodiscard]] std::string stats_json() const;

  /// Whether startup recovered state from a snapshot (STATS warm_start).
  [[nodiscard]] bool warm_start() const noexcept { return warm_start_; }
  /// Human-readable recovery outcome (operator log line).
  [[nodiscard]] const std::string& recovery_detail() const noexcept {
    return recovery_detail_;
  }

  /// Run a full integrity audit (sim::StateAuditor) over the live
  /// decision state, under the engine lock. The AUDIT wire frame and
  /// the daemon's accept-gate both come through here.
  [[nodiscard]] sim::AuditReport audit() const;

  /// Write a snapshot now (graceful shutdown, tests). No-op when
  /// persistence is disabled. Deliberately NOT called from the
  /// destructor: a SIGKILLed process must recover from the periodic
  /// snapshot + journal alone, and tests pin that property.
  void flush_snapshot();

  /// Write a snapshot if the configured interval elapsed since the last
  /// one. Called from the daemon's ticker thread.
  void maybe_snapshot();

 private:
  /// One serve attempt (no retries; `is_retry` only tags the counter).
  [[nodiscard]] ServeResult serve_range_once(std::uint64_t object,
                                             std::uint64_t offset,
                                             std::uint64_t length,
                                             bool is_retry);

  /// Attempt warm recovery from the persist directory (constructor
  /// helper). Any failure degrades to a clean cold start.
  void try_recover();

  /// Journal the store mutations accumulated in changes_ (called under
  /// mu_ right after an admission decision). Records carry the FINAL
  /// post-decision state of each touched object, deduplicated
  /// last-writer-wins.
  void journal_changes();

  ServiceConfig config_;
  workload::Catalog catalog_;
  SimulatedOrigin origin_;
  /// The unit's registry-built policy and estimator.
  sim::VirtualProxy components_;
  sim::ProxyState state_;
  /// Every decision, and every read of decision state (STAT, STATS,
  /// AUDIT, persistence), goes through this unit.
  sim::ProxyUnit unit_;
  sim::MetricsCollector metrics_;
  std::size_t sessions_ = 0;
  // Fault/recovery counters, guarded by mu_ like every other counter.
  std::size_t origin_down_ = 0;
  std::size_t origin_retries_ = 0;
  std::size_t origin_timeouts_ = 0;
  std::size_t degraded_hits_ = 0;
  std::chrono::steady_clock::time_point start_;
  persist::Persistence persistence_;
  /// Store change listener buffer; attached to the store only when
  /// persistence is enabled, drained by journal_changes(). Guarded by
  /// mu_ (the store only mutates under it).
  cache::StoreChangeLog changes_;
  bool warm_start_ = false;
  std::string recovery_detail_;
  /// Added to the wall clock so the decision clock continues from the
  /// recovered engine_now_s instead of restarting at zero (probe
  /// freshness and observation due-times stay monotone across
  /// restarts).
  double clock_offset_ = 0.0;
  /// Ticker-thread-only snapshot pacing state (no lock needed).
  double last_snapshot_s_ = 0.0;
  /// Serializes snapshot writers (flush vs. periodic). Ordered BEFORE
  /// mu_: flush_snapshot takes snap_mu_, then mu_ briefly to capture
  /// state, then writes with both released.
  std::mutex snap_mu_;
  mutable std::mutex mu_;
};

}  // namespace sc::server
