#include "server/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "server/wire.h"
#include "util/rng.h"

namespace sc::server {

workload::Catalog ServiceEngine::make_catalog(std::size_t objects,
                                              std::uint64_t seed) {
  workload::CatalogConfig cfg;
  cfg.num_objects = objects;
  util::Rng root(seed);
  util::Rng catalog_rng = root.fork("catalog");
  return workload::Catalog::generate(cfg, catalog_rng);
}

ServiceEngine::ServiceEngine(ServiceConfig config)
    : config_(std::move(config)),
      catalog_(make_catalog(config_.objects, config_.seed)),
      origin_(sim::make_scenario_model(config_.origin.scenario,
                                       catalog_.size(), config_.seed),
              config_.origin),
      components_(sim::make_virtual_proxy(config_.policy, config_.estimator,
                                          catalog_, origin_.model(),
                                          util::Rng(config_.seed), 0)),
      unit_(*components_.policy, *components_.estimator, state_),
      start_(std::chrono::steady_clock::now()),
      persistence_(config_.persist) {
  state_.reset(catalog_.size(),
               config_.cache_capacity_bytes > 0
                   ? config_.cache_capacity_bytes
                   : config_.cache_fraction * catalog_.total_bytes(),
               /*patching=*/false);
  // The fault plan on the wall clock, compiled as the simulator compiles
  // it for a standalone decisions.
  unit_.bind_faults(net::FaultPlan::parse(config_.origin.fault),
                    catalog_.size(), util::Rng(config_.seed));
  if (persistence_.enabled()) {
    try_recover();
    // Listen for store mutations only from here on: recovery's own
    // set_cached calls are not journal-worthy (the snapshot already
    // holds them), and with persistence disabled the listener is never
    // attached at all — the serving path stays inert.
    unit_.decisions.store().set_change_log(&changes_);
    // Anchor the journal: cold or warm, the next crash recovers from
    // this image plus whatever the journal accumulates after it.
    flush_snapshot();
    last_snapshot_s_ = now_s();
  }
}

void ServiceEngine::try_recover() {
  persist::RecoveryInfo info;
  auto state = persistence_.recover(&info);
  recovery_detail_ = info.detail;
  if (!state) return;

  // The snapshot must describe THIS configuration; a daemon restarted
  // with different parameters starts cold rather than importing state
  // that means something else.
  sim::DecisionKernel& decisions = unit_.decisions;
  if (state->objects != catalog_.size() || state->seed != config_.seed ||
      state->policy_spec != config_.policy ||
      state->estimator_spec != config_.estimator ||
      std::fabs(state->capacity_bytes - decisions.store().capacity()) > 0.5) {
    recovery_detail_ = "snapshot config mismatch; cold start";
    return;
  }

  const auto cold_reset = [this, &decisions](const std::string& why) {
    decisions.store().clear();
    decisions.policy().reset();
    warm_start_ = false;
    recovery_detail_ = why + "; cold start";
  };

  try {
    for (const auto& [id, bytes] : state->store) {
      decisions.store().set_cached(id, bytes);
    }
  } catch (const std::exception& e) {
    cold_reset(std::string("recovered store rejected (") + e.what() + ")");
    return;
  }
  if (!decisions.policy().load_state(state->policy)) {
    cold_reset("recovered policy state rejected");
    return;
  }
  // Full integrity audit before trusting anything (the daemon
  // additionally refuses to accept connections on a failed audit). No
  // other thread exists yet, so taking the lock here is free.
  const sim::AuditReport report = audit();
  if (!report.ok()) {
    cold_reset("recovered state failed audit: " + report.to_string());
    return;
  }
  // Estimator last: by now everything else is known-good, so a rejected
  // estimator blob costs the whole warm start but never leaves a
  // half-loaded mix.
  if (!decisions.estimator().load_state(state->estimator)) {
    cold_reset("recovered estimator state rejected");
    return;
  }
  clock_offset_ = state->engine_now_s;
  warm_start_ = true;
}

void ServiceEngine::journal_changes() {
  const sim::DecisionKernel& decisions = unit_.decisions;
  // Deduplicate last-writer-wins: records are absolute, so only the
  // final state of each touched object matters. An admission touches a
  // handful of objects, so the quadratic scan never sees a large n.
  for (std::size_t i = 0; i < changes_.size(); ++i) {
    bool last = true;
    for (std::size_t j = i + 1; j < changes_.size(); ++j) {
      if (changes_[j].id == changes_[i].id) {
        last = false;
        break;
      }
    }
    if (!last) continue;
    const workload::ObjectId id = changes_[i].id;
    persist::JournalRecord r;
    r.id = id;
    r.bytes = decisions.cached(id);
    r.freq = decisions.policy().frequency_of(id);
    double key = 0.0;
    r.in_heap = decisions.policy().index_key(id, &key);
    r.key = key;
    persistence_.append(r);
  }
  changes_.clear();
}

sim::AuditReport ServiceEngine::audit() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sim::StateAuditor::audit(unit_.decisions.store(),
                                  &unit_.decisions.policy(),
                                  &unit_.state->events, catalog_.size());
}

void ServiceEngine::flush_snapshot() {
  if (!persistence_.enabled()) return;
  // One snapshot writer at a time; ordered before mu_ (never the other
  // way around).
  const std::lock_guard<std::mutex> snap(snap_mu_);
  persist::SnapshotState state;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const sim::DecisionKernel& decisions = unit_.decisions;
    state.objects = catalog_.size();
    state.seed = config_.seed;
    state.policy_spec = config_.policy;
    state.estimator_spec = config_.estimator;
    state.capacity_bytes = decisions.store().capacity();
    state.engine_now_s = now_s();
    state.store = decisions.store().contents();
    state.policy = decisions.policy().save_state();
    state.estimator = decisions.estimator().save_state();
    // Rotate the journal while still holding mu_: every mutation after
    // this instant journals into the file paired with this snapshot.
    persistence_.begin_snapshot();
  }
  // The fsync-heavy write happens with mu_ released; concurrent serves
  // keep going and their (absolute) journal records replay cleanly on
  // top of the captured image.
  persistence_.commit_snapshot(state);
}

void ServiceEngine::maybe_snapshot() {
  if (!persistence_.enabled()) return;
  const double now = now_s();
  if (now - last_snapshot_s_ < config_.persist.snapshot_interval_s) return;
  last_snapshot_s_ = now;
  flush_snapshot();
}

std::uint64_t ServiceEngine::object_size(workload::ObjectId id) const {
  return static_cast<std::uint64_t>(catalog_.object(id).size_bytes);
}

std::uint64_t ServiceEngine::cached_bytes(workload::ObjectId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::uint64_t>(std::floor(unit_.decisions.cached(id)));
}

double ServiceEngine::now_s() const {
  // clock_offset_ resumes the decision clock where a recovered snapshot
  // left it (0 on a cold start); set once before serving begins.
  return clock_offset_ +
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
             .count();
}

ServeResult ServiceEngine::serve_range(std::uint64_t object,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  ServeResult res = serve_range_once(object, offset, length, false);
  // Bounded exponential-backoff retries on a down origin. The sleeps
  // happen here — on the calling connection's thread, with the engine
  // lock released — so retries never serialize other requests.
  double backoff = config_.retry_backoff_s;
  for (std::size_t attempt = 0;
       res.status == wire::kOriginDown && attempt < config_.max_retries;
       ++attempt) {
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    backoff = std::min(backoff * 2.0, config_.retry_backoff_max_s);
    res = serve_range_once(object, offset, length, true);
  }
  return res;
}

ServeResult ServiceEngine::serve_range_once(std::uint64_t object,
                                            std::uint64_t offset,
                                            std::uint64_t length,
                                            bool is_retry) {
  ServeResult res;
  if (object >= catalog_.size()) {
    res.status = wire::kBadObject;
    return res;
  }
  const workload::StreamObject& obj = catalog_.object(object);
  const std::uint64_t size = object_size(object);
  if (length > wire::kMaxGetLength || offset > size ||
      size - offset < length) {
    res.status = wire::kBadRange;
    return res;
  }

  const double now = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  if (is_retry) ++origin_retries_;
  sim::DecisionKernel& decisions = unit_.decisions;
  // Deliver estimator observations that came due since the last entry.
  decisions.tick(now);

  const double cached_prefix = decisions.cached(object);
  const double cached_in_range =
      std::clamp(std::floor(cached_prefix) - static_cast<double>(offset), 0.0,
                 static_cast<double>(length));
  res.cache_bytes = static_cast<std::uint64_t>(cached_in_range);
  res.origin_bytes = length - res.cache_bytes;

  // The request loop's fault test: a degrade window scales the path's
  // bandwidth, and scale 0 (an outage or a down flap half-period) cuts
  // the origin.
  const double fault_scale =
      unit_.faults != nullptr ? unit_.faults->bandwidth_scale(obj.path, now)
                              : 1.0;
  const bool origin_up = fault_scale > 0.0;
  if (res.origin_bytes > 0 && !origin_up) {
    // The range needs upstream bytes the path cannot deliver. Typed
    // transient failure — no outcome is recorded (nothing was served),
    // no admission runs (the origin cannot back a fill).
    ++origin_down_;
    res.status = wire::kOriginDown;
    return res;
  }

  sim::ServiceOutcome outcome;  // a zero-length probe ships nothing
  if (length > 0) {
    // The §2.2 delivery model over the requested range: the range plays
    // out for length / r_i seconds, its "cached prefix" is the part the
    // store covers, the rest streams at the path's instantaneous
    // bandwidth (simulated units, as everywhere else). Outages were
    // handled above, so bw > 0 whenever origin bytes are needed.
    const double bw = origin_.bandwidth(obj.path, now) * fault_scale;
    if (res.origin_bytes > 0) {
      const double wall_s =
          origin_.wall_delay_s(static_cast<double>(res.origin_bytes), bw);
      if (config_.origin_timeout_s > 0 && wall_s > config_.origin_timeout_s) {
        // A stall this long (e.g. a heavy degrade window) is treated as
        // an unreachable origin rather than pinning the thread.
        ++origin_timeouts_;
        ++origin_down_;
        res.status = wire::kOriginDown;
        return res;
      }
      res.origin_wall_s = wall_s;
    }
    // A fully-cached range during an outage has bw == 0; deliver()
    // requires bw > 0, so the cache-only form covers it (quality 1,
    // immediate — the prefix covers the whole range).
    outcome = bw > 0 ? sim::deliver(static_cast<double>(length) / obj.bitrate,
                                    obj.bitrate, static_cast<double>(length),
                                    bw, static_cast<double>(res.cache_bytes))
                     : sim::deliver_cache_only(
                           static_cast<double>(length),
                           static_cast<double>(res.cache_bytes));
    res.delay_s = outcome.delay_s;
    metrics_.record(outcome, obj.value);
    if (!origin_up) ++degraded_hits_;  // fully-cached kOk during an outage
  }

  // The simulated loop's post-service half; the completion observation
  // is due at a *wall-clock* time, drained by tick(). offset == 0 opens
  // a session: the "access" the paper's policies count, so a session
  // streamed as N ranges runs admission once, like one simulated
  // request. While the origin is down no admission runs — it could not
  // back the fill traffic a grown prefix implies.
  const double fill =
      decisions.settle(object, obj.path, outcome, now, now + res.origin_wall_s,
                  offset == 0 && origin_up, cached_prefix);
  if (fill > 0.0) metrics_.record_fill(fill);
  // Non-empty only when persistence is on and the decision touched
  // the store.
  if (!changes_.empty()) journal_changes();
  res.status = wire::kOk;
  return res;
}

void ServiceEngine::end_session(workload::ObjectId object,
                                std::uint64_t high_water) {
  if (object >= catalog_.size()) return;
  const std::uint64_t size = object_size(object);
  const double fraction =
      size > 0 ? std::min(1.0, static_cast<double>(high_water) /
                                   static_cast<double>(size))
               : 1.0;
  const std::lock_guard<std::mutex> lock(mu_);
  ++sessions_;
  metrics_.record_session(fraction, fraction < 1.0);
}

void ServiceEngine::tick() {
  const double now = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  unit_.decisions.tick(now);
}

ServiceStats ServiceEngine::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.requests = metrics_.requests();
  s.hit_ratio = metrics_.hit_ratio();
  s.byte_hit_ratio = metrics_.traffic_reduction_ratio();
  s.mean_delay_s = metrics_.average_delay_s();
  const sim::DecisionKernel& decisions = unit_.decisions;
  s.occupancy_bytes = decisions.store().used();
  s.cached_objects = decisions.store().object_count();
  s.capacity_bytes = decisions.store().capacity();
  s.sessions = sessions_;
  s.mean_viewed_fraction = metrics_.average_viewed_fraction();
  s.estimator_overhead_packets = decisions.estimator().overhead_packets();
  s.origin_down = origin_down_;
  s.origin_retries = origin_retries_;
  s.origin_timeouts = origin_timeouts_;
  s.degraded_hits = degraded_hits_;
  s.warm_start = warm_start_;
  s.snapshots_written =
      static_cast<std::size_t>(persistence_.snapshots_written());
  s.journal_records =
      static_cast<std::size_t>(persistence_.records_appended());
  s.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  return s;
}

std::string ServiceEngine::stats_json() const {
  const ServiceStats s = snapshot();
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"requests\": %zu, \"hit_ratio\": %.6f, "
                "\"byte_hit_ratio\": %.6f, \"mean_delay_s\": %.6f, "
                "\"occupancy_bytes\": %.0f, \"cached_objects\": %zu, "
                "\"capacity_bytes\": %.0f, \"sessions\": %zu, "
                "\"mean_viewed_fraction\": %.6f, "
                "\"estimator_overhead_packets\": %zu, "
                "\"origin_down\": %zu, \"origin_retries\": %zu, "
                "\"origin_timeouts\": %zu, \"degraded_hits\": %zu, "
                "\"uptime_s\": %.3f, \"warm_start\": %s, "
                "\"snapshots_written\": %zu, \"journal_records\": %zu}",
                s.requests, s.hit_ratio, s.byte_hit_ratio, s.mean_delay_s,
                s.occupancy_bytes, s.cached_objects, s.capacity_bytes,
                s.sessions, s.mean_viewed_fraction,
                s.estimator_overhead_packets, s.origin_down, s.origin_retries,
                s.origin_timeouts, s.degraded_hits, s.uptime_s,
                s.warm_start ? "true" : "false", s.snapshots_written,
                s.journal_records);
  return std::string(buf);
}

}  // namespace sc::server
