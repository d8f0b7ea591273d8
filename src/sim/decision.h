// The clock-agnostic decision kernel: the half of the request loop that
// decides *what the cache does*, with no opinion about who owns time.
//
// sim/run_loop.h used to fuse two things: (a) the paper's decision path
// — admission, utility eviction, partial-prefix management, estimator
// observe/estimate with deferred completion observations — and (b) the
// simulated delivery model that drives it from a recorded trace under a
// simulated clock. DecisionKernel extracts (a) behind a clock-agnostic
// surface: every entry point takes `now_s` as a plain double, so the
// same kernel runs under
//
//   - the simulated clock (sim/run_loop.h: `now_s` is the trace's
//     request arrival time), and
//   - the wall clock (src/server/: `now_s` is seconds since daemon
//     start, and tick() is called from real time so EWMA/probe
//     estimators age on real seconds).
//
// The extraction is expression-for-expression identical to the fused
// loop — the golden-CSV harness (tests/golden/) pins the simulator's
// output byte-identically across it, and tests/test_decision.cpp covers
// the kernel in isolation under an arbitrary (non-simulated) clock.
// Both clocks run the same two steps per request, tick() before serving
// and settle() after it; tests/test_daemon_oracle.cpp pins that the
// daemon and the simulator take identical decisions.
#pragma once

#include <limits>

#include "cache/policy.h"
#include "cache/store.h"
#include "net/estimator.h"
#include "net/fault.h"
#include "net/path_process.h"
#include "sim/delivery.h"
#include "sim/event_queue.h"
#include "workload/object_catalog.h"

namespace sc::sim {

/// Non-owning view over one (policy, estimator, store, observation
/// queue) quadruple, driven through the virtual CachePolicy /
/// BandwidthEstimator interfaces by the simulated request loop, the
/// fleet and the live proxy daemon alike.
///
/// All state lives in the referenced components; the kernel itself is a
/// few pointers and is trivially copyable. Not thread-safe: concurrent
/// callers (the server) must serialize access externally (see
/// docs/SERVER.md, "Lock discipline").
class DecisionKernel {
 public:
  DecisionKernel(cache::CachePolicy& policy,
                 net::BandwidthEstimator& estimator,
                 cache::PartialStore& store, ObservationQueue& events)
      : policy_(&policy),
        estimator_(&estimator),
        store_(&store),
        events_(&events),
        observes_(estimator.uses_observations()) {}

  [[nodiscard]] cache::CachePolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] const cache::CachePolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] net::BandwidthEstimator& estimator() noexcept {
    return *estimator_;
  }
  [[nodiscard]] const net::BandwidthEstimator& estimator() const noexcept {
    return *estimator_;
  }
  [[nodiscard]] cache::PartialStore& store() noexcept { return *store_; }
  [[nodiscard]] const cache::PartialStore& store() const noexcept {
    return *store_;
  }

  /// Cached prefix bytes of `id` right now (what a request can be served
  /// from before any admission decision runs).
  [[nodiscard]] double cached(workload::ObjectId id) const noexcept {
    return store_->cached(id);
  }

  /// Whether the estimator consumes completion observations at all
  /// (callers gate record_transfer on it to skip dead event traffic).
  [[nodiscard]] bool observes() const noexcept { return observes_; }

  /// Attach a compiled fault schedule (net/fault.h): observations whose
  /// due time falls inside a blackout window are dropped in tick()
  /// before reaching the estimator. Null (the default) detaches — the
  /// tick path is then exactly the pre-fault-layer code, which is what
  /// keeps an empty fault plan inert.
  void set_faults(const net::FaultSchedule* faults) noexcept {
    faults_ = faults;
  }

  /// Deliver every deferred completion observation due at or before
  /// `now_s` to the estimator, in (time, insertion) order. The simulator
  /// calls this with each request's arrival time; the server calls it
  /// from the wall clock (per request and from a periodic ticker), which
  /// is what makes EWMA/probe estimators age on real seconds.
  void tick(double now_s) {
    if (faults_ == nullptr) {
      events_->run_until(now_s, [this](double now, ObservationEvent& ev) {
        estimator_->observe(ev.path, ev.throughput, now);
      });
    } else {
      // Estimator blackout: the measurement plane is down — due
      // observations are consumed (the transfer still happened) but
      // never reach the estimator.
      events_->run_until(now_s, [this](double now, ObservationEvent& ev) {
        if (!faults_->blackout(now)) {
          estimator_->observe(ev.path, ev.throughput, now);
        }
      });
    }
  }

  /// Flush every pending observation regardless of time (end of run).
  void drain() { tick(std::numeric_limits<double>::infinity()); }

  /// Defer the completion observation of a transfer on `path` achieving
  /// `throughput` bytes/second until `done_s`: passive estimators only
  /// learn a transfer's throughput once it completes.
  void record_transfer(net::PathId path, double throughput, double done_s) {
    events_->schedule(done_s, ObservationEvent{path, throughput});
  }

  /// Run the replacement decision for a request of `id` served at
  /// `now_s` — frequency update, utility computation, admission, utility
  /// eviction, and partial-prefix grow/shrink, all inside the policy.
  /// Called *after* the request was served from the pre-decision cache
  /// contents. Returns the cached prefix after the decision (callers
  /// diff against cached(id) from before to account origin->cache fill
  /// traffic).
  double admit(workload::ObjectId id, double now_s) {
    policy_->on_access(id, now_s, *store_);
    return store_->cached(id);
  }

  /// The post-service half of a request for `id` on `path` served at
  /// `now_s` with `outcome` from a `cached_before`-byte prefix, where
  /// the simulated loop and the daemon both end every request: defer
  /// the completion observation to `done_s` when the estimator observes
  /// and origin bytes flowed, then admit when `can_fill` (the origin can
  /// back fill traffic). Returns the prefix growth (fill bytes, or 0).
  double settle(workload::ObjectId id, net::PathId path,
                const ServiceOutcome& outcome, double now_s, double done_s,
                bool can_fill, double cached_before) {
    if (observes_ && outcome.bytes_from_origin > 0) {
      record_transfer(path, outcome.origin_throughput, done_s);
    }
    if (!can_fill) return 0.0;
    const double cached_after = admit(id, now_s);
    return cached_after > cached_before ? cached_after - cached_before : 0.0;
  }

 private:
  cache::CachePolicy* policy_;
  net::BandwidthEstimator* estimator_;
  cache::PartialStore* store_;
  ObservationQueue* events_;
  const net::FaultSchedule* faults_ = nullptr;
  bool observes_;
};

}  // namespace sc::sim
