// GISMO-style synthetic request trace generation (§3.2, Table 1).
//
// Requests target objects under a Zipf-like popularity distribution
// (default alpha = 0.73) and arrive according to a Poisson process. The
// paper's GISMO toolset is not available; Table 1 fully specifies the
// distributions, which this module implements directly (see DESIGN.md §4).
#pragma once

#include <utility>
#include <vector>

#include "stats/distributions.h"
#include "workload/object_catalog.h"

namespace sc::workload {

/// Sentinel for Request::view_s: the session watched the whole stream
/// (or the trace recorded no viewing duration).
inline constexpr double kFullSession = -1.0;

/// One client request.
struct Request {
  double time_s = 0.0;  // arrival time since trace start
  ObjectId object = 0;
  /// Recorded viewing duration of this session, seconds; kFullSession
  /// (negative) when the client watched to the end / nothing was
  /// recorded. Consumed by the simulator's "trace" interactivity mode;
  /// every other mode ignores it (see sim/interactivity.h).
  double view_s = kFullSession;
};

/// A complete workload: catalog + request trace.
struct Workload {
  Catalog catalog;
  std::vector<Request> requests;
};

struct TraceConfig {
  std::size_t num_requests = 100000;
  double zipf_alpha = 0.73;
  /// Mean request arrival rate (Poisson). The paper does not pin the
  /// absolute rate; 0.15 req/s spreads 100 K requests over ~7.7 days,
  /// comparable to the nine-day NLANR log the paper analyzed.
  double arrival_rate_per_s = 0.15;
};

struct WorkloadConfig {
  CatalogConfig catalog;
  TraceConfig trace;
};

/// Generate a request trace against an existing catalog. Object with
/// popularity rank k is hit with probability ~ k^-alpha.
[[nodiscard]] std::vector<Request> generate_trace(const Catalog& catalog,
                                                  const TraceConfig& config,
                                                  util::Rng& rng);

/// Convenience: generate catalog + trace together.
[[nodiscard]] Workload generate_workload(const WorkloadConfig& config,
                                         util::Rng& rng);

/// The incremental form of generate_trace: one Request per next() call,
/// drawing the interarrival gap and then the popularity rank from the
/// same RNG stream in the same order, so a sampler seeded with the
/// post-catalog generator state reproduces generate_trace's output
/// byte-for-byte (this is the determinism contract behind
/// workload::RequestStream; see docs/PERF.md). The alias-table
/// popularity model is referenced, not copied — it is immutable and can
/// be shared across any number of concurrent samplers.
class TraceSampler {
 public:
  /// `popularity` must outlive the sampler and match the catalog the
  /// trace targets (ZipfLike(catalog.size(), config.zipf_alpha)). `rng`
  /// is copied: the sampler owns its stream position.
  TraceSampler(const stats::ZipfLike& popularity, const TraceConfig& config,
               util::Rng rng)
      : popularity_(&popularity),
        interarrival_(config.arrival_rate_per_s),
        rng_(std::move(rng)) {}

  [[nodiscard]] Request next() {
    now_ += interarrival_.sample(rng_);
    // Rank k maps to object k-1 (catalog assigns rank id+1).
    const std::size_t rank = popularity_->sample(rng_);
    return Request{now_, rank - 1, kFullSession};
  }

  /// The sampler's current RNG state (generate_trace hands it back to
  /// the caller so downstream draws continue the original stream).
  [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

 private:
  const stats::ZipfLike* popularity_;
  stats::Exponential interarrival_;
  util::Rng rng_;
  double now_ = 0.0;
};

/// How SweepRunner materializes per-(alpha, run) workloads (see
/// workload/request_stream.h and core/experiment.h).
enum class StreamingMode {
  /// Materialize below kAutoStreamThreshold requests, stream above it.
  kAuto,
  /// Always build the full std::vector<Request> up front (the pre-stream
  /// behavior; O(num_requests) memory per distinct (alpha, run)).
  kMaterialize,
  /// Always regenerate chunk-wise (O(chunk) memory, what makes 10^8-
  /// request sweeps possible). core::SweepRunner runs the simulations
  /// that share a stream in lockstep groups fed from one cursor, so the
  /// generator runs once per group rather than once per simulation.
  kStream,
};

/// kAuto switches to streaming above this trace length: regenerating a
/// short trace per simulation costs more than the vector it avoids, and
/// ~4M requests (~100 MB per distinct (alpha, run)) is where the memory
/// pressure starts to dominate.
inline constexpr std::size_t kAutoStreamThreshold = 4'000'000;

}  // namespace sc::workload
