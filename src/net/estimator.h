// Bandwidth estimators (§2.7): how the cache learns b_i for each path.
//
// The caching policies never see the true path means directly; they consult
// a bandwidth estimator. Each scheme is implemented twice over one body:
//
//   *Kernel structs  - non-virtual, header-inline state machines
//                      (OracleKernel, EwmaKernel, LastSampleKernel,
//                      ProbeKernel), each with a rebind() that resets it
//                      for a new simulation without reallocating.
//   KernelEstimator<Kernel> - the virtual adapter implementing the
//                      BandwidthEstimator interface every consumer (the
//                      simulator, the fleet, the proxy daemon) holds. The
//                      familiar class names (OracleEstimator,
//                      PassiveEwmaEstimator, LastSampleEstimator,
//                      ActiveProbeEstimator) are final adapters with their
//                      historical constructor signatures.
//
// Schemes:
//   OracleEstimator      - returns the true long-run mean (the paper's
//                          idealized setting used in its simulations).
//   PassiveEwmaEstimator - exponentially-weighted average of observed
//                          per-transfer throughput (passive measurement).
//   LastSampleEstimator  - most recent observed throughput only.
//   ActiveProbeEstimator - probes via the TCP-throughput model with a
//                          configurable re-probe interval (active
//                          measurement with overhead accounting).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/path_process.h"
#include "net/probe.h"
#include "util/rng.h"

namespace sc::net {

/// Interface through which cache policies learn per-path bandwidth.
class BandwidthEstimator {
 public:
  virtual ~BandwidthEstimator() = default;

  /// Record the throughput (bytes/second) of a completed transfer on
  /// `path` finishing at simulation time `now_s`.
  virtual void observe(PathId path, double throughput, double now_s) = 0;

  /// Whether observe() has any effect. Purely active / oracle schemes
  /// return false so the simulator can skip scheduling per-transfer
  /// completion events entirely (their delivery order is the only thing
  /// the events control, and a no-op observer cannot tell).
  [[nodiscard]] virtual bool uses_observations() const { return true; }

  /// Current estimate for `path` (bytes/second); must be positive.
  [[nodiscard]] virtual double estimate(PathId path, double now_s) = 0;

  /// Cumulative measurement overhead in packets (0 for passive schemes).
  [[nodiscard]] virtual std::size_t overhead_packets() const { return 0; }

  /// Export learned state as a flat double blob for persistence
  /// (src/server/persist.h). Stateless schemes export nothing.
  [[nodiscard]] virtual std::vector<double> save_state() const { return {}; }

  /// Restore previously exported state; false (estimator untouched) on
  /// shape mismatch. The default accepts only an empty blob.
  virtual bool load_state(const std::vector<double>& blob) {
    return blob.empty();
  }

  /// Re-initialize for a new simulation over `paths`, seeded from `rng`,
  /// reusing storage: afterwards the estimator must be indistinguishable
  /// from the one its registry factory builds for the same spec, paths
  /// and rng (sim::SimulationArena relies on this). Returns false,
  /// leaving the estimator untouched, when it cannot; the default, so an
  /// estimator without an override is rebuilt for every simulation.
  virtual bool rebind(const PathModel& /*paths*/, util::Rng /*rng*/) {
    return false;
  }
};

// ---------------------------------------------------------------------
// Non-virtual kernels. Every kernel provides observe / estimate /
// overhead_packets, the kUsesObservations constant, and a
// rebind(paths, rng) that re-initializes it for a fresh simulation
// (arena reuse): after rebind a kernel is bit-identical to a newly
// constructed one with the same parameters.

/// Knows the true per-path mean (upper bound on estimator quality).
/// Consults the immutable PathModel only, so one shared model can feed
/// any number of concurrent estimators.
class OracleKernel {
 public:
  static constexpr bool kUsesObservations = false;

  explicit OracleKernel(const PathModel& paths) : paths_(&paths) {}

  void observe(PathId, double, double) {}
  [[nodiscard]] double estimate(PathId path, double) const {
    return paths_->mean_bandwidth(path);
  }
  [[nodiscard]] std::size_t overhead_packets() const { return 0; }

  /// Re-point at a new replication's model.
  void rebind(const PathModel& paths, util::Rng) { paths_ = &paths; }

  [[nodiscard]] std::vector<double> save_state() const { return {}; }
  [[nodiscard]] bool load_state(const std::vector<double>& blob) {
    return blob.empty();
  }

 private:
  const PathModel* paths_;
};

/// Passive EWMA over observed transfer throughput.
class EwmaKernel {
 public:
  static constexpr bool kUsesObservations = true;

  /// `alpha` is the weight of the newest observation; `prior` is returned
  /// for paths never observed (bytes/second).
  EwmaKernel(std::size_t n_paths, double alpha, double prior);

  void observe(PathId path, double throughput, double /*now_s*/) {
    if (throughput <= 0) return;
    double& e = estimates_.at(path);
    if (e <= 0) {
      e = throughput;
      ++observed_count_;
    } else {
      e = alpha_ * throughput + (1.0 - alpha_) * e;
    }
  }
  [[nodiscard]] double estimate(PathId path, double /*now_s*/) const {
    const double e = estimates_.at(path);
    return e > 0 ? e : prior_;
  }
  [[nodiscard]] std::size_t overhead_packets() const { return 0; }

  [[nodiscard]] std::size_t observed_paths() const noexcept {
    return observed_count_;
  }

  /// Forget every observation (storage reused).
  void rebind(const PathModel& paths, util::Rng) {
    estimates_.assign(paths.size(), -1.0);
    observed_count_ = 0;
  }

  /// Per-path estimates (<= 0 encodes "never observed"); observed_count_
  /// is derived, so the blob is just the array.
  [[nodiscard]] std::vector<double> save_state() const { return estimates_; }
  [[nodiscard]] bool load_state(const std::vector<double>& blob) {
    if (blob.size() != estimates_.size()) return false;
    estimates_ = blob;
    observed_count_ = 0;
    for (const double e : estimates_) {
      if (e > 0) ++observed_count_;
    }
    return true;
  }

 private:
  double alpha_;
  double prior_;
  std::vector<double> estimates_;  // <= 0 means "never observed"
  std::size_t observed_count_ = 0;
};

/// Remembers only the most recent sample per path.
class LastSampleKernel {
 public:
  static constexpr bool kUsesObservations = true;

  LastSampleKernel(std::size_t n_paths, double prior);

  void observe(PathId path, double throughput, double /*now_s*/) {
    if (throughput > 0) last_.at(path) = throughput;
  }
  [[nodiscard]] double estimate(PathId path, double /*now_s*/) const {
    const double e = last_.at(path);
    return e > 0 ? e : prior_;
  }
  [[nodiscard]] std::size_t overhead_packets() const { return 0; }

  void rebind(const PathModel& paths, util::Rng) {
    last_.assign(paths.size(), -1.0);
  }

  [[nodiscard]] std::vector<double> save_state() const { return last_; }
  [[nodiscard]] bool load_state(const std::vector<double>& blob) {
    if (blob.size() != last_.size()) return false;
    last_ = blob;
    return true;
  }

 private:
  double prior_;
  std::vector<double> last_;
};

/// Probes a path actively when its estimate is older than
/// `reprobe_interval_s`; otherwise serves the cached probe result.
class ProbeKernel {
 public:
  static constexpr bool kUsesObservations = false;

  /// Probes through a caller-owned `model`, which must outlive the
  /// kernel.
  ProbeKernel(const ProbeModel& model, double reprobe_interval_s,
              util::Rng rng);

  /// Owns a probe model over `paths`' true means: the latent path state
  /// is drawn from `rng`'s "probe" fork and the measurements from its
  /// "probe-rng" fork (the registry's probe factory).
  ProbeKernel(const PathModel& paths, ProbeConfig config,
              double reprobe_interval_s, util::Rng rng);

  void observe(PathId, double, double) {}  // purely active
  [[nodiscard]] double estimate(PathId path, double now_s) {
    double& cached = cached_.at(path);
    double& when = probe_time_.at(path);
    if (cached <= 0 || now_s - when >= reprobe_interval_s_) {
      const ProbeResult r = model_->probe(path, rng_);
      cached = r.estimated_bandwidth;
      when = now_s;
      overhead_packets_ += r.packets_sent;
    }
    return cached;
  }
  [[nodiscard]] std::size_t overhead_packets() const {
    return overhead_packets_;
  }

  /// Redraw the owned probe model over `paths` (keeping its
  /// ProbeConfig) and the measurement stream from `rng`, with the forks
  /// of the PathModel constructor; probe caches and overhead restart
  /// from zero. Storage is reused.
  void rebind(const PathModel& paths, util::Rng rng);

  /// Blob layout: cached estimates, probe timestamps, overhead count.
  /// The probe RNG is deliberately not captured: after a restore, paths
  /// whose cached probe is still fresh serve it unchanged, and stale
  /// paths simply re-probe with new draws — overhead accounting stays
  /// cumulative either way.
  [[nodiscard]] std::vector<double> save_state() const {
    std::vector<double> blob;
    blob.reserve(2 * cached_.size() + 1);
    blob.insert(blob.end(), cached_.begin(), cached_.end());
    blob.insert(blob.end(), probe_time_.begin(), probe_time_.end());
    blob.push_back(static_cast<double>(overhead_packets_));
    return blob;
  }
  [[nodiscard]] bool load_state(const std::vector<double>& blob) {
    const std::size_t n = cached_.size();
    if (blob.size() != 2 * n + 1) return false;
    const double overhead = blob.back();
    if (!(overhead >= 0)) return false;
    std::copy(blob.begin(), blob.begin() + n, cached_.begin());
    std::copy(blob.begin() + n, blob.begin() + 2 * n, probe_time_.begin());
    overhead_packets_ = static_cast<std::size_t>(overhead);
    return true;
  }

 private:
  std::unique_ptr<ProbeModel> owned_model_;  // null when non-owning
  const ProbeModel* model_;
  double reprobe_interval_s_;
  util::Rng rng_;
  std::vector<double> cached_;
  std::vector<double> probe_time_;
  std::size_t overhead_packets_ = 0;
};

// ---------------------------------------------------------------------
// Virtual boundary adapters.

/// Implements the BandwidthEstimator interface over a kernel. Holding a
/// concrete adapter (the final classes below) devirtualizes every call.
template <typename Kernel>
class KernelEstimator : public BandwidthEstimator {
 public:
  /// Forwarding constructor, constrained so a single same-type argument
  /// still selects the normal copy/move constructors (an unconstrained
  /// template would hijack non-const copy construction and try to build
  /// the kernel from the adapter).
  template <typename... Args,
            typename = std::enable_if_t<
                !(sizeof...(Args) == 1 &&
                  (std::is_same_v<std::decay_t<Args>, KernelEstimator> &&
                   ...))>>
  explicit KernelEstimator(Args&&... args)
      : kernel_(std::forward<Args>(args)...) {}

  void observe(PathId path, double throughput, double now_s) override {
    kernel_.observe(path, throughput, now_s);
  }
  [[nodiscard]] bool uses_observations() const override {
    return Kernel::kUsesObservations;
  }
  [[nodiscard]] double estimate(PathId path, double now_s) override {
    return kernel_.estimate(path, now_s);
  }
  [[nodiscard]] std::size_t overhead_packets() const override {
    return kernel_.overhead_packets();
  }
  [[nodiscard]] std::vector<double> save_state() const override {
    return kernel_.save_state();
  }
  bool load_state(const std::vector<double>& blob) override {
    return kernel_.load_state(blob);
  }
  bool rebind(const PathModel& paths, util::Rng rng) override {
    kernel_.rebind(paths, std::move(rng));
    return true;
  }

  [[nodiscard]] Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const Kernel& kernel() const noexcept { return kernel_; }

 private:
  Kernel kernel_;
};

class OracleEstimator final : public KernelEstimator<OracleKernel> {
 public:
  explicit OracleEstimator(const PathModel& paths) : KernelEstimator(paths) {}
};

class PassiveEwmaEstimator final : public KernelEstimator<EwmaKernel> {
 public:
  PassiveEwmaEstimator(std::size_t n_paths, double alpha, double prior)
      : KernelEstimator(n_paths, alpha, prior) {}
  [[nodiscard]] std::size_t observed_paths() const noexcept {
    return kernel().observed_paths();
  }
};

class LastSampleEstimator final : public KernelEstimator<LastSampleKernel> {
 public:
  LastSampleEstimator(std::size_t n_paths, double prior)
      : KernelEstimator(n_paths, prior) {}
};

class ActiveProbeEstimator final : public KernelEstimator<ProbeKernel> {
 public:
  ActiveProbeEstimator(const ProbeModel& model, double reprobe_interval_s,
                       util::Rng rng)
      : KernelEstimator(model, reprobe_interval_s, std::move(rng)) {}
  ActiveProbeEstimator(const PathModel& paths, ProbeConfig config,
                       double reprobe_interval_s, util::Rng rng)
      : KernelEstimator(paths, config, reprobe_interval_s, std::move(rng)) {}
};

}  // namespace sc::net
