// Cache replacement policies (§2.4 - §2.6 of the paper).
//
// All of the paper's policies share one structure: estimate each object's
// request frequency F_i, consult a bandwidth estimate b_i, compute a
// scalar *utility* (the selection key) and a *desired cached size*
// (whole object for the Integral family, (r_i - b_i) * T_i for the
// Partial family), and keep the highest-utility objects cached using a
// priority index over utility keys. Each kernel chooses its index: the
// default IndexedMinHeap (cache/min_heap.h) re-keys in O(log n), as §2.4
// prescribes; LRU, whose keys only ever grow, uses the O(1) RecencyList
// (cache/recency_list.h).
//
// UtilityPolicy<Kernel> implements the admission/eviction loop once as a
// template over a small *kernel* type whose utility() / desired_bytes()
// / kIntegral members are plain (non-virtual) and inline into the loop.
// Per-object data is read through the catalog's structure-of-arrays view
// (workload::CatalogView) so an access touches a few contiguous doubles
// instead of a whole StreamObject. Virtual dispatch happens at the
// CachePolicy::on_access boundary and at the one estimate() call inside
// it.
//
// The concrete policy names (IfPolicy, PbPolicy, ...) are aliases of
// UtilityPolicy<Kernel> instantiations, constructed exactly as before:
// Policy(catalog, estimator[, e]).
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/min_heap.h"
#include "cache/recency_list.h"
#include "cache/store.h"
#include "net/estimator.h"
#include "workload/object_catalog.h"

namespace sc::cache {

using workload::CatalogView;
using workload::StreamObject;

/// Default bandwidth under-estimation factor `e` for the Hybrid /
/// PB-V(e) kernels when a spec omits it (core/registry.cpp).
inline constexpr double kDefaultKernelE = 1.0;

/// Point-in-time copy of a policy's learned state, the unit the
/// persistence layer (src/server/persist.h) snapshots and restores. The
/// shape is policy-agnostic: the shared utility-engine state (request
/// frequencies and the priority index's (id, key) pairs) plus an opaque
/// kernel blob (e.g. LRU's logical clock). A policy that keeps no state
/// saves an empty snapshot.
struct PolicySnapshot {
  std::vector<double> freq;                       // indexed by ObjectId
  std::vector<std::pair<ObjectId, double>> heap;  // (id, utility key)
  std::vector<double> kernel;                     // kernel-specific extras
};

/// Interface seen by the simulator.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Notify a request for `id` at simulation time `now_s`, *after* the
  /// request was served from the current cache contents. The policy
  /// updates its bookkeeping and may admit, grow, shrink, or evict
  /// objects in `store`.
  virtual void on_access(ObjectId id, double now_s, PartialStore& store) = 0;

  /// Forget all learned state (frequencies, priority queue). The caller
  /// must clear the store as well; policy state and store contents are
  /// kept consistent only through on_access.
  virtual void reset() = 0;

  /// Re-target at a new catalog and estimator for a new simulation,
  /// forgetting all learned state and reusing storage: afterwards the
  /// policy must be indistinguishable from the one its registry factory
  /// builds for the same spec over `catalog` and `estimator`
  /// (sim::SimulationArena relies on this). Returns false, leaving the
  /// policy untouched, when it cannot; the default, so a policy without
  /// an override is rebuilt for every simulation.
  virtual bool rebind(const workload::Catalog& /*catalog*/,
                      net::BandwidthEstimator& /*estimator*/) {
    return false;
  }

  /// Export learned state for persistence. Default: stateless.
  [[nodiscard]] virtual PolicySnapshot save_state() const { return {}; }

  /// Restore previously exported state; all-or-nothing — returns false
  /// (leaving the policy untouched) when the snapshot does not fit this
  /// policy's shape. The default accepts only an empty snapshot.
  virtual bool load_state(const PolicySnapshot& state) {
    return state.freq.empty() && state.heap.empty() && state.kernel.empty();
  }

  /// Request count this policy has observed for `id` (F_i); 0 for
  /// policies that do not track frequencies. Journal annotation hook.
  [[nodiscard]] virtual double frequency_of(ObjectId) const { return 0.0; }

  /// Current priority-index key for `id`; false when absent. Journal
  /// annotation hook.
  [[nodiscard]] virtual bool index_key(ObjectId, double*) const {
    return false;
  }

  /// Audit hook (sim::StateAuditor): verify the policy's internal
  /// indices are consistent with the store's contents. On failure,
  /// append human-readable reasons to `why` (when non-null) and return
  /// false. Policies without indices are vacuously consistent.
  [[nodiscard]] virtual bool check_consistency(
      const PartialStore&, std::vector<std::string>* /*why*/) const {
    return true;
  }
};

/// Non-template part of the utility engine: learned frequencies and the
/// SoA catalog view. The priority index lives in the template below,
/// whose kernel chooses its type.
class UtilityPolicyBase : public CachePolicy {
 public:
  UtilityPolicyBase(const workload::Catalog& catalog,
                    net::BandwidthEstimator& estimator)
      : catalog_(&catalog),
        view_(catalog.view()),
        estimator_(&estimator),
        freq_(catalog.size(), 0.0) {}

  void reset() override { std::fill(freq_.begin(), freq_.end(), 0.0); }

  /// Request count observed for `id` (F_i).
  [[nodiscard]] double frequency(ObjectId id) const { return freq_.at(id); }

  [[nodiscard]] double frequency_of(ObjectId id) const override {
    return id < freq_.size() ? freq_[id] : 0.0;
  }

 protected:
  /// Re-target the engine at a new catalog + estimator and forget the
  /// learned frequencies, reusing their storage. Protected on purpose:
  /// rebinding must go through the derived UtilityPolicy<Kernel>::rebind,
  /// which additionally resets the index and the kernel state (e.g. the
  /// LRU clock) — calling this half alone through a base reference would
  /// silently carry that state across simulations.
  void rebind_base(const workload::Catalog& catalog,
                   net::BandwidthEstimator& estimator) {
    catalog_ = &catalog;
    view_ = catalog.view();
    estimator_ = &estimator;
    freq_.assign(catalog.size(), 0.0);
  }

  [[nodiscard]] const workload::Catalog& catalog() const noexcept {
    return *catalog_;
  }

  const workload::Catalog* catalog_;
  CatalogView view_;
  net::BandwidthEstimator* estimator_;
  std::vector<double> freq_;
};

/// Default no-op hooks; kernels inherit and shadow what they need.
/// Utilities and desired sizes <= 0 mean "do not cache".
struct KernelBase {
  /// The engine's priority index over cached objects (utility keys).
  using Index = IndexedMinHeap;
  /// Recency bookkeeping before utilities are computed.
  void before_access(ObjectId, double) {}
  /// Forget learned kernel state.
  void reset() {}
  /// Append kernel state to a PolicySnapshot's kernel blob (nothing for
  /// stateless kernels).
  void save(std::vector<double>&) const {}
  /// Restore from a kernel blob; false on shape mismatch. Stateless
  /// kernels accept only an empty blob.
  [[nodiscard]] bool load(const std::vector<double>& blob) {
    return blob.empty();
  }
};

/// IF: Integral Frequency-based caching. Utility F_i, whole objects.
/// Network-oblivious baseline (equivalent to in-cache LFU).
struct IfKernel : KernelBase {
  static constexpr bool kIntegral = true;
  [[nodiscard]] std::string name() const { return "IF"; }
  [[nodiscard]] double utility(const CatalogView&, ObjectId, double freq,
                               double) const {
    return freq;
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double) const {
    return v.size_bytes[id];
  }
};

/// PB: Partial Bandwidth-based caching (§2.4). Skips objects whose
/// bandwidth already supports streaming (r_i <= b_i); otherwise utility
/// F_i / b_i and cached prefix (r_i - b_i) * T_i.
struct PbKernel : KernelBase {
  static constexpr bool kIntegral = false;
  [[nodiscard]] std::string name() const { return "PB"; }
  [[nodiscard]] double utility(const CatalogView& v, ObjectId id, double freq,
                               double bandwidth) const {
    return v.bitrate[id] <= bandwidth ? 0.0 : freq / bandwidth;
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double bandwidth) const {
    return (v.bitrate[id] - bandwidth) * v.duration_s[id];
  }
};

/// IB: Integral Bandwidth-based caching (§2.5). Same selection key as PB
/// but caches whole objects (the most conservative over-provisioning).
struct IbKernel : KernelBase {
  static constexpr bool kIntegral = true;
  [[nodiscard]] std::string name() const { return "IB"; }
  [[nodiscard]] double utility(const CatalogView& v, ObjectId id, double freq,
                               double bandwidth) const {
    return v.bitrate[id] <= bandwidth ? 0.0 : freq / bandwidth;
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double) const {
    return v.size_bytes[id];
  }
};

/// Hybrid(e): PB with the bandwidth *underestimated* by factor e in the
/// sizing rule (§4.3, Fig 9): cached prefix (r_i - e * b_i) * T_i, capped
/// at the object size. e = 1 reproduces PB; e = 0 caches whole objects
/// (IB-like, except objects with abundant bandwidth are still admitted
/// only when space permits, via the low F/b key).
struct HybridKernel : KernelBase {
  static constexpr bool kIntegral = false;
  explicit HybridKernel(double e);
  [[nodiscard]] std::string name() const { return name_; }
  [[nodiscard]] double e() const noexcept { return e_; }
  [[nodiscard]] double utility(const CatalogView& v, ObjectId id, double freq,
                               double bandwidth) const {
    return v.bitrate[id] <= e_ * bandwidth ? 0.0 : freq / bandwidth;
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double bandwidth) const {
    return std::min(v.size_bytes[id],
                    (v.bitrate[id] - e_ * bandwidth) * v.duration_s[id]);
  }

 private:
  double e_;
  std::string name_;  // formatted once, at construction
};

/// PB-V: Partial Bandwidth-Value-based caching (§2.6). Greedy key
/// F_i * V_i / (T_i r_i - T_i b_i); cached prefix (r_i - b_i) * T_i so a
/// hit can start instantly. Supports the Fig-12 estimator e the same way
/// Hybrid does.
struct PbvKernel : KernelBase {
  static constexpr bool kIntegral = false;
  explicit PbvKernel(double e = kDefaultKernelE);
  [[nodiscard]] std::string name() const { return name_; }
  [[nodiscard]] double e() const noexcept { return e_; }
  [[nodiscard]] double utility(const CatalogView& v, ObjectId id, double freq,
                               double bandwidth) const {
    const double deficit =
        (v.bitrate[id] - e_ * bandwidth) * v.duration_s[id];
    if (deficit <= 0.0) return 0.0;
    return freq * v.value[id] / deficit;
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double bandwidth) const {
    return std::min(v.size_bytes[id],
                    (v.bitrate[id] - e_ * bandwidth) * v.duration_s[id]);
  }

 private:
  double e_;
  std::string name_;  // formatted once, at construction
};

/// IB-V: Integral Bandwidth-Value-based caching (§4.4). Whole objects
/// with key F_i * V_i / (T_i r_i * b_i): prefers low bandwidth, high
/// value, small size. (The paper's typography is ambiguous here; see
/// DESIGN.md §2 and the bench_ablation key-variant study.)
struct IbvKernel : KernelBase {
  static constexpr bool kIntegral = true;
  [[nodiscard]] std::string name() const { return "IB-V"; }
  [[nodiscard]] double utility(const CatalogView& v, ObjectId id, double freq,
                               double bandwidth) const {
    if (v.bitrate[id] <= bandwidth) return 0.0;
    return freq * v.value[id] / (v.size_bytes[id] * bandwidth);
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double) const {
    return v.size_bytes[id];
  }
};

/// LRU over whole objects (network-oblivious baseline, §3.3). An
/// object's key is the logical clock of its last access; the engine calls
/// utility() only for the object before_access() just stamped, so the
/// key is the current clock and no per-object array is needed (the
/// index holds every cached object's key).
struct LruKernel : KernelBase {
  /// Keys are a strictly increasing clock: O(1) in key order.
  using Index = RecencyList;
  static constexpr bool kIntegral = true;
  [[nodiscard]] std::string name() const { return "LRU"; }
  void before_access(ObjectId, double /*now_s*/) {
    clock_ += 1.0;  // logical clock: strictly increasing per access
  }
  void reset() { clock_ = 0.0; }
  /// Blob: the clock alone; any other shape is rejected, so a snapshot
  /// from an older layout degrades to a cold start.
  void save(std::vector<double>& blob) const { blob.push_back(clock_); }
  [[nodiscard]] bool load(const std::vector<double>& blob) {
    if (blob.size() != 1) return false;
    clock_ = blob[0];
    return true;
  }
  [[nodiscard]] double utility(const CatalogView&, ObjectId, double,
                               double) const {
    return clock_;
  }
  [[nodiscard]] double desired_bytes(const CatalogView& v, ObjectId id,
                                     double) const {
    return v.size_bytes[id];
  }

 private:
  double clock_ = 0.0;
};

/// LFU over whole objects: identical to IF by construction; provided as a
/// named baseline for the metrics discussion in §3.3.
struct LfuKernel : IfKernel {
  [[nodiscard]] std::string name() const { return "LFU"; }
};

/// Shared engine over a policy kernel and the priority index it chooses
/// (Kernel::Index). Admission evicts strictly-lower-utility victims only
/// (so the cache never trades better content for worse), and respects
/// whole-object semantics for integral kernels. The kernel and index
/// calls compile to direct (inlined) code.
template <typename Kernel>
class UtilityPolicy final : public UtilityPolicyBase {
 public:
  using Index = typename Kernel::Index;

  template <typename... KernelArgs>
  explicit UtilityPolicy(const workload::Catalog& catalog,
                         net::BandwidthEstimator& estimator,
                         KernelArgs&&... kernel_args)
      : UtilityPolicyBase(catalog, estimator),
        index_(catalog.size()),
        kernel_(std::forward<KernelArgs>(kernel_args)...) {}

  [[nodiscard]] std::string name() const override { return kernel_.name(); }

  void reset() override {
    UtilityPolicyBase::reset();
    index_.clear();
    kernel_.reset();
  }

  [[nodiscard]] const Kernel& kernel() const noexcept { return kernel_; }

  /// Forgets the frequencies, the index and the kernel's own state
  /// (e.g. the LRU clock), keeping the kernel's parameters (Hybrid's e).
  bool rebind(const workload::Catalog& catalog,
              net::BandwidthEstimator& estimator) override {
    rebind_base(catalog, estimator);
    index_.reset(catalog.size());
    kernel_.reset();
    return true;
  }

  [[nodiscard]] bool index_key(ObjectId id, double* key) const override {
    if (id >= freq_.size() || !index_.contains(id)) return false;
    if (key != nullptr) *key = index_.key(id);
    return true;
  }

  [[nodiscard]] bool check_consistency(
      const PartialStore& store,
      std::vector<std::string>* why) const override {
    bool ok = true;
    const auto fail = [&](std::string reason) {
      ok = false;
      if (why != nullptr) why->push_back(std::move(reason));
    };
    if (!index_.check_invariants()) {
      fail("policy index violates its order/link invariants");
    }
    // The engine pairs every store mutation with an index mutation, so
    // the index's id set and the store's cached id set must be identical.
    // Subset + equal cardinality proves set equality without touching
    // the store's private array twice.
    if (index_.size() != store.object_count()) {
      fail("policy index size " + std::to_string(index_.size()) +
           " != cached object count " +
           std::to_string(store.object_count()));
    }
    for (const auto& [id, key] : index_.entries()) {
      if (!store.contains(id)) {
        fail("index entry " + std::to_string(id) + " not cached in store");
      }
      if (!std::isfinite(key)) {
        fail("index key for " + std::to_string(id) + " is not finite");
      }
    }
    for (ObjectId id = 0; id < freq_.size(); ++id) {
      if (!(freq_[id] >= 0.0) || !std::isfinite(freq_[id])) {
        fail("frequency for " + std::to_string(id) + " is negative or NaN");
        break;  // one report is enough; the array is large
      }
    }
    return ok;
  }

  [[nodiscard]] PolicySnapshot save_state() const override {
    PolicySnapshot out;
    out.freq = freq_;
    out.heap = index_.entries();
    kernel_.save(out.kernel);
    return out;
  }

  /// Validate-then-apply: the policy is mutated only after every shape
  /// check passes, so a rejected snapshot leaves it untouched. The index
  /// is rebuilt by pushing entries in id order — its internal layout
  /// (the order among equal keys) may differ from the saved instance,
  /// but the (id, key) set is identical, which is all the engine's
  /// semantics depend on.
  bool load_state(const PolicySnapshot& state) override {
    const std::size_t n = freq_.size();
    if (state.freq.size() != n) return false;
    for (const double f : state.freq) {
      if (!(f >= 0.0) || !std::isfinite(f)) return false;
    }
    if (state.heap.size() > n) return false;
    ObjectId prev_plus_one = 0;  // entries() is sorted; ids must be unique
    for (const auto& [id, key] : state.heap) {
      if (id >= n || id + 1 <= prev_plus_one) return false;
      if (!std::isfinite(key)) return false;
      prev_plus_one = id + 1;
    }
    Kernel staged = kernel_;
    if (!staged.load(state.kernel)) return false;
    freq_ = state.freq;
    index_.reset(n);
    for (const auto& [id, key] : state.heap) index_.push(id, key);
    kernel_ = std::move(staged);
    return true;
  }

  /// The admission/eviction body.
  void on_access(ObjectId id, double now_s, PartialStore& store) override {
    /// Slack (bytes) below which size differences are treated as zero.
    /// One byte: cache sizes run to ~10^11 bytes, where the double ulp
    /// is ~10^-5, so a sub-byte epsilon would be swallowed by rounding
    /// (and a sub-byte trim cannot change occupancy anyway).
    constexpr double kEps = 1.0;

    kernel_.before_access(id, now_s);
    freq_[id] += 1.0;
    const double bw = estimator_->estimate(view_.path[id], now_s);
    const double u = kernel_.utility(view_, id, freq_[id], bw);
    const double desired =
        std::min(kernel_.desired_bytes(view_, id, bw), view_.size_bytes[id]);
    const double have = store.cached(id);

    // Case 1: the policy no longer wants this object (e.g. the bandwidth
    // estimate improved past the bit-rate). Drop any cached prefix.
    if (u <= 0.0 || desired <= kEps) {
      if (have > 0.0) {
        store.erase(id);
        index_.remove(id);
      }
      return;
    }

    // Case 2: cached more than currently desired (estimate drifted):
    // shrink.
    if (have > desired + kEps) {
      if constexpr (Kernel::kIntegral) {
        // Integral policies only ever hold whole objects; a shrunken
        // target below the full size means "keep the whole object"
        // semantics no longer apply -- keep it (conservative) and just
        // refresh the key.
        index_.update(id, u);
        return;
      }
      store.set_cached(id, desired);
      index_.update(id, u);
      return;
    }

    if (have > 0.0) index_.update(id, u);

    const double need = desired - have;
    if (need <= kEps) return;

    // Evict strictly-lower-utility victims until the growth fits.
    while (store.free_space() + kEps < need && !index_.empty()) {
      const ObjectId victim = index_.min_id();
      if (victim == id) break;  // everything else cached is more valuable
      if (index_.min_key() >= u) break;
      const double free_before = store.free_space();
      const double victim_bytes = store.cached(victim);
      const double still_needed = need - free_before;
      if (Kernel::kIntegral || still_needed >= victim_bytes - kEps) {
        store.erase(victim);
        index_.remove(victim);
      } else {
        // Partial policies may trim a victim's prefix tail: the remaining
        // shorter prefix keeps the same utility (the key does not depend
        // on the cached amount).
        store.set_cached(victim, victim_bytes - still_needed);
      }
      if (store.free_space() <= free_before) break;  // rounding: no progress
    }

    const double grant = std::min(need, store.free_space());
    if (grant <= kEps) return;
    if (Kernel::kIntegral && grant + kEps < need) {
      // All-or-nothing admission for whole-object policies.
      return;
    }
    store.set_cached(id, have + grant);
    index_.upsert(id, u);
  }

 private:
  Index index_;
  Kernel kernel_;
};

using IfPolicy = UtilityPolicy<IfKernel>;
using PbPolicy = UtilityPolicy<PbKernel>;
using IbPolicy = UtilityPolicy<IbKernel>;
using HybridPolicy = UtilityPolicy<HybridKernel>;
using PbvPolicy = UtilityPolicy<PbvKernel>;
using IbvPolicy = UtilityPolicy<IbvKernel>;
using LruPolicy = UtilityPolicy<LruKernel>;
using LfuPolicy = UtilityPolicy<LfuKernel>;

}  // namespace sc::cache
