// The per-block draw stage: the request loops' only source of
// per-request path bandwidth samples and session lengths.
//
// Under variable bandwidth (§4.3) every request samples its path's
// instantaneous bandwidth from the replication's net::PathSampler, and
// under session dynamics (sim/interactivity.h) it draws its viewed
// fraction from the run's "session" stream. Neither draw depends on
// the cache: each loop takes exactly one sample and one session draw
// per request, in stream order, whatever its policy, cache size, fault
// plan, or fleet shape. Every simulation of one replication and session
// model therefore sees the same two sequences. BlockDraws computes them
// one request block at a time into SoA lanes:
//
//   - a solo run (sim::run_request_loop, fleet::run_fleet) fills its own
//     draws before consuming each block;
//   - core::SweepRunner fills one BlockDraws per distinct session model
//     in a lockstep group (whose members share one replication) and
//     hands it to every member, so a group of G simulations samples
//     once per request, not G times.
//
// Both come from the replication's path model and Rng(seed).fork(
// "session"), exactly the streams the loops used to draw from inline,
// so results are bit-identical either way.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/path_process.h"
#include "sim/interactivity.h"
#include "util/rng.h"
#include "workload/object_catalog.h"
#include "workload/request_stream.h"

namespace sc::sim {

class BlockDraws {
 public:
  /// Prepare for a run over `view`'s catalog. `model` is the run's path
  /// model, `interactivity` its session model, and `rng` its root stream
  /// Rng(seed), whose tag-keyed "session" fork feeds the session draws.
  /// Lanes the run does not need stay empty: a constant-bandwidth model
  /// samples nothing (the loops read the path means from their delivery
  /// tables) and "full" sessions draw nothing. Storage is reused.
  void reset(const workload::CatalogView& view,
             std::shared_ptr<const net::PathModel> model,
             const InteractivityConfig& interactivity, const util::Rng& rng) {
    view_ = view;
    sample_bw_ = model->mode() != net::VariationMode::kConstant;
    if (sample_bw_) {
      if (paths_.has_value()) {
        paths_->rebind(std::move(model));
      } else {
        paths_.emplace(std::move(model));
      }
    }
    interactivity_ = interactivity;
    interactive_ = interactivity.enabled();
    if (interactive_) session_rng_ = rng.fork("session");
  }

  /// Draw the lanes of `block`, the next block of the run's stream (in
  /// order, each block exactly once).
  void fill(const workload::RequestBlock& block) {
    const std::size_t n = block.size;
    if (sample_bw_) {
      if (bw_.size() < n) bw_.resize(n);
      net::PathSampler& paths = *paths_;
      const net::PathId* const path = view_.path;
      double* const bw = bw_.data();
      for (std::size_t i = 0; i < n; ++i) {
        bw[i] = paths.sample_bandwidth(path[block.object[i]], block.time_s[i]);
      }
    }
    if (interactive_) {
      if (viewed_.size() < n) viewed_.resize(n);
      const double* const duration_s = view_.duration_s;
      double* const viewed = viewed_.data();
      for (std::size_t i = 0; i < n; ++i) {
        viewed[i] = sample_viewed_fraction(interactivity_,
                                           duration_s[block.object[i]],
                                           block.view_s[i], session_rng_);
      }
    }
  }

  /// Per-request instantaneous bandwidth of the last filled block, or
  /// null when the model is constant.
  [[nodiscard]] const double* bw() const noexcept {
    return sample_bw_ ? bw_.data() : nullptr;
  }
  /// Per-request viewed fraction of the last filled block, or null
  /// without a session model.
  [[nodiscard]] const double* viewed_fraction() const noexcept {
    return interactive_ ? viewed_.data() : nullptr;
  }

 private:
  workload::CatalogView view_{};
  std::optional<net::PathSampler> paths_;
  InteractivityConfig interactivity_{};
  util::Rng session_rng_{0};
  bool sample_bw_ = false;
  bool interactive_ = false;
  std::vector<double> bw_;
  std::vector<double> viewed_;
};

}  // namespace sc::sim
