#include "net/estimator.h"

#include <stdexcept>

namespace sc::net {

EwmaKernel::EwmaKernel(std::size_t n_paths, double alpha, double prior)
    : alpha_(alpha), prior_(prior), estimates_(n_paths, -1.0) {
  if (alpha <= 0 || alpha > 1) {
    throw std::invalid_argument("PassiveEwmaEstimator: alpha must be (0, 1]");
  }
  if (prior <= 0) {
    throw std::invalid_argument("PassiveEwmaEstimator: prior must be > 0");
  }
}

LastSampleKernel::LastSampleKernel(std::size_t n_paths, double prior)
    : prior_(prior), last_(n_paths, -1.0) {
  if (prior <= 0) {
    throw std::invalid_argument("LastSampleEstimator: prior must be > 0");
  }
}

ProbeKernel::ProbeKernel(const ProbeModel& model, double reprobe_interval_s,
                         util::Rng rng)
    : model_(&model),
      reprobe_interval_s_(reprobe_interval_s),
      rng_(std::move(rng)),
      cached_(model.size(), -1.0),
      probe_time_(model.size(), -1.0) {
  if (reprobe_interval_s <= 0) {
    throw std::invalid_argument("ActiveProbeEstimator: interval must be > 0");
  }
}

ProbeKernel::ProbeKernel(const PathModel& paths, ProbeConfig config,
                         double reprobe_interval_s, util::Rng rng)
    : owned_model_(std::make_unique<ProbeModel>(paths.means(), config,
                                                rng.fork("probe"))),
      model_(owned_model_.get()),
      reprobe_interval_s_(reprobe_interval_s),
      rng_(rng.fork("probe-rng")),
      cached_(paths.size(), -1.0),
      probe_time_(paths.size(), -1.0) {
  if (reprobe_interval_s <= 0) {
    throw std::invalid_argument("ActiveProbeEstimator: interval must be > 0");
  }
}

void ProbeKernel::rebind(const PathModel& paths, util::Rng rng) {
  if (owned_model_ == nullptr) {
    owned_model_ = std::make_unique<ProbeModel>(
        paths.means(), model_->config(), rng.fork("probe"));
    model_ = owned_model_.get();
  } else {
    owned_model_->redraw(paths.means(), rng.fork("probe"));
  }
  rng_ = rng.fork("probe-rng");
  cached_.assign(paths.size(), -1.0);
  probe_time_.assign(paths.size(), -1.0);
  overhead_packets_ = 0;
}

}  // namespace sc::net
