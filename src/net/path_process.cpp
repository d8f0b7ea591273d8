#include "net/path_process.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sc::net {

Ar1RatioProcess::Ar1RatioProcess(double phi, double sigma, double floor_ratio,
                                 double ceil_ratio)
    : phi_(phi), sigma_(sigma), floor_(floor_ratio), ceil_(ceil_ratio) {
  if (phi < 0 || phi >= 1) {
    throw std::invalid_argument("Ar1RatioProcess: phi must be in [0, 1)");
  }
  if (sigma < 0) throw std::invalid_argument("Ar1RatioProcess: sigma < 0");
  if (!(ceil_ratio > floor_ratio) || floor_ratio <= 0) {
    throw std::invalid_argument("Ar1RatioProcess: bad clamp bounds");
  }
}

double Ar1RatioProcess::step(util::Rng& rng) {
  const double innovation =
      sigma_ * std::sqrt(1.0 - phi_ * phi_) * rng.normal(0.0, 1.0);
  value_ = 1.0 + phi_ * (value_ - 1.0) + innovation;
  value_ = std::clamp(value_, floor_, ceil_);
  return value_;
}

PathModel::PathModel(std::size_t n_paths,
                     const stats::EmpiricalDistribution& base,
                     const stats::EmpiricalDistribution& ratio,
                     PathModelConfig config, util::Rng rng)
    : config_(config), ratio_(ratio), sampler_rng_(std::move(rng)) {
  if (n_paths == 0) throw std::invalid_argument("PathModel: n_paths == 0");
  means_.reserve(n_paths);
  for (std::size_t i = 0; i < n_paths; ++i) {
    means_.push_back(base.sample(sampler_rng_));
  }
  // Unit mean => stddev == CoV. Precomputed even outside kTimeSeries so
  // samplers never need the ratio bins at construction.
  ar1_sigma_ = ratio_.cov();
}

std::shared_ptr<const PathModel> make_path_model(
    std::size_t n_paths, const stats::EmpiricalDistribution& base,
    const stats::EmpiricalDistribution& ratio, const PathModelConfig& config,
    std::uint64_t seed) {
  return std::make_shared<const PathModel>(n_paths, base, ratio, config,
                                           util::Rng(seed).fork("paths"));
}

namespace {
const PathModel& require_model(const std::shared_ptr<const PathModel>& m) {
  if (m == nullptr) throw std::invalid_argument("PathSampler: null model");
  return *m;
}
}  // namespace

PathSampler::PathSampler(std::shared_ptr<const PathModel> model)
    : model_(std::move(model)), rng_(require_model(model_).sampler_rng()) {
  rebuild_series();
}

void PathSampler::rebind(std::shared_ptr<const PathModel> model) {
  model_ = std::move(model);
  rng_ = require_model(model_).sampler_rng();
  rebuild_series();
}

void PathSampler::rebuild_series() {
  // One implementation for construction and rebinding keeps the arena
  // bit-identity contract (rebound == fresh) trivially true; clear() +
  // reserve() keep the storage so steady-state rebinds allocate nothing.
  series_.clear();
  const PathModelConfig& config = model_->config();
  if (config.mode == VariationMode::kTimeSeries) {
    const std::size_t n = model_->size();
    series_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      series_.push_back(TimeSeriesState{
          Ar1RatioProcess(config.ar1_phi, model_->ar1_sigma(),
                          config.min_ratio, config.max_ratio),
          0.0});
    }
  }
}

double PathSampler::sample_bandwidth(PathId path, double now_s) {
  const PathModelConfig& config = model_->config();
  const double mean = model_->mean_bandwidth(path);
  switch (config.mode) {
    case VariationMode::kConstant:
      return mean;
    case VariationMode::kIidRatio: {
      const double r = std::clamp(model_->ratio().sample(rng_),
                                  config.min_ratio, config.max_ratio);
      return mean * r;
    }
    case VariationMode::kTimeSeries: {
      auto& st = series_.at(path);
      // Advance the AR(1) chain by however many whole timesteps elapsed.
      const double elapsed = now_s - st.last_step_time;
      const auto steps =
          static_cast<long long>(std::floor(elapsed / config.timestep_s));
      for (long long k = 0; k < std::min<long long>(steps, 1024); ++k) {
        st.process.step(rng_);
      }
      if (steps > 0) {
        st.last_step_time += static_cast<double>(steps) * config.timestep_s;
      }
      return mean * st.process.current();
    }
  }
  throw std::logic_error("PathSampler: unknown variation mode");
}

}  // namespace sc::net
