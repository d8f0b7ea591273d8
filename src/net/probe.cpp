#include "net/probe.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sc::net {

double tcp_throughput(double mss_bytes, double rtt_s, double loss_rate) {
  if (rtt_s <= 0) throw std::invalid_argument("tcp_throughput: rtt <= 0");
  if (loss_rate <= 0) {
    // Loss-free path: model as capped by a very large window; callers
    // should treat this as "not loss-limited".
    return mss_bytes * 1e4 / rtt_s;
  }
  return mss_bytes / (rtt_s * std::sqrt(2.0 * loss_rate / 3.0));
}

double loss_for_bandwidth(double bandwidth, double mss_bytes, double rtt_s) {
  if (bandwidth <= 0 || mss_bytes <= 0 || rtt_s <= 0) {
    throw std::invalid_argument("loss_for_bandwidth: non-positive input");
  }
  const double x = mss_bytes / (bandwidth * rtt_s);
  return std::clamp(1.5 * x * x, 1e-6, 0.5);
}

ProbeModel::ProbeModel(const std::vector<double>& mean_bandwidths,
                       ProbeConfig config, util::Rng rng)
    : config_(config) {
  redraw(mean_bandwidths, std::move(rng));
}

void ProbeModel::redraw(const std::vector<double>& mean_bandwidths,
                        util::Rng rng) {
  if (mean_bandwidths.empty()) {
    throw std::invalid_argument("ProbeModel: no paths");
  }
  states_.clear();
  states_.reserve(mean_bandwidths.size());
  for (const double bw : mean_bandwidths) {
    if (bw <= 0) throw std::invalid_argument("ProbeModel: bandwidth <= 0");
    PathNetworkState st;
    st.rtt_s = rng.uniform(config_.min_rtt_s, config_.max_rtt_s);
    st.loss_rate = loss_for_bandwidth(bw, config_.mss_bytes, st.rtt_s);
    // Very slow paths can demand a loss rate past the 0.5 clamp; shorten
    // the RTT until (RTT, loss) reproduces the true mean through the TCP
    // model, keeping the latent state self-consistent.
    const double implied =
        tcp_throughput(config_.mss_bytes, st.rtt_s, st.loss_rate);
    if (implied > bw * 1.0001) {
      st.rtt_s = config_.mss_bytes /
                 (bw * std::sqrt(2.0 * st.loss_rate / 3.0));
    }
    states_.push_back(st);
  }
}

ProbeResult ProbeModel::probe(std::size_t path, util::Rng& rng) const {
  const auto& st = states_.at(path);
  ProbeResult result;

  // RTT estimate: mean of a few jittered round-trip samples.
  double rtt_acc = 0.0;
  for (std::size_t i = 0; i < config_.rtt_samples; ++i) {
    const double jitter =
        std::max(0.1, 1.0 + rng.normal(0.0, config_.rtt_noise_cov));
    rtt_acc += st.rtt_s * jitter;
  }
  result.measured_rtt_s = rtt_acc / static_cast<double>(config_.rtt_samples);

  // Loss estimate: empirical frequency over a finite probe train. With a
  // small train and small p the estimate is coarse -- exactly the
  // overhead/accuracy trade-off §2.7 describes.
  std::size_t lost = 0;
  for (std::size_t i = 0; i < config_.train_packets; ++i) {
    if (rng.uniform() < st.loss_rate) ++lost;
  }
  result.measured_loss =
      std::max(static_cast<double>(lost), 0.5) /  // avoid zero-loss blowup
      static_cast<double>(config_.train_packets);
  result.packets_sent = config_.train_packets + config_.rtt_samples;
  result.estimated_bandwidth = tcp_throughput(
      config_.mss_bytes, result.measured_rtt_s, result.measured_loss);
  return result;
}

}  // namespace sc::net
