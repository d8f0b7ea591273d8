// Active bandwidth probing substrate (§2.7 of the paper).
//
// The paper notes that for TCP-friendly streaming transports the available
// bandwidth tracks TCP throughput, which the Padhye/Firoiu/Towsley/Kurose
// model approximates as
//
//     bw  ≈  MSS / (RTT * sqrt(2p/3))
//
// where p is the packet loss rate. We invert this model to assign each
// path a latent (RTT, loss) pair consistent with its true mean bandwidth,
// and a probe then *measures* those quantities with realistic estimation
// noise: RTT from a small number of round-trip samples, loss from a finite
// probe train. The resulting estimate error shrinks as the probe train
// grows, letting experiments study measurement quality vs. overhead.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace sc::net {

/// Latent network characteristics of one path.
struct PathNetworkState {
  double rtt_s = 0.1;      // round-trip time, seconds
  double loss_rate = 0.0;  // packet loss probability in (0, 1)
};

struct ProbeConfig {
  double mss_bytes = 1460.0;  // TCP maximum segment size
  std::size_t train_packets = 200;  // packets per probing train
  std::size_t rtt_samples = 4;      // ping samples per probe
  double rtt_noise_cov = 0.1;       // per-sample RTT jitter (CoV)
  double min_rtt_s = 0.01;          // assignment floor
  double max_rtt_s = 0.4;           // assignment ceiling
};

/// Result of one active probe.
struct ProbeResult {
  double estimated_bandwidth = 0.0;  // bytes/second
  double measured_rtt_s = 0.0;
  double measured_loss = 0.0;
  std::size_t packets_sent = 0;  // probing overhead
};

/// TCP-throughput model: bytes/second given MSS, RTT and loss rate.
[[nodiscard]] double tcp_throughput(double mss_bytes, double rtt_s,
                                    double loss_rate);

/// Invert the TCP model: loss rate that yields `bandwidth` at given RTT.
[[nodiscard]] double loss_for_bandwidth(double bandwidth, double mss_bytes,
                                        double rtt_s);

/// Assigns latent (RTT, loss) to paths and simulates probe trains.
class ProbeModel {
 public:
  /// `mean_bandwidths` are the true per-path means (bytes/second); each
  /// path gets an RTT drawn uniformly from [min_rtt, max_rtt] and the loss
  /// rate implied by the TCP model.
  ProbeModel(const std::vector<double>& mean_bandwidths, ProbeConfig config,
             util::Rng rng);

  /// Reassign every path's latent state as the constructor would for
  /// `mean_bandwidths` and `rng`, keeping the config (storage reused).
  void redraw(const std::vector<double>& mean_bandwidths, util::Rng rng);

  /// Simulate one probe of `path`; returns a noisy bandwidth estimate and
  /// the probing overhead incurred.
  [[nodiscard]] ProbeResult probe(std::size_t path, util::Rng& rng) const;

  [[nodiscard]] const PathNetworkState& state(std::size_t path) const {
    return states_.at(path);
  }
  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }
  [[nodiscard]] const ProbeConfig& config() const noexcept { return config_; }

 private:
  ProbeConfig config_;
  std::vector<PathNetworkState> states_;
};

}  // namespace sc::net
