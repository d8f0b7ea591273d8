// The daemon's stand-in for upstream origin servers.
//
// The live proxy needs something on the far side of the backbone. A
// SimulatedOrigin reuses the exact bandwidth machinery the simulator
// trusts: a registry scenario spec ("constant", "nlanr", "measured",
// "timeseries:path=...") builds an immutable net::PathModel whose
// per-path means play the role of each origin's path bandwidth, and a
// net::PathSampler draws the instantaneous value per fetch. The origin
// converts a fetch of N bytes at bandwidth b into a *wall-clock* stall
// of `latency_s + time_scale * (N / b)` seconds, which the serving
// thread sleeps outside the engine lock — so cache hits answer at
// memory speed while misses pay a tunable, bandwidth-proportional
// upstream penalty, and passive estimators observe real completion
// times. time_scale defaults to 0 (latency-only): simulated transfer
// times are minutes long, and replaying them 1:1 would make every
// bench run take hours.
//
// The origin holds no fault state. The engine compiles the fault plan
// into its proxy unit's schedule (sim::ProxyState::faults), the same
// one the simulator's request loop compiles, and scales or cuts the
// bandwidth drawn here itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "net/path_process.h"

namespace sc::server {

struct OriginConfig {
  /// Registry bandwidth scenario spec; drives per-path mean draws and
  /// the variability mode, exactly as in the simulator.
  std::string scenario = "constant";
  /// Fixed per-fetch wall latency in seconds (connection setup / RTT).
  double latency_s = 0.0;
  /// Wall seconds slept per *simulated* transfer second (N / b). 0
  /// keeps fetches latency-only.
  double time_scale = 0.0;
  /// Deterministic fault plan on the daemon's wall clock (net/fault.h;
  /// the same spec grammar the simulator sweeps). The engine compiles it
  /// into its proxy unit's fault schedule exactly as the request loop
  /// does: outage/flap windows cut the origin, degrade windows scale the
  /// sampled bandwidth, blackout windows drop estimator observations.
  /// "" / "none" injects nothing.
  std::string fault;
};

class SimulatedOrigin {
 public:
  /// An origin over `model`, one path per catalog object (the paper's
  /// per-object origin path). The engine derives it from
  /// `config.scenario` as a simulation would (sim::make_scenario_model).
  SimulatedOrigin(std::shared_ptr<const net::PathModel> model,
                  const OriginConfig& config)
      : config_(config), model_(std::move(model)), sampler_(model_) {}

  [[nodiscard]] const net::PathModel& model() const noexcept {
    return *model_;
  }

  /// Instantaneous bandwidth of `path` at engine time `now_s`
  /// (bytes/second, simulated units), before any fault scaling — the
  /// engine applies its unit's fault schedule. Mutates sampler state:
  /// callers serialize (the engine invokes this under its lock).
  [[nodiscard]] double bandwidth(net::PathId path, double now_s) {
    return sampler_.sample_bandwidth(path, now_s);
  }

  /// Wall-clock stall for fetching `bytes` at `bandwidth` from this
  /// origin. Pure; the caller sleeps it outside any lock.
  [[nodiscard]] double wall_delay_s(double bytes, double bandwidth) const {
    const double transfer_s = bandwidth > 0 ? bytes / bandwidth : 0.0;
    return config_.latency_s + config_.time_scale * transfer_s;
  }

 private:
  OriginConfig config_;
  std::shared_ptr<const net::PathModel> model_;
  net::PathSampler sampler_;
};

}  // namespace sc::server
