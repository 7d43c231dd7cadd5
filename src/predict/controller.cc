#include "predict/controller.h"

#include <algorithm>

namespace srpc::predict {

AdaptiveSpeculationController::AdaptiveSpeculationController(
    const AccuracyTracker& tracker, AdaptiveConfig config)
    : tracker_(tracker),
      config_(config),
      band_(opt::break_even_band(config.misspec_cost, config.hysteresis)) {
  band_.off = std::max(0.0, band_.off);
  band_.on = std::min(1.0, band_.on);
}

bool AdaptiveSpeculationController::should_speculate(
    const std::string& method) {
  // Estimator reads happen before taking our lock (the tracker has its
  // own); the decision below is a heuristic, momentary staleness is fine.
  const std::uint64_t samples = tracker_.samples(method);
  const double windowed = tracker_.windowed_hit_rate(method, 1.0);
  const double smoothed = tracker_.hit_rate(method, 1.0);

  std::lock_guard<std::mutex> lock(mu_);
  Gate& g = gates_.try_emplace(method, config_.probe_every).first->second;
  if (samples >= config_.min_samples) {
    if (!g.gate.engaged() && windowed < band_.off) {
      g.gate.raise();
    } else {
      g.gate.observe(windowed >= band_.on && smoothed >= band_.on);
    }
  }
  if (!g.gate.engaged() || g.gate.probe()) {
    g.allowed++;
    return true;
  }
  g.suppressed++;
  return false;
}

bool AdaptiveSpeculationController::gate_open(const std::string& method) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gates_.find(method);
  return it == gates_.end() || !it->second.gate.engaged();
}

AdaptiveSpeculationController::MethodDecisionStats
AdaptiveSpeculationController::stats(const std::string& method) const {
  std::lock_guard<std::mutex> lock(mu_);
  MethodDecisionStats out;
  out.method = method;
  auto it = gates_.find(method);
  if (it == gates_.end()) return out;
  const Gate& g = it->second;
  out.open = !g.gate.engaged();
  out.allowed = g.allowed;
  out.suppressed = g.suppressed;
  out.probes = g.gate.probes();
  out.flips = g.gate.flips();
  return out;
}

}  // namespace srpc::predict
