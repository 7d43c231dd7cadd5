// AdaptiveSpeculationController — per-call speculate / don't-speculate
// decisions from observed accuracy + the optmodel cost model (DESIGN.md
// §8.3).
//
// The paper's §4 optimizer picks hand-off times offline from a known
// prediction-rate curve; this controller closes the same cost/benefit loop
// online. Speculating one call at accuracy p saves ~p*T of chain latency
// and wastes (1-p)*misspec_cost*T of work (opt::speculation_benefit), so
// speculation pays iff p exceeds the break-even accuracy
// opt::break_even_accuracy(misspec_cost). Around that threshold sits a
// hysteresis band: the gate turns OFF when the *windowed* hit-rate (which
// fully forgets old history — a misspeculation storm shows at full
// strength) drops below `break_even - hysteresis`, and back ON only when
// both estimators clear `break_even + hysteresis`. Without the band, a
// method hovering at the threshold would thrash between modes every few
// calls; with it, storms throttle speculation and stay throttled until the
// predictor demonstrably recovers.
//
// Each method's gate is a stats::HysteresisGate with one level (engaged =
// speculation off) and a release streak of one reading. While a method's
// gate is off, every `probe_every`-th call is still allowed to speculate.
// Combined with the engine's shadow feedback (predictions_made == 0 calls
// still report to the observer), this keeps the accuracy estimate live so
// the gate can re-open.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "optmodel/model.h"
#include "predict/accuracy.h"
#include "stats/hysteresis.h"

namespace srpc::predict {

struct AdaptiveConfig {
  /// Relative cost of one incorrect speculation, in units of one call time
  /// (wasted callback work + wrong-branch RPC load). 1.0 puts break-even at
  /// 50% accuracy.
  double misspec_cost = 1.0;
  /// Half-width of the hysteresis band around the break-even accuracy.
  double hysteresis = 0.15;
  /// Trust the estimators only after this many issued-prediction samples;
  /// until then the gate stays in its initial (open) state.
  std::uint64_t min_samples = 8;
  /// While off, let every Nth call speculate anyway (0 disables probing).
  std::uint64_t probe_every = 16;
};

class AdaptiveSpeculationController {
 public:
  /// `tracker` must outlive the controller (SpeculationManager owns both).
  AdaptiveSpeculationController(const AccuracyTracker& tracker,
                                AdaptiveConfig config = {});

  /// The per-call decision. Not const: advances probe counters and may flip
  /// the gate. Thread-safe.
  bool should_speculate(const std::string& method);

  /// Current gate state (true = speculating) without advancing anything.
  bool gate_open(const std::string& method) const;

  /// The accuracy below/above which the gate closes/opens.
  double off_threshold() const { return band_.off; }
  double on_threshold() const { return band_.on; }

  struct MethodDecisionStats {
    std::string method;
    bool open = true;
    std::uint64_t allowed = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t probes = 0;  // allowed while the gate was closed
    std::uint64_t flips = 0;   // gate transitions (both directions)
  };
  MethodDecisionStats stats(const std::string& method) const;

  const AdaptiveConfig& config() const { return config_; }

 private:
  struct Gate {
    explicit Gate(std::uint64_t probe_every) : gate(1, 1, probe_every) {}
    stats::HysteresisGate gate;  // engaged = speculation off
    std::uint64_t allowed = 0;
    std::uint64_t suppressed = 0;
  };

  const AccuracyTracker& tracker_;
  AdaptiveConfig config_;
  opt::AccuracyBand band_;  // clamped to [0, 1]
  mutable std::mutex mu_;
  std::unordered_map<std::string, Gate> gates_;
};

}  // namespace srpc::predict
