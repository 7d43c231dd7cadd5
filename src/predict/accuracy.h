// AccuracyTracker — per-method online prediction-accuracy measurement
// (DESIGN.md §8.3).
//
// Fed from the engine's prediction-validation feedback (the
// SpecConfig::prediction_observer hook; SpeculationManager wires it): every
// speculation-capable call reports whether a prediction was supplied and
// whether it matched the actual result. Two estimators run side by side:
//
//   * an EWMA hit-rate (stats::Ewma) — the controller's primary signal;
//     recent behaviour dominates so accuracy shifts are tracked quickly,
//   * an exact windowed rate over the last `window` outcomes
//     (stats::WindowedMean over 0/1 samples) — fully forgets old history,
//     so a misspeculation storm is visible at full strength even after a
//     long correct prefix.
//
// Calls for which the predictor supplied nothing can be recorded as
// "shadow" outcomes (predicted=false): they count samples (the predictor
// had its chance and declined) without polluting the hit-rate of actually
// issued predictions — see record()'s contract below.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/ewma.h"

namespace srpc::predict {

struct AccuracyConfig {
  double ewma_alpha = 0.2;
  std::size_t window = 64;
};

/// One method's accuracy snapshot.
struct MethodAccuracy {
  std::string method;
  double ewma_hit_rate = 0.0;      // over issued predictions
  double windowed_hit_rate = 0.0;  // over the last `window` issued predictions
  std::uint64_t predictions = 0;   // outcomes with predicted=true
  std::uint64_t hits = 0;
  std::uint64_t no_prediction = 0;  // outcomes with predicted=false
};

class AccuracyTracker {
 public:
  explicit AccuracyTracker(AccuracyConfig config = {}) : config_(config) {}

  /// Records one validated call. `predicted` — a prediction was issued (or
  /// would have been, for shadow evaluation); `correct` — it matched the
  /// actual result. predicted=false outcomes only bump the no-prediction
  /// counter: the hit-rate estimators measure the quality of predictions
  /// the predictor actually stands behind.
  void record(const std::string& method, bool predicted, bool correct) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entry(method);
    if (!predicted) {
      e.no_prediction++;
      return;
    }
    e.predictions++;
    e.hits += correct ? 1 : 0;
    e.ewma.observe(correct ? 1.0 : 0.0);
    e.window.observe(correct ? 1.0 : 0.0);
  }

  /// EWMA hit-rate for `method`; `fallback` when it has no samples yet.
  double hit_rate(const std::string& method, double fallback = 0.0) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(method);
    return it != entries_.end() ? it->second.ewma.value(fallback) : fallback;
  }

  /// Exact hit-rate over the last `window` issued predictions.
  double windowed_hit_rate(const std::string& method,
                           double fallback = 0.0) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(method);
    return it != entries_.end() ? it->second.window.mean(fallback) : fallback;
  }

  /// Number of issued-prediction outcomes recorded for `method`.
  std::uint64_t samples(const std::string& method) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(method);
    return it != entries_.end() ? it->second.predictions : 0;
  }

  MethodAccuracy snapshot(const std::string& method) const {
    std::lock_guard<std::mutex> lock(mu_);
    MethodAccuracy out;
    out.method = method;
    auto it = entries_.find(method);
    if (it == entries_.end()) return out;
    fill(out, it->second);
    return out;
  }

  std::vector<MethodAccuracy> snapshot_all() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MethodAccuracy> out;
    out.reserve(entries_.size());
    for (const auto& [method, e] : entries_) {
      MethodAccuracy m;
      m.method = method;
      fill(m, e);
      out.push_back(std::move(m));
    }
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  struct Entry {
    explicit Entry(const AccuracyConfig& c)
        : ewma(c.ewma_alpha), window(c.window) {}
    stats::Ewma ewma;
    stats::WindowedMean window;
    std::uint64_t predictions = 0;
    std::uint64_t hits = 0;
    std::uint64_t no_prediction = 0;
  };

  Entry& entry(const std::string& method) {
    auto it = entries_.find(method);
    if (it == entries_.end()) {
      it = entries_.emplace(method, Entry(config_)).first;
    }
    return it->second;
  }

  static void fill(MethodAccuracy& out, const Entry& e) {
    out.ewma_hit_rate = e.ewma.value();
    out.windowed_hit_rate = e.window.mean();
    out.predictions = e.predictions;
    out.hits = e.hits;
    out.no_prediction = e.no_prediction;
  }

  AccuracyConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace srpc::predict
