// Small online-rate estimators shared by the prediction subsystem and the
// benchmark harness.
//
// Ewma: exponentially weighted moving average over a stream of samples —
// the estimator behind per-method prediction hit-rates (recent behaviour
// dominates, old history decays geometrically). WindowedMean: exact mean
// over the last `window` samples (a ring buffer), used where a bounded,
// fully-forgetting estimate is wanted (misspeculation-storm detection must
// not be diluted by a long correct history). Over 0/1 samples it is an
// exact hit fraction: every partial sum is a small integer, so no rounding.
//
// Neither class locks; owners that share instances across threads guard
// them externally (see predict::AccuracyTracker).
#pragma once

#include <cstdint>
#include <vector>

namespace srpc::stats {

class Ewma {
 public:
  /// `alpha` is the weight of each new sample, in (0, 1]. The first sample
  /// initializes the average exactly (no bias toward a zero prior).
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}

  void observe(double sample) {
    if (count_ == 0) {
      value_ = sample;
    } else {
      value_ += alpha_ * (sample - value_);
    }
    ++count_;
  }

  /// Current average; `fallback` when no sample has been observed yet.
  double value(double fallback = 0.0) const {
    return count_ > 0 ? value_ : fallback;
  }
  std::uint64_t count() const { return count_; }

 private:
  double alpha_;
  double value_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Exact mean over the last `window` samples (ring buffer) — the
/// fully-forgetting counterpart of Ewma: a hit-rate storm or a conflict
/// spike shows at full strength even after a long calm history.
class WindowedMean {
 public:
  explicit WindowedMean(std::size_t window = 16)
      : slots_(window > 0 ? window : 1, 0.0) {}

  void observe(double sample) {
    if (filled_ == slots_.size()) {
      sum_ -= slots_[next_];
    } else {
      ++filled_;
    }
    slots_[next_] = sample;
    sum_ += sample;
    next_ = (next_ + 1) % slots_.size();
    ++total_;
  }

  /// Mean over the retained window; `fallback` when empty.
  double mean(double fallback = 0.0) const {
    return filled_ > 0 ? sum_ / static_cast<double>(filled_) : fallback;
  }
  std::size_t occupied() const { return filled_; }
  std::uint64_t total() const { return total_; }

 private:
  std::vector<double> slots_;
  std::size_t filled_ = 0;
  std::size_t next_ = 0;
  double sum_ = 0.0;
  std::uint64_t total_ = 0;
};

}  // namespace srpc::stats
