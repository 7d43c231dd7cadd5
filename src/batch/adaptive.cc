#include "batch/adaptive.h"

#include <algorithm>
#include <cmath>

namespace srpc::batch {

namespace {

int mode_index(BatchMode mode) { return static_cast<int>(mode); }

double to_ms(Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

AdaptiveBatchStats& AdaptiveBatchStats::operator+=(
    const AdaptiveBatchStats& other) {
  epochs += other.epochs;
  for (int m = 0; m < 3; ++m) mode_epochs[m] += other.mode_epochs[m];
  mode_flips += other.mode_flips;
  probes += other.probes;
  grows += other.grows;
  shrinks += other.shrinks;
  accuracy_epochs += other.accuracy_epochs;
  // Gauges aggregate as "a representative controller": the busiest one wins
  // (summing a size or a rate across clients would mean nothing).
  if (other.epochs > 0) {
    epoch_size = other.epoch_size;
    mode = other.mode;
    conflict_ewma = other.conflict_ewma;
    conflict_windowed = other.conflict_windowed;
    accuracy_ewma = other.accuracy_ewma;
    accuracy_windowed = other.accuracy_windowed;
    read_latency_ms_ewma = other.read_latency_ms_ewma;
  }
  return *this;
}

AdaptiveBatchController::AdaptiveBatchController(AdaptiveBatchConfig config)
    : config_(config),
      band_(opt::break_even_band(config.misspec_cost, config.hysteresis)),
      // The initial mode seeds the gates; they move once signals warm up.
      conflict_gate_(1, config.release_streak, 0,
                     config.initial_mode == BatchMode::kPerTxn2pc ? 1 : 0),
      spec_gate_(1, config.release_streak, 0,
                 config.allow_speculative &&
                         config.initial_mode == BatchMode::kSpeculative
                     ? 0
                     : 1),
      probe_{config.probe_every},
      conflict_ewma_(config.ewma_alpha),
      conflict_win_(config.window),
      accuracy_ewma_(config.ewma_alpha),
      accuracy_win_(config.window),
      latency_ewma_(config.ewma_alpha),
      latency_win_(config.window) {
  config_.max_epoch = std::max(config_.max_epoch, config_.min_epoch);
  epoch_size_ = std::clamp(config_.initial_epoch, config_.min_epoch,
                           config_.max_epoch);
}

BatchMode AdaptiveBatchController::steady_mode() const {
  if (conflict_gate_.engaged()) return BatchMode::kPerTxn2pc;
  return spec_gate_.engaged() ? BatchMode::kGroupCommit
                              : BatchMode::kSpeculative;
}

std::size_t AdaptiveBatchController::clamp_size(double size) const {
  const auto rounded = static_cast<std::size_t>(std::llround(size));
  return std::clamp(rounded, config_.min_epoch, config_.max_epoch);
}

BatchDecision AdaptiveBatchController::next() {
  std::lock_guard<std::mutex> lock(mu_);
  BatchDecision decision;
  decision.epoch_size = epoch_size_;
  decision.mode = steady_mode();

  // Probe the suppressed next-more-aggressive mode so its signals stay
  // live: group commit while the per-txn gate is engaged (does conflict
  // still bite batched epochs?), speculative while the accuracy gate is
  // closed (group epochs prime no seeds, so accuracy can only recover
  // through a probe).
  const bool suppressing =
      conflict_gate_.engaged() ||
      (spec_gate_.engaged() && config_.allow_speculative);
  if (suppressing && stats_.epochs >= config_.min_samples) {
    if (probe_.tick()) {
      decision.mode = conflict_gate_.engaged() ? BatchMode::kGroupCommit
                                               : BatchMode::kSpeculative;
      decision.probe = true;
    }
  } else {
    probe_.since = 0;
  }
  return decision;
}

void AdaptiveBatchController::observe(const EpochFeedback& feedback) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.epochs++;
  stats_.mode_epochs[mode_index(feedback.mode)]++;
  if (feedback.probe) stats_.probes++;

  // Conflict: closure aborts count twice — once as aborts, once as
  // evidence that coupling transactions into a batch amplified them. Only
  // batched epochs carry the signal: per-txn 2PC serializes the stream, so
  // its abort counts say nothing about batch amplification, and feeding its
  // near-zero rates here would release the gate blindly.
  const bool batched = feedback.mode != BatchMode::kPerTxn2pc;
  const bool saw_conflict = batched && feedback.txns > 0;
  if (saw_conflict) {
    const double epoch_conflict =
        static_cast<double>(feedback.aborted + feedback.dep_aborts) /
        static_cast<double>(feedback.txns);
    conflict_ewma_.observe(epoch_conflict);
    conflict_win_.observe(epoch_conflict);
    conflict_gate_.record(epoch_conflict <= config_.conflict_lo);
  }
  if (feedback.seed_checked > 0) {
    const double accuracy = static_cast<double>(feedback.seed_correct) /
                            static_cast<double>(feedback.seed_checked);
    accuracy_ewma_.observe(accuracy);
    accuracy_win_.observe(accuracy);
    stats_.accuracy_epochs++;
    spec_gate_.record(accuracy >= band_.on);
  }
  if (feedback.wire_reads > 0) {
    const double ms_per_read =
        to_ms(feedback.read_phase) / static_cast<double>(feedback.wire_reads);
    latency_ewma_.observe(ms_per_read);
    latency_win_.observe(ms_per_read);
  }

  if (stats_.epochs < config_.min_samples) return;  // still warming up

  const BatchMode before = steady_mode();

  // Per-txn gate: the windowed signal (fully forgetting) engages it at full
  // strength; release takes `release_streak` consecutive calm batched
  // observations — while engaged, only probe epochs can supply them, so the
  // gate stays put until probes prove the storm is over.
  if (!conflict_gate_.engaged() &&
      conflict_win_.mean() >= config_.conflict_hi) {
    conflict_gate_.raise();
  } else {
    conflict_gate_.settle();
  }

  // Speculation gate around the optmodel break-even (speculative mode only
  // pays above it): closes on the windowed mean like the per-call accuracy
  // gate, reopens on a streak of accurate probes.
  if (config_.allow_speculative &&
      stats_.accuracy_epochs >= config_.min_samples) {
    if (!spec_gate_.engaged() && accuracy_win_.mean() < band_.off) {
      spec_gate_.raise();
    } else {
      spec_gate_.settle();
    }
  }
  if (steady_mode() != before) stats_.mode_flips++;

  // ---- Epoch size ----
  const auto reflex_shrink = [this] {
    const std::size_t next =
        clamp_size(static_cast<double>(epoch_size_) * config_.shrink_factor);
    if (next < epoch_size_) {
      epoch_size_ = next;
      stats_.shrinks++;
    }
    // Restart the climber: the regime changed, so the old goodput baseline
    // compares apples to oranges.
    goodput_base_ = 0;
    hold_count_ = 0;
    window_committed_ = 0;
    window_time_ms_ = 0;
    climb_dir_ = 1;
  };

  // Reflexes first: one cut when the windowed conflict signal crosses
  // shrink_above from below (a regime shift, not every hot epoch), a cut
  // every epoch the admission ladder sheds.
  bool reflexed = false;
  if (saw_conflict) {
    const bool hot = conflict_win_.mean() >= config_.shrink_above;
    if (hot && !conflict_regime_) {
      reflex_shrink();
      reflexed = true;
    }
    conflict_regime_ = hot;
  }
  if (feedback.pressure_level > 0) {
    reflex_shrink();
    reflexed = true;
  }

  // Goodput hill climber: hold the size for hold_epochs batched non-probe
  // epochs, then flip the climbing direction when the window's goodput
  // falls a deadband below the EWMA baseline (keep it otherwise), and take
  // one multiplicative step. The congestion brake and pressure withhold
  // growth steps. Per-txn epochs are excluded: their goodput barely moves
  // with size, so climbing on them is a random walk — the size freezes at
  // the last batched optimum until the gate releases.
  if (!reflexed && !feedback.probe && batched && feedback.txns > 0) {
    window_committed_ += static_cast<double>(feedback.committed);
    window_time_ms_ += to_ms(feedback.epoch_time);
    if (++hold_count_ >= config_.hold_epochs && window_time_ms_ > 0) {
      const double goodput = window_committed_ / window_time_ms_;
      if (goodput_base_ > 0 &&
          goodput < goodput_base_ * (1.0 - config_.climb_deadband)) {
        climb_dir_ = -climb_dir_;
      }
      goodput_base_ = goodput_base_ > 0
                          ? (1.0 - config_.ewma_alpha) * goodput_base_ +
                                config_.ewma_alpha * goodput
                          : goodput;
      hold_count_ = 0;
      window_committed_ = 0;
      window_time_ms_ = 0;

      const bool congested =
          latency_win_.occupied() > 0 &&
          latency_win_.mean() >
              config_.latency_brake * latency_ewma_.value(latency_win_.mean());
      const bool grow_blocked = congested || feedback.pressure_level > 0;
      if (climb_dir_ > 0 && !grow_blocked) {
        const std::size_t next = clamp_size(std::max(
            static_cast<double>(epoch_size_ + 1),
            static_cast<double>(epoch_size_) * config_.grow_factor));
        if (next > epoch_size_) {
          epoch_size_ = next;
          stats_.grows++;
        } else {
          climb_dir_ = -1;  // bounced off max_epoch
        }
      } else if (climb_dir_ < 0) {
        const std::size_t next = clamp_size(std::min(
            static_cast<double>(epoch_size_) - 1,
            static_cast<double>(epoch_size_) / config_.grow_factor));
        if (next < epoch_size_) {
          epoch_size_ = next;
          stats_.shrinks++;
        } else {
          climb_dir_ = 1;  // bounced off min_epoch
        }
      }
    }
  }
}

AdaptiveBatchStats AdaptiveBatchController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdaptiveBatchStats out = stats_;
  out.epoch_size = epoch_size_;
  out.mode = steady_mode();
  out.conflict_ewma = conflict_ewma_.value();
  out.conflict_windowed = conflict_win_.mean();
  out.accuracy_ewma = accuracy_ewma_.value();
  out.accuracy_windowed = accuracy_win_.mean();
  out.read_latency_ms_ewma = latency_ewma_.value();
  return out;
}

}  // namespace srpc::batch
