// AdaptiveBatchController — online, per-client selection of the next batch
// epoch's size and commit mode (DESIGN.md §14).
//
// PR 7's batch subsystem fixes both dials for a whole run: every epoch has
// `txns_per_epoch` transactions and every client commits through one
// BatchMode. The optimal point moves with the workload — high cross-client
// conflict favours small epochs and per-transaction 2PC (coupling
// transactions into one batch round amplifies aborts through the
// dependency closure), while accurate queue-order seeds favour deep
// speculative queues with group commit (the queue pipelines to ~one RTT).
// This controller closes that loop online from signals the subsystem
// already produces, in the style of predict::AdaptiveSpeculationController:
//
//   * conflict   — per-epoch abort rate, with dependency-closure aborts
//                  counted a second time (a closure abort is an abort AND
//                  evidence that batching itself amplified it);
//   * accuracy   — queue-seed prediction accuracy, measured exactly by the
//                  QueueSeedPredictor (primed value vs validated actual);
//   * latency    — mean wire-read latency per epoch (congestion brake);
//   * pressure   — the admission ladder's level (DESIGN.md §11), so epochs
//                  stop growing while the cluster is shedding load.
//
// Two sticky gates with hysteresis pick the mode (each a one-level
// stats::HysteresisGate; they share one probe cadence):
//
//   per-txn gate     engages when the windowed conflict signal crosses
//                    `conflict_hi`; releases after `release_streak`
//                    consecutive calm batched observations (<=
//                    `conflict_lo`). Conflict is only observable on
//                    batched epochs — per-txn 2PC serializes the stream, so
//                    its own abort counts say nothing about batch
//                    amplification — which means the releasing evidence
//                    comes from probe epochs while the gate is engaged.
//   speculation gate closes when windowed seed accuracy falls below the
//                    optmodel break-even minus `hysteresis`; reopens after
//                    `release_streak` consecutive accuracy observations
//                    above break-even plus `hysteresis` (speculative mode
//                    only pays above the misspeculation break-even
//                    accuracy, opt::break_even_accuracy).
//
//   mode = per-txn gate engaged ? kPerTxn2pc
//        : speculation gate open ? kSpeculative : kGroupCommit
//
// While a gate suppresses a mode, every `probe_every`-th epoch runs in the
// suppressed (next-more-aggressive) mode so its signals stay live and the
// gate can release — group-commit epochs prime no seeds, so without probes
// seed accuracy could never recover, and per-txn epochs carry no batch
// conflict signal at all.
//
// Epoch size follows measured epoch goodput (committed transactions per
// second of epoch wall time) with a hold-and-compare hill climber: hold the
// current size for `hold_epochs` epochs, compare the window's goodput to
// the previous window's, keep the climbing direction if it improved and
// flip it if it regressed, then take one multiplicative step (x/÷
// `grow_factor`), bouncing off the [min_epoch, max_epoch] rails. No fixed
// conflict->smaller-epochs rule survives contact with this system: commit
// rounds amortize with depth while aborted transactions are cheap, so the
// goodput-optimal size under conflict can be LARGER than in calm phases —
// the climber finds whatever the workload rewards. Conflict and pressure
// stay in the loop as fast reflexes: when the windowed conflict signal
// first crosses `shrink_above` (a regime shift, not every hot epoch) the
// size takes one immediate `shrink_factor` cut and the climber restarts
// its baseline; admission pressure does the same every epoch it sheds, and
// growth is withheld while wire reads run slower than their long-run norm
// (`latency_brake`) or pressure is nonzero.
//
// Default bands: BENCH_batch.json shows batched commit dominating per-txn
// 2PC even at high abort rates in this system (aborted work is cheap; the
// batch still pipelines), so `conflict_hi` defaults near the top of the
// closure-weighted scale — the per-txn gate is a catastrophic-conflict
// escape hatch. Likewise `misspec_cost` defaults well under 1: a failed
// seed costs roughly a redundant read re-execution, not a lost call chain.
#pragma once

#include <cstdint>
#include <mutex>

#include "batch/types.h"
#include "common/types.h"
#include "optmodel/model.h"
#include "stats/ewma.h"
#include "stats/hysteresis.h"

namespace srpc::batch {

struct AdaptiveBatchConfig {
  std::size_t min_epoch = 4;
  std::size_t max_epoch = 64;
  std::size_t initial_epoch = 16;  // clamped into [min_epoch, max_epoch]
  /// Mode used until `min_samples` epochs of signal exist.
  BatchMode initial_mode = BatchMode::kSpeculative;
  /// False on clusters without a SpecRPC engine: the speculative mode is
  /// never chosen (nor probed), leaving the per-txn/group axis only.
  bool allow_speculative = true;

  /// Mode-gate conflict band on the closure-weighted scale [0, 2]:
  /// (aborted + dep_aborts) / txns, observed on batched epochs only.
  /// Windowed mean >= hi engages the per-txn gate; `release_streak`
  /// consecutive observations <= lo release it.
  double conflict_hi = 1.3;
  double conflict_lo = 0.5;

  /// Size reflex: the windowed conflict signal crossing this from below
  /// (a regime shift) takes one immediate `shrink_factor` cut and restarts
  /// the goodput climber's baseline.
  double shrink_above = 0.35;

  /// Relative cost of one misspeculated queue position, in units of one
  /// call time — opt::break_even_accuracy(misspec_cost) centres the
  /// speculation gate's band (0.25 -> 20% accuracy).
  double misspec_cost = 0.25;
  /// Half-width of the hysteresis band around the break-even accuracy.
  double hysteresis = 0.10;

  /// EWMA weight / window (in epochs) of every signal estimator.
  double ewma_alpha = 0.3;
  std::size_t window = 8;
  /// Trust the estimators only after this many observed epochs; until then
  /// the controller stays at (initial_epoch, initial_mode).
  std::uint64_t min_samples = 3;
  /// While a gate suppresses a mode, probe it every Nth epoch (0 disables —
  /// a closed gate then never reopens).
  std::uint64_t probe_every = 6;
  /// Consecutive favourable observations needed to release a gate (calm
  /// batched epochs for per-txn, accurate seeded epochs for speculation).
  std::uint64_t release_streak = 3;

  /// Goodput climber: epochs to hold a size before comparing goodput and
  /// stepping (probe and per-txn epochs don't count — their mode skews the
  /// window, and per-txn goodput is size-insensitive).
  std::uint64_t hold_epochs = 4;
  /// Flip the climbing direction only when a window's goodput falls this
  /// fraction below the EWMA baseline — a deadband so per-window noise
  /// doesn't random-walk the size on shallow gradients.
  double climb_deadband = 0.03;
  /// Climber step up (x grow_factor) and down (÷ grow_factor);
  /// shrink_factor is the reflex cut on a conflict regime shift / shedding.
  double grow_factor = 1.3;
  double shrink_factor = 0.5;
  /// Congestion brake: no growth while the windowed wire-read latency
  /// exceeds this multiple of the long-run EWMA.
  double latency_brake = 1.5;
};

/// What one finished epoch tells the controller. `seed_checked/correct`
/// and `predictions_*` are per-epoch deltas, not cumulative counters.
struct EpochFeedback {
  BatchMode mode = BatchMode::kSpeculative;
  bool probe = false;
  std::size_t txns = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t dep_aborts = 0;   // aborted only through the closure
  std::size_t wire_reads = 0;
  Duration read_phase{};        // wall time resolving the wire reads
  Duration epoch_time{};        // wall time of the whole epoch (goodput)
  std::uint64_t seed_checked = 0;  // primed positions validated this epoch
  std::uint64_t seed_correct = 0;
  int pressure_level = 0;  // admission ladder (0 = open); caps growth
};

/// The controller's pick for the upcoming epoch.
struct BatchDecision {
  std::size_t epoch_size = 0;
  BatchMode mode = BatchMode::kSpeculative;
  bool probe = false;  // this epoch runs a suppressed mode to refresh signals
};

/// Cumulative controller counters plus a signal snapshot (RESULT lines and
/// the adaptive bench's JSON read these).
struct AdaptiveBatchStats {
  std::uint64_t epochs = 0;
  std::uint64_t mode_epochs[3] = {0, 0, 0};  // indexed by BatchMode
  std::uint64_t mode_flips = 0;              // steady-mode transitions
  std::uint64_t probes = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t accuracy_epochs = 0;  // epochs that carried seed samples
  std::size_t epoch_size = 0;       // current pick
  BatchMode mode = BatchMode::kSpeculative;  // current steady mode
  double conflict_ewma = 0;
  double conflict_windowed = 0;
  double accuracy_ewma = 0;
  double accuracy_windowed = 0;
  double read_latency_ms_ewma = 0;

  AdaptiveBatchStats& operator+=(const AdaptiveBatchStats& other);
};

class AdaptiveBatchController {
 public:
  explicit AdaptiveBatchController(AdaptiveBatchConfig config = {});

  /// The decision for the upcoming epoch. Advances the probe counter, so
  /// call exactly once per epoch (BatchClient caches it per run_epoch).
  BatchDecision next();

  /// Feeds one finished epoch back. Thread-safe against next(), though the
  /// normal cadence is strictly alternating from one client thread.
  void observe(const EpochFeedback& feedback);

  AdaptiveBatchStats stats() const;
  const AdaptiveBatchConfig& config() const { return config_; }

  /// Accuracy below/above which the speculation gate closes/reopens.
  double accuracy_off_threshold() const { return band_.off; }
  double accuracy_on_threshold() const { return band_.on; }

 private:
  std::size_t clamp_size(double size) const;
  BatchMode steady_mode() const;

  AdaptiveBatchConfig config_;
  opt::AccuracyBand band_;

  mutable std::mutex mu_;
  // Gates (sticky; see file comment for the bands). Their release streaks
  // bank every reading, warm-up included; the gates move only once the
  // estimators are trusted. One probe cadence runs while either suppresses.
  stats::HysteresisGate conflict_gate_;  // the per-txn gate: engaged = 2PC
  stats::HysteresisGate spec_gate_;      // engaged = speculation closed
  stats::ProbeCadence probe_;
  std::size_t epoch_size_;

  // Signal estimators (guarded by mu_).
  stats::Ewma conflict_ewma_;
  stats::WindowedMean conflict_win_;
  stats::Ewma accuracy_ewma_;
  stats::WindowedMean accuracy_win_;
  stats::Ewma latency_ewma_;   // ms per wire read, long-run
  stats::WindowedMean latency_win_;
  // Goodput hill climber (see file comment).
  int climb_dir_ = 1;
  std::uint64_t hold_count_ = 0;
  double window_committed_ = 0;
  double window_time_ms_ = 0;
  double goodput_base_ = 0;  // EWMA baseline; 0 = climber just reset
  bool conflict_regime_ = false;  // windowed signal above shrink_above?

  AdaptiveBatchStats stats_;
};

}  // namespace srpc::batch
