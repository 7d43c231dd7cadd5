// Decision replays for the three adaptive controllers (DESIGN.md §8.3,
// §11.3, §14.2): each test drives one controller for at least 10,000 seeded
// steps through signal regimes that flip its gates many times, and folds
// every decision plus the final counters into an FNV-1a digest. The
// expected digests were captured from the controllers as they stood before
// their gates moved onto stats::HysteresisGate, so any change in how a gate
// trips, holds, probes or reopens — or in the thresholds around it — shows
// up as a digest mismatch here.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/adaptive.h"
#include "common/rng.h"
#include "predict/accuracy.h"
#include "predict/admission.h"
#include "predict/controller.h"

namespace srpc {
namespace {

constexpr int kSteps = 12'000;
constexpr std::uint64_t kMinFlips = 50;

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Replay {
  std::uint64_t digest = 0;
  std::uint64_t flips = 0;
};

// ------------------------------------------------ adaptive speculation gate

Replay replay_speculation(const predict::AdaptiveConfig& config,
                          std::uint64_t seed) {
  predict::AccuracyTracker tracker;
  predict::AdaptiveSpeculationController ctl(tracker, config);
  Rng rng(seed);
  const std::vector<std::string> methods = {"a", "b", "c"};
  // Per-method hit probability; regimes straddle the break-even band.
  const double regimes[] = {0.95, 0.05, 0.5, 0.75, 0.3};
  std::vector<double> accuracy(methods.size(), 0.95);
  Digest digest;
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t m = rng.uniform(methods.size());
    if (rng.uniform(25) == 0) accuracy[m] = regimes[rng.uniform(5)];
    digest.add(ctl.should_speculate(methods[m]));
    digest.add(ctl.gate_open(methods[m]));
    const bool predicted = rng.uniform(10) != 0;
    tracker.record(methods[m], predicted, rng.uniform01() < accuracy[m]);
  }
  Replay out;
  for (const auto& method : methods) {
    const auto s = ctl.stats(method);
    digest.add(s.open);
    digest.add(s.allowed);
    digest.add(s.suppressed);
    digest.add(s.probes);
    digest.add(s.flips);
    out.flips += s.flips;
  }
  digest.add(ctl.off_threshold());
  digest.add(ctl.on_threshold());
  out.digest = digest.value();
  return out;
}

TEST(ControllerReplay, SpeculationGateDefaults) {
  const Replay r = replay_speculation(predict::AdaptiveConfig{}, 11);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x7f2b7f61fcc9dbdaULL);
}

TEST(ControllerReplay, SpeculationGateFast) {
  predict::AdaptiveConfig config;
  config.min_samples = 4;
  config.probe_every = 2;
  const Replay r = replay_speculation(config, 12);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x008e0712ff6ed7d9ULL);
}

TEST(ControllerReplay, SpeculationGateWideBandClamps) {
  // A band wider than [0, 1]: both thresholds clamp.
  predict::AdaptiveConfig config;
  config.misspec_cost = 3.0;
  config.hysteresis = 0.3;
  config.probe_every = 5;
  const Replay r = replay_speculation(config, 13);
  EXPECT_EQ(r.digest, 0x19852304e65b2457ULL);
}

// ------------------------------------------------------- admission ladder

Replay replay_admission(predict::AdmissionConfig config, std::uint64_t seed) {
  // Only tick() polls, so the ladder moves on the replay's clock alone.
  config.poll_interval = std::chrono::hours(1);
  predict::AccuracyTracker tracker;
  predict::AdmissionController ctl(config, &tracker);
  Rng rng(seed);
  predict::PressureSample sample;
  ctl.add_source([&sample] { return sample; });
  const std::vector<std::pair<std::string, spec::QosPriority>> methods = {
      {"crit", spec::QosPriority::kCritical},
      {"norm", spec::QosPriority::kNormal},
      {"be", spec::QosPriority::kBestEffort},
      {"drift-crit", spec::QosPriority::kCritical},
      {"drift-norm", spec::QosPriority::kNormal},
  };
  for (const auto& [name, priority] : methods) {
    ctl.set_method_priority(name, priority);
  }
  for (int i = 0; i < 32; ++i) {
    tracker.record("crit", true, true);
    tracker.record("norm", true, true);
  }
  ctl.tick();  // baseline the poll clock

  enum Regime { kHot, kBand, kCalm };
  Regime regime = kCalm;
  double drift_accuracy = 0.9;
  Digest digest;
  for (int step = 0; step < kSteps; ++step) {
    if (rng.uniform(8) == 0) regime = static_cast<Regime>(rng.uniform(3));
    if (rng.uniform(200) == 0) drift_accuracy = rng.uniform01();
    switch (regime) {
      case kHot:
        sample.queue_depth = config.queue_hi / 2 + rng.uniform(config.queue_hi);
        sample.outbuf_occupancy = rng.uniform01();
        sample.sheds += rng.uniform(3);
        break;
      case kBand:
        sample.queue_depth =
            config.queue_lo + 1 + rng.uniform(config.queue_hi - config.queue_lo - 1);
        sample.outbuf_occupancy = config.outbuf_lo * rng.uniform01();
        break;
      case kCalm:
        sample.queue_depth = rng.uniform(config.queue_lo + 1);
        sample.outbuf_occupancy = config.outbuf_lo * rng.uniform01();
        break;
    }
    // A transport restart now and then: the cumulative counter goes back.
    if (rng.uniform(500) == 0) sample.sheds = 0;
    digest.add(static_cast<std::uint64_t>(ctl.tick()));
    for (const auto& [name, _] : methods) digest.add(ctl.admit(name));
    tracker.record("drift-crit", true, rng.uniform01() < drift_accuracy);
    tracker.record("drift-norm", true, rng.uniform01() < drift_accuracy);
  }
  const auto s = ctl.stats();
  digest.add(static_cast<std::uint64_t>(s.level));
  digest.add(s.admitted);
  digest.add(s.shed);
  digest.add(s.demotions);
  digest.add(s.polls);
  digest.add(s.escalations);
  digest.add(s.deescalations);
  digest.add(s.shed_delta_last);
  return {digest.value(), s.escalations + s.deescalations};
}

TEST(ControllerReplay, AdmissionLadderDefaults) {
  const Replay r = replay_admission(predict::AdmissionConfig{}, 21);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x3abe01408b60bae2ULL);
}

TEST(ControllerReplay, AdmissionLadderFast) {
  predict::AdmissionConfig config;
  config.queue_hi = 100;
  config.queue_lo = 10;
  config.calm_polls_to_step_down = 1;
  const Replay r = replay_admission(config, 22);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0xb6532c3a0faffcf3ULL);
}

TEST(ControllerReplay, AdmissionLadderNonPositiveStreak) {
  // calm_polls_to_step_down <= 0 steps down on every calm poll.
  predict::AdmissionConfig config;
  config.calm_polls_to_step_down = -1;
  const Replay r = replay_admission(config, 23);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x418f6995d6197e5cULL);
}

// ------------------------------------------------------- adaptive batching

Duration ms(double v) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::milli>(v));
}

Replay replay_batch(const batch::AdaptiveBatchConfig& config,
                    std::uint64_t seed) {
  batch::AdaptiveBatchController ctl(config);
  Rng rng(seed);
  // Abort fraction and closure share per conflict regime: calm, mid-band,
  // and two storms on the closure-weighted [0, 2] scale.
  const double abort_frac[] = {0.02, 0.3, 0.8, 0.95};
  const double closure_frac[] = {0.0, 0.3, 0.6, 0.9};
  const double seed_accuracy[] = {0.9, 0.02, 0.25, 0.6};
  const double read_ms[] = {0.5, 0.5, 1.0, 2.5};
  std::size_t conflict = 0;
  std::size_t accuracy = 0;
  std::size_t latency = 0;
  Digest digest;
  for (int step = 0; step < kSteps; ++step) {
    if (rng.uniform(25) == 0) conflict = rng.uniform(4);
    if (rng.uniform(25) == 0) accuracy = rng.uniform(4);
    if (rng.uniform(60) == 0) latency = rng.uniform(4);
    const batch::BatchDecision d = ctl.next();
    digest.add(static_cast<std::uint64_t>(d.epoch_size));
    digest.add(static_cast<std::uint64_t>(d.mode));
    digest.add(d.probe);

    batch::EpochFeedback f;
    f.mode = d.mode;
    f.probe = d.probe;
    f.txns = d.epoch_size;
    const bool per_txn = d.mode == batch::BatchMode::kPerTxn2pc;
    const double frac = per_txn ? abort_frac[conflict] / 4 : abort_frac[conflict];
    for (std::size_t t = 0; t < f.txns; ++t) {
      if (rng.uniform01() < frac) f.aborted++;
    }
    if (!per_txn) {
      f.dep_aborts = static_cast<std::size_t>(
          std::llround(static_cast<double>(f.aborted) * closure_frac[conflict]));
    }
    f.committed = f.txns - f.aborted;
    if (d.mode == batch::BatchMode::kSpeculative) {
      f.seed_checked = 2 * f.txns;
      for (std::uint64_t s = 0; s < f.seed_checked; ++s) {
        if (rng.uniform01() < seed_accuracy[accuracy]) f.seed_correct++;
      }
    }
    f.wire_reads = 2 * f.txns;
    f.read_phase =
        ms(static_cast<double>(f.wire_reads) * read_ms[latency] *
           (0.8 + 0.4 * rng.uniform01()));
    // Epoch wall time: a fixed round cost plus per-txn work, so goodput
    // has a size optimum for the climber to chase.
    const double round_ms = per_txn ? 4.0 * static_cast<double>(f.txns) : 6.0;
    f.epoch_time = ms(round_ms + 0.02 * static_cast<double>(f.txns * f.txns) +
                      rng.uniform01());
    if (rng.uniform(40) == 0) f.pressure_level = 1 + static_cast<int>(rng.uniform(3));
    ctl.observe(f);
  }
  const auto s = ctl.stats();
  digest.add(s.epochs);
  for (const auto n : s.mode_epochs) digest.add(n);
  digest.add(s.mode_flips);
  digest.add(s.probes);
  digest.add(s.grows);
  digest.add(s.shrinks);
  digest.add(s.accuracy_epochs);
  digest.add(static_cast<std::uint64_t>(s.epoch_size));
  digest.add(static_cast<std::uint64_t>(s.mode));
  digest.add(s.conflict_ewma);
  digest.add(s.conflict_windowed);
  digest.add(s.accuracy_ewma);
  digest.add(s.accuracy_windowed);
  digest.add(s.read_latency_ms_ewma);
  digest.add(ctl.accuracy_off_threshold());
  digest.add(ctl.accuracy_on_threshold());
  return {digest.value(), s.mode_flips};
}

TEST(ControllerReplay, BatchDefaults) {
  const Replay r = replay_batch(batch::AdaptiveBatchConfig{}, 31);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x7c5ab5c556ffbd2aULL);
}

TEST(ControllerReplay, BatchFast) {
  batch::AdaptiveBatchConfig config;
  config.min_samples = 1;
  config.probe_every = 2;
  config.release_streak = 1;
  config.misspec_cost = 1.0;
  config.hysteresis = 0.2;
  const Replay r = replay_batch(config, 32);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x370955505daca6a0ULL);
}

TEST(ControllerReplay, BatchStartsSuppressed) {
  // Both gates start engaged-or-closed and the streaks bank readings
  // during warm-up, before either gate may move.
  batch::AdaptiveBatchConfig config;
  config.initial_mode = batch::BatchMode::kPerTxn2pc;
  config.min_samples = 5;
  config.conflict_hi = 0.6;
  config.probe_every = 3;
  const Replay r = replay_batch(config, 33);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0x072a1e02e73c7327ULL);
}

TEST(ControllerReplay, BatchWithoutSpeculation) {
  batch::AdaptiveBatchConfig config;
  config.allow_speculative = false;
  config.initial_mode = batch::BatchMode::kGroupCommit;
  config.conflict_hi = 0.6;
  config.release_streak = 2;
  const Replay r = replay_batch(config, 34);
  EXPECT_GE(r.flips, kMinFlips);
  EXPECT_EQ(r.digest, 0xd86db21651f5090bULL);
}

}  // namespace
}  // namespace srpc
