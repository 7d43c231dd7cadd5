// Histogram/percentile/CDF statistics used by the benchmark harness, and
// the online estimators and hysteresis gate the adaptive controllers use.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "stats/ewma.h"
#include "stats/histogram.h"
#include "stats/hysteresis.h"

namespace srpc::stats {
namespace {

TEST(Histogram, EmptyIsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_us(), 0.0);
  EXPECT_EQ(h.percentile_us(50), 0.0);
  EXPECT_TRUE(h.cdf().empty());
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record_us(100);
  h.record_us(200);
  h.record_us(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 200.0);
  EXPECT_EQ(h.min_us(), 100.0);
  EXPECT_EQ(h.max_us(), 300.0);
}

TEST(Histogram, PercentilesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record_us(i);
  // Log buckets with 128 sub-buckets: <1% relative error at these scales.
  EXPECT_NEAR(h.percentile_us(50), 5000, 60);
  EXPECT_NEAR(h.percentile_us(99), 9900, 110);
  EXPECT_NEAR(h.percentile_us(1), 100, 3);
}

TEST(Histogram, RecordDurationConverts) {
  Histogram h;
  h.record(std::chrono::milliseconds(5));
  EXPECT_NEAR(h.mean_ms(), 5.0, 0.1);
}

TEST(Histogram, CdfIsMonotoneAndEndsAtOne) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) h.record_us(rng.exponential(1000.0));
  const auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev_x = 0;
  double prev_f = 0;
  for (const auto& [x, f] : cdf) {
    EXPECT_GT(x, prev_x);
    EXPECT_GE(f, prev_f);
    prev_x = x;
    prev_f = f;
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.record_us(100);
  b.record_us(300);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean_us(), 200.0);
  EXPECT_EQ(a.min_us(), 100.0);
  EXPECT_EQ(a.max_us(), 300.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record_us(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.cdf().empty());
}

TEST(Histogram, CopySnapshotsIndependently) {
  Histogram a;
  a.record_us(10);
  Histogram b = a;
  a.record_us(20);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, ExtremeValuesClampSafely) {
  Histogram h;
  h.record_us(-5);        // clamps to 0
  h.record_us(0);
  h.record_us(1e12);      // beyond top range: clamps to last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.percentile_us(99), 1e6);
}

TEST(Histogram, ConcurrentRecording) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 10000; ++i)
        h.record_us(static_cast<double>(t * 10000 + i));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 40000u);
}

TEST(Ewma, FirstSampleInitializesExactly) {
  Ewma e(0.2);
  EXPECT_EQ(e.count(), 0u);
  EXPECT_DOUBLE_EQ(e.value(0.75), 0.75);  // fallback before any sample
  e.observe(0.5);
  EXPECT_DOUBLE_EQ(e.value(), 0.5);  // no bias toward a zero prior
  EXPECT_EQ(e.count(), 1u);
}

TEST(Ewma, ConvergesToSteadyStream) {
  Ewma e(0.2);
  for (int i = 0; i < 100; ++i) e.observe(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
  // A step change converges geometrically: after n samples the residual is
  // (1 - alpha)^n of the step.
  for (int i = 0; i < 50; ++i) e.observe(0.0);
  EXPECT_LT(e.value(), 1e-4);
  EXPECT_GT(e.value(), 0.0);
}

TEST(Ewma, TracksAlternatingStreamToMean) {
  Ewma e(0.1);
  for (int i = 0; i < 1000; ++i) e.observe(i % 2 == 0 ? 1.0 : 0.0);
  EXPECT_NEAR(e.value(), 0.5, 0.06);
}

// A windowed hit rate is a WindowedMean over 0/1 outcomes (AccuracyTracker).
TEST(WindowedRate, ExactOverPartialWindow) {
  WindowedMean w(8);
  EXPECT_DOUBLE_EQ(w.mean(0.9), 0.9);  // fallback when empty
  w.observe(1.0);
  w.observe(0.0);
  w.observe(1.0);
  EXPECT_EQ(w.occupied(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0 / 3.0);
}

TEST(WindowedRate, EvictsOldestOnceFull) {
  WindowedMean w(4);
  for (int i = 0; i < 4; ++i) w.observe(1.0);
  EXPECT_DOUBLE_EQ(w.mean(), 1.0);
  // Four misses push every hit out of the window.
  for (int i = 0; i < 4; ++i) w.observe(0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.occupied(), 4u);
  EXPECT_EQ(w.total(), 8u);
}

TEST(WindowedRate, ForgetsFullyUnlikeEwma) {
  // The motivating property: after a misspeculation storm, the windowed
  // estimate reflects only recent outcomes regardless of history length.
  WindowedMean w(16);
  Ewma e(0.05);
  for (int i = 0; i < 1000; ++i) {
    w.observe(1.0);
    e.observe(1.0);
  }
  for (int i = 0; i < 16; ++i) {
    w.observe(0.0);
    e.observe(0.0);
  }
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_GT(e.value(), 0.3);  // the EWMA still remembers the good past
}

TEST(HysteresisGate, RaisesAtOnceAndHoldsAtMax) {
  HysteresisGate gate(/*max_level=*/2, /*release_streak=*/2);
  EXPECT_FALSE(gate.engaged());
  gate.raise();
  gate.raise();
  gate.raise();  // capped: no level, no count
  EXPECT_EQ(gate.level(), 2);
  EXPECT_EQ(gate.raises(), 2u);
  EXPECT_FALSE(gate.settle());  // no calm readings banked yet
}

TEST(HysteresisGate, StepsDownOneLevelPerCalmStreak) {
  HysteresisGate gate(2, 3, 0, /*level=*/2);
  EXPECT_FALSE(gate.observe(true));
  EXPECT_FALSE(gate.observe(true));
  EXPECT_FALSE(gate.observe(false));  // a band reading forfeits the credit
  EXPECT_FALSE(gate.observe(true));
  EXPECT_FALSE(gate.observe(true));
  EXPECT_TRUE(gate.observe(true));
  EXPECT_EQ(gate.level(), 1);
  // record() banks readings; settle() takes the step when the owner lets it.
  for (int i = 0; i < 5; ++i) gate.record(true);
  EXPECT_TRUE(gate.settle());
  EXPECT_FALSE(gate.engaged());
  EXPECT_FALSE(gate.settle());  // nothing left to release
  EXPECT_EQ(gate.lowers(), 2u);
  EXPECT_EQ(gate.flips(), 2u);
}

TEST(HysteresisGate, ProbesEveryNthCallWhileEngaged) {
  HysteresisGate gate(1, 1, /*probe_every=*/3);
  EXPECT_FALSE(gate.probe());  // disengaged: nothing to probe
  gate.raise();
  int probes = 0;
  for (int i = 0; i < 9; ++i) probes += gate.probe() ? 1 : 0;
  EXPECT_EQ(probes, 3);
  gate.probe();
  gate.probe();
  gate.raise();  // a raise restarts the probe clock
  EXPECT_FALSE(gate.probe());
  EXPECT_FALSE(gate.probe());
  EXPECT_TRUE(gate.probe());
  EXPECT_EQ(gate.probes(), 4u);
}

TEST(RunStats, ThroughputFromWindow) {
  RunStats run;
  run.start();
  for (int i = 0; i < 100; ++i) run.record(std::chrono::microseconds(10));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  run.stop();
  EXPECT_GE(run.elapsed_s(), 0.09);
  EXPECT_GT(run.throughput_per_s(), 100.0);   // 100 in ~0.1s
  EXPECT_LT(run.throughput_per_s(), 1200.0);
}

}  // namespace
}  // namespace srpc::stats
