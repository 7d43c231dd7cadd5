// HysteresisGate — the trip / hold / reopen shape shared by the adaptive
// controllers: the speculation gate (DESIGN.md §8.3), the admission ladder
// (§11.3) and the adaptive batch controller's two mode gates (§14.2).
//
// Levels run 0..max_level; 0 is disengaged. raise() trips one level at once
// (a bad reading must not wait) and restarts the calm streak and the probe
// clock. A calm reading extends the streak, any other reading restarts it,
// so readings in the owner's hysteresis band hold the level and forfeit
// banked calm credit; `release_streak` calm readings in a row step down one
// level. While engaged, probe() lets every `probe_every`-th call through so
// the signal that would reopen the gate stays live. The owner classifies
// its own signals; the gate keeps the level, the streak and the counters,
// and does not lock.
#pragma once

#include <cstdint>

namespace srpc::stats {

/// Every-Nth-tick probe clock; `every` 0 never fires. Restart: since = 0.
struct ProbeCadence {
  std::uint64_t every = 0;
  std::uint64_t since = 0;
  std::uint64_t probes = 0;

  /// One suppressed call or epoch; true on every `every`-th since restart.
  bool tick() {
    if (every == 0 || ++since < every) return false;
    since = 0;
    ++probes;
    return true;
  }
};

class HysteresisGate {
 public:
  HysteresisGate(int max_level, std::uint64_t release_streak,
                 std::uint64_t probe_every = 0, int level = 0)
      : max_level_(max_level),
        release_streak_(release_streak),
        probe_{probe_every},
        level_(level) {}

  int level() const { return level_; }
  bool engaged() const { return level_ > 0; }

  /// Trips one level (held at max_level); restarts streak and probe clock.
  void raise() {
    streak_ = 0;
    probe_.since = 0;
    if (level_ < max_level_) {
      ++level_;
      ++raises_;
    }
  }

  /// Banks one reading toward the release streak without moving the level;
  /// settle() then steps down once the streak is long enough. Owners that
  /// hold the level through a warm-up record first and settle later.
  void record(bool calm) { streak_ = calm ? streak_ + 1 : 0; }
  bool settle() {
    if (level_ == 0 || streak_ < release_streak_) return false;
    streak_ = 0;
    --level_;
    ++lowers_;
    return true;
  }
  /// record() then settle(); only a calm reading can take the step.
  bool observe(bool calm) {
    record(calm);
    return calm && settle();
  }

  /// While engaged: true on every probe_every-th call.
  bool probe() { return engaged() && probe_.tick(); }

  std::uint64_t raises() const { return raises_; }
  std::uint64_t lowers() const { return lowers_; }
  std::uint64_t flips() const { return raises_ + lowers_; }
  std::uint64_t probes() const { return probe_.probes; }

 private:
  int max_level_;
  std::uint64_t release_streak_;
  ProbeCadence probe_;
  int level_;
  std::uint64_t streak_ = 0;
  std::uint64_t raises_ = 0;
  std::uint64_t lowers_ = 0;
};

}  // namespace srpc::stats
