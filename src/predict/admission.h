// AdmissionController — load-sheds speculation toward TradRPC under
// pressure (DESIGN.md §11).
//
// The speculation budget (SpecBudget) bounds how much speculative work can
// be in flight; the admission controller decides whether speculation should
// be *attempted at all* given system-wide pressure the budget cannot see:
// transport backpressure (shed frames, outbound-buffer occupancy) and
// executor queue depth. It escalates through a degradation ladder
//
//   kOpen            every tier may speculate
//   kShedBestEffort  best-effort speculation off
//   kShedNormal      normal traffic off too — only critical speculates
//   kShedAll         nobody speculates (pure TradRPC)
//
// kept by one stats::HysteresisGate, the shape of the AdaptiveSpeculation-
// Controller's accuracy gate: one hot poll escalates a level immediately,
// but stepping back down requires `calm_polls_to_step_down` consecutive calm
// polls, and readings between the lo and hi thresholds hold the current
// level (the hysteresis band). Shed counters are read as monotone
// deltas-since-last-poll (stats::MonotoneDelta), so a counter reset
// upstream — a transport restart — reads as zero pressure for one interval,
// never as negative.
//
// Accuracy-driven demotion: under pressure (any level above kOpen), a
// method whose tracked hit-rate sits below the break-even accuracy is
// demoted one priority tier before the ladder check — low-accuracy
// speculation is the least valuable work in the system, so it loses budget
// eligibility before high-accuracy speculation at the same nominal
// priority.
//
// Threading: admit() is the hot path — one relaxed atomic load plus a
// rate-limited poll attempt (try_lock; contenders skip). Pressure sources
// are sampled only inside the poll, at most once per poll_interval.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "predict/accuracy.h"
#include "specrpc/qos.h"
#include "stats/hysteresis.h"
#include "stats/monotone.h"

namespace srpc::predict {

/// One reading from a pressure source. `sheds` is a CUMULATIVE counter
/// (e.g. TrafficStats::send_shed + send_drops); the controller converts it
/// to a delta internally. The other two are instantaneous gauges.
struct PressureSample {
  std::uint64_t sheds = 0;        // cumulative shed/dropped frames
  double outbuf_occupancy = 0.0;  // 0..1 of the outbound watermark
  std::size_t queue_depth = 0;    // executor tasks waiting
};

using PressureSource = std::function<PressureSample()>;

struct AdmissionConfig {
  /// Queue-depth thresholds: >= hi is hot, <= lo is calm, between holds.
  std::size_t queue_hi = 512;
  std::size_t queue_lo = 128;
  /// Outbound-buffer occupancy thresholds (fraction of the watermark).
  double outbuf_hi = 0.75;
  double outbuf_lo = 0.25;
  /// Shed frames per poll interval that count as hot. Calm requires zero.
  std::uint64_t shed_hi = 1;
  /// Minimum spacing between source polls; admit() calls in between reuse
  /// the last level.
  Duration poll_interval = std::chrono::milliseconds(2);
  /// Consecutive calm polls required to step the ladder down one level
  /// (the reopen half of the hysteresis).
  int calm_polls_to_step_down = 4;
  /// Accuracy below which a method is demoted one tier under pressure;
  /// negative = use the optmodel break-even at misspec_cost 1.0 (0.5).
  double demote_below_accuracy = -1.0;
  /// Don't demote on accuracy until the tracker has this many samples.
  std::uint64_t demote_min_samples = 8;
};

enum class AdmissionLevel : int {
  kOpen = 0,
  kShedBestEffort = 1,
  kShedNormal = 2,
  kShedAll = 3,
};

inline constexpr const char* to_string(AdmissionLevel l) {
  switch (l) {
    case AdmissionLevel::kOpen: return "open";
    case AdmissionLevel::kShedBestEffort: return "shed-best-effort";
    case AdmissionLevel::kShedNormal: return "shed-normal";
    case AdmissionLevel::kShedAll: return "shed-all";
  }
  return "?";
}

class AdmissionController {
 public:
  /// `tracker` may be null (no accuracy-driven demotion); if set it must
  /// outlive the controller (SpeculationManager owns its tracker and holds
  /// the controller by shared_ptr alongside it).
  explicit AdmissionController(AdmissionConfig config = {},
                               const AccuracyTracker* tracker = nullptr);

  /// Registers a pressure source. Not thread-safe against concurrent
  /// admit(); wire sources up before traffic starts.
  void add_source(PressureSource source);

  /// Assigns a method's nominal priority (default kNormal). Usually fed
  /// from the registry's QoS columns.
  void set_method_priority(const std::string& method,
                           spec::QosPriority priority);

  /// The per-call decision: may speculation for `method` be attempted
  /// right now? Polls the pressure sources if poll_interval has elapsed.
  bool admit(const std::string& method);

  /// Forces a pressure poll regardless of the interval (tests, shutdown
  /// drains). Returns the level after the poll.
  AdmissionLevel tick();

  AdmissionLevel level() const {
    return static_cast<AdmissionLevel>(
        level_.load(std::memory_order_acquire));
  }

  struct Snapshot {
    AdmissionLevel level = AdmissionLevel::kOpen;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;          // admit() == false
    std::uint64_t demotions = 0;     // accuracy-driven tier demotions
    std::uint64_t polls = 0;
    std::uint64_t escalations = 0;   // level steps up
    std::uint64_t deescalations = 0; // level steps down
    std::uint64_t shed_delta_last = 0;  // sheds seen in the last poll
  };
  Snapshot stats() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  void maybe_poll();
  void poll_locked();

  AdmissionConfig config_;
  const AccuracyTracker* tracker_;
  double demote_below_;

  /// The ladder level, published lock-free for the admit() fast path.
  std::atomic<int> level_{0};
  std::atomic<std::int64_t> last_poll_ns_{0};

  /// Guards the poll state (sources, deltas, ladder). admit() only
  /// try_locks it; the losing caller proceeds on the last published level.
  mutable std::mutex poll_mu_;
  std::vector<PressureSource> sources_;
  std::vector<stats::MonotoneDelta> shed_deltas_;
  stats::HysteresisGate ladder_;

  mutable std::mutex methods_mu_;
  std::unordered_map<std::string, spec::QosPriority> priorities_;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> demotions_{0};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> shed_delta_last_{0};
};

}  // namespace srpc::predict
