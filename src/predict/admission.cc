#include "predict/admission.h"

#include <algorithm>

#include "optmodel/model.h"

namespace srpc::predict {

AdmissionController::AdmissionController(AdmissionConfig config,
                                         const AccuracyTracker* tracker)
    : config_(config),
      tracker_(tracker),
      demote_below_(config.demote_below_accuracy >= 0.0
                        ? config.demote_below_accuracy
                        : opt::break_even_accuracy(1.0)),
      ladder_(static_cast<int>(AdmissionLevel::kShedAll),
              static_cast<std::uint64_t>(
                  std::max(0, config.calm_polls_to_step_down))) {}

void AdmissionController::add_source(PressureSource source) {
  std::lock_guard<std::mutex> lock(poll_mu_);
  sources_.push_back(std::move(source));
  shed_deltas_.emplace_back();
}

void AdmissionController::set_method_priority(const std::string& method,
                                              spec::QosPriority priority) {
  std::lock_guard<std::mutex> lock(methods_mu_);
  priorities_[method] = priority;
}

bool AdmissionController::admit(const std::string& method) {
  maybe_poll();
  const int level = level_.load(std::memory_order_acquire);
  int pri = static_cast<int>(spec::QosPriority::kNormal);
  {
    std::lock_guard<std::mutex> lock(methods_mu_);
    auto it = priorities_.find(method);
    if (it != priorities_.end()) pri = static_cast<int>(it->second);
  }
  // Accuracy-driven demotion, only under pressure: low-accuracy speculation
  // is the least valuable work in flight, so it falls off the ladder one
  // level early. Cold methods (too few samples) keep their nominal tier.
  if (level > 0 && tracker_ != nullptr &&
      pri + 1 < static_cast<int>(spec::kNumQosPriorities) &&
      tracker_->samples(method) >= config_.demote_min_samples &&
      tracker_->hit_rate(method, 1.0) < demote_below_) {
    pri += 1;
    demotions_.fetch_add(1, std::memory_order_relaxed);
  }
  // Level L sheds the lowest L tiers: admit iff the (possibly demoted)
  // priority is still above the water line.
  const bool ok = pri < static_cast<int>(spec::kNumQosPriorities) - level;
  (ok ? admitted_ : shed_).fetch_add(1, std::memory_order_relaxed);
  return ok;
}

AdmissionLevel AdmissionController::tick() {
  std::lock_guard<std::mutex> lock(poll_mu_);
  poll_locked();
  last_poll_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
  return level();
}

void AdmissionController::maybe_poll() {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  const std::int64_t interval_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          config_.poll_interval)
          .count();
  if (now_ns - last_poll_ns_.load(std::memory_order_acquire) < interval_ns) {
    return;
  }
  // One poller at a time; everyone else proceeds on the published level.
  std::unique_lock<std::mutex> lock(poll_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (now_ns - last_poll_ns_.load(std::memory_order_acquire) < interval_ns) {
    return;  // someone polled while we took the lock
  }
  poll_locked();
  last_poll_ns_.store(now_ns, std::memory_order_release);
}

void AdmissionController::poll_locked() {
  polls_.fetch_add(1, std::memory_order_relaxed);
  bool hot = false;
  bool calm = true;
  std::uint64_t shed_delta_total = 0;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const PressureSample s = sources_[i]();
    // Monotone delta-since-last-poll: a cumulative counter that went
    // *backwards* (stats reset, transport restart) re-baselines to zero
    // pressure instead of reading as negative.
    const std::uint64_t shed_delta = shed_deltas_[i].advance(s.sheds);
    shed_delta_total += shed_delta;
    if (shed_delta >= config_.shed_hi || s.queue_depth >= config_.queue_hi ||
        s.outbuf_occupancy >= config_.outbuf_hi) {
      hot = true;
    }
    if (shed_delta != 0 || s.queue_depth > config_.queue_lo ||
        s.outbuf_occupancy > config_.outbuf_lo) {
      calm = false;
    }
  }
  shed_delta_last_.store(shed_delta_total, std::memory_order_relaxed);

  // Escalate immediately: overload compounds, the ladder must not lag it.
  // De-escalate only after a sustained calm run; a reading in the band
  // (between lo and hi) holds the level and forfeits banked calm credit.
  if (hot) {
    ladder_.raise();
  } else {
    ladder_.observe(calm);
  }
  level_.store(ladder_.level(), std::memory_order_release);
}

AdmissionController::Snapshot AdmissionController::stats() const {
  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    out.escalations = ladder_.raises();
    out.deescalations = ladder_.lowers();
  }
  out.level = level();
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.demotions = demotions_.load(std::memory_order_relaxed);
  out.polls = polls_.load(std::memory_order_relaxed);
  out.shed_delta_last = shed_delta_last_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace srpc::predict
