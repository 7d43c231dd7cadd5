// What one flavor's phases measured, and how that becomes metrics. Shared
// by the chain workloads and rc_geo.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/flavor.h"
#include "measure.h"
#include "predict/manager.h"
#include "specrpc/engine.h"
#include "trace.h"

namespace specbench {

/// The latency phase: open loop on chains, closed loop on rc_geo. The
/// phase is cut into equal windows by intended send time; end-to-end
/// figures are the median over windows, so one stall cannot swing a run.
struct LatencyPhase {
  std::vector<double> lat_ms;   // one per successful request
  std::vector<double> late_ms;  // open loop: generator lateness per send
  Outcomes out;
  double cpu_s = 0;  // process CPU over the phase
  struct Window {
    std::vector<double> lat_ms;
    std::uint64_t ok = 0;
    double cpu_s = 0;
  };
  std::vector<Window> windows;  // empty: the whole phase is one window
  /// p50 and p99 over the whole phase instead of window medians (when
  /// windows would hold too few samples for them).
  bool whole_phase_latency = false;

  /// Appends another deployment's run of the same phase.
  void merge(LatencyPhase&& other);
};

/// An untraced flavor run: the end-to-end metrics come from here.
struct FlavorRun {
  LatencyPhase lat;
  Outcomes tput_out;  // closed-loop saturation phase (chains only)
  std::vector<double> tput_windows;  // completions/s per window
  double tput_per_s = 0;  // median over tput_windows
  std::uint64_t tput_n = 0;
};

/// Counters the traced phase gathers besides spans; deltas over the phase.
struct LayerCounters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t wakeups = 0;
  srpc::spec::SpecStats spec;
  srpc::predict::ManagerStats manager;
  double queue_depth = 0;  // mean of samples
  double locked_keys = 0;  // mean of samples
  double log_backlog = 0;  // mean of samples
  std::uint64_t gauge_samples = 0;
  double cpu_s = 0;  // process CPU from the tracer reset to the drain
  // rc_geo only
  std::vector<double> read_phase_ms;
  std::vector<double> commit_phase_ms;
  std::uint64_t view_refreshes = 0;
};

/// A traced flavor run: an untraced latency phase, then the traced one.
struct TracedRun {
  LatencyPhase untraced;
  LatencyPhase traced;
  Tracer::Totals totals;
  LayerCounters counters;
};

/// Calls `fn` every `period` on its own thread until destroyed.
class Sampler {
 public:
  Sampler(srpc::Duration period, std::function<void()> fn);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Running mean of sampled gauges, fed from a Sampler thread.
class GaugeMeans {
 public:
  void add(double queue_depth, double locked_keys, double log_backlog);
  void fill(LayerCounters& c) const;

 private:
  mutable std::mutex mu_;
  double sums_[3] = {0, 0, 0};
  std::uint64_t n_ = 0;
};

/// "spec" for SpecRPC, "trad" for TradRPC: the `<f>` of metric names.
const char* label(srpc::Flavor flavor);

/// Adds the SpecStats fields the layer metrics use; `minus` subtracts them.
void accumulate(srpc::spec::SpecStats& total, const srpc::spec::SpecStats& s);
srpc::spec::SpecStats minus(srpc::spec::SpecStats a,
                            const srpc::spec::SpecStats& b);

/// Set-up seconds of every deployment a run builds, by flavor (index 0:
/// spec, 1: trad). Rounds are spread over the run so one noisy stretch of
/// the machine cannot decide setup_s.
struct SetupTimes {
  std::vector<double> secs[2];
  /// setup_s: the median spec set-up plus the median trad set-up.
  double value() const { return median(secs[0]) + median(secs[1]); }
  std::uint64_t rounds() const { return secs[0].size() + secs[1].size(); }
};

/// `<f>.p50_ms`, `p99_ms`, `cpu_us_per_req`, `tput_per_s`, `ok_frac`.
void add_end_to_end(WorkloadResult& result, const std::string& f,
                    const FlavorRun& run);

/// Every `<f>.<layer>.<metric>` of a traced run.
void add_layers(WorkloadResult& result, const std::string& f,
                const TracedRun& run);

/// `gap.*`: how SpecRPC's extra CPU per request over TradRPC splits across
/// the traced layers (workload-specific, printed only).
void add_gap(WorkloadResult& result, const TracedRun& spec,
             const TracedRun& trad);

}  // namespace specbench
