// Measurement helpers and the result shapes the workloads hand to main.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace specbench {

/// Process user+sys CPU seconds so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of this process, MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double seconds_since(srpc::TimePoint t) {
  return std::chrono::duration<double>(srpc::Clock::now() - t).count();
}

inline double ms_of(srpc::Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = rank <= 1 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Request outcome counts of one phase. Every attempt lands in exactly one
/// bucket once the phase drained.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;    // thrown / failed futures, timeouts, refusals
  std::uint64_t wrong = 0;     // completed with a wrong result
  std::uint64_t aborted = 0;   // rc_geo: transactions that did not commit
  std::uint64_t lost = 0;      // never completed before the drain deadline

  std::uint64_t failed() const { return errors + wrong + lost; }
  Outcomes& operator+=(const Outcomes& o) {
    attempted += o.attempted;
    ok += o.ok;
    errors += o.errors;
    wrong += o.wrong;
    aborted += o.aborted;
    lost += o.lost;
    return *this;
  }
};

/// One printed metric. `contract` marks names listed in BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  bool contract = false;
};

/// Everything one workload run reports.
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> problems;  // why `correct` is false
  Outcomes outcomes;
  std::vector<Metric> metrics;
  /// Frozen knobs of the workload, echoed as provenance.
  std::vector<std::pair<std::string, std::string>> knobs;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, bool contract = true) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                             contract});
  }
  void fail(std::string why) {
    correct = false;
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // trace files and transaction logs go here
};

}  // namespace specbench
