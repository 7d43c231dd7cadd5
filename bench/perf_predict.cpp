// Prediction subsystem end-to-end: completion time under real predictors
// (src/predict) and the adaptive speculation gate. Writes BENCH_predict.json
// (cwd).
//
// Two §5.1-style microbench workloads on serialized servers (misspeculation
// queues behind real work, so wrong guesses cost):
//
//   high  Requests draw from a small key pool and server results are stable,
//         so a learned predictor becomes near-perfect. Acceptance: adaptive
//         recovers >= 90% of always-speculate's completion-time win over the
//         TradRPC baseline.
//   low   Same pool, but servers mix a counter into each result (adversarial:
//         every learned prediction is stale). Always-speculate triggers a
//         misspeculation storm — every chain level forks a wrong branch plus
//         a re-execution, multiplying server load. Acceptance: adaptive
//         closes its gate and stays within 10% of the no-speculation
//         baseline.
//
// Flags (also settable via env):
//   --predictor=last|topk|markov|cache   predictor kind    (default last)
//   --modes=trad,always,adaptive         which series to run (default all)
//   --workloads=high,low                 which workloads    (default both)
//   SPECRPC_PREDICT_WARMUP_S / SPECRPC_PREDICT_MEASURE_S   (default 4 / 3)
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "predict/predictor.h"
#include "workload/microbench.h"

namespace {

using namespace srpc;  // NOLINT

struct Point {
  std::string workload;
  std::string mode;
  double mean_ms = 0;
  double p99_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;  // requests that threw
  double hit_rate = 0;           // engine-observed prediction accuracy
  std::uint64_t predictions = 0;  // branches spawned from predictions
  std::uint64_t reexecutions = 0;
  std::uint64_t gate_suppressed = 0;  // calls the adaptive gate declined
};

// The warmup must cover predictor learning (key_space keys at 5 req/s),
// the adaptive gate closing (min_samples after the predictor warms), and
// the serialized servers draining the pre-close misspeculation backlog —
// the acceptance ratios are about steady state, not the transient.
Duration predict_warmup() {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(
      env_double("SPECRPC_PREDICT_WARMUP_S", 4.0)));
}

Duration predict_measure() {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(
      env_double("SPECRPC_PREDICT_MEASURE_S", 3.0)));
}

wl::MicroConfig make_config(bool adversarial, predict::Kind kind,
                            const std::string& mode) {
  wl::MicroConfig config;
  config.num_clients = 8;
  config.num_servers = 4;
  config.rpcs_per_request = 4;
  config.service_time = from_ms(10.0);
  config.requests_per_s = 5.0;  // 0.4 utilization/server without speculation
  config.seed = adversarial ? 31 : 17;
  // The workload twists apply to every mode, so baselines see the same
  // servers and the same offered load.
  config.predict.key_space = 8;
  config.predict.server_serial = true;
  config.predict.volatile_results = adversarial;
  if (mode == "trad") {
    config.flavor = Flavor::kTrad;
  } else {
    config.flavor = Flavor::kSpec;
    config.predict.kind = kind;
    config.predict.adaptive = (mode == "adaptive");
  }
  return config;
}

Point run_point(const std::string& workload, const std::string& mode,
                predict::Kind kind) {
  const auto config = make_config(workload == "low", kind, mode);
  const auto result =
      wl::run_microbench(config, predict_warmup(), predict_measure());
  Point p;
  p.workload = workload;
  p.mode = mode;
  p.mean_ms = result.mean_ms();
  p.p99_ms = result.latency.percentile_ms(99);
  p.requests = result.requests;
  p.failed = result.failed;
  p.hit_rate = result.prediction_hit_rate();
  p.predictions = result.spec.predictions_made;
  p.reexecutions = result.spec.reexecutions;
  p.gate_suppressed = result.managers.gate_suppressed;
  std::printf("  %-5s %-9s mean %7.2f ms  p99 %7.2f ms  hit %.2f  "
              "pred %llu  reexec %llu  gated %llu\n",
              workload.c_str(), mode.c_str(), p.mean_ms, p.p99_ms, p.hit_rate,
              static_cast<unsigned long long>(p.predictions),
              static_cast<unsigned long long>(p.reexecutions),
              static_cast<unsigned long long>(p.gate_suppressed));
  return p;
}

bool want(const std::string& csv, const std::string& item) {
  if (csv.empty()) return true;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (csv.substr(pos, end - pos) == item) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

const Point* find(const std::vector<Point>& points,
                  const std::string& workload, const std::string& mode) {
  for (const auto& p : points) {
    if (p.workload == workload && p.mode == mode) return &p;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string predictor = "last";
  std::string modes;      // empty = all
  std::string workloads;  // empty = all
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--predictor=", 12) == 0) {
      predictor = arg + 12;
    } else if (std::strncmp(arg, "--modes=", 8) == 0) {
      modes = arg + 8;
    } else if (std::strncmp(arg, "--workloads=", 12) == 0) {
      workloads = arg + 12;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--predictor=last|topk|markov|cache] "
                   "[--modes=trad,always,adaptive] [--workloads=high,low]\n",
                   argv[0]);
      return 2;
    }
  }
  predict::Kind kind;
  try {
    kind = predict::parse_kind(predictor);
  } catch (const std::invalid_argument&) {
    kind = predict::Kind::kNone;
  }
  if (kind == predict::Kind::kNone) {
    std::fprintf(stderr, "unknown predictor '%s'\n", predictor.c_str());
    return 2;
  }

  bench::banner("perf_predict",
                "adaptive speculation vs always/never under real predictors");
  // The generic banner prints the generic bench windows; this bench uses
  // its own (longer — the gate has to converge before measuring).
  std::printf("predictor: %s  (warmup %.2gs, measure %.2gs per point)\n\n",
              predictor.c_str(),
              std::chrono::duration<double>(predict_warmup()).count(),
              std::chrono::duration<double>(predict_measure()).count());

  std::vector<Point> points;
  for (const char* workload : {"high", "low"}) {
    if (!want(workloads, workload)) continue;
    for (const char* mode : {"trad", "always", "adaptive"}) {
      if (!want(modes, mode)) continue;
      points.push_back(run_point(workload, mode, kind));
    }
  }

  bench::Table table({"workload", "mode", "mean (ms)", "p99 (ms)",
                      "hit rate", "reexecs", "gated"});
  for (const auto& p : points) {
    table.row({p.workload, p.mode, bench::fmt(p.mean_ms),
               bench::fmt(p.p99_ms), bench::fmt(p.hit_rate),
               std::to_string(p.reexecutions),
               std::to_string(p.gate_suppressed)});
  }
  std::printf("\n");
  table.print();

  // Acceptance ratios (meaningful only when all six points ran).
  double high_recovery = -1;
  double low_overhead = -1;
  const Point* ht = find(points, "high", "trad");
  const Point* ha = find(points, "high", "always");
  const Point* hd = find(points, "high", "adaptive");
  if (ht && ha && hd && ht->mean_ms > ha->mean_ms) {
    high_recovery = (ht->mean_ms - hd->mean_ms) / (ht->mean_ms - ha->mean_ms);
    std::printf("\nhigh: adaptive recovers %.0f%% of always-speculate's win "
                "over TradRPC (acceptance: >= 90%%)\n",
                100.0 * high_recovery);
  }
  const Point* lt = find(points, "low", "trad");
  const Point* ld = find(points, "low", "adaptive");
  if (lt && ld && lt->mean_ms > 0) {
    low_overhead = ld->mean_ms / lt->mean_ms - 1.0;
    std::printf("low:  adaptive is %+.1f%% vs the no-speculation baseline "
                "(acceptance: within 10%%)\n",
                100.0 * low_overhead);
  }

  FILE* f = std::fopen("BENCH_predict.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_predict.json");
    return 1;
  }
  std::fprintf(f, "{\n  \"predictor\": \"%s\",\n  \"points\": [\n",
               predictor.c_str());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"mode\": \"%s\", \"mean_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"requests\": %llu, \"failed\": %llu, "
        "\"hit_rate\": %.4f, "
        "\"predictions\": %llu, \"reexecutions\": %llu, "
        "\"gate_suppressed\": %llu}%s\n",
        p.workload.c_str(), p.mode.c_str(), p.mean_ms, p.p99_ms,
        static_cast<unsigned long long>(p.requests),
        static_cast<unsigned long long>(p.failed), p.hit_rate,
        static_cast<unsigned long long>(p.predictions),
        static_cast<unsigned long long>(p.reexecutions),
        static_cast<unsigned long long>(p.gate_suppressed),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"high_recovery_of_always_win\": %.4f,\n"
               "  \"low_overhead_vs_baseline\": %.4f,\n"
               "  \"high_pass\": %s,\n  \"low_pass\": %s\n}\n",
               high_recovery, low_overhead,
               high_recovery >= 0.9 ? "true" : "false",
               (low_overhead >= -1 && low_overhead <= 0.10) ? "true"
                                                            : "false");
  std::fclose(f);
  std::printf("\nwrote BENCH_predict.json\n");
  return 0;
}
