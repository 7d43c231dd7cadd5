// perf_batch_adaptive — adaptive batching (DESIGN.md §14): online epoch
// sizing + commit-mode selection vs the three static batch configs over a
// phase-shifting qstream conflict schedule. Writes BENCH_batch_adaptive.json
// (cwd).
//
// The schedule runs three phases on ONE live cluster per config (clients,
// seeds and controllers persist across phase boundaries, so adaptation cost
// is measured, not hidden):
//
//   low    wide warm hot set, low contention  -> deep speculative epochs win
//   high   tiny hot set at a NEW identity, high contention + straddles
//          -> conflict amplification; small epochs / conservative commit
//   low2   calm again, hot set moves once more -> the controller must find
//          its way back (probing reopens the speculative gate; epoch size
//          regrows)
//
// Static configs keep (mode, epoch=32) pinned; adaptive starts from the
// same point and moves both dials per client. Acceptance (ISSUE 10):
// adaptive committed-txn/s within 10% of the per-phase best static in every
// phase AND >= 1.3x the worst static config overall. A single-client
// correctness pass per config checks replicated state against a serial
// replay of the committed transactions — across mode switches for the
// adaptive config.
//
// Env knobs (on top of bench_util's SPECRPC_BENCH_{WARMUP,MEASURE}_S):
//   SPECRPC_BADAPT_CLIENTS_PER_DC  closed-loop clients per DC  (default 2)
//   SPECRPC_BADAPT_RTT_MS          uniform inter-DC RTT        (default 4)
//   SPECRPC_BADAPT_NUM_KEYS        dataset size                (default 20000)
//   SPECRPC_BADAPT_EPOCH           static configs' epoch size  (default 32)
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/adaptive.h"
#include "batch/client.h"
#include "batch/types.h"
#include "bench_util.h"
#include "common/env.h"
#include "rc/cluster.h"
#include "workload/qstream.h"
#include "workload/runner.h"

namespace {

using namespace srpc;
using namespace srpc::bench;
using batch::BatchMode;

/// Pinned epoch size of the static configs (and the adaptive controller's
/// starting point). Env-overridable for manual size scans.
const std::size_t kStaticEpoch =
    static_cast<std::size_t>(srpc::env_long("SPECRPC_BADAPT_EPOCH", 32));

struct BenchConfig {
  const char* name;
  bool adaptive;
  BatchMode mode;  // static mode, or the adaptive controller's initial mode
};

constexpr BenchConfig kConfigs[] = {
    {"per-txn-2pc", false, BatchMode::kPerTxn2pc},
    {"group-commit", false, BatchMode::kGroupCommit},
    {"speculative", false, BatchMode::kSpeculative},
    {"adaptive", true, BatchMode::kSpeculative},
};
constexpr int kNumConfigs = 4;

/// The conflict schedule. hot_offset moves the hot set's identity at each
/// shift, so phase boundaries also kill the old seeds' usefulness.
constexpr wl::QStreamPhase kPhases[] = {
    /*low*/ {/*hot_keys=*/32, /*hot_offset=*/0, /*hot_fraction=*/0.2,
             /*cross=*/0.2},
    /*high*/ {/*hot_keys=*/2, /*hot_offset=*/5000, /*hot_fraction=*/0.9,
              /*cross=*/0.5},
    /*low2*/ {/*hot_keys=*/32, /*hot_offset=*/10000, /*hot_fraction=*/0.2,
              /*cross=*/0.2},
};
constexpr const char* kPhaseNames[] = {"low", "high", "low2"};
constexpr int kNumPhases = 3;

rc::ClusterConfig cluster_config(const BenchConfig& bc, int clients_per_dc,
                                 std::size_t num_keys, double rtt_ms) {
  rc::ClusterConfig config;
  // As in perf_batch: only speculation needs engines; 2PC/group baselines
  // run on the TradRPC kit. The adaptive config runs kSpec so the
  // controller has all three modes to choose from.
  config.flavor = bc.adaptive || bc.mode == BatchMode::kSpeculative
                      ? Flavor::kSpec
                      : Flavor::kTrad;
  config.geo = uniform_geo(rtt_ms);
  config.geo.lan_rtt_ms = 0.2;
  config.clients_per_dc = clients_per_dc;
  config.num_keys = num_keys;
  config.batch_clients = true;
  config.batch_mode = bc.mode;
  config.batch_txns_per_epoch = kStaticEpoch;
  if (bc.adaptive) {
    config.adaptive_batch = true;
    config.adaptive_batch_config.min_epoch = 4;
    config.adaptive_batch_config.max_epoch = 64;
    config.adaptive_batch_config.initial_epoch = kStaticEpoch;
    // Probe often enough to re-find speculation within a phase (phases are
    // a couple hundred epochs at bench scale).
    config.adaptive_batch_config.probe_every = 6;
  }
  return config;
}

wl::QStreamConfig qstream_config(std::size_t num_keys) {
  wl::QStreamConfig wc;
  wc.txns_per_epoch = kStaticEpoch;
  wc.ops_per_txn = 4;
  wc.num_keys = num_keys;
  wc.hot_keys = kPhases[0].hot_keys;
  wc.hot_offset = kPhases[0].hot_offset;
  wc.hot_fraction = kPhases[0].hot_fraction;
  wc.cross_partition_fraction = kPhases[0].cross_partition_fraction;
  return wc;
}

// ---------------------------------------------------------- correctness

/// Serial-execution reference (same as perf_batch / tests/test_batch.cc).
class SerialReplay {
 public:
  explicit SerialReplay(std::string initial) : initial_(std::move(initial)) {}

  void apply(const batch::BatchTxn& txn) {
    std::map<std::string, std::string> buffer;
    for (const auto& op : txn.ops) {
      if (op.kind == batch::OpKind::kWrite) {
        buffer[op.key] = op.value;
        continue;
      }
      const std::string current = [&] {
        auto bit = buffer.find(op.key);
        if (bit != buffer.end()) return bit->second;
        auto it = state_.find(op.key);
        return it != state_.end() ? it->second : initial_;
      }();
      if (op.kind == batch::OpKind::kRmw) {
        buffer[op.key] =
            batch::apply_transform(op.transform, current, op.value);
      }
    }
    for (auto& [key, value] : buffer) state_[key] = value;
  }

  const std::map<std::string, std::string>& state() const { return state_; }

 private:
  std::string initial_;
  std::map<std::string, std::string> state_;
};

bool converged(rc::RcCluster& cluster,
               const std::map<std::string, std::string>& expected) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  const auto view = cluster.view();
  for (const auto& [key, value] : expected) {
    const int shard = view->shard_of(key);
    for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
      for (;;) {
        auto got = cluster.store(dc, shard).get(key);
        if (got.has_value() && got->value == value) break;
        if (Clock::now() > deadline) {
          std::fprintf(stderr,
                       "  divergence: dc%d shard%d %s = '%s', expected '%s'\n",
                       dc, shard, key.c_str(),
                       got ? got->value.c_str() : "<missing>", value.c_str());
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  return true;
}

/// One fixed single-client stream through the full phase schedule; true iff
/// every txn committed and replicated state equals the serial replay. For
/// the adaptive config the epochs run at controller-chosen sizes and modes
/// (the schedule's conflict swings force real mode switches), so this is
/// the serial-equality-across-mode-switches check.
bool run_correctness(const BenchConfig& bc, std::size_t num_keys,
                     double rtt_ms) {
  rc::RcCluster cluster(
      cluster_config(bc, /*clients_per_dc=*/1, num_keys, rtt_ms));
  auto& client = cluster.batch_client(0, 0);

  wl::QStreamConfig wc = qstream_config(num_keys);
  wl::QStreamWorkload workload(wc, /*seed=*/7);
  SerialReplay replay(std::string(16, 'v'));

  bool all_committed = true;
  for (int phase = 0; phase < kNumPhases; ++phase) {
    workload.set_phase(kPhases[static_cast<std::size_t>(phase)]);
    for (int epoch = 0; epoch < 6; ++epoch) {
      auto txns = workload.next_txns(client.next_epoch_size());
      const auto reference = txns;  // run_epoch consumes the batch
      batch::EpochResult result = client.run_epoch(std::move(txns));
      for (std::size_t i = 0; i < reference.size(); ++i) {
        if (i < result.decisions.size() && result.decisions[i]) {
          replay.apply(reference[i]);
        } else {
          all_committed = false;  // single client: nothing should abort
        }
      }
    }
  }
  return all_committed && converged(cluster, replay.state());
}

// ----------------------------------------------------------- throughput

struct PhaseResult {
  double committed_per_s = 0;
  double abort_rate = 0;
  std::uint64_t epochs = 0;
  std::uint64_t failed = 0;  // epochs that threw
  double mean_epoch_ms = 0;
  /// Adaptive config only: controller snapshot at the end of the phase
  /// (cumulative counters; gauges are phase-end values).
  batch::AdaptiveBatchStats ctl_after;
};

struct ConfigResult {
  PhaseResult phases[kNumPhases];
  double overall_per_s = 0;
  batch::AdaptiveBatchStats controller;  // zeroes for static configs
};

ConfigResult run_schedule(const BenchConfig& bc, int clients_per_dc,
                          std::size_t num_keys, double rtt_ms) {
  rc::RcCluster cluster(
      cluster_config(bc, clients_per_dc, num_keys, rtt_ms));
  const int total_clients = cluster.num_dcs() * clients_per_dc;

  // Persistent per-client streams: the SAME workload objects shift phase
  // mid-run, so the stream (and the client's seeds/controller state) is
  // continuous across phase boundaries — that is the whole experiment.
  const wl::QStreamConfig wc = qstream_config(num_keys);
  std::vector<std::shared_ptr<wl::QStreamWorkload>> streams;
  streams.reserve(static_cast<std::size_t>(total_clients));
  for (int i = 0; i < total_clients; ++i) {
    streams.push_back(std::make_shared<wl::QStreamWorkload>(
        wc, 1000 + static_cast<std::uint64_t>(i)));
  }
  wl::SizedBatchWorkloadFactory factory = [&streams](int client_index) {
    auto w = streams[static_cast<std::size_t>(client_index)];
    return [w](std::size_t n) { return w->next_txns(n); };
  };

  ConfigResult out;
  double total_committed = 0;
  double total_s = 0;
  for (int phase = 0; phase < kNumPhases; ++phase) {
    for (auto& s : streams) s->set_phase(kPhases[static_cast<std::size_t>(phase)]);
    const wl::BatchRunResult r =
        wl::run_batch_closed_loop(cluster, factory, warmup(), measure());
    PhaseResult& pr = out.phases[phase];
    pr.committed_per_s = r.committed_per_s();
    pr.abort_rate = r.abort_rate();
    pr.epochs = r.epochs;
    pr.failed = r.failed;
    pr.mean_epoch_ms = r.epoch_latency.mean_ms();
    if (bc.adaptive) pr.ctl_after = cluster.adaptive_batch_stats();
    total_committed += static_cast<double>(r.committed);
    total_s += r.elapsed_s;
  }
  out.overall_per_s = total_s > 0 ? total_committed / total_s : 0;
  if (bc.adaptive) out.controller = cluster.adaptive_batch_stats();
  return out;
}

}  // namespace

int main() {
  banner("perf_batch_adaptive",
         "adaptive batching: online epoch sizing + commit-mode selection vs "
         "static configs over a shifting conflict schedule");

  const int clients_per_dc =
      static_cast<int>(env_long("SPECRPC_BADAPT_CLIENTS_PER_DC", 2));
  const double rtt_ms = env_double("SPECRPC_BADAPT_RTT_MS", 4.0);
  const std::size_t num_keys =
      static_cast<std::size_t>(env_long("SPECRPC_BADAPT_NUM_KEYS", 20'000));

  // Phase 1: serial-equivalence per config (adaptive = across mode flips).
  std::printf("correctness (phase schedule vs serial replay):\n");
  bool state_match[kNumConfigs];
  for (int c = 0; c < kNumConfigs; ++c) {
    state_match[c] = run_correctness(kConfigs[c], num_keys, rtt_ms);
    std::printf("  %-12s %s\n", kConfigs[c].name,
                state_match[c] ? "state == serial replay" : "DIVERGED");
  }
  bool all_match = true;
  for (const bool m : state_match) all_match = all_match && m;

  // Phase 2: the conflict schedule, one live cluster per config.
  std::printf("\nschedule: %d clients/DC, rtt %.1fms, phases", clients_per_dc,
              rtt_ms);
  for (int p = 0; p < kNumPhases; ++p) {
    std::printf(" %s(hot=%zu@%llu f=%.1f)", kPhaseNames[p],
                kPhases[p].hot_keys,
                static_cast<unsigned long long>(kPhases[p].hot_offset),
                kPhases[p].hot_fraction);
  }
  std::printf("\n\n");

  ConfigResult results[kNumConfigs];
  std::printf("%14s %10s %10s %10s %10s\n", "config", "low/s", "high/s",
              "low2/s", "overall/s");
  for (int c = 0; c < kNumConfigs; ++c) {
    results[c] = run_schedule(kConfigs[c], clients_per_dc, num_keys, rtt_ms);
    std::printf("%14s %10.0f %10.0f %10.0f %10.0f\n", kConfigs[c].name,
                results[c].phases[0].committed_per_s,
                results[c].phases[1].committed_per_s,
                results[c].phases[2].committed_per_s,
                results[c].overall_per_s);
  }

  const ConfigResult& adaptive = results[3];
  const auto& ctl = adaptive.controller;
  std::printf(
      "\nadaptive controller: epochs=%llu (2pc=%llu group=%llu spec=%llu) "
      "flips=%llu probes=%llu grows=%llu shrinks=%llu final_size=%zu\n",
      static_cast<unsigned long long>(ctl.epochs),
      static_cast<unsigned long long>(ctl.mode_epochs[0]),
      static_cast<unsigned long long>(ctl.mode_epochs[1]),
      static_cast<unsigned long long>(ctl.mode_epochs[2]),
      static_cast<unsigned long long>(ctl.mode_flips),
      static_cast<unsigned long long>(ctl.probes),
      static_cast<unsigned long long>(ctl.grows),
      static_cast<unsigned long long>(ctl.shrinks), ctl.epoch_size);
  {
    batch::AdaptiveBatchStats prev;
    for (int p = 0; p < kNumPhases; ++p) {
      const auto& a = adaptive.phases[p].ctl_after;
      std::printf(
          "  after %-4s: +epochs=%llu (2pc=%llu group=%llu spec=%llu) "
          "+acc_obs=%llu size=%zu conflict=%.2f/%.2f acc=%.2f/%.2f\n",
          kPhaseNames[p],
          static_cast<unsigned long long>(a.epochs - prev.epochs),
          static_cast<unsigned long long>(a.mode_epochs[0] -
                                          prev.mode_epochs[0]),
          static_cast<unsigned long long>(a.mode_epochs[1] -
                                          prev.mode_epochs[1]),
          static_cast<unsigned long long>(a.mode_epochs[2] -
                                          prev.mode_epochs[2]),
          static_cast<unsigned long long>(a.accuracy_epochs -
                                          prev.accuracy_epochs),
          a.epoch_size, a.conflict_ewma, a.conflict_windowed, a.accuracy_ewma,
          a.accuracy_windowed);
      prev = a;
    }
  }

  // Acceptance: within 10% of the per-phase best static, >=1.3x the worst
  // static overall.
  bool within10 = true;
  double best_static[kNumPhases];
  for (int p = 0; p < kNumPhases; ++p) {
    best_static[p] = 0;
    for (int c = 0; c < 3; ++c) {
      best_static[p] = std::max(best_static[p],
                                results[c].phases[p].committed_per_s);
    }
    within10 = within10 &&
               adaptive.phases[p].committed_per_s >= 0.9 * best_static[p];
  }
  double worst_overall = results[0].overall_per_s;
  for (int c = 1; c < 3; ++c) {
    worst_overall = std::min(worst_overall, results[c].overall_per_s);
  }
  const double vs_worst =
      worst_overall > 0 ? adaptive.overall_per_s / worst_overall : 0;
  const bool beats_worst = vs_worst >= 1.3;
  std::printf(
      "\nadaptive vs best static per phase: %.2f/%.2f/%.2f of best "
      "(accept>=0.9: %s); %.2fx worst static overall (accept>=1.3x: %s); "
      "states match serial: %s\n",
      best_static[0] > 0 ? adaptive.phases[0].committed_per_s / best_static[0]
                         : 0,
      best_static[1] > 0 ? adaptive.phases[1].committed_per_s / best_static[1]
                         : 0,
      best_static[2] > 0 ? adaptive.phases[2].committed_per_s / best_static[2]
                         : 0,
      within10 ? "yes" : "NO", vs_worst, beats_worst ? "yes" : "NO",
      all_match ? "yes" : "NO");

  FILE* f = std::fopen("BENCH_batch_adaptive.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_batch_adaptive.json");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"clients_per_dc\": %d,\n  \"rtt_ms\": %.1f,\n"
               "  \"num_keys\": %zu,\n  \"static_epoch\": %zu,\n"
               "  \"phases\": [\n",
               clients_per_dc, rtt_ms, num_keys, kStaticEpoch);
  for (int p = 0; p < kNumPhases; ++p) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"hot_keys\": %zu, "
                 "\"hot_offset\": %llu, \"hot_fraction\": %.2f, "
                 "\"cross_fraction\": %.2f}%s\n",
                 kPhaseNames[p], kPhases[p].hot_keys,
                 static_cast<unsigned long long>(kPhases[p].hot_offset),
                 kPhases[p].hot_fraction, kPhases[p].cross_partition_fraction,
                 p + 1 < kNumPhases ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"configs\": {\n");
  for (int c = 0; c < kNumConfigs; ++c) {
    const ConfigResult& r = results[c];
    std::fprintf(f, "    \"%s\": {\"correctness\": %s, \"overall_per_s\": "
                    "%.0f,\n      \"phases\": [",
                 kConfigs[c].name, state_match[c] ? "true" : "false",
                 r.overall_per_s);
    for (int p = 0; p < kNumPhases; ++p) {
      std::fprintf(f,
                   "{\"committed_per_s\": %.0f, \"abort_rate\": %.4f, "
                   "\"epochs\": %llu, \"failed\": %llu, "
                   "\"mean_epoch_ms\": %.3f}%s",
                   r.phases[p].committed_per_s, r.phases[p].abort_rate,
                   static_cast<unsigned long long>(r.phases[p].epochs),
                   static_cast<unsigned long long>(r.phases[p].failed),
                   r.phases[p].mean_epoch_ms, p + 1 < kNumPhases ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", c + 1 < kNumConfigs ? "," : "");
  }
  std::fprintf(
      f,
      "  },\n  \"controller\": {\"epochs\": %llu, \"mode_epochs\": "
      "[%llu, %llu, %llu], \"mode_flips\": %llu, \"probes\": %llu,\n"
      "    \"grows\": %llu, \"shrinks\": %llu, \"final_epoch_size\": %zu,\n"
      "    \"conflict_ewma\": %.4f, \"accuracy_ewma\": %.4f},\n",
      static_cast<unsigned long long>(ctl.epochs),
      static_cast<unsigned long long>(ctl.mode_epochs[0]),
      static_cast<unsigned long long>(ctl.mode_epochs[1]),
      static_cast<unsigned long long>(ctl.mode_epochs[2]),
      static_cast<unsigned long long>(ctl.mode_flips),
      static_cast<unsigned long long>(ctl.probes),
      static_cast<unsigned long long>(ctl.grows),
      static_cast<unsigned long long>(ctl.shrinks), ctl.epoch_size,
      ctl.conflict_ewma, ctl.accuracy_ewma);
  std::fprintf(
      f,
      "  \"adaptive_vs_best_static\": [%.3f, %.3f, %.3f],\n"
      "  \"adaptive_vs_worst_overall\": %.3f,\n"
      "  \"accept_within_10pct_of_best\": %s,\n"
      "  \"accept_1p3x_worst_overall\": %s,\n"
      "  \"accept_states_match_serial\": %s\n}\n",
      best_static[0] > 0 ? adaptive.phases[0].committed_per_s / best_static[0]
                         : 0,
      best_static[1] > 0 ? adaptive.phases[1].committed_per_s / best_static[1]
                         : 0,
      best_static[2] > 0 ? adaptive.phases[2].committed_per_s / best_static[2]
                         : 0,
      vs_worst, within10 ? "true" : "false", beats_worst ? "true" : "false",
      all_match ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_batch_adaptive.json\n");
  // Exit 0 regardless: sanitizer smokes run this binary with tiny windows
  // where the ratios are noise; the JSON records the acceptance verdicts.
  return 0;
}
