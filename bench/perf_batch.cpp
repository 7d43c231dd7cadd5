// perf_batch — queue-oriented speculative batch transactions (DESIGN.md
// §12): per-txn 2PC vs batched group commit vs batched + speculative over
// the qstream ordered-stream workload at several conflict rates. Writes
// BENCH_batch.json (cwd).
//
// Three phases:
//
//   correctness  one fixed ordered stream per mode on a fresh cluster; the
//                final replicated state must equal an in-memory serial
//                replay of the committed transactions (the group-commit and
//                speculative paths are only interesting if they preserve
//                exactly the semantics of serial execution).
//   throughput   closed-loop committed-txn/s per mode across a conflict
//                ramp (shrinking hot set shared by every client). The
//                acceptance bar: batched + speculative >= 1.5x per-txn 2PC
//                committed throughput at the highest-conflict point.
//   process      one cross-process data point (ProcessCluster, qstream,
//                speculative) to show the batch path survives real TCP and
//                process boundaries; skipped when rc_cluster_node is not
//                next to this binary.
//
// Env knobs (on top of bench_util's SPECRPC_BENCH_{WARMUP,MEASURE}_S):
//   SPECRPC_BATCH_CLIENTS_PER_DC  closed-loop clients per DC   (default 2)
//   SPECRPC_BATCH_RTT_MS          uniform inter-DC RTT         (default 4)
//   SPECRPC_BATCH_NUM_KEYS        dataset size                 (default 20000)
//   SPECRPC_BATCH_HOTFRACS       comma list of hot fractions  ("0.2,0.5,0.9")
//   SPECRPC_BATCH_SKIP_PROCESS    non-zero skips the process phase
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "batch/client.h"
#include "batch/types.h"
#include "common/env.h"
#include "rc/cluster.h"
#include "rc/process_cluster.h"
#include "workload/qstream.h"
#include "workload/runner.h"

namespace {

using namespace srpc;
using namespace srpc::bench;
using batch::BatchMode;

constexpr BatchMode kModes[] = {BatchMode::kPerTxn2pc, BatchMode::kGroupCommit,
                                BatchMode::kSpeculative};

rc::ClusterConfig cluster_config(BatchMode mode, int clients_per_dc,
                                 std::size_t num_keys, double rtt_ms) {
  rc::ClusterConfig config;
  // Only the speculative path needs engines; the baselines run on the
  // TradRPC kit, which is exactly what "per-txn 2PC" means as a baseline.
  config.flavor =
      mode == BatchMode::kSpeculative ? Flavor::kSpec : Flavor::kTrad;
  config.geo = uniform_geo(rtt_ms);
  config.geo.lan_rtt_ms = 0.2;
  config.clients_per_dc = clients_per_dc;
  config.num_keys = num_keys;
  config.batch_clients = true;
  config.batch_mode = mode;
  return config;
}

wl::QStreamConfig qstream_config(std::size_t num_keys, std::size_t hot_keys,
                                 double hot_fraction) {
  wl::QStreamConfig wc;
  wc.txns_per_epoch = 32;
  wc.ops_per_txn = 4;
  wc.num_keys = num_keys;
  wc.hot_keys = hot_keys;
  wc.hot_fraction = hot_fraction;
  wc.cross_partition_fraction = 0.3;
  return wc;
}

// ---------------------------------------------------------- correctness

/// Serial-execution reference: committed transactions applied in batch
/// order with write-buffer semantics (mirrors batch::BatchClient::compute
/// and the replicated apply path; see tests/test_batch.cc).
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
        buffer[op.key] = batch::apply_transform(op.transform, current, op.value);
      }
    }
    for (auto& [key, value] : buffer) state_[key] = value;
  }

  const std::map<std::string, std::string>& state() const { return state_; }

 private:
  std::string initial_;
  std::map<std::string, std::string> state_;
};

/// Polls every replica of every expected key until it matches (decide
/// broadcasts are asynchronous) or the deadline passes.
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

/// One fixed single-client stream through `mode`; true iff every txn
/// committed and the replicated state equals the serial replay.
bool run_correctness(BatchMode mode, std::size_t num_keys, double rtt_ms) {
  rc::RcCluster cluster(
      cluster_config(mode, /*clients_per_dc=*/1, num_keys, rtt_ms));
  auto& client = cluster.batch_client(0, 0);

  wl::QStreamConfig wc = qstream_config(num_keys, /*hot_keys=*/4,
                                        /*hot_fraction=*/0.7);
  wc.txns_per_epoch = 16;
  wl::QStreamWorkload workload(wc, /*seed=*/7);
  SerialReplay replay(std::string(16, 'v'));

  bool all_committed = true;
  for (int epoch = 0; epoch < 4; ++epoch) {
    auto txns = workload.next_epoch();
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
  return all_committed && converged(cluster, replay.state());
}

// ----------------------------------------------------------- throughput

struct ModeResult {
  double committed_per_s = 0;
  double abort_rate = 0;
  std::uint64_t epochs = 0;
  std::uint64_t failed = 0;  // epochs that threw
  double mean_epoch_ms = 0;
  double p99_epoch_ms = 0;
  double mean_commit_ms = 0;
  // Speculative mode only: seeded-prediction outcome counters.
  std::uint64_t predictions_made = 0;
  std::uint64_t predictions_correct = 0;
  std::uint64_t predictions_incorrect = 0;
};

ModeResult run_throughput(BatchMode mode, double hot_fraction,
                          int clients_per_dc, std::size_t num_keys,
                          double rtt_ms) {
  rc::RcCluster cluster(
      cluster_config(mode, clients_per_dc, num_keys, rtt_ms));
  const wl::QStreamConfig wc =
      qstream_config(num_keys, /*hot_keys=*/4, hot_fraction);
  wl::BatchWorkloadFactory factory = [wc](int client_index) {
    auto workload = std::make_shared<wl::QStreamWorkload>(
        wc, 1000 + static_cast<std::uint64_t>(client_index));
    return [workload] { return workload->next_epoch(); };
  };
  const wl::BatchRunResult r =
      wl::run_batch_closed_loop(cluster, factory, warmup(), measure());

  ModeResult out;
  out.committed_per_s = r.committed_per_s();
  out.abort_rate = r.abort_rate();
  out.epochs = r.epochs;
  out.failed = r.failed;
  out.mean_epoch_ms = r.epoch_latency.mean_ms();
  out.p99_epoch_ms = r.epoch_latency.percentile_ms(99);
  out.mean_commit_ms = r.commit_latency.mean_ms();
  const spec::SpecStats spec = cluster.spec_stats();
  out.predictions_made = spec.predictions_made;
  out.predictions_correct = spec.predictions_correct;
  out.predictions_incorrect = spec.predictions_incorrect;
  return out;
}

std::vector<double> hot_fracs() {
  const std::string spec = env_str("SPECRPC_BATCH_HOTFRACS", "0.2,0.5,0.9");
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) out.push_back(std::stod(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main() {
  banner("perf_batch",
         "queue-oriented batch transactions: 2PC vs group commit vs "
         "speculative");

  const int clients_per_dc =
      static_cast<int>(env_long("SPECRPC_BATCH_CLIENTS_PER_DC", 2));
  const double rtt_ms = env_double("SPECRPC_BATCH_RTT_MS", 4.0);
  const std::size_t num_keys =
      static_cast<std::size_t>(env_long("SPECRPC_BATCH_NUM_KEYS", 20'000));
  const std::vector<double> fracs = hot_fracs();

  // Phase 1: serial-equivalence check per mode.
  std::printf("correctness (fixed stream vs serial replay):\n");
  bool state_match[3] = {false, false, false};
  for (int m = 0; m < 3; ++m) {
    state_match[m] = run_correctness(kModes[m], num_keys, rtt_ms);
    std::printf("  %-12s %s\n", batch::to_string(kModes[m]),
                state_match[m] ? "state == serial replay" : "DIVERGED");
  }

  // Phase 2: conflict ramp.
  std::printf("\nthroughput ramp: %d clients/DC, rtt %.1fms, hot_keys=4\n\n",
              clients_per_dc, rtt_ms);
  std::printf("%8s %12s %12s %12s %9s %9s\n", "hot", "2pc txn/s", "group/s",
              "spec/s", "x group", "x spec");

  struct Point {
    double hot_fraction = 0;
    ModeResult modes[3];
  };
  std::vector<Point> points;
  points.reserve(fracs.size());
  for (const double hot : fracs) {
    Point p;
    p.hot_fraction = hot;
    for (int m = 0; m < 3; ++m) {
      p.modes[m] =
          run_throughput(kModes[m], hot, clients_per_dc, num_keys, rtt_ms);
    }
    const double base = p.modes[0].committed_per_s;
    std::printf("%7.2f %12.0f %12.0f %12.0f %8.2fx %8.2fx\n", hot,
                p.modes[0].committed_per_s, p.modes[1].committed_per_s,
                p.modes[2].committed_per_s,
                base > 0 ? p.modes[1].committed_per_s / base : 0,
                base > 0 ? p.modes[2].committed_per_s / base : 0);
    points.push_back(p);
  }

  // Acceptance at the highest-conflict point (ISSUE 8): batched +
  // speculative >= 1.5x the per-txn 2PC committed throughput.
  const Point& peak = points.back();
  const double base = peak.modes[0].committed_per_s;
  const double speedup_spec =
      base > 0 ? peak.modes[2].committed_per_s / base : 0;
  const double speedup_group =
      base > 0 ? peak.modes[1].committed_per_s / base : 0;
  const bool accept = speedup_spec >= 1.5;
  const bool all_match = state_match[0] && state_match[1] && state_match[2];
  std::printf("\npeak hot=%.2f: speculative %.2fx per-txn 2PC "
              "(accept>=1.5x: %s), states match serial: %s\n",
              peak.hot_fraction, speedup_spec, accept ? "yes" : "NO",
              all_match ? "yes" : "NO");

  // Phase 3: one cross-process speculative point over real TCP.
  bool process_ran = false, process_ok = false;
  double process_per_s = 0, process_abort = 0;
  if (env_long("SPECRPC_BATCH_SKIP_PROCESS", 0) == 0 &&
      !rc::ProcessCluster::find_node_binary().empty()) {
    rc::ProcessClusterConfig pc;
    pc.flavor = Flavor::kSpec;
    pc.workload = "qstream";
    pc.batch_mode = "speculative";
    pc.clients_per_dc = clients_per_dc;
    pc.num_keys = num_keys;
    pc.hot_keys = 4;
    pc.hot_fraction = fracs.back();
    pc.warmup = warmup();
    pc.measure = measure();
    rc::ProcessCluster proc(pc);
    const rc::ProcessClusterResult r = proc.run();
    process_ran = true;
    process_ok = r.ok;
    process_per_s = r.committed_per_s();
    const auto total = r.committed + r.aborted;
    process_abort =
        total > 0 ? static_cast<double>(r.aborted) / total : 0;
    std::printf(
        "\ncross-process (speculative, hot=%.2f): %s, %.0f txn/s, %llu "
        "failed\n",
        fracs.back(), r.ok ? "ok" : r.error.c_str(), process_per_s,
        static_cast<unsigned long long>(r.failed));
  } else {
    std::printf("\ncross-process point skipped (no rc_cluster_node)\n");
  }

  FILE* f = std::fopen("BENCH_batch.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_batch.json");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"clients_per_dc\": %d,\n  \"rtt_ms\": %.1f,\n"
               "  \"num_keys\": %zu,\n  \"txns_per_epoch\": 32,\n"
               "  \"correctness\": {\"per_txn_2pc\": %s, "
               "\"group_commit\": %s, \"speculative\": %s},\n"
               "  \"points\": [\n",
               clients_per_dc, rtt_ms, num_keys,
               state_match[0] ? "true" : "false",
               state_match[1] ? "true" : "false",
               state_match[2] ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f, "    {\"hot_fraction\": %.3f,\n", p.hot_fraction);
    for (int m = 0; m < 3; ++m) {
      const ModeResult& r = p.modes[m];
      std::fprintf(
          f,
          "     \"%s\": {\"committed_per_s\": %.0f, \"abort_rate\": %.4f, "
          "\"epochs\": %llu, \"failed\": %llu,\n"
          "       \"mean_epoch_ms\": %.3f, \"p99_epoch_ms\": %.3f, "
          "\"mean_commit_ms\": %.3f,\n"
          "       \"predictions_made\": %llu, \"predictions_correct\": %llu, "
          "\"predictions_incorrect\": %llu}%s\n",
          batch::to_string(kModes[m]), r.committed_per_s, r.abort_rate,
          static_cast<unsigned long long>(r.epochs),
          static_cast<unsigned long long>(r.failed), r.mean_epoch_ms,
          r.p99_epoch_ms, r.mean_commit_ms,
          static_cast<unsigned long long>(r.predictions_made),
          static_cast<unsigned long long>(r.predictions_correct),
          static_cast<unsigned long long>(r.predictions_incorrect),
          m + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"peak_hot_fraction\": %.3f,\n"
               "  \"peak_speedup_group\": %.3f,\n"
               "  \"peak_speedup_speculative\": %.3f,\n"
               "  \"accept_speculative_1p5x\": %s,\n"
               "  \"accept_states_match_serial\": %s,\n"
               "  \"process\": {\"ran\": %s, \"ok\": %s, "
               "\"committed_per_s\": %.0f, \"abort_rate\": %.4f}\n}\n",
               peak.hot_fraction, speedup_group, speedup_spec,
               accept ? "true" : "false", all_match ? "true" : "false",
               process_ran ? "true" : "false", process_ok ? "true" : "false",
               process_per_s, process_abort);
  std::fclose(f);
  std::printf("wrote BENCH_batch.json\n");
  // Exit 0 regardless: sanitizer smokes run this binary with tiny windows
  // where the ratios are noise; the JSON records the acceptance verdicts.
  return 0;
}
