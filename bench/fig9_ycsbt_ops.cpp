// Figure 9: mean transaction completion time and commit latency versus the
// number of operations per transaction (YCSB+T, 1:1 reads/writes, Zipf
// alpha 0.75, Table 1 RTTs).
//
// Paper shape: gRPC/TradRPC completion time grows linearly with the number
// of reads (each dependent quorum read costs a WAN round trip) — >600% from
// 5 to 50 ops; SpecRPC stays nearly flat (+23%), and the commit latency is
// roughly constant for all three (one WAN round trip). First-responder
// prediction accuracy should exceed 95%.
#include <cstdio>

#include "rc_bench_util.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 9", "RC txn completion & commit latency vs ops/txn");

  bench::Table table({"ops/txn", "framework", "completion (ms, paper-scale)",
                      "commit latency (ms, paper-scale)", "txns", "failed"});
  double first_spec = 0;
  double last_spec = 0;
  double first_trad = 0;
  double last_trad = 0;
  for (int ops : {5, 10, 20, 30, 40, 50}) {
    for (Flavor flavor : kAllFlavors) {
      auto config = bench::rc_config(flavor);
      rc::RcCluster cluster(config);
      wl::YcsbtConfig workload;
      workload.ops_per_txn = ops;
      workload.read_fraction = 0.5;
      workload.zipf_alpha = 0.75;
      workload.num_keys = config.num_keys;
      auto result = wl::run_rc_closed_loop(
          cluster, bench::ycsbt_factory(workload, 10'000 + ops),
          bench::warmup(), bench::measure());
      const double mean = bench::descale_ms(result.txn_latency.mean_ms());
      const double commit =
          bench::descale_ms(result.commit_latency.mean_ms());
      table.row({std::to_string(ops), to_string(flavor), bench::fmt(mean, 1),
                 bench::fmt(commit, 1), std::to_string(result.committed),
                 std::to_string(result.failed)});
      if (flavor == Flavor::kSpec) {
        if (ops == 5) first_spec = mean;
        if (ops == 50) last_spec = mean;
      }
      if (flavor == Flavor::kTrad) {
        if (ops == 5) first_trad = mean;
        if (ops == 50) last_trad = mean;
      }
      if (flavor == Flavor::kSpec && ops == 50) {
        const auto stats = cluster.spec_stats();
        std::printf("  [SpecRPC @50 ops] first-response prediction accuracy:"
                    " %.1f%% (%llu/%llu)\n",
                    100.0 * stats.predictions_correct /
                        std::max<std::uint64_t>(1, stats.predictions_made),
                    static_cast<unsigned long long>(stats.predictions_correct),
                    static_cast<unsigned long long>(stats.predictions_made));
      }
    }
  }
  table.print();
  std::printf("\nGrowth 5 -> 50 ops: SpecRPC %+.0f%%, TradRPC %+.0f%% "
              "(paper: +23%% vs >+600%%)\n",
              100.0 * (last_spec / first_spec - 1.0),
              100.0 * (last_trad / first_trad - 1.0));
  return 0;
}
