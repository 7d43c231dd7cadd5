// Figure 10: median and 99th-percentile transaction completion time versus
// the probability that an operation is a read (YCSB+T, 5 ops/txn).
//
// Paper shape: for gRPC/TradRPC the median grows linearly with read
// probability and the tail grows faster (tail txns are all-read); SpecRPC's
// median and p99 are largely flat (correct prediction rate > 99%).
#include <cstdio>

#include "rc_bench_util.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 10",
                "RC txn completion median/p99 vs read probability");

  bench::Table table({"read prob", "framework",
                      "median (ms, paper-scale)", "p99 (ms, paper-scale)",
                      "txns", "failed"});
  for (double prob : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    for (Flavor flavor : kAllFlavors) {
      auto config = bench::rc_config(flavor);
      rc::RcCluster cluster(config);
      wl::YcsbtConfig workload;
      workload.ops_per_txn = 5;
      workload.read_fraction = prob;
      workload.zipf_alpha = 0.75;
      workload.num_keys = config.num_keys;
      auto result = wl::run_rc_closed_loop(
          cluster,
          bench::ycsbt_factory(workload,
                               20'000 + static_cast<int>(prob * 100)),
          bench::warmup(), bench::measure());
      table.row({bench::fmt(prob, 1), to_string(flavor),
                 bench::fmt(
                     bench::descale_ms(result.txn_latency.percentile_ms(50)),
                     1),
                 bench::fmt(
                     bench::descale_ms(result.txn_latency.percentile_ms(99)),
                     1),
                 std::to_string(result.committed),
                 std::to_string(result.failed)});
    }
  }
  table.print();
  std::printf("\nPaper shape: baselines grow with read probability (tail "
              "faster); SpecRPC flat in both median and p99.\n");
  return 0;
}
