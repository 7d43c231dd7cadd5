// Figure 11: CDF of transaction completion time under the Retwis workload
// (Table 2 profile, Zipf alpha 0.75, Table 1 RTTs).
//
// Paper shape: SpecRPC's CDF sits well to the left of gRPC/TradRPC (mean
// completion time reduced by 58%); the baselines' curves are step-like
// (transaction types with different read-chain lengths), SpecRPC's much
// steeper (reads overlap, so chain length barely matters).
#include <cstdio>

#include "rc_bench_util.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 11", "Retwis transaction completion time CDF");

  struct Series {
    Flavor flavor;
    stats::Histogram hist;
    double mean_ms = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Series> series;
  for (Flavor flavor : kAllFlavors) {
    auto config = bench::rc_config(flavor);
    rc::RcCluster cluster(config);
    wl::RetwisConfig workload;
    workload.num_keys = config.num_keys;
    auto result =
        wl::run_rc_closed_loop(cluster, bench::retwis_factory(workload, 777),
                               bench::warmup(), bench::measure());
    Series s{flavor, result.txn_latency,
             bench::descale_ms(result.txn_latency.mean_ms()), result.failed};
    series.push_back(std::move(s));
  }

  bench::Table table({"percentile", "gRPC (ms)", "TradRPC (ms)",
                      "SpecRPC (ms)"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    std::vector<std::string> row{bench::fmt(p, 0)};
    for (auto& s : series) {
      row.push_back(
          bench::fmt(bench::descale_ms(s.hist.percentile_ms(p)), 1));
    }
    table.row(row);
  }
  table.print();

  std::printf("\nmean completion (paper-scale ms): gRPC %.1f, TradRPC %.1f, "
              "SpecRPC %.1f\n",
              series[0].mean_ms, series[1].mean_ms, series[2].mean_ms);
  std::printf("failed txns: gRPC %llu, TradRPC %llu, SpecRPC %llu\n",
              static_cast<unsigned long long>(series[0].failed),
              static_cast<unsigned long long>(series[1].failed),
              static_cast<unsigned long long>(series[2].failed));
  std::printf("SpecRPC mean reduction vs gRPC: %.0f%% (paper: 58%%)\n",
              100.0 * (1.0 - series[2].mean_ms / series[0].mean_ms));
  return 0;
}
