// Figure 12: (a) abort rate and (b) committed/aborted transactions per
// second versus the Zipfian alpha (contention), Retwis workload, closed
// loop with a fixed number of clients.
//
// Paper shape: abort rates stay low until alpha ~0.9 and then climb for all
// three systems, SpecRPC's only marginally higher (~1% at alpha 0.9) even
// though it commits ~2x the transactions of the baselines in the same
// closed loop (its transactions are half as long).
#include <cstdio>

#include "rc_bench_util.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 12", "Retwis abort rate & throughput vs Zipf alpha");

  bench::Table table({"alpha", "framework", "abort rate (%)",
                      "committed/s", "aborted/s", "failed"});
  for (double alpha : {0.5, 0.7, 0.9, 1.1, 1.3}) {
    for (Flavor flavor : kAllFlavors) {
      auto config = bench::rc_config(flavor);
      rc::RcCluster cluster(config);
      wl::RetwisConfig workload;
      workload.zipf_alpha = alpha;
      workload.num_keys = config.num_keys;
      auto result = wl::run_rc_closed_loop(
          cluster,
          bench::retwis_factory(workload,
                                30'000 + static_cast<int>(alpha * 100)),
          bench::warmup(), bench::measure());
      table.row({bench::fmt(alpha, 1), to_string(flavor),
                 bench::fmt(100.0 * result.abort_rate(), 2),
                 bench::fmt(result.committed_per_s(), 1),
                 bench::fmt(result.aborted / result.elapsed_s, 1),
                 std::to_string(result.failed)});
    }
  }
  table.print();
  std::printf("\nPaper shape: SpecRPC commits ~2x the baselines' txns/s at "
              "every alpha, with only a marginally higher abort rate "
              "(~+1%% at alpha 0.9).\n");
  return 0;
}
