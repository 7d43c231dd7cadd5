// Figure 8b: mean request completion time versus the number of dependent
// RPCs per request, at a 90% per-RPC correct-prediction rate.
//
// Paper shape: gRPC and TradRPC grow linearly with chain length; SpecRPC
// grows only slightly (only mispredicted links serialize).
#include <cstdio>

#include "bench_util.h"
#include "workload/microbench.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 8b",
                "request completion vs # RPCs per request (90% predictions)");

  bench::Table table({"# RPCs/request", "gRPC (ms)", "TradRPC (ms)",
                      "SpecRPC (ms)"});
  std::uint64_t failed = 0;  // thrown requests over every run
  for (int chain : {1, 2, 4, 6, 8, 10}) {
    std::vector<std::string> row{std::to_string(chain)};
    for (Flavor flavor : kAllFlavors) {
      wl::MicroConfig config;
      config.flavor = flavor;
      config.rpcs_per_request = chain;
      config.service_time = from_ms(10.0);
      config.correct_rate = 0.9;
      config.seed = 31 + static_cast<std::uint64_t>(chain);
      const auto result =
          wl::run_microbench(config, bench::warmup(), bench::measure());
      row.push_back(bench::fmt(result.mean_ms()));
      failed += result.failed;
    }
    table.row(row);
  }
  table.print();
  std::printf("failed requests (all runs): %llu\n",
              static_cast<unsigned long long>(failed));
  std::printf("\nPaper shape: baselines linear in chain length; SpecRPC "
              "nearly flat.\n");
  return 0;
}
