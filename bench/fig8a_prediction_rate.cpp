// Figure 8a: mean request completion time versus correct-prediction rate.
//
// §5.1 microbenchmark: 16 clients, 4 dependent 10 ms RPCs per request, 64 B
// payloads, 10 requests/s per client. gRPC and TradRPC execute the chain
// sequentially (flat lines around 4 RPC times); SpecRPC's completion falls
// as the per-RPC prediction rate rises — up to a 75% reduction at 100%,
// and ~0.1 ms overhead over TradRPC at 0%.
#include <cstdio>

#include "bench_util.h"
#include "workload/microbench.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 8a",
                "request completion vs correct prediction rate (microbench)");

  wl::MicroConfig base;
  base.rpcs_per_request = 4;
  base.service_time = from_ms(10.0);

  // Baselines do not use predictions: one run each.
  double grpc_ms = 0;
  double trad_ms = 0;
  std::uint64_t failed = 0;  // thrown requests over every run
  const auto run = [&failed](const wl::MicroConfig& config) {
    const auto result =
        wl::run_microbench(config, bench::warmup(), bench::measure());
    failed += result.failed;
    return result.mean_ms();
  };
  {
    auto config = base;
    config.flavor = Flavor::kGrpc;
    grpc_ms = run(config);
    config.flavor = Flavor::kTrad;
    trad_ms = run(config);
  }

  bench::Table table({"correct prediction rate (%)", "gRPC (ms)",
                      "TradRPC (ms)", "SpecRPC (ms)",
                      "SpecRPC adaptive (ms)", "SpecRPC vs gRPC (%)"});
  for (int rate = 0; rate <= 100; rate += 10) {
    auto config = base;
    config.flavor = Flavor::kSpec;
    config.correct_rate = rate / 100.0;
    config.seed = 7 + static_cast<std::uint64_t>(rate);
    const double spec_ms = run(config);
    // Adaptive series: the same oracle accuracy, but predictions flow
    // through the supplier hook behind the AdaptiveSpeculationController —
    // below break-even accuracy the gate closes and the curve flattens at
    // the no-speculation level instead of paying for wrong guesses.
    auto adaptive_config = config;
    adaptive_config.predict.oracle = true;
    adaptive_config.predict.adaptive = true;
    const double adaptive_ms = run(adaptive_config);
    table.row({std::to_string(rate), bench::fmt(grpc_ms),
               bench::fmt(trad_ms), bench::fmt(spec_ms),
               bench::fmt(adaptive_ms),
               bench::fmt(100.0 * (1.0 - spec_ms / grpc_ms), 1)});
  }
  table.print();
  std::printf("failed requests (all runs): %llu\n",
              static_cast<unsigned long long>(failed));
  std::printf("\nPaper shape: baselines flat (~41 / ~40.5 ms); SpecRPC "
              "falls to ~1 RPC time at 100%% (-75%%), ~40%% reduction at "
              "50%%, and ~TradRPC+0.1ms at 0%%. The adaptive series tracks "
              "SpecRPC above break-even accuracy and the TradRPC level "
              "below it (gate closed).\n");
  return 0;
}
