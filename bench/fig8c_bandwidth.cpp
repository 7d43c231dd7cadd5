// Figure 8c: network bandwidth usage of the three frameworks under the §5.1
// microbenchmark (client/server x send/receive).
//
// Paper shape: gRPC uses the least bandwidth (optimized serialization);
// TradRPC more (verbose fixed-width encoding); SpecRPC the most (TradRPC's
// encoding + re-executed RPCs and state-change messages).
#include <cstdio>

#include "bench_util.h"
#include "workload/microbench.h"

int main() {
  using namespace srpc;  // NOLINT
  bench::banner("Figure 8c", "network bandwidth usage (microbench, 90% rate)");

  bench::Table table({"framework", "client send (kbps)", "client recv (kbps)",
                      "server send (kbps)", "server recv (kbps)", "failed"});
  for (Flavor flavor : kAllFlavors) {
    wl::MicroConfig config;
    config.flavor = flavor;
    config.correct_rate = 0.9;
    config.seed = 77;
    const auto result =
        wl::run_microbench(config, bench::warmup(), bench::measure());
    table.row({to_string(flavor), bench::fmt(result.client_send_kbps(), 1),
               bench::fmt(result.client_recv_kbps(), 1),
               bench::fmt(result.server_send_kbps(), 1),
               bench::fmt(result.server_recv_kbps(), 1),
               std::to_string(result.failed)});
  }
  table.print();
  std::printf("\nPaper shape: gRPC < TradRPC < SpecRPC on every series.\n");
  return 0;
}
