// Analytics pipeline — the paper's Figure 3 multi-level speculation example.
//
// Three parties:
//   * Data Server (DS)      — getPH: the user's purchase history. DS is not
//     the primary replica, so a linearizable read needs synchronization
//     (slow), but DS can speculatively return its local copy immediately.
//   * Analysis Server (AS)  — getPI: computes purchasing interests from the
//     PH it fetches from DS; speculatively returns a PI computed from the
//     predicted PH. getAI: aggregate info for a userbase; returns a cached
//     approximation as a server-side prediction while computing for real.
//   * Client                — getPI -> getAI -> comp, all overlapped.
//
// With correct predictions, the client-side `comp` runs while getPH's
// synchronization and getAI's real computation are still in flight — the
// multi-level speculation of §2.2 (comp depends on two predictions).
#include <iostream>

#include "specrpc/engine.h"
#include "transport/sim_network.h"

using namespace srpc;        // NOLINT
using namespace srpc::spec;  // NOLINT

namespace {

constexpr auto kSyncDelay = std::chrono::milliseconds(60);   // DS sync
constexpr auto kAiCompute = std::chrono::milliseconds(80);   // AS real AI

void register_data_server(SpecEngine& ds) {
  ds.register_method("getPH", Handler([](const ServerCallPtr& call) {
    const std::string user = call->args().at(0).as_string();
    const std::string local_copy = "ph(" + user + ")";
    // Speculative response from local data (§2.2: "DS can send a speculative
    // response using its local data"), actual once synchronized.
    call->spec_return(Value(local_copy));
    call->finish_after(kSyncDelay, Value(local_copy));
  }));
}

void register_analysis_server(SpecEngine& as) {
  as.register_method("getPI", Handler([](const ServerCallPtr& call) {
    const std::string user = call->args().at(0).as_string();
    // AS consumes getPH speculatively; its finish() from the speculative
    // callback automatically becomes a predicted response to the client,
    // upgraded to the actual response when PH resolves (Figure 3b, 5 & 9).
    auto factory = [call]() -> CallbackFn {
      return [call](SpecContext&, const Value& ph) -> CallbackResult {
        const Value pi("pi[" + ph.as_string() + "]");
        call->finish(pi);
        return pi;
      };
    };
    call->call("ds", "getPH", make_args(user), {}, factory);
  }));

  as.register_method("getAI", Handler([](const ServerCallPtr& call) {
    const std::string pi = call->args().at(0).as_string();
    // Cached response for a related userbase as the prediction...
    call->spec_return(Value("ai{" + pi + "}"));
    // ...while the real aggregate is generated.
    call->finish_after(kAiCompute, Value("ai{" + pi + "}"));
  }));
}

}  // namespace

int main() {
  SimNetwork net;
  SpecEngine client(net.add_node("client"), net.executor(), net.wheel());
  SpecEngine analysis(net.add_node("as"), net.executor(), net.wheel());
  SpecEngine data(net.add_node("ds"), net.executor(), net.wheel());
  register_data_server(data);
  register_analysis_server(analysis);

  const auto t0 = Clock::now();

  // Client chain: getPI -> getAI -> comp.
  auto get_ai_cb = []() -> CallbackFn {
    return [](SpecContext& ctx, const Value& ai) -> CallbackResult {
      // `comp`: the client's local computation, speculatively executed while
      // getPH and getAI are still running (Figure 3b step 7).
      const std::string purchase_decision =
          "buy-if[" + ai.as_string() + "]";
      // comp would have side effects (placing an order): wait until this
      // branch is provably non-speculative.
      ctx.spec_block();
      return Value(purchase_decision);
    };
  };
  auto get_pi_cb = [&get_ai_cb]() -> CallbackFn {
    return [&get_ai_cb](SpecContext& ctx, const Value& pi) -> CallbackResult {
      return ctx.call("as", "getAI", make_args(pi.as_string()), {},
                      get_ai_cb);
    };
  };

  auto future = client.call("as", "getPI", make_args("alice"), {}, get_pi_cb);
  const Value decision = future->get();
  const double elapsed = to_ms(Clock::now() - t0);

  std::cout << "decision: " << decision.to_string() << "\n";
  std::cout << "elapsed: " << elapsed << " ms (sequential would be ~"
            << to_ms(kSyncDelay + kAiCompute) << "+ ms)\n";
  const auto stats = client.stats();
  std::cout << "client predictions correct: " << stats.predictions_correct
            << ", spec_blocks: " << stats.spec_blocks << "\n";

  client.begin_shutdown();
  analysis.begin_shutdown();
  data.begin_shutdown();
  // Drain the executor before the engines are destroyed: a branch task that
  // is still running (the unparked spec_block above) must not reach a freed
  // engine.
  net.executor().shutdown();
  // With both predictions correct, everything overlaps: the critical path is
  // max(sync, ai) + small network delays, not their sum.
  return elapsed < to_ms(kSyncDelay + kAiCompute) ? 0 : 1;
}
