// The benchmark's tracing wrappers must be invisible to the program: a
// traced run produces byte-identical outputs to an untraced one on the same
// inputs, and the send/receive matcher pairs every message.
//
//   cmake --build .bench_build --target specbench_tests
//   .bench_build/specbench_tests
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "chain.h"
#include "common/rng.h"
#include "rc_geo.h"
#include "workload/retwis.h"

namespace specbench {
namespace {

using srpc::Flavor;

ChainSpec small_chain(bool tcp) {
  ChainSpec spec = chain_tcp_spec();
  spec.tcp = tcp;
  spec.volatile_pct = 0;  // keep every result a pure function of its input
  spec.key_space = 24;
  return spec;
}

/// Runs `n` chains one at a time and returns their final values.
std::vector<std::string> run_chains(ChainFixture& fx, const ChainSpec& spec,
                                    int n) {
  srpc::Rng rng(42);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t key =
        rng.uniform(static_cast<std::uint64_t>(spec.key_space));
    std::promise<srpc::rpc::Outcome> done;
    auto result = done.get_future();
    fx.issue(static_cast<std::uint64_t>(i + 1), key, i % spec.clients,
             [&done](const srpc::rpc::Outcome& o) { done.set_value(o); });
    const srpc::rpc::Outcome outcome = result.get();
    EXPECT_TRUE(outcome.ok) << outcome.error;
    if (!outcome.ok) {
      out.emplace_back();
      continue;
    }
    EXPECT_TRUE(fx.check(key, outcome.value)) << "chain " << i;
    out.push_back(outcome.value.as_string());
  }
  return out;
}

void expect_all_paired(TransitMatcher& matcher) {
  // Late state-change messages may still be in flight after the futures
  // resolved; wait for the network to go quiet.
  for (int i = 0; i < 400 && matcher.pending() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(matcher.pending(), 0u);
  EXPECT_EQ(matcher.unmatched_receives(), 0u);
  EXPECT_EQ(matcher.sent(), matcher.matched());
  EXPECT_GT(matcher.matched(), 0u);
}

struct ChainCase {
  bool tcp;
  Flavor flavor;
};

class ChainWrappers : public ::testing::TestWithParam<ChainCase> {};

TEST_P(ChainWrappers, OutputsMatchUntracedRunAndEveryMessagePairs) {
  const ChainSpec spec = small_chain(GetParam().tcp);
  const Flavor flavor = GetParam().flavor;
  constexpr int kChains = 60;

  std::vector<std::string> plain;
  {
    ChainFixture fx(spec, flavor, nullptr);
    plain = run_chains(fx, spec, kChains);
  }
  Tracer tracer;
  std::vector<std::string> traced;
  {
    ChainFixture fx(spec, flavor, &tracer);
    traced = run_chains(fx, spec, kChains);
    expect_all_paired(*fx.matcher());
  }
  EXPECT_EQ(plain, traced);

  const Tracer::Totals totals = tracer.collect();
  auto count = [&](Kind k) { return totals.count[static_cast<std::size_t>(k)]; };
  EXPECT_GT(count(Kind::kEncode), 0u);
  EXPECT_GT(count(Kind::kDecode), 0u);
  EXPECT_GT(count(Kind::kSend), 0u);
  EXPECT_GT(count(Kind::kHandler), 0u);
  if (flavor == Flavor::kSpec) {
    EXPECT_GT(count(Kind::kPredict), 0u);
  }
  EXPECT_EQ(totals.samples[static_cast<std::size_t>(Sample::kExecWait)].size(),
            count(Kind::kHandler));
}

INSTANTIATE_TEST_SUITE_P(
    All, ChainWrappers,
    ::testing::Values(ChainCase{false, Flavor::kSpec},
                      ChainCase{false, Flavor::kTrad},
                      ChainCase{true, Flavor::kSpec},
                      ChainCase{true, Flavor::kTrad}),
    [](const ::testing::TestParamInfo<ChainCase>& info) {
      return std::string(info.param.tcp ? "Tcp" : "Sim") +
             (info.param.flavor == Flavor::kSpec ? "Spec" : "Trad");
    });

/// Runs a fixed Retwis sequence one transaction at a time (no conflicts),
/// digests each outcome and checks the replicas converge. Commit versions
/// are process-wide stamps, so only keys and values are compared.
std::vector<std::string> run_txns(Flavor flavor, Tracer* tracer) {
  RcSpec spec;
  spec.num_keys = 2000;
  RcFixture fx(spec, flavor, tracer, 7, ::testing::TempDir());
  srpc::wl::RetwisConfig cfg;
  cfg.zipf_alpha = spec.zipf_alpha;
  cfg.num_keys = spec.num_keys;
  srpc::wl::RetwisWorkload workload(cfg, 99);
  std::vector<std::string> out;
  for (int i = 0; i < 30; ++i) {
    const auto txn = fx.client(i % fx.num_dcs(), 0).run(workload.next_txn().ops);
    std::string digest = txn.committed ? "commit" : "abort";
    for (const auto& r : txn.reads) digest += " " + r.key + "=" + r.value;
    out.push_back(digest);
  }
  EXPECT_EQ(fx.wait_converged(5.0), "");
  return out;
}

TEST(RpcKitWrapper, TransactionsMatchUntracedRun) {
  for (Flavor flavor : {Flavor::kSpec, Flavor::kTrad}) {
    const auto plain = run_txns(flavor, nullptr);
    Tracer tracer;
    const auto traced = run_txns(flavor, &tracer);
    EXPECT_EQ(plain, traced);
    const auto totals = tracer.collect();
    EXPECT_GT(totals.count[static_cast<std::size_t>(Kind::kHandler)], 0u);
    EXPECT_FALSE(
        totals.samples[static_cast<std::size_t>(Sample::kServerRead)].empty());
  }
}

TEST(TransitMatcher, PairsFifoPerPairAndWithdrawsRefusedSends) {
  TransitMatcher m;
  m.on_send("a", "b");
  const auto refused = m.on_send("a", "b");
  m.on_send("a", "c");
  m.on_send("a", "b");
  m.cancel("a", "b", refused);
  EXPECT_EQ(m.sent(), 3u);
  EXPECT_TRUE(m.on_receive("a", "b").has_value());
  EXPECT_TRUE(m.on_receive("a", "c").has_value());
  EXPECT_TRUE(m.on_receive("a", "b").has_value());
  EXPECT_FALSE(m.on_receive("a", "b").has_value());
  EXPECT_EQ(m.matched(), 3u);
  EXPECT_EQ(m.unmatched_receives(), 1u);
  EXPECT_EQ(m.pending(), 0u);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, Kind::kIssue);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ScopedSpan inner(&tracer, Kind::kEncode);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  const auto totals = tracer.collect();
  const double issue = totals.self_us[static_cast<std::size_t>(Kind::kIssue)];
  const double encode = totals.self_us[static_cast<std::size_t>(Kind::kEncode)];
  EXPECT_GE(issue, 20'000);
  EXPECT_LT(issue, 40'000);
  EXPECT_GE(encode, 40'000);
}

}  // namespace
}  // namespace specbench
