// Replicated Commit integration tests: protocol correctness on all three
// framework flavours, quorum-read semantics, conflict aborts, replica
// convergence, and the SpecRPC read chain's equivalence to sequential
// execution.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "rc/cluster.h"
#include "workload/retwis.h"
#include "workload/runner.h"
#include "workload/ycsbt.h"

namespace srpc::rc {
namespace {

ClusterConfig small_cluster(Flavor flavor, int clients_per_dc = 2) {
  ClusterConfig config;
  config.flavor = flavor;
  config.geo = uniform_geo(/*rtt_ms=*/10.0);
  config.geo.lan_rtt_ms = 0.5;
  config.clients_per_dc = clients_per_dc;
  config.num_keys = 1000;
  config.executor_threads = 8;
  return config;
}

class RcFlavorTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(RcFlavorTest, WriteThenReadBack) {
  RcCluster cluster(small_cluster(GetParam()));
  auto& client = cluster.client(0, 0);

  // Txn 1: read-modify-write.
  std::vector<Op> ops;
  ops.push_back(Op{true, "k00000001", {}});
  ops.push_back(Op{false, "k00000001", "hello"});
  TxnResult r1 = client.run(ops);
  ASSERT_TRUE(r1.committed);
  ASSERT_EQ(r1.reads.size(), 1u);
  EXPECT_EQ(r1.reads[0].value, std::string(16, 'v'));  // initial load

  // Txn 2 (different client, different DC): must see the committed write.
  auto& client2 = cluster.client(1, 0);
  std::vector<Op> ops2;
  ops2.push_back(Op{true, "k00000001", {}});
  TxnResult r2 = client2.run(ops2);
  ASSERT_TRUE(r2.committed);
  EXPECT_TRUE(r2.read_only);
  ASSERT_EQ(r2.reads.size(), 1u);
  EXPECT_EQ(r2.reads[0].value, "hello");
  EXPECT_GT(r2.reads[0].version, r1.reads[0].version);
}

TEST_P(RcFlavorTest, ReadYourOwnBufferedWrite) {
  RcCluster cluster(small_cluster(GetParam()));
  auto& client = cluster.client(0, 0);
  std::vector<Op> ops;
  ops.push_back(Op{false, "k00000002", "mine"});
  ops.push_back(Op{true, "k00000002", {}});
  TxnResult r = client.run(ops);
  ASSERT_TRUE(r.committed);
  ASSERT_EQ(r.reads.size(), 1u);  // served from the write buffer
  EXPECT_EQ(r.reads[0].value, "mine");
}

TEST_P(RcFlavorTest, ConflictOnMajorityAborts) {
  RcCluster cluster(small_cluster(GetParam()));
  const std::string key = "k00000003";
  const int shard = cluster.view()->shard_of(key);
  // A phantom transaction holds the write lock in 2 of 3 DCs: the commit
  // cannot gather a majority of yes votes.
  for (int dc = 0; dc < 2; ++dc) {
    ASSERT_TRUE(cluster.store(dc, shard).prepare(
        /*owner=*/999999, {{999999, 0, {}, {kv::WriteOp{key, "blocked"}}}})[0]);
  }
  auto& client = cluster.client(0, 0);
  std::vector<Op> ops;
  ops.push_back(Op{false, key, "loser"});
  TxnResult r = client.run(ops);
  EXPECT_FALSE(r.committed);
}

TEST_P(RcFlavorTest, ConflictOnMinorityStillCommits) {
  RcCluster cluster(small_cluster(GetParam()));
  const std::string key = "k00000004";
  const int shard = cluster.view()->shard_of(key);
  ASSERT_TRUE(cluster.store(2, shard).prepare(
      /*owner=*/999998, {{999998, 0, {}, {kv::WriteOp{key, "blocked"}}}})[0]);
  auto& client = cluster.client(0, 0);
  std::vector<Op> ops;
  ops.push_back(Op{false, key, "winner"});
  TxnResult r = client.run(ops);
  EXPECT_TRUE(r.committed);
}

TEST_P(RcFlavorTest, QuorumReadSeesMajorityVersion) {
  RcCluster cluster(small_cluster(GetParam()));
  const std::string key = "k00000005";
  const int shard = cluster.view()->shard_of(key);
  // A committed write reaches a majority (DCs 0 and 1); DC 2 lags.
  cluster.store(0, shard).load(key, "new", 50);
  cluster.store(1, shard).load(key, "new", 50);
  // Any 2-of-3 read quorum must include at least one updated replica.
  for (int dc = 0; dc < 3; ++dc) {
    auto& client = cluster.client(dc, 0);
    std::vector<Op> ops;
    ops.push_back(Op{true, key, {}});
    TxnResult r = client.run(ops);
    ASSERT_TRUE(r.committed);
    EXPECT_EQ(r.reads[0].value, "new") << "reader in dc " << dc;
    EXPECT_EQ(r.reads[0].version, 50);
  }
}

TEST_P(RcFlavorTest, ClosedLoopRunCommitsAndReplicasConverge) {
  auto config = small_cluster(GetParam());
  RcCluster cluster(config);
  wl::RcRunResult result = wl::run_rc_closed_loop(
      cluster,
      [&](int client_index) {
        auto workload = std::make_shared<wl::YcsbtWorkload>(
            wl::YcsbtConfig{5, 0.5, 0.9, config.num_keys, 8},
            1000 + static_cast<std::uint64_t>(client_index));
        return [workload] { return workload->next_txn(); };
      },
      /*warmup=*/std::chrono::milliseconds(200),
      /*measure=*/std::chrono::seconds(2));
  EXPECT_GT(result.committed, 20u);
  EXPECT_LT(result.abort_rate(), 0.5);
  // Quiesce: let asynchronous applies drain, then check every shard's three
  // replicas converged to identical contents.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (int shard = 0; shard < cluster.num_shards(); ++shard) {
    auto& reference = cluster.store(0, shard);
    for (int dc = 1; dc < 3; ++dc) {
      EXPECT_EQ(cluster.store(dc, shard).size(), reference.size());
    }
    EXPECT_EQ(reference.locked_keys(), 0u) << "locks leaked on shard" << shard;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, RcFlavorTest,
                         ::testing::Values(Flavor::kGrpc, Flavor::kTrad,
                                           Flavor::kSpec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(RcFlavorTest, ConcurrentIncrementsAreSerializable) {
  // Classic serializability probe: many clients perform read-modify-write
  // increments of one hot counter key via run_transform. The commit
  // validates the exact read each transform consumed, so every *committed*
  // increment is reflected exactly once — no lost updates.
  auto config = small_cluster(GetParam(), /*clients_per_dc=*/2);
  RcCluster cluster(config);
  const std::string key = "k00000042";
  const std::string initial(16, 'v');  // the loaded dataset value
  auto increment = [initial](const std::string& current) {
    const int n = current == initial ? 0 : std::stoi(current);
    return std::to_string(n + 1);
  };
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int dc = 0; dc < 3; ++dc) {
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([&, dc, i] {
        auto& client = cluster.client(dc, i);
        Rng rng(static_cast<std::uint64_t>(dc * 16 + i + 1));
        for (int round = 0; round < 8; ++round) {
          TxnResult w = client.run_transform(key, increment);
          if (w.committed) committed.fetch_add(1);
          // Randomized backoff: six clients in lockstep on one key can
          // livelock (each DC's fail-fast lock goes to a different txn, so
          // none reaches a majority) — as in any real deployment, jittered
          // retry breaks the symmetry.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(rng.uniform_range(1, 25)));
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));  // applies

  std::vector<Op> verify;
  verify.push_back(Op{true, key, {}});
  TxnResult final_read = cluster.client(0, 0).run(verify);
  ASSERT_TRUE(final_read.committed);
  ASSERT_GT(committed.load(), 0);
  EXPECT_EQ(std::stoi(final_read.reads.at(0).value), committed.load());
}

TEST(RcSpeculation, SpecChainMatchesSequentialResults) {
  // The same transaction executed speculatively and sequentially (on the
  // same cluster state) must return identical reads — the paper's
  // correctness bar (§3: equivalent to a traditional RPC framework).
  RcCluster cluster(small_cluster(Flavor::kSpec));
  auto& client = cluster.client(0, 0);
  std::vector<Op> ops;
  for (int i = 10; i < 15; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    ops.push_back(Op{true, key, {}});
  }
  TxnResult spec = client.run_speculative(ops);
  TxnResult seq = client.run_sequential(ops);
  ASSERT_TRUE(spec.committed);
  ASSERT_TRUE(seq.committed);
  ASSERT_EQ(spec.reads.size(), seq.reads.size());
  for (std::size_t i = 0; i < spec.reads.size(); ++i) {
    EXPECT_EQ(spec.reads[i].key, seq.reads[i].key);
    EXPECT_EQ(spec.reads[i].value, seq.reads[i].value);
    EXPECT_EQ(spec.reads[i].version, seq.reads[i].version);
  }
}

TEST(RcSpeculation, SpeculativeReadsOverlapInTime) {
  // 5 dependent quorum reads at 40 ms RTT: sequential needs ~5 RTTs; the
  // speculative chain should complete in little more than one RTT.
  auto config = small_cluster(Flavor::kSpec);
  config.geo = uniform_geo(40.0);
  RcCluster cluster(config);
  auto& client = cluster.client(0, 0);
  std::vector<Op> ops;
  for (int i = 20; i < 25; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    ops.push_back(Op{true, key, {}});
  }
  TxnResult spec = client.run_speculative(ops);
  TxnResult seq = client.run_sequential(ops);
  ASSERT_TRUE(spec.committed);
  ASSERT_TRUE(seq.committed);
  // Sequential: ~5 * 40ms = 200ms. Speculative: ~1 RTT + slack.
  EXPECT_GT(to_ms(seq.total), 150.0);
  EXPECT_LT(to_ms(spec.total), to_ms(seq.total) * 0.6);
  const auto stats = cluster.spec_stats();
  EXPECT_EQ(stats.quorum_calls_issued, 5u);  // only the spec run
  EXPECT_GT(stats.predictions_correct, 0u);
}

}  // namespace
}  // namespace srpc::rc
