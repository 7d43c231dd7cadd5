// Replicated Commit under failure injection: datacentre partitions.
// RC tolerates one unreachable DC by construction (majority quorums for
// both reads and commit votes); these tests check the reproduction does
// too, and that healing restores full operation.
#include <gtest/gtest.h>

#include "rc/cluster.h"
#include "workload/runner.h"

namespace srpc::rc {
namespace {

ClusterConfig failover_cluster(Flavor flavor) {
  ClusterConfig config;
  config.flavor = flavor;
  config.geo = uniform_geo(10.0);
  config.clients_per_dc = 1;
  config.num_keys = 500;
  config.call_timeout = std::chrono::seconds(2);  // fail fast when cut off
  return config;
}

/// Cuts every link between machines of `dc` and everything in other DCs
/// (clients of `dc` included — they move with their datacentre).
void partition_dc(RcCluster& cluster, int dc, bool blocked) {
  const auto view = cluster.view();
  std::vector<Address> in_dc;
  for (int shard = 0; shard < cluster.total_shards(); ++shard)
    in_dc.push_back(view->shard_addr(dc, shard));
  in_dc.push_back(view->coord_addr(dc));
  for (int i = 0; i < cluster.clients_per_dc(); ++i)
    in_dc.push_back(view->dc_names[static_cast<std::size_t>(dc)] + ".client" +
                    std::to_string(i));

  std::vector<Address> outside;
  for (int other = 0; other < cluster.num_dcs(); ++other) {
    if (other == dc) continue;
    for (int shard = 0; shard < cluster.total_shards(); ++shard)
      outside.push_back(view->shard_addr(other, shard));
    outside.push_back(view->coord_addr(other));
    for (int i = 0; i < cluster.clients_per_dc(); ++i)
      outside.push_back(view->dc_names[static_cast<std::size_t>(other)] +
                        ".client" + std::to_string(i));
  }
  for (const auto& a : in_dc) {
    for (const auto& b : outside) cluster.net().partition(a, b, blocked);
  }
}

class RcFailureTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(RcFailureTest, SurvivesMinorityDcPartition) {
  RcCluster cluster(failover_cluster(GetParam()));
  partition_dc(cluster, 2, true);  // Seoul goes dark

  // A client in a connected DC: reads (quorum 2/3) and commits (2/3 votes)
  // must still succeed.
  auto& client = cluster.client(0, 0);
  std::vector<Op> ops;
  ops.push_back(Op{true, "k00000010", {}});
  ops.push_back(Op{false, "k00000010", "survived"});
  TxnResult r = client.run(ops);
  EXPECT_TRUE(r.committed);

  std::vector<Op> verify;
  verify.push_back(Op{true, "k00000010", {}});
  TxnResult v = cluster.client(1, 0).run(verify);
  ASSERT_TRUE(v.committed);
  EXPECT_EQ(v.reads.at(0).value, "survived");
}

TEST_P(RcFailureTest, PartitionedClientCannotCommitButHealsCleanly) {
  RcCluster cluster(failover_cluster(GetParam()));
  partition_dc(cluster, 2, true);

  // The client inside the partitioned DC can reach only its local replicas:
  // no read quorum, no commit majority.
  auto& stranded = cluster.client(2, 0);
  std::vector<Op> ops;
  ops.push_back(Op{false, "k00000011", "doomed"});
  TxnResult r = stranded.run(ops);
  EXPECT_FALSE(r.committed);

  // Heal; the same client commits now.
  partition_dc(cluster, 2, false);
  TxnResult r2 = stranded.run(ops);
  EXPECT_TRUE(r2.committed);
}

TEST_P(RcFailureTest, WritesDuringPartitionReachLaggingDcAfterHeal) {
  RcCluster cluster(failover_cluster(GetParam()));
  const std::string key = "k00000012";
  partition_dc(cluster, 2, true);

  std::vector<Op> ops;
  ops.push_back(Op{false, key, "majority-write"});
  ASSERT_TRUE(cluster.client(0, 0).run(ops).committed);

  // DC 2 missed the decide; after healing, a fresh commit on the key (or a
  // quorum read, which always includes a majority replica) still serves the
  // committed value everywhere.
  partition_dc(cluster, 2, false);
  std::vector<Op> verify;
  verify.push_back(Op{true, key, {}});
  TxnResult v = cluster.client(2, 0).run(verify);
  ASSERT_TRUE(v.committed);
  EXPECT_EQ(v.reads.at(0).value, "majority-write");
}

TEST_P(RcFailureTest, MajorityPartitionCountsFailedTxns) {
  RcCluster cluster(failover_cluster(GetParam()));
  partition_dc(cluster, 1, true);
  partition_dc(cluster, 2, true);  // every DC alone: no read quorum anywhere

  // The closed loop must report the thrown transactions as a count, not
  // just log them.
  const wl::WorkloadFactory factory = [](int) {
    return [] {
      std::vector<Op> ops;
      ops.push_back(Op{true, "k00000014", {}});
      ops.push_back(Op{false, "k00000014", "cut off"});
      return ops;
    };
  };
  const auto run = wl::run_rc_closed_loop(cluster, factory, Duration::zero(),
                                          std::chrono::milliseconds(500));
  EXPECT_GT(run.failed, 0u);
  EXPECT_EQ(run.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Flavors, RcFailureTest,
                         ::testing::Values(Flavor::kTrad, Flavor::kSpec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace srpc::rc
