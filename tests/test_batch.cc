// Queue-oriented batch transactions (DESIGN.md §12): planner decomposition,
// store-level batch prepare/commit, group log appends, suffix rollback on
// misspeculation, cross-partition straddle atomicity, dependency-closure
// aborts, the batch-queue pressure source, and a multi-client batch storm
// checking the budget and prediction-accuracy invariants under load.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "batch/client.h"
#include "batch/planner.h"
#include "batch/pressure.h"
#include "batch/seed.h"
#include "kvstore/txn_log.h"
#include "rc/cluster.h"
#include "workload/qstream.h"
#include "workload/runner.h"

namespace srpc::batch {
namespace {

// ------------------------------------------------------------------ helpers

/// The static N=3 view these tests run under (no reconfiguration here; the
/// view-change paths have their own suite in test_reconfig.cc).
const rc::ClusterView& static_view() {
  static const rc::ClusterView view = rc::ClusterView::make_static();
  return view;
}

/// The `skip`-th preloaded dataset key living on `shard`.
std::string key_on_shard(int shard, int skip = 0) {
  for (std::uint64_t i = 0;; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08llu",
                  static_cast<unsigned long long>(i));
    if (static_view().shard_of(key) == shard && skip-- == 0) return key;
  }
}

BatchOp read_op(std::string key) {
  BatchOp op;
  op.kind = OpKind::kRead;
  op.key = std::move(key);
  return op;
}

BatchOp write_op(std::string key, std::string value) {
  BatchOp op;
  op.kind = OpKind::kWrite;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

BatchOp incr_op(std::string key) {
  BatchOp op;
  op.kind = OpKind::kRmw;
  op.key = std::move(key);
  op.value = "1";
  op.transform = Transform::kIncrement;
  return op;
}

BatchTxn txn_of(std::uint64_t id, std::vector<BatchOp> ops) {
  BatchTxn txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

rc::ClusterConfig batch_cluster(Flavor flavor, BatchMode mode,
                                int clients_per_dc = 1) {
  rc::ClusterConfig config;
  config.flavor = flavor;
  config.geo = uniform_geo(/*rtt_ms=*/4.0);
  config.geo.lan_rtt_ms = 0.2;
  config.clients_per_dc = clients_per_dc;
  config.num_keys = 1000;
  config.executor_threads = 8;
  config.batch_clients = true;
  config.batch_mode = mode;
  return config;
}

/// Serial reference execution: replays the committed transactions in batch
/// order against a map primed with the dataset's initial value, using the
/// same transform rules as the client. The real cluster must end in exactly
/// this state — in every mode.
class SerialReplay {
 public:
  explicit SerialReplay(std::string initial) : initial_(std::move(initial)) {}

  void apply(const BatchTxn& txn) {
    std::map<std::string, std::string> buffer;
    for (const auto& op : txn.ops) {
      if (op.kind == OpKind::kWrite) {
        buffer[op.key] = op.value;
        continue;
      }
      const std::string current = [&] {
        auto bit = buffer.find(op.key);
        if (bit != buffer.end()) return bit->second;
        auto it = state_.find(op.key);
        return it != state_.end() ? it->second : initial_;
      }();
      if (op.kind == OpKind::kRmw) {
        buffer[op.key] = apply_transform(op.transform, current, op.value);
      }
    }
    for (auto& [key, value] : buffer) state_[key] = value;
  }

  const std::map<std::string, std::string>& state() const { return state_; }

 private:
  std::string initial_;
  std::map<std::string, std::string> state_;
};

/// Waits until every replica of every touched key converged to `expected`
/// (decide broadcasts are asynchronous), then asserts equality.
void expect_converged(rc::RcCluster& cluster,
                      const std::map<std::string, std::string>& expected) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  const auto view = cluster.view();
  for (const auto& [key, value] : expected) {
    const int shard = view->shard_of(key);
    for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
      for (;;) {
        auto got = cluster.store(dc, shard).get(key);
        if (got.has_value() && got->value == value) break;
        if (Clock::now() > deadline) {
          FAIL() << "replica dc" << dc << " shard" << shard << " key " << key
                 << " = '" << (got ? got->value : "<missing>")
                 << "', expected '" << value << "'";
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
}

// ------------------------------------------------------------------ planner

TEST(TxnPlanner, DecomposesIntoShardQueuesAndClassifiesReads) {
  const std::string a0 = key_on_shard(0, 0);
  const std::string a1 = key_on_shard(0, 1);
  const std::string b0 = key_on_shard(1, 0);

  TxnPlanner planner;
  std::vector<BatchTxn> txns;
  txns.push_back(txn_of(0, {read_op(a0), write_op(a1, "x")}));
  txns.push_back(txn_of(1, {read_op(a1), write_op(b0, "y")}));  // overlay read
  txns.push_back(txn_of(2, {read_op(b0), read_op(a0)}));        // overlay + wire
  BatchPlan plan = planner.plan(static_view(), std::move(txns));

  EXPECT_EQ(plan.epoch, 1u);
  ASSERT_EQ(plan.txns.size(), 3u);

  // Wire reads: txn0's a0 read, txn2's a0 read. txn1's a1 read and txn2's
  // b0 read are overlays (written earlier in the batch).
  EXPECT_EQ(plan.total_wire_reads(), 2u);
  ASSERT_EQ(plan.wire_reads[0].size(), 2u);
  EXPECT_EQ(plan.wire_reads[0][0].key, a0);
  EXPECT_EQ(plan.wire_reads[0][0].txn_pos, 0u);
  EXPECT_EQ(plan.wire_reads[0][1].key, a0);
  EXPECT_EQ(plan.wire_reads[0][1].txn_pos, 2u);
  EXPECT_TRUE(plan.wire_reads[1].empty());

  // Dependencies follow the overlay edges.
  EXPECT_TRUE(plan.txns[0].deps.empty());
  ASSERT_EQ(plan.txns[1].deps.size(), 1u);
  EXPECT_EQ(plan.txns[1].deps[0], 0u);
  ASSERT_EQ(plan.txns[2].deps.size(), 1u);
  EXPECT_EQ(plan.txns[2].deps[0], 1u);

  // Txn ids are stamped in batch order.
  EXPECT_LT(plan.txns[0].txn_id, plan.txns[1].txn_id);
  EXPECT_LT(plan.txns[1].txn_id, plan.txns[2].txn_id);

  // Cross-partition flags.
  EXPECT_FALSE(plan.txns[0].cross_partition);
  EXPECT_TRUE(plan.txns[1].cross_partition);
  EXPECT_TRUE(plan.txns[2].cross_partition);

  // Epoch counter advances.
  EXPECT_EQ(planner.plan(static_view(), {}).epoch, 2u);
}

// -------------------------------------------------------------- store level

TEST(StoreBatch, QueueOrderPrepareVotesSuffixOnly) {
  kv::VersionedStore store;
  store.load("a", "init", 1);
  store.load("b", "init", 1);

  std::vector<kv::BatchEntry> entries(3);
  entries[0] = {101, 0, {{"a", 1}}, {{"a", "v0"}}};
  entries[1] = {102, 1, {{"b", 99}}, {{"b", "v1"}}};  // stale read: no
  entries[2] = {103, 2, {}, {{"a", "v2"}}};  // overlaps entry 0: fine in-batch

  const auto votes = store.prepare(/*owner=*/500, entries);
  ASSERT_EQ(votes.size(), 3u);
  EXPECT_TRUE(votes[0]);
  EXPECT_FALSE(votes[1]);  // only the bad entry votes no
  EXPECT_TRUE(votes[2]);

  // Yes-entries' write keys are locked under the batch id; b is untouched.
  EXPECT_TRUE(store.is_locked("a"));
  EXPECT_FALSE(store.is_locked("b"));
  EXPECT_EQ(store.lock_holder("a").value_or(0), 500u);

  // Commit applies decided entries at version_base + txn; later entries in
  // the queue win on overlapping keys.
  store.commit(500, entries, {true, false, true}, 1000);
  EXPECT_FALSE(store.is_locked("a"));
  EXPECT_EQ(store.get("a")->value, "v2");
  EXPECT_EQ(store.get("a")->version, 1000 + 103);
  EXPECT_EQ(store.get("b")->value, "init");
}

TEST(StoreBatch, ForeignLockBlocksEntryAndAbortReleases) {
  kv::VersionedStore store;
  store.load("a", "init", 1);
  store.load("b", "init", 1);
  ASSERT_TRUE(store.prepare(/*owner=*/42, {{42, 0, {}, {{"a", "other"}}}})[0]);

  std::vector<kv::BatchEntry> entries(2);
  entries[0] = {201, 0, {}, {{"a", "x"}}};  // foreign lock: no
  entries[1] = {202, 1, {{"b", 1}}, {{"b", "y"}}};
  const auto votes = store.prepare(600, entries);
  EXPECT_FALSE(votes[0]);
  EXPECT_TRUE(votes[1]);

  store.abort(600);
  EXPECT_FALSE(store.is_locked("b"));
  EXPECT_EQ(store.lock_holder("a").value_or(0), 42u);  // untouched
  EXPECT_EQ(store.get("b")->value, "init");
}

TEST(TxnLogBatch, GroupAppendPersistsAllRecords) {
  const std::string path =
      testing::TempDir() + "/batch_group_append.rclog";
  std::remove(path.c_str());
  {
    kv::TxnLog log(path);
    std::vector<kv::CommitRecord> records(3);
    for (std::size_t i = 0; i < records.size(); ++i) {
      records[i].txn = 100 + i;
      records[i].commit_version = static_cast<std::int64_t>(1000 + i);
      records[i].writes = {{"k" + std::to_string(i), "v" + std::to_string(i)}};
    }
    log.append_batch(std::move(records));
    log.flush();
    EXPECT_EQ(log.appended(), 3u);
    EXPECT_EQ(log.flushed(), 3u);
  }
  std::vector<kv::CommitRecord> seen;
  EXPECT_EQ(kv::TxnLog::replay(path,
                               [&](const kv::CommitRecord& r) {
                                 seen.push_back(r);
                               }),
            3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].txn, 100u);
  EXPECT_EQ(seen[2].writes[0].value, "v2");
  std::remove(path.c_str());
}

// ------------------------------------------------------------- end to end

class BatchModeTest : public ::testing::TestWithParam<BatchMode> {};

TEST_P(BatchModeTest, EpochMatchesSerialReplay) {
  rc::RcCluster cluster(batch_cluster(Flavor::kSpec, GetParam()));
  auto& client = cluster.batch_client(0, 0);

  // A deterministic ordered stream: hot-key increments with overlay chains
  // plus cross-partition writes, over three epochs.
  wl::QStreamConfig wc;
  wc.txns_per_epoch = 12;
  wc.ops_per_txn = 3;
  wc.num_keys = 1000;
  wc.hot_keys = 4;
  wc.hot_fraction = 0.7;
  wc.cross_partition_fraction = 0.5;
  wl::QStreamWorkload workload(wc, /*seed=*/7);

  SerialReplay replay(std::string(16, 'v'));
  std::size_t total = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto txns = workload.next_epoch();
    const auto reference = txns;  // run_epoch consumes the batch
    EpochResult result = client.run_epoch(std::move(txns));
    ASSERT_EQ(result.decisions.size(), reference.size());
    // Single client, no foreign locks: everything must commit.
    EXPECT_EQ(result.committed, reference.size());
    EXPECT_EQ(result.aborted, 0u);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(result.decisions[i]) << "txn " << i << " aborted";
      replay.apply(reference[i]);
    }
    total += reference.size();
  }
  EXPECT_EQ(client.stats().committed.load(), total);
  expect_converged(cluster, replay.state());
}

INSTANTIATE_TEST_SUITE_P(AllModes, BatchModeTest,
                         ::testing::Values(BatchMode::kPerTxn2pc,
                                           BatchMode::kGroupCommit,
                                           BatchMode::kSpeculative));

TEST(BatchSpeculative, QueueSeedsFlowThroughPredictionHooks) {
  rc::RcCluster cluster(
      batch_cluster(Flavor::kSpec, BatchMode::kSpeculative));
  auto& client = cluster.batch_client(0, 0);
  const std::string k0 = key_on_shard(0);
  const std::string k1 = key_on_shard(1);

  // Epoch 1 warms the seeds (reads learn through the observer), epoch 2
  // reads the same keys — now predicted from the seeded values.
  for (int round = 0; round < 2; ++round) {
    std::vector<BatchTxn> txns;
    txns.push_back(txn_of(0, {read_op(k0), read_op(k1)}));
    txns.push_back(txn_of(1, {incr_op(k0)}));
    EpochResult r = client.run_epoch(std::move(txns));
    EXPECT_EQ(r.aborted, 0u);
  }

  ASSERT_NE(client.predictor(), nullptr);
  EXPECT_GT(client.predictor()->primed_total(), 0u);
  EXPECT_GT(client.seeds()->size(), 0u);

  const auto predict = cluster.predict_stats();
  EXPECT_GT(predict.supplier_calls, 0u);
  EXPECT_GT(predict.predictions_supplied, 0u);
  EXPECT_GT(predict.learned, 0u);

  const auto spec = cluster.spec_stats();
  EXPECT_GT(spec.predictions_made, 0u);
  EXPECT_GT(spec.predictions_correct, 0u);
}

TEST(BatchSpeculative, MisspeculationRollsBackSuffixAndStaysCorrect) {
  rc::RcCluster cluster(
      batch_cluster(Flavor::kSpec, BatchMode::kSpeculative));
  auto& client = cluster.batch_client(0, 0);
  const std::string k0 = key_on_shard(0, 0);
  const std::string k1 = key_on_shard(0, 1);
  const std::string k2 = key_on_shard(0, 2);

  // Poison the seeds: predictions for all three queue positions will be
  // wrong, so the chain mispredicts, abandons its suffix branches, and
  // re-executes on the actual values — and must still produce the correct
  // final state.
  client.seeds()->put(k0, "bogus0", 999);
  client.seeds()->put(k1, "bogus1", 999);
  client.seeds()->put(k2, "bogus2", 999);

  std::vector<BatchTxn> txns;
  txns.push_back(txn_of(0, {read_op(k0), incr_op(k1)}));
  txns.push_back(txn_of(1, {read_op(k2), incr_op(k1)}));  // overlay on k1
  const auto reference = txns;
  EpochResult r = client.run_epoch(std::move(txns));
  EXPECT_EQ(r.committed, 2u);

  // The poisoned predictions fail validation and the branches speculated on
  // them (the queue suffix) are abandoned with their rollbacks run. The
  // chain itself is rescued by the engine's first-response speculation
  // (§4.1), so no full re-execution is needed — but never by the poisoned
  // branch surviving.
  const auto spec = cluster.spec_stats();
  EXPECT_GT(spec.predictions_incorrect, 0u);
  EXPECT_GT(spec.branches_abandoned, 0u);
  EXPECT_GT(spec.rollbacks_run, 0u);

  SerialReplay replay(std::string(16, 'v'));
  for (const auto& txn : reference) replay.apply(txn);
  expect_converged(cluster, replay.state());
}

TEST(BatchAtomicity, CrossPartitionStraddleAbortsWhole) {
  rc::RcCluster cluster(
      batch_cluster(Flavor::kSpec, BatchMode::kGroupCommit));
  auto& client = cluster.batch_client(0, 0);
  const std::string blocked = key_on_shard(0);
  const std::string other = key_on_shard(1);

  // A phantom transaction write-locks `blocked` in 2 of 3 DCs: the straddle
  // cannot gather a majority for that entry anywhere it matters.
  for (int dc = 0; dc < 2; ++dc) {
    ASSERT_TRUE(cluster.store(dc, 0).prepare(
        /*owner=*/999999,
        {{999999, 0, {}, {kv::WriteOp{blocked, "locked"}}}})[0]);
  }

  std::vector<BatchTxn> txns;
  txns.push_back(
      txn_of(0, {write_op(blocked, "lost"), write_op(other, "lost")}));
  txns.push_back(txn_of(1, {write_op(key_on_shard(2), "kept")}));
  EpochResult r = client.run_epoch(std::move(txns));

  ASSERT_EQ(r.decisions.size(), 2u);
  EXPECT_FALSE(r.decisions[0]);  // aborted atomically, both shards
  EXPECT_TRUE(r.decisions[1]);   // independent txn unaffected

  // The straddle's write on the *unblocked* shard must not survive.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int dc = 0; dc < 3; ++dc) {
    EXPECT_EQ(cluster.store(dc, 1).get(other)->value, std::string(16, 'v'));
  }
  expect_converged(cluster, {{key_on_shard(2), "kept"}});
}

TEST(BatchAtomicity, DependencyClosureAbortsOverlayReaders) {
  rc::RcCluster cluster(
      batch_cluster(Flavor::kSpec, BatchMode::kGroupCommit));
  auto& client = cluster.batch_client(0, 0);
  const std::string ka = key_on_shard(0);
  const std::string kb = key_on_shard(1);

  for (int dc = 0; dc < 2; ++dc) {
    ASSERT_TRUE(cluster.store(dc, 0).prepare(
        /*owner=*/999998, {{999998, 0, {}, {kv::WriteOp{ka, "locked"}}}})[0]);
  }

  // txn0 writes ka (will abort); txn1 only *reads* ka (an overlay read —
  // its own write set touches kb alone, so its own vote is yes) and must
  // abort transitively through the dependency closure.
  std::vector<BatchTxn> txns;
  txns.push_back(txn_of(0, {write_op(ka, "new")}));
  txns.push_back(txn_of(1, {read_op(ka), write_op(kb, "tainted")}));
  EpochResult r = client.run_epoch(std::move(txns));

  EXPECT_FALSE(r.decisions[0]);
  EXPECT_FALSE(r.decisions[1]);
  EXPECT_EQ(client.stats().dep_aborts.load(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int dc = 0; dc < 3; ++dc) {
    EXPECT_EQ(cluster.store(dc, 1).get(kb)->value, std::string(16, 'v'));
  }
}

// ---------------------------------------------------------------- pressure

TEST(BatchMixed, PerTxnAndBatchRoundsInterleaveOnSharedKeys) {
  // A per-transaction commit is a commit round of one entry, so RcClient
  // rounds and batch rounds share lock owners, the version space and the
  // decide path. Run both at once on the same hot counters: the replicas
  // must end in the serial result of the committed increments (increments
  // commute, so any serial order gives the same state), with no lock left.
  rc::RcCluster cluster(
      batch_cluster(Flavor::kSpec, BatchMode::kSpeculative));
  const std::vector<std::string> hot = {key_on_shard(0), key_on_shard(1),
                                        key_on_shard(2)};
  std::mutex mu;
  std::map<std::string, long long> committed;  // per key, both clients
  long long per_txn_commits = 0;
  std::thread per_txn([&] {
    auto& client = cluster.client(1, 0);
    for (std::size_t i = 0; i < 24; ++i) {
      const std::string& key = hot[i % hot.size()];
      const rc::TxnResult r =
          client.run_transform(key, [](const std::string& current) {
            return apply_transform(Transform::kIncrement, current, "1");
          });
      if (!r.committed) continue;
      std::lock_guard<std::mutex> lock(mu);
      committed[key]++;
      per_txn_commits++;
    }
  });
  auto& batch = cluster.batch_client(0, 0);
  std::size_t batch_commits = 0;
  for (std::uint64_t e = 0; e < 6; ++e) {
    std::vector<BatchTxn> txns;
    for (std::uint64_t t = 0; t < 6; ++t) {
      txns.push_back(txn_of(e * 6 + t, {incr_op(hot[t % hot.size()])}));
    }
    const EpochResult r = batch.run_epoch(txns);
    ASSERT_EQ(r.decisions.size(), txns.size());
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t t = 0; t < txns.size(); ++t) {
      if (!r.decisions[t]) continue;
      committed[txns[t].ops[0].key]++;
      batch_commits++;
    }
  }
  per_txn.join();
  EXPECT_GT(per_txn_commits, 0);
  EXPECT_GT(batch_commits, 0u);

  std::map<std::string, std::string> expected;
  for (const auto& [key, n] : committed) expected[key] = std::to_string(n);
  expect_converged(cluster, expected);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  const auto locked = [&cluster] {
    std::size_t total = 0;
    for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
      for (int shard = 0; shard < cluster.total_shards(); ++shard) {
        total += cluster.store(dc, shard).locked_keys();
      }
    }
    return total;
  };
  while (locked() != 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(locked(), 0u);
}

TEST(BatchTeardown, TradClusterDestroyedWithDecidesInFlight) {
  // The last epochs' decide broadcasts are still on the wire when a run
  // ends. Destroying the cluster must detach every machine first, or a late
  // rc.decide/rc.apply runs a handler of a destroyed server (a
  // heap-use-after-free under ASan).
  for (int round = 0; round < 5; ++round) {
    rc::RcCluster cluster(
        batch_cluster(Flavor::kTrad, BatchMode::kGroupCommit));
    wl::QStreamConfig wc;
    wc.num_keys = 1000;
    wl::BatchWorkloadFactory factory = [wc](int client_index) {
      auto workload = std::make_shared<wl::QStreamWorkload>(
          wc, 40 + static_cast<std::uint64_t>(client_index));
      return [workload] { return workload->next_epoch(); };
    };
    const auto run = wl::run_batch_closed_loop(
        cluster, factory, Duration::zero(), std::chrono::milliseconds(100));
    EXPECT_GT(run.epochs, 0u);
    EXPECT_EQ(run.failed, 0u);
  }
}

TEST(BatchPressure, GaugeTracksPlannedOpsAndFeedsAdmission) {
  auto gauge = std::make_shared<BatchQueueGauge>(static_view().num_shards);
  auto source = batch_pressure_source(gauge);
  EXPECT_EQ(source().queue_depth, 0u);

  TxnPlanner planner;
  std::vector<BatchTxn> txns;
  txns.push_back(txn_of(0, {read_op(key_on_shard(0)),
                            write_op(key_on_shard(1), "x")}));
  BatchPlan plan = planner.plan(static_view(), std::move(txns));
  gauge->on_plan(plan);
  EXPECT_EQ(gauge->total(), plan.queue_ops());
  EXPECT_EQ(source().queue_depth, plan.queue_ops());
  gauge->on_complete(plan);
  EXPECT_EQ(source().queue_depth, 0u);
}

// ---------------------------------------------------------------- the storm

TEST(BatchStorm, MultiShardConcurrentEpochsHoldBudgetAndAccuracyInvariants) {
  auto config = batch_cluster(Flavor::kSpec, BatchMode::kSpeculative,
                              /*clients_per_dc=*/2);
  config.spec_budget = 64;
  config.admission_control = true;
  rc::RcCluster cluster(config);

  wl::QStreamConfig wc;
  wc.txns_per_epoch = 8;
  wc.ops_per_txn = 3;
  wc.num_keys = 1000;
  wc.hot_keys = 8;
  wc.hot_fraction = 0.6;
  wc.cross_partition_fraction = 0.4;
  wl::BatchWorkloadFactory factory = [wc](int client_index) {
    auto w = std::make_shared<wl::QStreamWorkload>(
        wc, 100 + static_cast<std::uint64_t>(client_index));
    return [w] { return w->next_epoch(); };
  };
  const auto run = wl::run_batch_closed_loop(
      cluster, factory, std::chrono::milliseconds(100),
      std::chrono::milliseconds(800));

  EXPECT_GT(run.epochs, 0u);
  EXPECT_GT(run.committed, 0u);

  // Queue-order seeding flowed through the prediction hooks.
  const auto predict = cluster.predict_stats();
  EXPECT_GT(predict.supplier_calls, 0u);
  EXPECT_GT(predict.learned, 0u);

  // Budget invariant: exactly one release per acquired token once the storm
  // has quiesced (closed loop joined; allow stragglers to drain). The
  // speculative read chains take tokens, so the totals are not vacuous.
  EXPECT_GT(cluster.spec_stats().budget_acquired, 0u);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto spec = cluster.spec_stats();
    if (spec.budget_acquired == spec.budget_released) {
      SUCCEED();
      break;
    }
    if (Clock::now() > deadline) {
      const auto s = cluster.spec_stats();
      FAIL() << "budget leak: acquired=" << s.budget_acquired
             << " released=" << s.budget_released;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // All replicas converge: same (value, version) at every DC for every hot
  // key once the asynchronous decide broadcasts have drained.
  for (std::size_t i = 0; i < wc.hot_keys; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08llu",
                  static_cast<unsigned long long>(i));
    const int shard = cluster.view()->shard_of(key);
    const auto key_deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      const auto v0 = cluster.store(0, shard).get(key);
      const auto v1 = cluster.store(1, shard).get(key);
      const auto v2 = cluster.store(2, shard).get(key);
      ASSERT_TRUE(v0 && v1 && v2);
      if (v0->version == v1->version && v1->version == v2->version) {
        EXPECT_EQ(v0->value, v1->value) << "key " << key;
        EXPECT_EQ(v1->value, v2->value) << "key " << key;
        break;
      }
      ASSERT_LT(Clock::now(), key_deadline)
          << "replicas never converged on " << key;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace
}  // namespace srpc::batch
