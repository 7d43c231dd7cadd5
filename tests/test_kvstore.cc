// VersionedStore: reads, prepare/commit/abort lock discipline, version
// validation, and concurrency properties.
#include <gtest/gtest.h>

#include <thread>

#include "kvstore/store.h"

namespace srpc::kv {
namespace {

// One transaction is a commit round of one entry owned by its id — the
// store's only 2PC API. commit_one applies at exactly `version`.
bool prepare_one(VersionedStore& store, TxnId txn,
                 std::vector<ReadValidation> reads,
                 std::vector<WriteOp> writes) {
  return store.prepare(txn, {{txn, 0, std::move(reads), std::move(writes)}})[0];
}

void commit_one(VersionedStore& store, TxnId txn, std::vector<WriteOp> writes,
                std::int64_t version) {
  store.commit(txn, {{txn, 0, {}, std::move(writes)}}, {true},
               version - static_cast<std::int64_t>(txn));
}

TEST(VersionedStore, LoadAndGet) {
  VersionedStore store;
  EXPECT_FALSE(store.get("missing").has_value());
  store.load("k", "v", 3);
  auto vv = store.get("k");
  ASSERT_TRUE(vv.has_value());
  EXPECT_EQ(vv->value, "v");
  EXPECT_EQ(vv->version, 3);
  EXPECT_EQ(store.size(), 1u);
}

TEST(VersionedStore, PrepareCommitAppliesWrites) {
  VersionedStore store;
  store.load("k", "old", 1);
  ASSERT_TRUE(prepare_one(store, 7, {{"k", 1}}, {{"k", "new"}}));
  EXPECT_TRUE(store.is_locked("k"));
  commit_one(store, 7, {{"k", "new"}}, 5);
  EXPECT_FALSE(store.is_locked("k"));
  EXPECT_EQ(store.get("k")->value, "new");
  EXPECT_EQ(store.get("k")->version, 5);
}

TEST(VersionedStore, AbortReleasesWithoutApplying) {
  VersionedStore store;
  store.load("k", "old", 1);
  ASSERT_TRUE(prepare_one(store, 7, {}, {{"k", "new"}}));
  store.abort(7);
  EXPECT_FALSE(store.is_locked("k"));
  EXPECT_EQ(store.get("k")->value, "old");
}

TEST(VersionedStore, StaleReadVersionFailsPrepare) {
  VersionedStore store;
  store.load("k", "v", 2);
  EXPECT_FALSE(prepare_one(store, 7, {{"k", 1}}, {}));  // version moved on
  EXPECT_TRUE(prepare_one(store, 8, {{"k", 2}}, {}));
}

TEST(VersionedStore, MissingKeyReadsValidateAsVersionZero) {
  VersionedStore store;
  EXPECT_TRUE(prepare_one(store, 7, {{"nope", 0}}, {}));
  store.abort(7);
  EXPECT_FALSE(prepare_one(store, 8, {{"nope", 1}}, {}));
}

TEST(VersionedStore, WriteConflictFailsCleanly) {
  VersionedStore store;
  ASSERT_TRUE(prepare_one(store, 1, {}, {{"a", "x"}, {"b", "x"}}));
  // Txn 2 conflicts on "b": must fail and leave nothing locked of its own.
  EXPECT_FALSE(prepare_one(store, 2, {}, {{"c", "y"}, {"b", "y"}}));
  EXPECT_FALSE(store.is_locked("c"));
  EXPECT_TRUE(store.is_locked("a"));
  EXPECT_TRUE(store.is_locked("b"));
  store.abort(1);
  EXPECT_EQ(store.locked_keys(), 0u);
}

TEST(VersionedStore, ReadOfLockedKeyFailsPrepare) {
  VersionedStore store;
  store.load("k", "v", 1);
  ASSERT_TRUE(prepare_one(store, 1, {}, {{"k", "new"}}));
  EXPECT_FALSE(prepare_one(store, 2, {{"k", 1}}, {}));  // k locked by txn 1
}

TEST(VersionedStore, CommitOnUnpreparedReplicaStillApplies) {
  // RC: a DC that voted no still applies once the global commit is known.
  VersionedStore store;
  store.load("k", "old", 1);
  commit_one(store, 99, {{"k", "new"}}, 7);
  EXPECT_EQ(store.get("k")->value, "new");
}

TEST(VersionedStore, VersionsOnlyMoveForward) {
  VersionedStore store;
  store.load("k", "newer", 10);
  commit_one(store, 99, {{"k", "older"}}, 5);  // late, lower version: ignored
  EXPECT_EQ(store.get("k")->value, "newer");
  EXPECT_EQ(store.get("k")->version, 10);
}

TEST(VersionedStore, SameTxnRepreparesIdempotently) {
  VersionedStore store;
  ASSERT_TRUE(prepare_one(store, 1, {}, {{"a", "x"}}));
  ASSERT_TRUE(prepare_one(store, 1, {}, {{"a", "x"}}));  // own lock is fine
  commit_one(store, 1, {{"a", "x"}}, 2);
  EXPECT_EQ(store.locked_keys(), 0u);
}

TEST(VersionedStore, ConcurrentPreparesNeverDoubleLock) {
  VersionedStore store;
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const TxnId txn = static_cast<TxnId>(t * kRounds + r + 1);
        if (prepare_one(store, txn, {}, {{"hot", "x"}})) {
          successes.fetch_add(1);
          store.abort(txn);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.locked_keys(), 0u);
  EXPECT_GT(successes.load(), 0);
}

}  // namespace
}  // namespace srpc::kv
