// Async transaction log: append/flush semantics, replay, crash-tail
// tolerance, store recovery, and the RC integration (logs record exactly
// the applied commits).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "kvstore/txn_log.h"
#include "rc/cluster.h"
#include "specrpc/side_table.h"
#include "transport/sim_network.h"

namespace srpc::kv {
namespace {

std::string temp_log_path(const char* tag) {
  return ::testing::TempDir() + "/specrpc_" + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

TEST(TxnLog, AppendFlushReplayRoundTrip) {
  const std::string path = temp_log_path("roundtrip");
  std::remove(path.c_str());
  {
    TxnLog log(path);
    log.append_batch({CommitRecord{1, 100, {{"a", "x"}, {"b", "y"}}}});
    log.append_batch({CommitRecord{2, 200, {{"a", "z"}}}});
    log.append_batch({CommitRecord{3, 300, {}}});  // write-less record
    log.flush();
    EXPECT_EQ(log.appended(), 3u);
    EXPECT_EQ(log.flushed(), 3u);
  }
  std::vector<CommitRecord> replayed;
  const auto n = TxnLog::replay(
      path, [&](const CommitRecord& r) { replayed.push_back(r); });
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(replayed[0].txn, 1u);
  EXPECT_EQ(replayed[0].commit_version, 100);
  ASSERT_EQ(replayed[0].writes.size(), 2u);
  EXPECT_EQ(replayed[0].writes[1].key, "b");
  EXPECT_EQ(replayed[2].writes.size(), 0u);
  std::remove(path.c_str());
}

TEST(TxnLog, RecoverRebuildsStore) {
  const std::string path = temp_log_path("recover");
  std::remove(path.c_str());
  {
    TxnLog log(path);
    log.append_batch({CommitRecord{1, 10, {{"k", "v1"}}}});
    log.append_batch({CommitRecord{2, 20, {{"k", "v2"}, {"j", "w"}}}});
    log.flush();
  }
  VersionedStore store;
  EXPECT_EQ(TxnLog::recover(path, store), 2u);
  EXPECT_EQ(store.get("k")->value, "v2");
  EXPECT_EQ(store.get("k")->version, 20);
  EXPECT_EQ(store.get("j")->value, "w");
  std::remove(path.c_str());
}

TEST(TxnLog, TornTailIsIgnored) {
  const std::string path = temp_log_path("torn");
  std::remove(path.c_str());
  {
    TxnLog log(path);
    log.append_batch({CommitRecord{1, 10, {{"k", "v1"}}}});
    log.append_batch({CommitRecord{2, 20, {{"k", "v2"}}}});
    log.flush();
  }
  // Simulate a crash mid-write: truncate the last few bytes.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);
  std::vector<CommitRecord> replayed;
  TxnLog::replay(path, [&](const CommitRecord& r) { replayed.push_back(r); });
  ASSERT_EQ(replayed.size(), 1u);  // the complete record survives
  EXPECT_EQ(replayed[0].writes[0].value, "v1");
  std::remove(path.c_str());
}

TEST(TxnLog, ReplayOfMissingFileIsEmpty) {
  EXPECT_EQ(TxnLog::replay("/nonexistent/specrpc.rclog",
                           [](const CommitRecord&) { FAIL(); }),
            0u);
}

TEST(TxnLog, AppendsFromManyThreads) {
  const std::string path = temp_log_path("mt");
  std::remove(path.c_str());
  {
    TxnLog log(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&log, t] {
        for (int i = 0; i < 100; ++i) {
          log.append_batch({CommitRecord{static_cast<TxnId>(t * 100 + i + 1),
                                         t * 100 + i + 1,
                                         {{"k" + std::to_string(t), "v"}}}});
        }
      });
    }
    for (auto& th : threads) th.join();
    log.flush();
    EXPECT_EQ(log.flushed(), 400u);
  }
  EXPECT_EQ(TxnLog::replay(path, [](const CommitRecord&) {}), 400u);
  std::remove(path.c_str());
}

TEST(TxnLogRcIntegration, ClusterLogsAppliedCommits) {
  const std::string dir = ::testing::TempDir() + "/rclogs_" +
                          std::to_string(::getpid());
  // A crashed prior run leaves its dir behind and pids recycle: start from
  // scratch so stale logs can't leak records into this run's recovery.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    rc::ClusterConfig config;
    config.flavor = Flavor::kSpec;
    config.geo = uniform_geo(5.0);
    config.clients_per_dc = 1;
    config.num_keys = 200;
    config.log_dir = dir;
    rc::RcCluster cluster(config);
    std::vector<rc::Op> ops;
    ops.push_back(rc::Op{false, "k00000001", "logged"});
    ASSERT_TRUE(cluster.client(0, 0).run(ops).committed);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // applies
  }
  // Every replica of the owning shard logged the commit. The cluster ran
  // the default static view, so a fresh static view resolves the same owner.
  const int shard = rc::ClusterView::make_static().shard_of("k00000001");
  int logs_with_record = 0;
  for (int dc = 0; dc < 3; ++dc) {
    const std::string path = dir + "/" + std::to_string(dc) + "." +
                             std::to_string(shard) + ".rclog";
    VersionedStore recovered;
    if (TxnLog::recover(path, recovered) > 0 &&
        recovered.get("k00000001").has_value()) {
      EXPECT_EQ(recovered.get("k00000001")->value, "logged");
      logs_with_record++;
    }
  }
  EXPECT_GE(logs_with_record, 2);  // at least the majority applied + logged
  std::filesystem::remove_all(dir);
}

TEST(TxnLogRcIntegration, FreshReplicaConvergesFromLogReplayAlone) {
  // A joining replica recovers from dataset preload + pure TxnLog replay —
  // no state transfer. Drive BOTH log record shapes at the cluster:
  // per-transaction 2PC commits (one-record appends) and batch group
  // commits (many-record appends), then rebuild every replica offline and
  // demand exact (value, version) equality with the live store it
  // replicates.
  const std::string dir = ::testing::TempDir() + "/rclogs_replay_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto key_at = [](std::size_t i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08zu", i);
    return std::string(key);
  };
  constexpr std::size_t kNumKeys = 120;
  constexpr std::size_t kValueSize = 16;
  using Snapshot =
      std::vector<std::tuple<std::string, std::string, std::int64_t>>;
  std::vector<Snapshot> live;
  int num_dcs = 0;
  int num_shards = 0;
  {
    rc::ClusterConfig config;
    config.flavor = Flavor::kSpec;
    config.geo = uniform_geo(3.0);
    config.clients_per_dc = 1;
    config.num_keys = kNumKeys;
    config.value_size = kValueSize;
    config.log_dir = dir;
    config.batch_clients = true;
    rc::RcCluster cluster(config);
    num_dcs = cluster.num_dcs();
    num_shards = cluster.total_shards();

    // Per-txn traffic: one-entry commit rounds, one-record appends.
    for (std::size_t t = 0; t < 5; ++t) {
      std::vector<rc::Op> ops;
      ops.push_back(rc::Op{false, key_at(t), "txn" + std::to_string(t)});
      ASSERT_TRUE(cluster.client(0, 0).run(ops).committed);
    }
    // Batch traffic: three speculative group-commit epochs — rmw increments
    // on a shared hot range plus disjoint blind writes — whose applies land
    // through TxnLog::append_batch.
    auto& bc = cluster.batch_client(1, 0);
    for (int e = 0; e < 3; ++e) {
      std::vector<batch::BatchTxn> txns;
      for (std::size_t t = 0; t < 8; ++t) {
        batch::BatchTxn txn;
        txn.id = static_cast<std::uint64_t>(e) * 8 + t;
        batch::BatchOp rmw;
        rmw.kind = batch::OpKind::kRmw;
        rmw.key = key_at(10 + t);
        rmw.value = "1";
        rmw.transform = batch::Transform::kIncrement;
        txn.ops.push_back(std::move(rmw));
        batch::BatchOp w;
        w.kind = batch::OpKind::kWrite;
        w.key = key_at(40 + static_cast<std::size_t>(e) * 8 + t);
        w.value = "batch" + std::to_string(txn.id);
        txn.ops.push_back(std::move(w));
        txns.push_back(std::move(txn));
      }
      EXPECT_GT(bc.run_epoch(std::move(txns)).committed, 0u);
    }
    // Let the asynchronous decide/apply broadcasts drain, then snapshot
    // every live replica.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    for (int dc = 0; dc < num_dcs; ++dc) {
      for (int shard = 0; shard < num_shards; ++shard) {
        live.push_back(cluster.store(dc, shard).export_if(
            [](const std::string&) { return true; }));
      }
    }
  }  // teardown flushes every log

  const rc::ClusterView view = rc::ClusterView::make_static(num_dcs,
                                                            num_shards);
  for (int dc = 0; dc < num_dcs; ++dc) {
    for (int shard = 0; shard < num_shards; ++shard) {
      VersionedStore fresh;
      for (std::size_t i = 0; i < kNumKeys; ++i) {
        const std::string key = key_at(i);
        if (view.shard_of(key) == shard) {
          fresh.load(key, std::string(kValueSize, 'v'), 1);
        }
      }
      const std::string path = dir + "/" + std::to_string(dc) + "." +
                               std::to_string(shard) + ".rclog";
      TxnLog::recover(path, fresh);
      const Snapshot& reference =
          live.at(static_cast<std::size_t>(dc * num_shards + shard));
      EXPECT_EQ(fresh.size(), reference.size())
          << "dc" << dc << " shard" << shard;
      for (const auto& [key, value, version] : reference) {
        const auto got = fresh.get(key);
        ASSERT_TRUE(got.has_value()) << key;
        EXPECT_EQ(got->value, value) << key;
        EXPECT_EQ(got->version, version) << key;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace srpc::kv

namespace srpc::spec {
namespace {

TEST(SpecSideTable, PlainWritesFromAppThread) {
  SimNetwork net;
  SpecEngine engine(net.add_node("n"), net.executor(), net.wheel());
  SpecSideTable table(engine);
  table.put("k", Value(1));
  EXPECT_EQ(table.get("k"), Value(1));
  table.erase("k");
  EXPECT_FALSE(table.get("k").has_value());
  engine.begin_shutdown();
}

TEST(SpecSideTable, MisspeculatedWriteIsRolledBack) {
  SimNetwork net;
  SpecEngine server(net.add_node("server"), net.executor(), net.wheel());
  SpecEngine client(net.add_node("client"), net.executor(), net.wheel());
  server.register_method("slow", Handler([](const ServerCallPtr& c) {
    c->finish_after(std::chrono::milliseconds(20), Value(7));
  }));
  SpecSideTable table(client);
  table.put("seen", Value("initial"));

  auto factory = [&table]() -> CallbackFn {
    return [&table](SpecContext&, const Value& v) -> CallbackResult {
      table.put("seen", v);  // speculative side effect
      return v;
    };
  };
  auto future = client.call("server", "slow", make_args(), {Value(999)},
                            factory);
  EXPECT_EQ(future->get(), Value(7));
  // The wrong branch wrote 999 into the table; the rollback must restore it
  // before/while the correct branch writes 7. Eventually: value is 7, and
  // 999 is gone.
  for (int i = 0; i < 200; ++i) {
    auto v = table.get("seen");
    if (v.has_value() && *v == Value(7)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(table.get("seen"), Value(7));
  EXPECT_GE(client.stats().rollbacks_run, 1u);
  client.begin_shutdown();
  server.begin_shutdown();
  // Drain the executor before the engines and the table die: the task that
  // delivered the future may still be inside the client engine.
  net.executor().shutdown();
}

TEST(SpecSideTable, CorrectSpeculationKeepsWrite) {
  SimNetwork net;
  SpecEngine server(net.add_node("server"), net.executor(), net.wheel());
  SpecEngine client(net.add_node("client"), net.executor(), net.wheel());
  server.register_method("f", Handler([](const ServerCallPtr& c) {
    c->finish(Value(7));
  }));
  SpecSideTable table(client);
  auto factory = [&table]() -> CallbackFn {
    return [&table](SpecContext&, const Value& v) -> CallbackResult {
      table.put("seen", v);
      return v;
    };
  };
  EXPECT_EQ(client.call("server", "f", make_args(), {Value(7)}, factory)
                ->get(),
            Value(7));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(table.get("seen"), Value(7));
  EXPECT_EQ(client.stats().rollbacks_run, 0u);
  client.begin_shutdown();
  server.begin_shutdown();
  // Drain the executor before the engines and the table die: the task that
  // delivered the future may still be inside the client engine.
  net.executor().shutdown();
}

}  // namespace
}  // namespace srpc::spec
