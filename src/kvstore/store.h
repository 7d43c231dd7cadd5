// Versioned in-memory key-value store with 2PC-style write locks.
//
// One VersionedStore instance backs one shard replica of the Replicated
// Commit evaluation (§5.2: "transactional key-value store ... sharded into
// three partitions, with each partition having a replica at every
// datacentre"). Reads return (value, version); prepare acquires per-key
// write locks and validates read versions (OCC-flavoured 2PL, matching RC's
// buffered writes + quorum reads).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace srpc::kv {

using TxnId = std::uint64_t;

struct VersionedValue {
  std::string value;
  std::int64_t version = 0;
};

struct ReadValidation {
  std::string key;
  std::int64_t version = 0;
};

struct WriteOp {
  std::string key;
  std::string value;
};

/// One transaction's footprint on one shard inside a commit round (a
/// per-transaction commit is a round of one; queue-oriented group commit,
/// DESIGN.md §12, sends many). `index` is the transaction's global position
/// in the round (queue order); `txn` is its globally-stamped id, from which
/// every replica derives the same commit version (version_base + txn, the
/// rc convention) without coordination.
struct BatchEntry {
  TxnId txn = 0;
  std::size_t index = 0;
  std::vector<ReadValidation> reads;
  std::vector<WriteOp> writes;
};

class VersionedStore {
 public:
  /// Committed read (ignores uncommitted/locked state; RC buffers writes
  /// until commit, so there is nothing uncommitted to see).
  std::optional<VersionedValue> get(const std::string& key) const;

  /// Direct load used to populate the dataset before a run.
  void load(const std::string& key, std::string value, std::int64_t version);

  /// Version-monotone load: applies only if `version` is newer than the
  /// stored one. State-transfer entries (view.pull) and forwarded applies
  /// land through this, so a racing newer commit is never clobbered.
  void load_if_newer(const std::string& key, std::string value,
                     std::int64_t version);

  /// Snapshot of every (key, value, version) whose key satisfies `pred`,
  /// taken under one lock hold — the export side of shard state transfer.
  std::vector<std::tuple<std::string, std::string, std::int64_t>> export_if(
      const std::function<bool(const std::string&)>& pred) const;

  /// True if any currently write-locked key satisfies `pred`. The transfer
  /// source refuses to export migrating slots until this drains (in-flight
  /// 2PC resolves in the epoch that prepared it).
  bool any_locked_if(const std::function<bool(const std::string&)>& pred) const;

  std::size_t size() const;

  /// 2PC prepare over an ordered list of transaction entries (one entry for
  /// a per-transaction commit): votes per entry, in queue order, under ONE
  /// lock hold. An entry votes yes when its read versions are current and
  /// none of its keys is locked by another owner; a no vote leaves nothing
  /// of it locked (fail-fast, never waits). Yes-entries' write locks are
  /// taken under `owner`, so write-write overlap inside the list is no
  /// conflict (queue order serialises it) and one commit/abort releases
  /// them all. A read of a key an earlier yes-entry writes is a queue-overlay
  /// read (the batch client resolves it without an RPC) and skips store
  /// validation.
  std::vector<bool> prepare(TxnId owner,
                            const std::vector<BatchEntry>& entries);

  /// Applies the writes of entries whose `decisions[i]` is true, each at
  /// commit_version = version_base + entry.txn (txn stamps are allocated in
  /// queue order, so versions strictly increase along the list), then
  /// releases every lock owned by `owner`. Entries with a false decision
  /// are skipped but their locks (shared under `owner`) are still released.
  /// Also called on replicas that voted no but saw the global commit:
  /// versions only move forward.
  void commit(TxnId owner, const std::vector<BatchEntry>& entries,
              const std::vector<bool>& decisions, std::int64_t version_base);

  /// Releases every lock owned by `owner` without applying anything.
  void abort(TxnId owner);

  /// True if `key` currently carries a write lock (reads wait on these —
  /// an in-flight commit may be about to apply).
  bool is_locked(const std::string& key) const;

  /// Owner of `key`'s write lock, if any. Recovery hook: fail-fast locks
  /// have no expiry, so an operator (or test) that knows a transaction's
  /// global decision can release a lock whose decide message was lost —
  /// the role RC's per-DC Paxos log plays in the paper's deployment.
  std::optional<TxnId> lock_holder(const std::string& key) const;

  /// Diagnostics.
  std::size_t locked_keys() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, VersionedValue> data_;
  std::unordered_map<std::string, TxnId> locks_;            // key -> owner
  std::unordered_map<TxnId, std::vector<std::string>> txn_locks_;
};

}  // namespace srpc::kv
