// Replicated Commit protocol: shared types, wire encodings.
//
// Replicated Commit (Mahmoud et al., VLDB'13 [26]) commits a transaction in
// one wide-area round trip by replicating the commit operation itself: the
// client sends the commit to a coordinator in every datacentre; each
// coordinator runs 2PC locally across the shards of its own DC and acts as
// an acceptor; the transaction commits once a majority of DCs accept.
// Reads are majority quorum reads across DCs; writes are buffered at the
// client until commit (§4.1 of the SpecRPC paper). There is one commit
// round (rc::commit_round) and it carries a list of transaction entries: a
// per-transaction commit sends one, the queue-oriented group commit
// (DESIGN.md §12) sends a whole batch, each entry voted on separately.
//
// Faithfulness note (also in DESIGN.md): we let the *client* tally the
// per-DC accept votes and broadcast the decision, instead of coordinators
// exchanging Paxos accepts. The client-observed commit latency is identical
// (one WAN round trip to the majority-closest DCs); only the apply path at
// non-majority DCs differs, off the measured path.
//
// Routing lives in rc::ClusterView (rc/view.h): every key hashes to a slot,
// every view assigns slots to shards, and views are epoch-versioned so the
// map can change while traffic flows (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/store.h"
#include "rc/view.h"
#include "serde/value.h"
#include "transport/transport.h"

namespace srpc::rc {

/// Method names: the protocol's five. A per-transaction commit is a
/// commit round of one entry, so rc.commit/prepare/decide/apply carry entry
/// lists (encode_batch_entries) and the queue-oriented group commit
/// (DESIGN.md §12) rides the same methods with many entries.
///   rc.read    (key, ..., vepoch)                  -> (value, version)
///   rc.commit  (owner, entries, vepoch)            -> per-entry votes
///   rc.prepare (owner, entries, vepoch)            -> per-entry votes
///   rc.decide  (owner, commit, entries, decisions, version_base, vepoch)
///   rc.apply   (owner, commit[, entries, decisions, version_base[, epoch]])
/// rc.read, rc.commit and rc.prepare are epoch-checked: their LAST argument
/// is the caller's view epoch and a mismatch is NACKed with kWrongEpoch.
/// Batch reads send (key, batch-epoch, shard, pos, view-epoch) so every
/// queue position gets a distinct predictor key. rc.decide and rc.apply are
/// not epoch-checked — an in-flight 2PC resolves in the epoch that prepared
/// it; a forwarded apply carries its sender's epoch as a sixth argument.
inline constexpr const char* kRead = "rc.read";
inline constexpr const char* kCommit = "rc.commit";
inline constexpr const char* kPrepare = "rc.prepare";
inline constexpr const char* kDecide = "rc.decide";
inline constexpr const char* kApply = "rc.apply";

/// Commit versions sit above every preloaded version: an entry commits at
/// kCommitVersionBase + its txn stamp on every replica.
inline constexpr std::int64_t kCommitVersionBase = 1'000'000'000;

/// View-change protocol (DESIGN.md §13).
///   view.install (view_wire)        -> (epoch)       servers/coords adopt
///   view.pull    (epoch, slots_csv) -> (entries)     state transfer source
///   view.status  ()                 -> (epoch, warming_slots)
///   view.get     ()                 -> (view_wire)   client refresh
inline constexpr const char* kViewInstall = "view.install";
inline constexpr const char* kViewPull = "view.pull";
inline constexpr const char* kViewStatus = "view.status";
inline constexpr const char* kViewGet = "view.get";

/// One workload operation inside a transaction.
struct Op {
  bool is_read = true;
  std::string key;
  std::string value;  // writes only
};

/// A completed read inside a transaction.
struct ReadResult {
  std::string key;
  std::string value;
  std::int64_t version = 0;
};

struct TxnResult {
  bool committed = false;
  bool read_only = false;
  Duration total{};        // begin -> decision
  Duration commit_phase{}; // commit issue -> decision (paper's "commit latency")
  std::vector<ReadResult> reads;
  /// Number of wrong-epoch NACKs that forced a view refresh + re-issue of
  /// this transaction (0 in steady state).
  int view_refreshes = 0;
};

// ------------------------------------------------------------ wire helpers
// RC payloads ride inside framework Values.

Value encode_read_result(const ReadResult& r);
ReadResult decode_read_result(const std::string& key, const Value& v);

/// Commit-round wire format: a list of per-transaction entries, each
/// vlist(txn, global_index, reads, writes), reads as vlist(key, version)
/// pairs and writes as vlist(key, value) pairs. Shared by rc.commit,
/// rc.prepare, rc.decide and rc.apply.
Value encode_batch_entries(const std::vector<kv::BatchEntry>& entries);
std::vector<kv::BatchEntry> decode_batch_entries(const Value& v);

/// Per-entry booleans (prepare votes / decide decisions) as a Value list.
Value encode_batch_flags(const std::vector<bool>& flags);
std::vector<bool> decode_batch_flags(const Value& v);

/// view.pull payload: vlist of vlist(key, value, version).
Value encode_store_entries(
    const std::vector<std::tuple<std::string, std::string, std::int64_t>>&
        entries);
std::vector<std::tuple<std::string, std::string, std::int64_t>>
decode_store_entries(const Value& v);

/// Monotonic unique ids for transactions/commit versions within a process.
std::int64_t next_txn_stamp();

}  // namespace srpc::rc
