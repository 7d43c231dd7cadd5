// Replicated Commit client: transaction execution over quorum reads and the
// single-roundtrip commit.
//
// Two execution strategies share the commit protocol (the paper's SpecRPC
// port "does not modify the commit protocol"):
//
//   * run_sequential — dependent quorum reads execute one after another,
//     each waiting for its majority; this is the gRPC/TradRPC behaviour the
//     paper shows growing linearly with the number of reads (Figure 9).
//
//   * run_speculative — reads form a SpecRPC callback chain: the first
//     (local-DC) response predicts each quorum result, so all dependent
//     reads overlap. The commit waits until every read is non-speculative
//     (§4.1: "Before calling commit ... an RC client will issue a specBlock
//     to wait until all quorum reads become non-speculative"); here that
//     wait is the chain future's get(), which resolves only with a branch
//     whose predictions all validated.
//
// Routing comes from a ViewProvider: every transaction snapshots the current
// ClusterView, stamps its RPCs with the view's epoch, and on a wrong-epoch
// NACK installs the server's newer view and re-runs the whole transaction
// under it (speculative branches opened under the old epoch roll back
// through the ordinary branch machinery — they are never validated across
// epochs). TxnResult::view_refreshes counts those re-runs.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "rc/common.h"
#include "rc/kit.h"

namespace srpc::rc {

struct RcClientConfig {
  int my_dc = 0;
  int read_quorum = 2;
  int vote_quorum = 2;  // majority of 3 DCs
};

class RcClient {
 public:
  RcClient(RpcKit& kit, std::shared_ptr<ViewProvider> views,
           RcClientConfig config);

  /// Executes ops with sequential quorum reads, then commits.
  TxnResult run_sequential(const std::vector<Op>& ops);

  /// Executes ops with a speculative read chain, then commits.
  /// Requires the kit to wrap a SpecRPC engine.
  TxnResult run_speculative(const std::vector<Op>& ops);

  /// Dispatches on the kit's capability (SpecRPC -> speculative).
  TxnResult run(const std::vector<Op>& ops);

  /// Read-modify-write transaction: quorum-reads `key`, writes
  /// transform(value) — the commit validates the very read the transform
  /// consumed, so concurrent increments are lost-update-free.
  TxnResult run_transform(
      const std::string& key,
      const std::function<std::string(const std::string&)>& transform);

  const std::shared_ptr<ViewProvider>& views() const { return views_; }

 private:
  struct Plan {
    std::vector<std::string> quorum_reads;    // keys needing quorum reads
    std::vector<ReadResult> local_reads;      // satisfied from write buffer
    std::vector<kv::WriteOp> writes;          // buffered writes (last wins)
  };
  using View = std::shared_ptr<const ClusterView>;

  Plan plan_ops(const std::vector<Op>& ops) const;

  /// Runs `attempt` under the current view, re-running under the refreshed
  /// view (bounded times) whenever it throws WrongEpochError; fills
  /// total/view_refreshes.
  TxnResult run_with_view(
      const std::function<void(const View&, TxnResult&)>& attempt);

  void run_sequential_once(const View& view, const std::vector<Op>& ops,
                           TxnResult& result);
  void run_speculative_once(const View& view, const std::vector<Op>& ops,
                            TxnResult& result);

  /// Replica fan-out for a key, local datacentre first (its response is the
  /// speculation-friendly first responder, §4.1).
  std::vector<Address> replicas_for(const ClusterView& view,
                                    const std::string& key) const;

  /// Throws WrongEpochError when the quorum failed on wrong-epoch NACKs,
  /// plain RpcError on any other quorum failure.
  ReadResult quorum_read(const ClusterView& view, const std::string& key);
  spec::CallbackFactory chain_factory(
      View view, std::shared_ptr<const std::vector<std::string>> keys,
      std::size_t idx, std::vector<ReadResult> acc) const;

  /// Commit phase shared by both strategies: a commit_round of one entry
  /// owned by the transaction's stamp; fills committed/commit_phase.
  void commit_txn(const ClusterView& view,
                  const std::vector<ReadResult>& reads,
                  const std::vector<kv::WriteOp>& writes, TxnResult& result);

  RpcKit& kit_;
  std::shared_ptr<ViewProvider> views_;
  RcClientConfig config_;
};

/// Quorum-read combiner: the value with the highest version among the
/// responses (RC's read rule).
Value max_version_combiner(const std::vector<Value>& responses);

struct CommitRound {
  /// Per-entry decisions: a majority of DCs voted yes, and `close` kept it.
  std::vector<bool> decisions;
  /// First coordinator wrong-epoch NACK, if any, from a round in which some
  /// entry still committed (a round that committed nothing throws instead).
  std::string epoch_error;
};

/// One Replicated Commit round over `entries`, whose locks are held under
/// `owner`: rc.commit to every DC coordinator, a per-entry majority tally,
/// then the asynchronous rc.decide broadcast. Each entry commits at
/// kCommitVersionBase + its txn stamp. A per-transaction commit is a round
/// of one entry owned by its stamp; the batch client sends whole batches.
/// `close` (optional) may veto voted entries before the decide goes out —
/// the batch client's dependency closure. Throws WrongEpochError when a
/// wrong-epoch NACK cost every entry its quorum; the decide(abort) has
/// released every prepared lock by then, so the caller may re-run the round
/// under the refreshed view.
CommitRound commit_round(
    RpcKit& kit, const ClusterView& view, int vote_quorum, kv::TxnId owner,
    const std::vector<kv::BatchEntry>& entries,
    const std::function<void(std::vector<bool>&)>& close = nullptr);

}  // namespace srpc::rc
