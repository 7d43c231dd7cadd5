// BatchExecutor — executes one planned batch's per-partition queues and
// resolves every wire read (DESIGN.md §12.2).
//
// kGroupCommit: each shard queue's wire reads run as sequential quorum
// reads in queue order — the honest non-speculative queue machine (a queue
// processes its operations serially; parallelism comes from having several
// queues).
//
// kSpeculative: each shard queue becomes a SpecRPC callback chain over its
// wire reads, issued concurrently across shards. The reads carry no
// explicit predictions — the engine's PredictionSupplier hook consults the
// client's QueueSeedPredictor (primed from queue order by the planner), so
// accuracy tracking, the speculation budget and admission governance all
// see batch traffic exactly like any other speculative workload. With warm
// seeds the whole queue pipelines to ~one RTT; a misprediction at position
// k abandons the branches spawned for positions k+1.. and the engine
// re-executes the chain suffix on the actual value (the rollback-suffix
// invariant: positions before k are never re-run).
//
// Each callback also refreshes the SeedStore with the read it observed;
// from a speculative branch that put registers a SideTable-style rollback,
// so abandoned branches cannot pollute next epoch's seeds.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "batch/planner.h"
#include "batch/seed.h"
#include "rc/kit.h"
#include "rc/view.h"

namespace srpc::batch {

/// Resolved wire reads, keyed by (txn_pos, op_pos).
using ReadSet = std::map<std::pair<std::size_t, std::size_t>, rc::ReadResult>;

class BatchExecutor {
 public:
  BatchExecutor(rc::RpcKit& kit, std::shared_ptr<rc::ViewProvider> views,
                int my_dc, int read_quorum, std::shared_ptr<SeedStore> seeds);

  /// Resolves every wire read of `plan` under `view` (the view the plan was
  /// routed with — every rc.read is stamped with its epoch, so a server on
  /// a newer view NACKs and the whole call surfaces WrongEpochError for the
  /// client to re-plan). kSpeculative requires the kit to wrap a SpecRPC
  /// engine and falls back to the sequential path otherwise. A speculative
  /// chain's future resolves only with a branch whose every prediction
  /// validated, so everything in the ReadSet is non-speculative.
  ReadSet execute(const BatchPlan& plan, BatchMode mode,
                  std::shared_ptr<const rc::ClusterView> view);

  /// One blocking quorum read with the batch's five-argument rc.read (also
  /// used by the per-txn baseline so all modes share predictor keys).
  /// Throws rc::WrongEpochError on a stale-epoch NACK.
  rc::ReadResult quorum_read(const rc::ClusterView& view,
                             const std::string& key, std::uint64_t epoch,
                             int shard, std::size_t pos);

 private:
  using View = std::shared_ptr<const rc::ClusterView>;

  std::vector<Address> replicas_for(const rc::ClusterView& view,
                                    int shard) const;
  spec::CallbackFactory chain_factory(
      View view, std::shared_ptr<const std::vector<WireRead>> reads,
      std::uint64_t epoch, std::size_t idx,
      std::vector<rc::ReadResult> acc) const;

  rc::RpcKit& kit_;
  std::shared_ptr<rc::ViewProvider> views_;
  int my_dc_;
  int read_quorum_;
  std::shared_ptr<SeedStore> seeds_;
};

}  // namespace srpc::batch
