// TxnPlanner — decomposes a group of transactions into per-partition
// operation queues and assigns them one batch epoch (DESIGN.md §12.1).
//
// Planning is deterministic and purely client-local: operations are routed
// to queues by the shard map of the ClusterView the epoch is planned
// under (the plan records that view's epoch and shard count, so the commit
// round can stamp its RPCs and servers can NACK a stale plan); reads are
// classified as *wire* reads
// (no earlier writer in the batch — they need a store RPC) or *overlay*
// reads (some earlier transaction in the batch writes the key — resolved
// client-side from the queued write, no RPC and no store validation, with
// the read-write edge recorded as a dependency so the commit round can
// abort dependents of aborted transactions transitively).
#pragma once

#include <cstdint>
#include <vector>

#include "batch/types.h"
#include "rc/common.h"
#include "rc/view.h"

namespace srpc::batch {

/// One slot of a per-partition operation queue.
struct QueueEntry {
  std::size_t txn_pos = 0;  // index into BatchPlan::txns (batch order)
  std::size_t op_pos = 0;   // index into that txn's ops
  bool wire_read = false;   // true: a store read RPC backs this slot
};

/// One read RPC of the batch: shard queue slot -> key. `pos` is the
/// ordinal among the shard's wire reads and is part of the batch's rc.read
/// args, giving every queue position a unique predictor key.
struct WireRead {
  std::string key;
  int shard = 0;
  std::size_t pos = 0;
  std::size_t txn_pos = 0;
  std::size_t op_pos = 0;
};

struct PlannedTxn {
  BatchTxn txn;
  kv::TxnId txn_id = 0;  // globally stamped; commit version = 1e9 + txn_id
  /// Batch positions of earlier transactions whose queued writes this one
  /// reads (overlay reads). If any of them aborts, this one must too.
  std::vector<std::size_t> deps;
  bool cross_partition = false;  // ops straddle >= 2 shard queues
  int num_shards = 0;
};

struct BatchPlan {
  std::uint64_t epoch = 0;
  /// Epoch of the ClusterView the plan was routed under — stamped on every
  /// batch RPC so servers on a newer view NACK instead of misrouting.
  std::int64_t view_epoch = 0;
  int num_shards = 0;
  std::vector<PlannedTxn> txns;  // batch order
  std::vector<std::vector<QueueEntry>> queues;    // one per shard
  std::vector<std::vector<WireRead>> wire_reads;  // one per shard

  std::size_t queue_ops() const {
    std::size_t n = 0;
    for (const auto& q : queues) n += q.size();
    return n;
  }
  std::size_t total_wire_reads() const {
    std::size_t n = 0;
    for (const auto& w : wire_reads) n += w.size();
    return n;
  }
};

class TxnPlanner {
 public:
  /// Plans one epoch under `view`'s shard map. Stamps every transaction
  /// with a global txn id (in batch order, so commit versions increase
  /// along the batch) and increments the epoch counter.
  BatchPlan plan(const rc::ClusterView& view, std::vector<BatchTxn> txns);

  std::uint64_t epochs() const { return epoch_; }

 private:
  std::uint64_t epoch_ = 0;
};

}  // namespace srpc::batch
