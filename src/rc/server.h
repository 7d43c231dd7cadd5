// Replicated Commit servers: shard replica + per-DC coordinator.
//
// ShardServer exposes quorum-read and local-2PC participant operations over
// one VersionedStore replica. Coordinator runs the datacentre-local 2PC for
// rc.commit and forwards the global decision (rc.decide) to its shards. A
// commit round carries a list of transaction entries: one for a
// per-transaction commit, many for a queue-oriented group commit. Both are
// framework-independent via RpcKit, matching the paper's claim that the RC
// protocol code is unchanged between the gRPC/TradRPC/SpecRPC builds.
//
// Both take a ViewProvider (rc/view.h): routed requests carry the caller's
// view epoch and are NACKed with kWrongEpoch when it differs from the
// server's; view.install moves a server to the next epoch. A shard that
// gains slots marks them warming, pulls their state from the old owner
// (view.pull), and delays reads/prepares on warming keys until the transfer
// lands; applies whose keys have migrated away are forwarded to the current
// owner so no committed write is stranded on an old replica (DESIGN.md §13).
//
// An optional CpuModel charges per-request processing time — this is how
// the Figure 13 experiment limits servers to 2-3 cores (DESIGN.md §3).
#pragma once

#include <memory>
#include <set>

#include "common/cpu_model.h"
#include "kvstore/store.h"
#include "kvstore/txn_log.h"
#include "rc/common.h"
#include "rc/kit.h"

namespace srpc::rc {

struct ServerCosts {
  Duration read{};     // per rc.read
  Duration prepare{};  // per rc.prepare
  Duration apply{};    // per rc.apply (commit or abort)
  Duration commit{};   // per rc.commit / rc.decide at the coordinator
};

class ShardServer {
 public:
  /// `dc`/`shard` are this replica's coordinates in the view. `log`
  /// (optional) receives every applied commit asynchronously — the paper's
  /// SSD-persisted transaction log, off the critical path.
  ShardServer(RpcKit& kit, kv::VersionedStore& store,
              std::shared_ptr<ViewProvider> views, int dc, int shard,
              CpuModel* cpu = nullptr, ServerCosts costs = {},
              kv::TxnLog* log = nullptr);

  kv::VersionedStore& store() { return store_; }
  int shard() const { return shard_; }
  int dc() const { return dc_; }
  /// Slots owned in the current view whose state transfer has not landed.
  std::size_t warming_slots() const;

 private:
  void with_cpu(Duration cost, std::function<void()> work);
  void serve_read(const std::string& key,
                  std::function<void(Outcome)> respond, int attempt);
  void handle_prepare(ValueList args, std::function<void(Outcome)> respond,
                      int attempt);
  void handle_apply(const ValueList& args);
  void handle_view_install(ValueList args,
                           std::function<void(Outcome)> respond);
  void handle_view_pull(ValueList args, std::function<void(Outcome)> respond);

  /// NACKs (and returns true) when the request's trailing view-epoch arg
  /// differs from the server's current epoch.
  bool nack_wrong_epoch(const ValueList& args,
                        const std::function<void(Outcome)>& respond);
  bool is_warming(const std::string& key) const;
  void clear_warming(const std::vector<int>& slots);
  /// Pulls `slots` from `source` (the old owner's replica in this DC),
  /// retrying until the source has installed the epoch and drained prepared
  /// transactions on those keys.
  void pull_from(Address source, std::vector<int> slots, int attempt);
  /// Re-applies decided writes whose key now lives on another shard of
  /// this DC, one forwarded rc.apply per entry and owning shard.
  void forward_migrated(const std::vector<kv::BatchEntry>& entries,
                        const std::vector<bool>& decisions,
                        std::int64_t version_base);

  RpcKit& kit_;
  kv::VersionedStore& store_;
  std::shared_ptr<ViewProvider> views_;
  int dc_;
  int shard_;
  CpuModel* cpu_;
  ServerCosts costs_;
  kv::TxnLog* log_;
  /// Serializes view.install processing (proposals are serial; this guards
  /// against duplicated/raced installs).
  std::mutex install_mu_;
  mutable std::mutex warm_mu_;
  std::set<int> warming_;
};

class Coordinator {
 public:
  Coordinator(RpcKit& kit, std::shared_ptr<ViewProvider> views, int dc,
              CpuModel* cpu = nullptr, ServerCosts costs = {});

 private:
  void with_cpu(Duration cost, std::function<void()> work);
  void handle_commit(const ValueList& args,
                     std::function<void(Outcome)> respond);
  void handle_decide(const ValueList& args);

  RpcKit& kit_;
  std::shared_ptr<ViewProvider> views_;
  int dc_;
  CpuModel* cpu_;
  ServerCosts costs_;
};

}  // namespace srpc::rc
