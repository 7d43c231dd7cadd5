// BatchClient — drives one client machine's batch epochs end to end
// (DESIGN.md §12): plan -> execute queues -> compute -> one batch-wide
// commit round -> dependency closure -> decide broadcast.
//
// The commit protocol is Replicated Commit's one round (rc::commit_round)
// over the whole batch: the client sends every entry to a coordinator in
// each datacentre (rc.commit); each coordinator runs a DC-local 2PC across
// its shards (rc.prepare validates the shard's slice of every transaction
// in queue order under ONE store lock hold) and returns a per-transaction
// vote vector; a transaction commits once a majority of DCs voted yes for
// it. The client then closes dependencies — a transaction whose overlay
// read came from an aborted transaction aborts too, transitively — and
// broadcasts rc.decide, which applies all decided writes per shard with
// one group TxnLog append. The per-txn baseline runs the same round with
// one entry per transaction.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "batch/adaptive.h"
#include "batch/executor.h"
#include "batch/planner.h"
#include "batch/pressure.h"
#include "batch/seed.h"
#include "predict/admission.h"
#include "rc/kit.h"

namespace srpc::batch {

struct BatchClientConfig {
  int my_dc = 0;
  int read_quorum = 2;
  int vote_quorum = 2;  // majority of 3 DCs
  BatchMode mode = BatchMode::kSpeculative;
  /// Epoch size next_epoch_size() reports when no adaptive controller is
  /// attached (sized workload sources ask the client how many transactions
  /// to generate; static configs answer with this).
  std::size_t txns_per_epoch = 8;
};

struct EpochResult {
  std::uint64_t epoch = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  /// Final per-transaction decision, batch order (vote AND dep closure).
  std::vector<bool> decisions;
  /// Mode this epoch actually ran in (the controller's pick, which may be a
  /// probe; config mode when no controller is attached).
  BatchMode mode = BatchMode::kSpeculative;
  Duration total{};         // plan -> decide broadcast
  Duration commit_phase{};  // commit round only (batched modes)
  Duration read_phase{};    // wall time resolving wire reads
};

/// Cumulative per-client counters (atomics: the storm test reads them from
/// other threads).
struct BatchClientStats {
  std::atomic<std::uint64_t> epochs{0};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<std::uint64_t> dep_aborts{0};      // aborted only by closure
  std::atomic<std::uint64_t> wire_reads{0};
  std::atomic<std::uint64_t> overlay_reads{0};   // resolved without an RPC
  std::atomic<std::uint64_t> view_refreshes{0};  // wrong-epoch NACKs absorbed
};

class BatchClient {
 public:
  /// `seeds`/`predictor` enable queue-order prediction seeding (kSpeculative
  /// with a spec engine); either may be null. `gauge` (optional, shared
  /// across clients) feeds the admission controller's pressure source.
  BatchClient(rc::RpcKit& kit, std::shared_ptr<rc::ViewProvider> views,
              BatchClientConfig config,
              std::shared_ptr<SeedStore> seeds = nullptr,
              std::shared_ptr<QueueSeedPredictor> predictor = nullptr,
              std::shared_ptr<BatchQueueGauge> gauge = nullptr);

  /// Runs one batch epoch over `txns`. Synchronous: returns after the
  /// decide broadcast is out (kPerTxn2pc: after the last txn's decide).
  /// A wrong-epoch NACK before anything committed re-plans the whole epoch
  /// under the refreshed view (bounded retries); once any transaction of
  /// the batch has committed the epoch is never replayed — remaining
  /// transactions just abort and the stream moves on.
  ///
  /// With an adaptive controller attached, the epoch runs in the
  /// controller's mode (cached by next_epoch_size(), fetched here if the
  /// driver never asked) and its outcome is fed back as one EpochFeedback.
  EpochResult run_epoch(std::vector<BatchTxn> txns);

  /// How many transactions the next epoch should carry: the adaptive
  /// controller's decision (cached until the next run_epoch consumes it),
  /// or config.txns_per_epoch without one. Sized workload sources call
  /// this right before generating the epoch.
  std::size_t next_epoch_size();

  /// Attaches the online epoch-size/commit-mode controller; while attached,
  /// it overrides config.mode per epoch. Wire before traffic.
  void set_controller(std::shared_ptr<AdaptiveBatchController> controller) {
    controller_ = std::move(controller);
  }
  const std::shared_ptr<AdaptiveBatchController>& controller() const {
    return controller_;
  }
  /// Admission ladder whose level feeds the controller's pressure signal
  /// (optional; shared with the cluster's prediction manager).
  void set_admission(std::shared_ptr<predict::AdmissionController> admission) {
    admission_ = std::move(admission);
  }

  const std::shared_ptr<rc::ViewProvider>& views() const { return views_; }

  const BatchClientStats& stats() const { return stats_; }
  /// Static mode from config; epochs may deviate under an attached
  /// controller (see EpochResult::mode).
  BatchMode mode() const { return config_.mode; }
  const std::shared_ptr<SeedStore>& seeds() const { return seeds_; }
  const std::shared_ptr<QueueSeedPredictor>& predictor() const {
    return predictor_;
  }

 private:
  using View = std::shared_ptr<const rc::ClusterView>;

  struct ComputedTxn {
    std::vector<kv::ReadValidation> validations;  // wire reads only
    std::vector<kv::WriteOp> writes;
  };

  EpochResult run_batched(const BatchPlan& plan, const View& view,
                          BatchMode mode);
  EpochResult run_per_txn(const BatchPlan& plan, const View& view);

  /// Resolves reads / applies transforms in queue (= batch) order against
  /// the rolling overlay of queued writes; wire reads come from `reads`.
  std::vector<ComputedTxn> compute(const BatchPlan& plan,
                                   const ReadSet& reads);

  void prime_predictions(const BatchPlan& plan);

  /// Installs the view carried by a wrong-epoch NACK and invalidates only
  /// the seeds whose slots migrated between the old and new view (seeds on
  /// unmoved slots stay warm; see SeedStore::invalidate_moved). A NACK
  /// without a parseable view falls back to the conservative full clear.
  void refresh_view(const rc::WrongEpochError& err);

  /// Marks an epoch observed for the controller's feedback deltas; returns
  /// the snapshot taken at epoch start.
  struct StatsSnapshot {
    std::uint64_t dep_aborts = 0;
    std::uint64_t wire_reads = 0;
    std::uint64_t seed_checked = 0;
    std::uint64_t seed_correct = 0;
  };
  StatsSnapshot snapshot_counters() const;
  void feed_controller(const BatchDecision& decision,
                       const EpochResult& result,
                       const StatsSnapshot& before, Duration epoch_time);

  rc::RpcKit& kit_;
  std::shared_ptr<rc::ViewProvider> views_;
  BatchClientConfig config_;
  std::shared_ptr<SeedStore> seeds_;
  std::shared_ptr<QueueSeedPredictor> predictor_;
  std::shared_ptr<BatchQueueGauge> gauge_;
  std::shared_ptr<AdaptiveBatchController> controller_;
  std::shared_ptr<predict::AdmissionController> admission_;
  /// Controller decision fetched by next_epoch_size(), consumed by the next
  /// run_epoch (client threads are single-driver, like the stats contract).
  std::optional<BatchDecision> pending_decision_;
  TxnPlanner planner_;
  BatchExecutor executor_;
  BatchClientStats stats_;
};

}  // namespace srpc::batch
