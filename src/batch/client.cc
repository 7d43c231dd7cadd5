#include "batch/client.h"

#include <map>

#include "rc/client.h"  // commit_round

namespace srpc::batch {

namespace {
/// Re-plans after a wrong-epoch NACK before giving up on the epoch. One
/// refresh normally suffices (the NACK carries the new view); the bound
/// protects against a reconfiguration storm.
constexpr int kMaxViewRetries = 3;
}  // namespace

BatchClient::BatchClient(rc::RpcKit& kit,
                         std::shared_ptr<rc::ViewProvider> views,
                         BatchClientConfig config,
                         std::shared_ptr<SeedStore> seeds,
                         std::shared_ptr<QueueSeedPredictor> predictor,
                         std::shared_ptr<BatchQueueGauge> gauge)
    : kit_(kit),
      views_(views),
      config_(config),
      seeds_(std::move(seeds)),
      predictor_(std::move(predictor)),
      gauge_(std::move(gauge)),
      executor_(kit, std::move(views), config.my_dc, config.read_quorum,
                seeds_) {}

void BatchClient::refresh_view(const rc::WrongEpochError& err) {
  stats_.view_refreshes.fetch_add(1, std::memory_order_relaxed);
  if (err.view().has_value()) {
    // Diff the slot tables before installing: only seeds whose slots moved
    // between the two views are stale (a migration must not cold-start
    // seed accuracy for the untouched rest of the key space).
    const View old_view = views_->get();
    views_->install(*err.view());
    if (seeds_ != nullptr) seeds_->invalidate_moved(*old_view, *err.view());
  } else if (seeds_ != nullptr) {
    seeds_->clear();  // no view payload: can't tell what moved
  }
}

std::size_t BatchClient::next_epoch_size() {
  if (controller_ == nullptr) return config_.txns_per_epoch;
  if (!pending_decision_.has_value()) pending_decision_ = controller_->next();
  return pending_decision_->epoch_size;
}

BatchClient::StatsSnapshot BatchClient::snapshot_counters() const {
  StatsSnapshot snap;
  snap.dep_aborts = stats_.dep_aborts.load(std::memory_order_relaxed);
  snap.wire_reads = stats_.wire_reads.load(std::memory_order_relaxed);
  if (predictor_ != nullptr) {
    snap.seed_checked = predictor_->checked();
    snap.seed_correct = predictor_->correct();
  }
  return snap;
}

void BatchClient::feed_controller(const BatchDecision& decision,
                                  const EpochResult& result,
                                  const StatsSnapshot& before,
                                  Duration epoch_time) {
  const StatsSnapshot after = snapshot_counters();
  EpochFeedback feedback;
  feedback.mode = decision.mode;
  feedback.probe = decision.probe;
  feedback.epoch_time = epoch_time;
  feedback.txns = result.committed + result.aborted;
  feedback.committed = result.committed;
  feedback.aborted = result.aborted;
  feedback.dep_aborts =
      static_cast<std::size_t>(after.dep_aborts - before.dep_aborts);
  feedback.wire_reads =
      static_cast<std::size_t>(after.wire_reads - before.wire_reads);
  feedback.read_phase = result.read_phase;
  feedback.seed_checked = after.seed_checked - before.seed_checked;
  feedback.seed_correct = after.seed_correct - before.seed_correct;
  feedback.pressure_level =
      admission_ != nullptr ? static_cast<int>(admission_->level()) : 0;
  controller_->observe(feedback);
}

EpochResult BatchClient::run_epoch(std::vector<BatchTxn> txns) {
  // The controller's decision holds for the whole epoch, across wrong-epoch
  // re-plans (a view refresh changes routing, not the workload signals the
  // decision was made from).
  std::optional<BatchDecision> decision;
  if (controller_ != nullptr) {
    if (!pending_decision_.has_value()) pending_decision_ = controller_->next();
    decision = pending_decision_;
    pending_decision_.reset();
  }
  const BatchMode mode = decision.has_value() ? decision->mode : config_.mode;
  const StatsSnapshot before = snapshot_counters();
  const TimePoint epoch_start = Clock::now();
  for (int attempt = 0;; ++attempt) {
    // Plan under the freshest view; the plan carries that view's epoch and
    // every RPC of the epoch is stamped with it.
    const View view = views_->get();
    const BatchPlan plan = planner_.plan(*view, txns);
    if (gauge_ != nullptr) gauge_->on_plan(plan);
    try {
      EpochResult result = mode == BatchMode::kPerTxn2pc
                               ? run_per_txn(plan, view)
                               : run_batched(plan, view, mode);
      result.mode = mode;
      if (gauge_ != nullptr) gauge_->on_complete(plan);
      stats_.epochs.fetch_add(1, std::memory_order_relaxed);
      stats_.committed.fetch_add(result.committed, std::memory_order_relaxed);
      stats_.aborted.fetch_add(result.aborted, std::memory_order_relaxed);
      if (decision.has_value()) {
        feed_controller(*decision, result, before, Clock::now() - epoch_start);
      }
      return result;
    } catch (const rc::WrongEpochError& err) {
      // Thrown only before anything of this epoch committed (reads, or a
      // commit round that aborted every transaction), so a full re-plan
      // cannot double-apply.
      if (gauge_ != nullptr) gauge_->on_complete(plan);
      refresh_view(err);
      if (attempt >= kMaxViewRetries) {
        EpochResult result;
        result.epoch = plan.epoch;
        result.mode = mode;
        result.aborted = plan.txns.size();
        result.decisions.assign(plan.txns.size(), false);
        stats_.epochs.fetch_add(1, std::memory_order_relaxed);
        stats_.aborted.fetch_add(result.aborted, std::memory_order_relaxed);
        if (decision.has_value()) {
          feed_controller(*decision, result, before,
                          Clock::now() - epoch_start);
        }
        return result;
      }
    }
  }
}

void BatchClient::prime_predictions(const BatchPlan& plan) {
  if (predictor_ == nullptr || seeds_ == nullptr) return;
  predictor_->begin_epoch();
  for (int shard = 0; shard < plan.num_shards; ++shard) {
    for (const auto& wr : plan.wire_reads[static_cast<std::size_t>(shard)]) {
      auto seed = seeds_->get(wr.key);
      if (!seed.has_value()) continue;  // cold key: the call runs unpredicted
      // Must mirror the executor's read_args exactly — the predictor key
      // hashes (method, args), vepoch included.
      ValueList args;
      args.reserve(5);
      args.emplace_back(wr.key);
      args.emplace_back(static_cast<std::int64_t>(plan.epoch));
      args.emplace_back(static_cast<std::int64_t>(wr.shard));
      args.emplace_back(static_cast<std::int64_t>(wr.pos));
      args.emplace_back(plan.view_epoch);
      predictor_->prime(rc::kRead, args,
                        vlist(seed->value, seed->version));
    }
  }
}

std::vector<BatchClient::ComputedTxn> BatchClient::compute(
    const BatchPlan& plan, const ReadSet& reads) {
  std::vector<ComputedTxn> out(plan.txns.size());
  std::map<std::string, std::string> view;  // queued writes so far
  std::uint64_t wire = 0;
  std::uint64_t overlay = 0;
  for (std::size_t i = 0; i < plan.txns.size(); ++i) {
    const PlannedTxn& planned = plan.txns[i];
    ComputedTxn& txn = out[i];
    std::map<std::string, std::string> buffer;  // own writes, last wins
    for (std::size_t j = 0; j < planned.txn.ops.size(); ++j) {
      const BatchOp& op = planned.txn.ops[j];
      if (op.kind == OpKind::kWrite) {
        buffer[op.key] = op.value;
        continue;
      }
      // kRead / kRmw: resolve the current value in queue order — own buffer
      // first, then the wire read (validated at prepare), then the overlay
      // of queued writes ahead of us (dependency-closed, not validated).
      std::string current;
      auto bit = buffer.find(op.key);
      if (bit != buffer.end()) {
        current = bit->second;
        overlay++;
      } else if (auto rit = reads.find({i, j}); rit != reads.end()) {
        current = rit->second.value;
        txn.validations.push_back(
            kv::ReadValidation{op.key, rit->second.version});
        wire++;
      } else {
        current = view.at(op.key);  // planner guarantees an earlier writer
        overlay++;
      }
      if (op.kind == OpKind::kRmw) {
        buffer[op.key] = apply_transform(op.transform, current, op.value);
      }
    }
    txn.writes.reserve(buffer.size());
    for (auto& [key, value] : buffer) {
      txn.writes.push_back(kv::WriteOp{key, value});
      view[key] = value;
    }
  }
  stats_.wire_reads.fetch_add(wire, std::memory_order_relaxed);
  stats_.overlay_reads.fetch_add(overlay, std::memory_order_relaxed);
  return out;
}

EpochResult BatchClient::run_batched(const BatchPlan& plan, const View& view,
                                     BatchMode mode) {
  const TimePoint t0 = Clock::now();
  EpochResult result;
  result.epoch = plan.epoch;
  if (plan.txns.empty()) return result;

  if (mode == BatchMode::kSpeculative) prime_predictions(plan);
  const ReadSet reads = executor_.execute(plan, mode, view);
  result.read_phase = Clock::now() - t0;
  const auto computed = compute(plan, reads);

  std::vector<kv::BatchEntry> entries;
  entries.reserve(computed.size());
  for (std::size_t i = 0; i < computed.size(); ++i) {
    kv::BatchEntry e;
    e.txn = plan.txns[i].txn_id;
    e.index = i;
    e.reads = computed[i].validations;
    e.writes = computed[i].writes;
    entries.push_back(std::move(e));
  }

  // One batch-wide commit round, per-transaction votes tallied to a
  // majority each. The decide carries the planning epoch for union routing
  // on the far side (the batch resolves in the epoch that prepared it;
  // migrated writes also land at their current owners).
  const TimePoint t1 = Clock::now();
  const auto batch_id = static_cast<kv::TxnId>(rc::next_txn_stamp());
  const std::size_t n = entries.size();
  const rc::CommitRound round = rc::commit_round(
      kit_, *view, config_.vote_quorum, batch_id, entries,
      [&](std::vector<bool>& decisions) {
        // Dependency closure, in batch order: a transaction whose overlay
        // read came from an aborted transaction aborts too (transitive,
        // since deps only point backwards).
        for (std::size_t i = 0; i < n; ++i) {
          bool ok = decisions[i];
          for (const std::size_t dep : plan.txns[i].deps) {
            if (!decisions[dep]) ok = false;
          }
          if (decisions[i] && !ok) {
            stats_.dep_aborts.fetch_add(1, std::memory_order_relaxed);
          }
          decisions[i] = ok;
        }
      });
  result.decisions = round.decisions;
  result.commit_phase = Clock::now() - t1;

  // A wrong-epoch NACK that aborted the whole batch threw out of the round
  // (nothing applied, locks released), so run_epoch re-plans under the
  // refreshed view. If anything committed, install the newer view quietly
  // and move on.
  if (!round.epoch_error.empty()) {
    auto next = rc::parse_wrong_epoch(round.epoch_error);
    if (next.has_value()) views_->install(*next);
  }

  // Committed writes become next epoch's seeds, at their exact commit
  // versions (the engine validates predictions by deep (value, version)
  // equality, so approximate versions would never validate).
  if (seeds_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!result.decisions[i]) continue;
      const std::int64_t version =
          rc::kCommitVersionBase + static_cast<std::int64_t>(entries[i].txn);
      for (const auto& w : entries[i].writes) {
        seeds_->put(w.key, w.value, version);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (result.decisions[i]) {
      result.committed++;
    } else {
      result.aborted++;
    }
  }
  result.total = Clock::now() - t0;
  return result;
}

EpochResult BatchClient::run_per_txn(const BatchPlan& plan, const View& view) {
  const TimePoint t0 = Clock::now();
  EpochResult result;
  result.epoch = plan.epoch;
  result.decisions.assign(plan.txns.size(), false);
  // The per-txn baseline refreshes the view per transaction: earlier
  // transactions of the epoch may already have committed, so a wrong-epoch
  // NACK must never replay the whole epoch — it retries just the
  // transaction that hit it, under the refreshed view.
  View cur = view;
  for (std::size_t i = 0; i < plan.txns.size(); ++i) {
    const PlannedTxn& planned = plan.txns[i];
    bool committed = false;
    for (int attempt = 0; attempt <= kMaxViewRetries; ++attempt) {
      try {
        std::map<std::string, std::string> buffer;
        std::vector<kv::ReadValidation> validations;
        std::size_t read_seq = 0;
        for (const BatchOp& op : planned.txn.ops) {
          if (op.kind == OpKind::kWrite) {
            buffer[op.key] = op.value;
            continue;
          }
          std::string current;
          auto bit = buffer.find(op.key);
          if (bit != buffer.end()) {
            current = bit->second;  // read-your-own-write, no validation
          } else {
            // Fresh quorum read, sequential — the per-txn baseline pays one
            // round trip per read and one commit round per transaction.
            const TimePoint r0 = Clock::now();
            const auto r = executor_.quorum_read(
                *cur, op.key, plan.epoch, cur->shard_of(op.key), read_seq++);
            result.read_phase += Clock::now() - r0;
            current = r.value;
            validations.push_back(kv::ReadValidation{op.key, r.version});
            stats_.wire_reads.fetch_add(1, std::memory_order_relaxed);
          }
          if (op.kind == OpKind::kRmw) {
            buffer[op.key] = apply_transform(op.transform, current, op.value);
          }
        }
        std::vector<kv::WriteOp> writes;
        writes.reserve(buffer.size());
        for (auto& [key, value] : buffer) {
          writes.push_back(kv::WriteOp{key, value});
        }
        // The transaction's own commit round: a batch of one owned by its
        // stamp. A wrong-epoch abort throws with every lock released, so
        // the retry below is safe.
        kv::BatchEntry entry;
        entry.txn = planned.txn_id;
        entry.reads = std::move(validations);
        entry.writes = std::move(writes);
        committed = entry.writes.empty() ||
                    rc::commit_round(kit_, *cur, config_.vote_quorum,
                                     entry.txn, {entry})
                        .decisions[0];
        if (committed && seeds_ != nullptr) {
          const std::int64_t version =
              rc::kCommitVersionBase + static_cast<std::int64_t>(entry.txn);
          for (const auto& w : entry.writes) {
            seeds_->put(w.key, w.value, version);
          }
        }
        break;
      } catch (const rc::WrongEpochError& err) {
        refresh_view(err);
        cur = views_->get();
        if (attempt >= kMaxViewRetries) break;  // counts as an abort
      }
    }
    result.decisions[i] = committed;
    if (committed) {
      result.committed++;
    } else {
      result.aborted++;
    }
  }
  result.total = Clock::now() - t0;
  return result;
}

}  // namespace srpc::batch
