#include "rc/client.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "common/executor.h"

namespace srpc::rc {

namespace {

/// A wrong-epoch NACK kills at most this many whole-transaction re-runs
/// before the transaction is surfaced as aborted (a view change is one
/// epoch hop in practice; repeated hops mean the caller should back off).
constexpr int kMaxViewRetries = 3;

}  // namespace

RcClient::RcClient(RpcKit& kit, std::shared_ptr<ViewProvider> views,
                   RcClientConfig config)
    : kit_(kit), views_(std::move(views)), config_(config) {}

Value max_version_combiner(const std::vector<Value>& responses) {
  const Value* best = &responses.front();
  std::int64_t best_version = best->as_list().at(1).as_int();
  for (const auto& r : responses) {
    const std::int64_t v = r.as_list().at(1).as_int();
    if (v > best_version) {
      best = &r;
      best_version = v;
    }
  }
  return *best;
}

RcClient::Plan RcClient::plan_ops(const std::vector<Op>& ops) const {
  Plan plan;
  std::map<std::string, std::string> buffer;  // write buffer, last wins
  for (const auto& op : ops) {
    if (op.is_read) {
      auto it = buffer.find(op.key);
      if (it != buffer.end()) {
        // Read-your-own-write: served from the buffer, no quorum needed and
        // no validation entry (we wrote it; versions are assigned at commit).
        plan.local_reads.push_back(ReadResult{op.key, it->second, -1});
      } else {
        plan.quorum_reads.push_back(op.key);
      }
    } else {
      buffer[op.key] = op.value;
    }
  }
  plan.writes.reserve(buffer.size());
  for (auto& [key, value] : buffer)
    plan.writes.push_back(kv::WriteOp{key, value});
  return plan;
}

std::vector<Address> RcClient::replicas_for(const ClusterView& view,
                                            const std::string& key) const {
  const int shard = view.shard_of(key);
  std::vector<Address> out;
  out.reserve(static_cast<std::size_t>(view.num_dcs));
  out.push_back(view.shard_addr(config_.my_dc, shard));  // local first
  for (int dc = 0; dc < view.num_dcs; ++dc) {
    if (dc != config_.my_dc) out.push_back(view.shard_addr(dc, shard));
  }
  return out;
}

ReadResult RcClient::quorum_read(const ClusterView& view,
                                 const std::string& key) {
  std::vector<FuturePtr> futures;
  for (const auto& addr : replicas_for(view, key)) {
    ValueList args;
    args.emplace_back(key);
    args.emplace_back(view.epoch);
    futures.push_back(kit_.call(addr, kRead, std::move(args)));
  }
  auto result = quorum_wait_detailed(futures, config_.read_quorum);
  if (static_cast<int>(result.successes.size()) < config_.read_quorum) {
    for (const auto& error : result.errors) {
      if (is_wrong_epoch(error)) {
        throw WrongEpochError(parse_wrong_epoch(error));
      }
    }
    throw rpc::RpcError("quorum read failed for " + key);
  }
  std::vector<Value> values;
  values.reserve(result.successes.size());
  for (auto& o : result.successes) values.push_back(o.value);
  return decode_read_result(key, max_version_combiner(values));
}

TxnResult RcClient::run_with_view(
    const std::function<void(const View&, TxnResult&)>& attempt) {
  const TimePoint t0 = Clock::now();
  int refreshes = 0;
  TxnResult result;
  for (;;) {
    result = TxnResult{};
    auto view = views_->get();
    try {
      attempt(view, result);
    } catch (const WrongEpochError& err) {
      ++refreshes;
      if (err.view()) views_->install(*err.view());
      if (refreshes <= kMaxViewRetries) continue;
      result = TxnResult{};  // out of retries: surface as aborted
    }
    break;
  }
  result.view_refreshes = refreshes;
  result.total = Clock::now() - t0;
  return result;
}

void RcClient::run_sequential_once(const View& view,
                                   const std::vector<Op>& ops,
                                   TxnResult& result) {
  Plan plan = plan_ops(ops);
  // Dependent reads execute strictly one after another — this is the
  // latency the paper attributes to the non-speculative builds (Figure 9).
  for (const auto& key : plan.quorum_reads) {
    result.reads.push_back(quorum_read(*view, key));
  }
  commit_txn(*view, result.reads, plan.writes, result);
  result.reads.insert(result.reads.end(), plan.local_reads.begin(),
                      plan.local_reads.end());
}

TxnResult RcClient::run_sequential(const std::vector<Op>& ops) {
  return run_with_view([this, &ops](const View& view, TxnResult& result) {
    run_sequential_once(view, ops, result);
  });
}

spec::CallbackFactory RcClient::chain_factory(
    View view, std::shared_ptr<const std::vector<std::string>> keys,
    std::size_t idx, std::vector<ReadResult> acc) const {
  // Each speculation branch gets a fresh callback whose accumulated reads
  // are an isolated by-value snapshot (the paper's factory pattern, §3.5.2).
  return [this, view, keys, idx, acc]() -> spec::CallbackFn {
    return [this, view, keys, idx, acc](spec::SpecContext& ctx,
                                        const Value& v)
               -> spec::CallbackResult {
      std::vector<ReadResult> mine = acc;
      mine.push_back(decode_read_result((*keys)[idx], v));
      if (idx + 1 < keys->size()) {
        const std::string& next = (*keys)[idx + 1];
        ValueList args;
        args.emplace_back(next);
        args.emplace_back(view->epoch);
        return ctx.call_quorum(replicas_for(*view, next), config_.read_quorum,
                               kRead, std::move(args), max_version_combiner,
                               chain_factory(view, keys, idx + 1,
                                             std::move(mine)));
      }
      // Last read. No specBlock (§4.1) needed: the chain's future resolves
      // only with a branch whose every prediction validated, and the commit
      // runs after future->get() on the caller's thread — so nothing
      // speculative reaches it, and no work thread parks here.
      ValueList out;
      out.reserve(mine.size());
      for (const auto& r : mine)
        out.push_back(vlist(r.key, r.value, r.version));
      return Value(std::move(out));
    };
  };
}

void RcClient::run_speculative_once(const View& view,
                                    const std::vector<Op>& ops,
                                    TxnResult& result) {
  spec::SpecEngine* engine = kit_.spec_engine();
  Plan plan = plan_ops(ops);
  if (!plan.quorum_reads.empty()) {
    auto keys = std::make_shared<const std::vector<std::string>>(
        plan.quorum_reads);
    ValueList args;
    args.emplace_back((*keys)[0]);
    args.emplace_back(view->epoch);
    auto future = engine->call_quorum(replicas_for(*view, (*keys)[0]),
                                      config_.read_quorum, kRead,
                                      std::move(args), max_version_combiner,
                                      chain_factory(view, keys, 0, {}));
    Value all;
    try {
      all = future->get();  // non-speculative read results
    } catch (const rpc::RpcError& err) {
      // A wrong-epoch NACK anywhere in the chain fails the whole logical
      // call; every branch opened under the old epoch has already rolled
      // back by the time the future resolves. Re-run under the new view.
      if (is_wrong_epoch(err.what())) {
        throw WrongEpochError(parse_wrong_epoch(err.what()));
      }
      throw;
    }
    for (const auto& e : all.as_list()) {
      const ValueList& triple = e.as_list();
      result.reads.push_back(ReadResult{triple.at(0).as_string(),
                                        triple.at(1).as_string(),
                                        triple.at(2).as_int()});
    }
  }
  commit_txn(*view, result.reads, plan.writes, result);
  result.reads.insert(result.reads.end(), plan.local_reads.begin(),
                      plan.local_reads.end());
}

TxnResult RcClient::run_speculative(const std::vector<Op>& ops) {
  if (kit_.spec_engine() == nullptr) return run_sequential(ops);
  return run_with_view([this, &ops](const View& view, TxnResult& result) {
    run_speculative_once(view, ops, result);
  });
}

TxnResult RcClient::run_transform(
    const std::string& key,
    const std::function<std::string(const std::string&)>& transform) {
  return run_with_view(
      [this, &key, &transform](const View& view, TxnResult& result) {
        result.reads.push_back(quorum_read(*view, key));
        std::vector<kv::WriteOp> writes;
        writes.push_back(kv::WriteOp{key, transform(result.reads[0].value)});
        commit_txn(*view, result.reads, writes, result);
      });
}

TxnResult RcClient::run(const std::vector<Op>& ops) {
  return kit_.spec_engine() != nullptr ? run_speculative(ops)
                                       : run_sequential(ops);
}

void RcClient::commit_txn(const ClusterView& view,
                          const std::vector<ReadResult>& reads,
                          const std::vector<kv::WriteOp>& writes,
                          TxnResult& result) {
  if (writes.empty()) {
    // Read-only transactions need no commit round: quorum reads already
    // returned majority-committed values.
    result.committed = true;
    result.read_only = true;
    result.commit_phase = Duration::zero();
    return;
  }
  const TimePoint t1 = Clock::now();
  kv::BatchEntry entry;
  entry.txn = static_cast<kv::TxnId>(next_txn_stamp());
  entry.reads.reserve(reads.size());
  for (const auto& r : reads)
    entry.reads.push_back(kv::ReadValidation{r.key, r.version});
  entry.writes = writes;
  result.committed = commit_round(kit_, view, config_.vote_quorum, entry.txn,
                                  {std::move(entry)})
                         .decisions[0];
  result.commit_phase = Clock::now() - t1;
}

CommitRound commit_round(
    RpcKit& kit, const ClusterView& view, int vote_quorum, kv::TxnId owner,
    const std::vector<kv::BatchEntry>& entries,
    const std::function<void(std::vector<bool>&)>& close) {
  // One wide-area round trip: the entries to every DC coordinator; each
  // entry commits once a majority of DCs votes yes for it.
  const std::size_t n = entries.size();
  struct VoteState {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<int> yes, no;
    std::string epoch_error;  // first coordinator wrong-epoch NACK, if any
  };
  auto votes = std::make_shared<VoteState>();
  votes->yes.assign(n, 0);
  votes->no.assign(n, 0);
  const Value encoded = encode_batch_entries(entries);
  const int num_dcs = view.num_dcs;
  for (int dc = 0; dc < num_dcs; ++dc) {
    ValueList args;
    args.emplace_back(static_cast<std::int64_t>(owner));
    args.push_back(encoded);
    args.emplace_back(view.epoch);
    auto future = kit.call(view.coord_addr(dc), kCommit, std::move(args));
    future->then([votes, n](const Outcome& outcome) {
      std::vector<bool> flags;
      if (outcome.ok) flags = decode_batch_flags(outcome.value);
      std::lock_guard<std::mutex> lock(votes->mu);
      if (!outcome.ok && votes->epoch_error.empty() &&
          is_wrong_epoch(outcome.error)) {
        votes->epoch_error = outcome.error;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (i < flags.size() && flags[i]) {
          votes->yes[i]++;
        } else {
          votes->no[i]++;
        }
      }
      votes->cv.notify_all();
    });
  }
  CommitRound round;
  round.decisions.assign(n, false);
  {
    Executor::before_block();
    std::unique_lock<std::mutex> lock(votes->mu);
    votes->cv.wait(lock, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (votes->yes[i] < vote_quorum &&
            votes->no[i] <= num_dcs - vote_quorum) {
          return false;
        }
      }
      return true;
    });
    for (std::size_t i = 0; i < n; ++i) {
      round.decisions[i] = votes->yes[i] >= vote_quorum;
    }
    round.epoch_error = votes->epoch_error;
  }
  if (close) close(round.decisions);
  const bool any_committed =
      std::find(round.decisions.begin(), round.decisions.end(), true) !=
      round.decisions.end();
  // Broadcast the decision (asynchronous, off the latency path), stamped
  // with the round's epoch so coordinators resolve it where it prepared. A
  // round that lost every entry to a wrong-epoch NACK aborts here too: DCs
  // that DID prepare under the old epoch release their locks before the
  // caller re-runs.
  const Value decisions = encode_batch_flags(round.decisions);
  for (int dc = 0; dc < num_dcs; ++dc) {
    ValueList args;
    args.emplace_back(static_cast<std::int64_t>(owner));
    args.emplace_back(any_committed);
    args.push_back(encoded);
    args.push_back(decisions);
    args.emplace_back(kCommitVersionBase);
    args.emplace_back(view.epoch);
    kit.call(view.coord_addr(dc), kDecide, std::move(args));
  }
  if (!any_committed && !round.epoch_error.empty()) {
    throw WrongEpochError(parse_wrong_epoch(round.epoch_error));
  }
  return round;
}

}  // namespace srpc::rc
