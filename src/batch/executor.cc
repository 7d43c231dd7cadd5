#include "batch/executor.h"

#include <exception>
#include <mutex>
#include <thread>

#include "rc/client.h"  // max_version_combiner

namespace srpc::batch {

namespace {

ValueList read_args(const std::string& key, std::uint64_t epoch, int shard,
                    std::size_t pos, std::int64_t vepoch) {
  // rc.read with (key, epoch, shard, pos, vepoch): the extra coordinates
  // make every queue position a distinct predictor key (predict::key_of
  // hashes the args) — including the view epoch, so predictions primed
  // under an old view never validate a post-migration read. The trailing
  // vepoch is also what the server checks for the wrong-epoch NACK.
  ValueList args;
  args.reserve(5);
  args.emplace_back(key);
  args.emplace_back(static_cast<std::int64_t>(epoch));
  args.emplace_back(static_cast<std::int64_t>(shard));
  args.emplace_back(static_cast<std::int64_t>(pos));
  args.emplace_back(vepoch);
  return args;
}

}  // namespace

BatchExecutor::BatchExecutor(rc::RpcKit& kit,
                             std::shared_ptr<rc::ViewProvider> views,
                             int my_dc, int read_quorum,
                             std::shared_ptr<SeedStore> seeds)
    : kit_(kit),
      views_(std::move(views)),
      my_dc_(my_dc),
      read_quorum_(read_quorum),
      seeds_(std::move(seeds)) {}

std::vector<Address> BatchExecutor::replicas_for(const rc::ClusterView& view,
                                                 int shard) const {
  std::vector<Address> out;
  out.reserve(static_cast<std::size_t>(view.num_dcs));
  out.push_back(view.shard_addr(my_dc_, shard));  // local DC first
  for (int dc = 0; dc < view.num_dcs; ++dc) {
    if (dc != my_dc_) out.push_back(view.shard_addr(dc, shard));
  }
  return out;
}

rc::ReadResult BatchExecutor::quorum_read(const rc::ClusterView& view,
                                          const std::string& key,
                                          std::uint64_t epoch, int shard,
                                          std::size_t pos) {
  std::vector<rc::FuturePtr> futures;
  for (const auto& addr : replicas_for(view, shard)) {
    futures.push_back(kit_.call(addr, rc::kRead,
                                read_args(key, epoch, shard, pos, view.epoch)));
  }
  auto result = rc::quorum_wait_detailed(futures, read_quorum_);
  if (static_cast<int>(result.successes.size()) < read_quorum_) {
    for (const auto& error : result.errors) {
      if (rc::is_wrong_epoch(error)) {
        throw rc::WrongEpochError(rc::parse_wrong_epoch(error));
      }
    }
    throw rpc::RpcError("batch quorum read failed for " + key);
  }
  std::vector<Value> values;
  values.reserve(result.successes.size());
  for (auto& o : result.successes) values.push_back(o.value);
  return rc::decode_read_result(key, rc::max_version_combiner(values));
}

spec::CallbackFactory BatchExecutor::chain_factory(
    View view, std::shared_ptr<const std::vector<WireRead>> reads,
    std::uint64_t epoch, std::size_t idx,
    std::vector<rc::ReadResult> acc) const {
  // Fresh callback per speculation branch; the accumulated reads are an
  // isolated by-value snapshot (the RC chain pattern, paper §3.5.2), so a
  // re-executed suffix never sees an abandoned branch's state.
  return [this, view, reads, epoch, idx, acc]() -> spec::CallbackFn {
    return [this, view, reads, epoch, idx,
            acc](spec::SpecContext& ctx, const Value& v) -> spec::CallbackResult {
      const WireRead& wr = (*reads)[idx];
      std::vector<rc::ReadResult> mine = acc;
      mine.push_back(rc::decode_read_result(wr.key, v));
      // Refresh the seed cache with the read this branch observed. From a
      // speculative branch the put registers a rollback, so an abandoned
      // branch's (predicted) value is undone with the branch.
      if (seeds_ != nullptr) {
        const auto& r = mine.back();
        seeds_->put(r.key, r.value, r.version);
      }
      if (idx + 1 < reads->size()) {
        const WireRead& next = (*reads)[idx + 1];
        return ctx.call_quorum(
            replicas_for(*view, next.shard), read_quorum_, rc::kRead,
            read_args(next.key, epoch, next.shard, next.pos, view->epoch),
            rc::max_version_combiner,
            chain_factory(view, reads, epoch, idx + 1, std::move(mine)));
      }
      // Queue tail. Nothing speculative reaches the commit round without a
      // specBlock here: the chain's future resolves only with a branch whose
      // every prediction validated, and execute() waits on it.
      ValueList out;
      out.reserve(mine.size());
      for (const auto& r : mine) out.push_back(vlist(r.key, r.value, r.version));
      return Value(std::move(out));
    };
  };
}

ReadSet BatchExecutor::execute(const BatchPlan& plan, BatchMode mode,
                               View view) {
  ReadSet result;
  spec::SpecEngine* engine = kit_.spec_engine();
  if (mode == BatchMode::kSpeculative && engine != nullptr) {
    // One chain per non-empty shard queue, all in flight concurrently.
    struct ShardChain {
      const std::vector<WireRead>* reads;
      spec::SpecFuturePtr future;
    };
    std::vector<ShardChain> chains;
    for (int shard = 0; shard < plan.num_shards; ++shard) {
      const auto& reads = plan.wire_reads[static_cast<std::size_t>(shard)];
      if (reads.empty()) continue;
      auto shared = std::make_shared<const std::vector<WireRead>>(reads);
      const WireRead& first = (*shared)[0];
      auto future = engine->call_quorum(
          replicas_for(*view, first.shard), read_quorum_, rc::kRead,
          read_args(first.key, plan.epoch, first.shard, first.pos,
                    view->epoch),
          rc::max_version_combiner,
          chain_factory(view, shared, plan.epoch, 0, {}));
      chains.push_back(ShardChain{&reads, std::move(future)});
    }
    for (auto& chain : chains) {
      Value all;
      try {
        all = chain.future->get();  // non-speculative results
      } catch (const rpc::RpcError& err) {
        // A wrong-epoch NACK from any replica fails the whole chain; every
        // branch opened under the old view has already rolled back inside
        // the engine by the time the future resolves.
        if (rc::is_wrong_epoch(err.what())) {
          throw rc::WrongEpochError(rc::parse_wrong_epoch(err.what()));
        }
        throw;
      }
      const ValueList& list = all.as_list();
      for (std::size_t i = 0; i < list.size(); ++i) {
        const ValueList& triple = list[i].as_list();
        const WireRead& wr = (*chain.reads)[i];
        result[{wr.txn_pos, wr.op_pos}] =
            rc::ReadResult{triple.at(0).as_string(), triple.at(1).as_string(),
                           triple.at(2).as_int()};
      }
    }
    return result;
  }

  // Non-speculative queue machine: each queue processes its reads strictly
  // in order, but independent queues run concurrently — that is the
  // parallelism partitioned queues buy even without speculation.
  std::mutex mu;
  std::exception_ptr first_error;
  std::vector<std::thread> workers;
  for (int shard = 0; shard < plan.num_shards; ++shard) {
    const auto& reads = plan.wire_reads[static_cast<std::size_t>(shard)];
    if (reads.empty()) continue;
    workers.emplace_back([&, shard] {
      try {
        for (const auto& wr : plan.wire_reads[static_cast<std::size_t>(shard)]) {
          auto r = quorum_read(*view, wr.key, plan.epoch, wr.shard, wr.pos);
          if (seeds_ != nullptr) seeds_->put(r.key, r.value, r.version);
          std::lock_guard<std::mutex> lock(mu);
          result[{wr.txn_pos, wr.op_pos}] = std::move(r);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return result;
}

}  // namespace srpc::batch
