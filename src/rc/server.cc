#include "rc/server.h"

#include <map>
#include <mutex>
#include <sstream>
#include <utility>

namespace srpc::rc {

namespace {

std::string slots_to_csv(const std::vector<int>& slots) {
  std::ostringstream out;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i != 0) out << ',';
    out << slots[i];
  }
  return out.str();
}

std::set<int> slots_from_csv(const std::string& csv) {
  std::set<int> out;
  std::istringstream in(csv);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) out.insert(std::stoi(tok));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ ShardServer

ShardServer::ShardServer(RpcKit& kit, kv::VersionedStore& store,
                         std::shared_ptr<ViewProvider> views, int dc, int shard,
                         CpuModel* cpu, ServerCosts costs, kv::TxnLog* log)
    : kit_(kit), store_(store), views_(std::move(views)), dc_(dc),
      shard_(shard), cpu_(cpu), costs_(costs), log_(log) {
  kit_.register_handler(
      kRead, [this](ValueList args, std::function<void(Outcome)> respond) {
        with_cpu(costs_.read, [this, args = std::move(args),
                               respond = std::move(respond)]() mutable {
          if (nack_wrong_epoch(args, respond)) return;
          serve_read(args.at(0).as_string(), std::move(respond),
                     /*attempt=*/0);
        });
      });

  kit_.register_handler(
      kPrepare, [this](ValueList args, std::function<void(Outcome)> respond) {
        with_cpu(costs_.prepare, [this, args = std::move(args),
                                  respond = std::move(respond)]() mutable {
          handle_prepare(std::move(args), std::move(respond), /*attempt=*/0);
        });
      });

  kit_.register_handler(
      kApply, [this](ValueList args, std::function<void(Outcome)> respond) {
        with_cpu(costs_.apply, [this, args = std::move(args),
                                respond = std::move(respond)] {
          handle_apply(args);
          respond(Outcome::success(Value(true)));
        });
      });

  // View-change protocol (DESIGN.md §13).
  kit_.register_handler(
      kViewInstall,
      [this](ValueList args, std::function<void(Outcome)> respond) {
        handle_view_install(std::move(args), std::move(respond));
      });
  kit_.register_handler(
      kViewPull, [this](ValueList args, std::function<void(Outcome)> respond) {
        handle_view_pull(std::move(args), std::move(respond));
      });
  kit_.register_handler(
      kViewStatus,
      [this](ValueList /*args*/, std::function<void(Outcome)> respond) {
        respond(Outcome::success(vlist(
            views_->epoch(), static_cast<std::int64_t>(warming_slots()))));
      });
  kit_.register_handler(
      kViewGet, [this](ValueList /*args*/,
                       std::function<void(Outcome)> respond) {
        respond(Outcome::success(Value(views_->get()->to_wire())));
      });
}

std::size_t ShardServer::warming_slots() const {
  std::lock_guard<std::mutex> lock(warm_mu_);
  return warming_.size();
}

bool ShardServer::nack_wrong_epoch(
    const ValueList& args, const std::function<void(Outcome)>& respond) {
  const std::int64_t vepoch = args.back().as_int();
  auto view = views_->get();
  if (vepoch == view->epoch) return false;
  respond(Outcome::failure(wrong_epoch_error(*view)));
  return true;
}

bool ShardServer::is_warming(const std::string& key) const {
  std::lock_guard<std::mutex> lock(warm_mu_);
  return warming_.count(slot_of_key(key)) != 0;
}

void ShardServer::clear_warming(const std::vector<int>& slots) {
  std::lock_guard<std::mutex> lock(warm_mu_);
  for (const int s : slots) warming_.erase(s);
}

void ShardServer::handle_prepare(ValueList args,
                                 std::function<void(Outcome)> respond,
                                 int attempt) {
  if (nack_wrong_epoch(args, respond)) return;
  const auto owner = static_cast<kv::TxnId>(args.at(0).as_int());
  const auto entries = decode_batch_entries(args.at(1));
  // A warming key's state transfer has not landed yet: preparing against it
  // could validate a read version or grant a lock against stale data. Wait
  // briefly for the pull; past the bound, vote no (the client aborts and
  // retries — never prepares against a half-transferred slot).
  bool warm = false;
  for (const auto& e : entries) {
    for (const auto& r : e.reads) warm = warm || is_warming(r.key);
    for (const auto& w : e.writes) warm = warm || is_warming(w.key);
  }
  if (warm) {
    if (attempt < 400) {
      kit_.wheel().schedule_after(
          std::chrono::microseconds(500),
          [this, args = std::move(args), respond = std::move(respond),
           attempt]() mutable {
            handle_prepare(std::move(args), std::move(respond), attempt + 1);
          });
    } else {
      respond(Outcome::success(
          encode_batch_flags(std::vector<bool>(entries.size(), false))));
    }
    return;
  }
  respond(Outcome::success(encode_batch_flags(store_.prepare(owner, entries))));
}

void ShardServer::handle_apply(const ValueList& args) {
  const auto owner = static_cast<kv::TxnId>(args.at(0).as_int());
  if (!args.at(1).as_bool()) {
    store_.abort(owner);
    return;
  }
  const auto entries = decode_batch_entries(args.at(2));
  const auto decisions = decode_batch_flags(args.at(3));
  const std::int64_t version_base = args.at(4).as_int();
  store_.commit(owner, entries, decisions, version_base);
  if (log_ != nullptr) {
    // One group append for the whole round: N records, one lock, one flush
    // (TxnLog::append_batch) — the log-side half of group commit.
    std::vector<kv::CommitRecord> records;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i >= decisions.size() || !decisions[i]) continue;
      const auto& e = entries[i];
      records.push_back(kv::CommitRecord{
          e.txn, version_base + static_cast<std::int64_t>(e.txn), e.writes});
    }
    log_->append_batch(std::move(records));
  }
  // Forwarded applies carry the sender's epoch as a 6th arg; only
  // re-forward when our view is strictly newer, so a forwarding cycle
  // between servers on different epochs cannot loop.
  const bool may_forward =
      args.size() < 6 || args.at(5).as_int() < views_->epoch();
  if (may_forward) forward_migrated(entries, decisions, version_base);
}

void ShardServer::serve_read(const std::string& key,
                             std::function<void(Outcome)> respond,
                             int attempt) {
  // A write-locked key has an in-flight commit that may be about to apply;
  // RC reads wait for the outcome rather than return a possibly-stale value
  // (this is what makes read-after-commit see the write). A warming key's
  // contents have not arrived from the old owner yet. Bounded retry so a
  // stuck lock or a wedged transfer cannot block readers forever.
  if ((store_.is_locked(key) || is_warming(key)) && attempt < 400) {
    kit_.wheel().schedule_after(
        std::chrono::microseconds(500),
        [this, key, respond = std::move(respond), attempt]() mutable {
          serve_read(key, std::move(respond), attempt + 1);
        });
    return;
  }
  if (is_warming(key)) {
    // Transfer still pending past the wait bound: refuse rather than serve
    // a missing/stale value (the client's quorum tolerates one slow DC, or
    // the whole read retries).
    respond(Outcome::failure("warming: slot transfer pending"));
    return;
  }
  ReadResult r;
  r.key = key;
  if (auto vv = store_.get(key)) {
    r.value = vv->value;
    r.version = vv->version;
  }
  respond(Outcome::success(encode_read_result(r)));
}

void ShardServer::handle_view_install(ValueList args,
                                      std::function<void(Outcome)> respond) {
  auto parsed = ClusterView::from_wire(args.at(0).as_string());
  if (!parsed) {
    respond(Outcome::failure("view.install: unparseable view"));
    return;
  }
  std::lock_guard<std::mutex> serial(install_mu_);
  auto prev = views_->get();
  if (parsed->epoch <= prev->epoch) {
    // Duplicate or stale proposal; ack with where we are.
    respond(Outcome::success(Value(views_->epoch())));
    return;
  }
  // Slots this shard gains, grouped by their owner in the previous view —
  // that owner's replica in OUR datacentre is the state-transfer source.
  std::map<int, std::vector<int>> gained;
  for (int s = 0; s < kViewSlots; ++s) {
    if (parsed->slot_owner[static_cast<std::size_t>(s)] == shard_ &&
        prev->slot_owner[static_cast<std::size_t>(s)] != shard_) {
      gained[prev->slot_owner[static_cast<std::size_t>(s)]].push_back(s);
    }
  }
  {
    // Mark warming BEFORE the new view turns live: no request routed here
    // under the new epoch can ever read a slot whose data has not arrived.
    std::lock_guard<std::mutex> lock(warm_mu_);
    for (const auto& [src, slots] : gained) {
      warming_.insert(slots.begin(), slots.end());
    }
  }
  views_->install(*parsed);
  auto next = views_->get();
  for (const auto& [src, slots] : gained) {
    pull_from(next->shard_addr(dc_, src), slots, /*attempt=*/0);
  }
  respond(Outcome::success(Value(next->epoch)));
}

void ShardServer::pull_from(Address source, std::vector<int> slots,
                            int attempt) {
  auto view = views_->get();
  // Drop slots that a newer view has since reassigned away, and slots whose
  // transfer already landed.
  std::vector<int> live;
  {
    std::lock_guard<std::mutex> lock(warm_mu_);
    for (const int s : slots) {
      if (view->slot_owner[static_cast<std::size_t>(s)] == shard_ &&
          warming_.count(s) != 0) {
        live.push_back(s);
      }
    }
  }
  if (live.empty()) return;
  ValueList args;
  args.emplace_back(view->epoch);
  args.emplace_back(slots_to_csv(live));
  kit_.call(source, kViewPull, std::move(args))
      ->then([this, source, live, attempt](const Outcome& outcome) {
        if (outcome.ok) {
          for (auto& [key, value, version] :
               decode_store_entries(outcome.value)) {
            store_.load_if_newer(key, std::move(value), version);
          }
          clear_warming(live);
          return;
        }
        // "not_ready" (source draining prepared txns / behind on the
        // install) or a transient transport fault: retry shortly. Past the
        // bound, unblock the slots empty-handed — quorum reads mask one
        // stale DC and version-monotone applies repair us over time.
        if (attempt >= 4000) {
          clear_warming(live);
          return;
        }
        kit_.wheel().schedule_after(
            std::chrono::milliseconds(1), [this, source, live, attempt] {
              pull_from(source, live, attempt + 1);
            });
      });
}

void ShardServer::handle_view_pull(ValueList args,
                                   std::function<void(Outcome)> respond) {
  const std::int64_t epoch = args.at(0).as_int();
  auto view = views_->get();
  if (view->epoch < epoch) {
    // We have not adopted the epoch that reassigned these slots yet; the
    // export would race applies still landing under our older view.
    respond(Outcome::failure("not_ready: source behind on install"));
    return;
  }
  const auto slots = slots_from_csv(args.at(1).as_string());
  {
    std::lock_guard<std::mutex> lock(warm_mu_);
    for (const int s : slots) {
      if (warming_.count(s) != 0) {
        respond(Outcome::failure("not_ready: source still warming"));
        return;
      }
    }
  }
  const auto in_slots = [&slots](const std::string& key) {
    return slots.count(slot_of_key(key)) != 0;
  };
  // Prepared transactions on migrating keys must resolve in the epoch that
  // prepared them: their write locks live here, so refusing the export
  // until the locks drain IS the drain barrier. Once a lock releases, its
  // apply has hit the store (atomically), so the export below contains it.
  if (store_.any_locked_if(in_slots)) {
    respond(Outcome::failure("not_ready: prepared txns draining"));
    return;
  }
  respond(Outcome::success(encode_store_entries(store_.export_if(in_slots))));
}

void ShardServer::forward_migrated(const std::vector<kv::BatchEntry>& entries,
                                   const std::vector<bool>& decisions,
                                   std::int64_t version_base) {
  auto view = views_->get();
  for (std::size_t i = 0; i < entries.size() && i < decisions.size(); ++i) {
    if (!decisions[i]) continue;
    std::map<int, kv::BatchEntry> moved;
    for (const auto& w : entries[i].writes) {
      const int owner = view->shard_of(w.key);
      if (owner != shard_) moved[owner].writes.push_back(w);
    }
    for (auto& [owner, sub] : moved) {
      sub.txn = entries[i].txn;
      ValueList fwd;
      fwd.emplace_back(static_cast<std::int64_t>(sub.txn));
      fwd.emplace_back(true);
      fwd.push_back(encode_batch_entries({sub}));
      fwd.push_back(encode_batch_flags({true}));
      fwd.emplace_back(version_base);
      fwd.emplace_back(view->epoch);
      kit_.call(view->shard_addr(dc_, owner), kApply, std::move(fwd));
    }
  }
}

void ShardServer::with_cpu(Duration cost, std::function<void()> work) {
  if (cost <= Duration::zero()) {
    work();
    return;
  }
  if (cpu_ == nullptr) {
    // No CPU model: charge the cost as pure latency (a slow but
    // non-saturating server). The cross-process cluster leans on this for
    // its WAN stand-in — remote-DC service times scaled up without the
    // queueing a 1-core CpuModel would add (DESIGN.md §10.2).
    kit_.wheel().schedule_after(cost, std::move(work));
    return;
  }
  cpu_->execute(cost, std::move(work));
}

// ------------------------------------------------------------ Coordinator

Coordinator::Coordinator(RpcKit& kit, std::shared_ptr<ViewProvider> views,
                         int dc, CpuModel* cpu, ServerCosts costs)
    : kit_(kit), views_(std::move(views)), dc_(dc), cpu_(cpu), costs_(costs) {
  kit_.register_handler(
      kCommit, [this](ValueList args, std::function<void(Outcome)> respond) {
        with_cpu(costs_.commit, [this, args = std::move(args),
                                 respond = std::move(respond)] {
          handle_commit(args, respond);
        });
      });
  kit_.register_handler(
      kDecide, [this](ValueList args, std::function<void(Outcome)> respond) {
        with_cpu(costs_.commit, [this, args = std::move(args),
                                 respond = std::move(respond)] {
          handle_decide(args);
          respond(Outcome::success(Value(true)));
        });
      });
  kit_.register_handler(
      kViewInstall,
      [this](ValueList args, std::function<void(Outcome)> respond) {
        auto parsed = ClusterView::from_wire(args.at(0).as_string());
        if (!parsed) {
          respond(Outcome::failure("view.install: unparseable view"));
          return;
        }
        views_->install(*parsed);  // coordinators hold no slot state
        respond(Outcome::success(Value(views_->epoch())));
      });
  kit_.register_handler(
      kViewGet, [this](ValueList /*args*/,
                       std::function<void(Outcome)> respond) {
        respond(Outcome::success(Value(views_->get()->to_wire())));
      });
}

void Coordinator::with_cpu(Duration cost, std::function<void()> work) {
  if (cost <= Duration::zero()) {
    work();
    return;
  }
  if (cpu_ == nullptr) {
    kit_.wheel().schedule_after(cost, std::move(work));  // latency-only, as above
    return;
  }
  cpu_->execute(cost, std::move(work));
}

namespace {

/// Per-shard slice of a commit round: the sub-entries owning keys on that
/// shard, in round order, plus each sub-entry's position in the full round
/// so per-shard votes can be folded back into the round-wide vote vector.
/// Only shards that own at least one key participate in the local 2PC.
struct ShardBatch {
  std::vector<kv::BatchEntry> entries;
  std::vector<std::size_t> positions;
};

std::map<int, ShardBatch> split_entries_by_shard(
    const ClusterView& view, const std::vector<kv::BatchEntry>& entries) {
  std::map<int, ShardBatch> out;
  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    const auto& e = entries[pos];
    std::map<int, kv::BatchEntry> per_shard;
    for (const auto& r : e.reads) {
      auto& sub = per_shard[view.shard_of(r.key)];
      sub.reads.push_back(r);
    }
    for (const auto& w : e.writes) {
      auto& sub = per_shard[view.shard_of(w.key)];
      sub.writes.push_back(w);
    }
    for (auto& [shard, sub] : per_shard) {
      sub.txn = e.txn;
      sub.index = e.index;
      auto& sb = out[shard];
      sb.entries.push_back(std::move(sub));
      sb.positions.push_back(pos);
    }
  }
  return out;
}

}  // namespace

void Coordinator::handle_commit(const ValueList& args,
                                std::function<void(Outcome)> respond) {
  const std::int64_t owner = args.at(0).as_int();
  const auto entries = decode_batch_entries(args.at(1));
  const std::int64_t vepoch = args.at(2).as_int();
  auto view = views_->get();
  if (vepoch != view->epoch) {
    respond(Outcome::failure(wrong_epoch_error(*view)));
    return;
  }
  auto by_shard = split_entries_by_shard(*view, entries);
  if (by_shard.empty()) {
    respond(Outcome::success(
        encode_batch_flags(std::vector<bool>(entries.size(), true))));
    return;
  }
  // DC-local 2PC prepare, one rc.prepare per participating shard. Votes
  // come back per sub-entry and are ANDed into the round-wide vector; a
  // failed shard RPC conservatively votes no for every entry it owned.
  struct Agg {
    std::mutex mu;
    int remaining = 0;
    std::vector<bool> votes;
    std::function<void(Outcome)> respond;
    std::string epoch_error;  // first wrong-epoch NACK from a shard, if any
  };
  auto agg = std::make_shared<Agg>();
  agg->remaining = static_cast<int>(by_shard.size());
  agg->votes.assign(entries.size(), true);
  agg->respond = std::move(respond);
  for (auto& [shard, sb] : by_shard) {
    ValueList prepare_args;
    prepare_args.emplace_back(owner);
    prepare_args.push_back(encode_batch_entries(sb.entries));
    prepare_args.emplace_back(vepoch);
    auto future = kit_.call(view->shard_addr(dc_, shard), kPrepare,
                            std::move(prepare_args));
    future->then([agg, positions = sb.positions](const Outcome& outcome) {
      bool done = false;
      std::vector<bool> result;
      std::string epoch_error;
      {
        std::lock_guard<std::mutex> lock(agg->mu);
        if (outcome.ok) {
          const auto votes = decode_batch_flags(outcome.value);
          for (std::size_t i = 0; i < positions.size(); ++i) {
            if (i >= votes.size() || !votes[i]) agg->votes[positions[i]] = false;
          }
        } else {
          if (agg->epoch_error.empty() && is_wrong_epoch(outcome.error)) {
            agg->epoch_error = outcome.error;
          }
          for (const std::size_t pos : positions) agg->votes[pos] = false;
        }
        if (--agg->remaining == 0) {
          done = true;
          result = agg->votes;
          epoch_error = agg->epoch_error;
        }
      }
      if (!done) return;
      // A shard raced past us to a newer epoch: surface the NACK (with its
      // view payload) instead of a silent all-no vote, so the client
      // refreshes and re-runs the round.
      if (!epoch_error.empty()) {
        agg->respond(Outcome::failure(epoch_error));
      } else {
        agg->respond(Outcome::success(encode_batch_flags(result)));
      }
    });
  }
}

void Coordinator::handle_decide(const ValueList& args) {
  const std::int64_t owner = args.at(0).as_int();
  const bool commit = args.at(1).as_bool();
  const auto entries = decode_batch_entries(args.at(2));
  const auto decisions = decode_batch_flags(args.at(3));
  const std::int64_t version_base = args.at(4).as_int();
  const std::int64_t vepoch = args.size() > 5 ? args.at(5).as_int() : 0;
  // Decides are not epoch-checked: the round resolves in the epoch that
  // prepared it. Route to the owners under BOTH the prepared view (its
  // locks live there) and the current view (migrated keys need the apply at
  // their new home too); applies are version-monotone so duplicates are
  // harmless, and aborts on shards holding no locks are no-ops.
  auto current = views_->get();
  auto prepared = views_->at_epoch(vepoch);
  const auto send_under = [&](const ClusterView& view) {
    auto by_shard = split_entries_by_shard(view, entries);
    for (auto& [shard, sb] : by_shard) {
      ValueList apply_args;
      apply_args.emplace_back(owner);
      apply_args.emplace_back(commit);
      if (commit) {
        std::vector<bool> sub_decisions;
        sub_decisions.reserve(sb.positions.size());
        for (const std::size_t pos : sb.positions) {
          sub_decisions.push_back(pos < decisions.size() && decisions[pos]);
        }
        for (auto& e : sb.entries) e.reads.clear();  // apply needs writes only
        apply_args.push_back(encode_batch_entries(sb.entries));
        apply_args.push_back(encode_batch_flags(sub_decisions));
        apply_args.emplace_back(version_base);
      }
      kit_.call(view.shard_addr(dc_, shard), kApply, std::move(apply_args));
    }
  };
  send_under(*current);
  if (prepared != nullptr && prepared->epoch != current->epoch) {
    send_under(*prepared);
  }
}

}  // namespace srpc::rc
