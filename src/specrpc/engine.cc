#include "specrpc/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <random>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "serde/buffer_pool.h"
#include "serde/io.h"

namespace srpc::spec {

namespace {

// Implicit execution context (the paper threads speculative state through
// callback/RPC objects — "specObj"; we additionally track which node is
// currently executing on this thread so nested calls pick up the right
// parent without explicit plumbing).
struct ExecScope {
  ExecScope(const SpecEngine* engine, SpecNode::Ptr n);
  ~ExecScope();

  const SpecEngine* engine;
  SpecNode::Ptr node;
  ExecScope* prev;
};

thread_local ExecScope* tl_scope = nullptr;

// Call ids must be globally unique: servers key incoming RPCs, predicted
// responses and state-change messages by id alone, and several engines talk
// to one server, from this process and others. Low 40 bits: per-engine
// counter; high 24 bits: engine instance plus a random per-process nonce, so
// engines numbered alike in different processes (rc_cluster_node children
// sharing servers) draw different ids unless two nonces land within a few
// instances of each other.
std::atomic<std::uint64_t> g_engine_instance{1};

ExecScope::ExecScope(const SpecEngine* engine_in, SpecNode::Ptr n)
    : engine(engine_in), node(std::move(n)), prev(tl_scope) {
  tl_scope = this;
}

ExecScope::~ExecScope() { tl_scope = prev; }

std::size_t resolve_shards(std::size_t configured) {
  if (configured > 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : 2 * static_cast<std::size_t>(hw);
}

}  // namespace

SpecEngine::SpecEngine(Transport& transport, Executor& executor,
                       TimerWheel& wheel, SpecConfig config)
    : transport_(transport),
      executor_(executor),
      wheel_(wheel),
      config_(config) {
  static const std::uint64_t nonce = std::random_device{}();
  const std::uint64_t instance = g_engine_instance.fetch_add(1);
  next_call_id_.store(((nonce + instance) << 40) + 1,
                      std::memory_order_relaxed);
  const std::size_t n = resolve_shards(config_.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->rng.reseed(instance * 0x9E3779B97F4A7C15ULL +
                      i * 0xD1B54A32D192ED03ULL + 0x7265747279ULL);
    shards_.push_back(std::move(shard));
  }
  if (n == 1) single_tree_ = std::make_shared<TreeControl>();
  root_ = std::make_shared<SpecNode>();
  root_->kind = SpecNode::Kind::kRoot;
  root_->state.store(SpecState::kCorrect);
  root_->debug_id = next_debug_id_.fetch_add(1);
  transport_.set_receiver([this](const Address& src, Bytes frame) {
    on_message(src, std::move(frame));
  });
}

SpecEngine::~SpecEngine() { begin_shutdown(); }

void SpecEngine::begin_shutdown() {
  transport_.set_receiver(nullptr);
  // A delivery that copied the receiver just before the swap may still be
  // inside on_message on an executor thread, about to touch this engine and
  // run transition actions (observers capture caller-owned state). Wait it
  // out: after quiesce() nothing the caller destroys next can be reached.
  transport_.quiesce();
  // Fence off timer callbacks first: once `alive` drops under the token's
  // mutex, no wheel callback can re-enter this engine (an in-flight one
  // finishes before we acquire the mutex).
  {
    std::lock_guard<std::mutex> lock(life_->mu);
    life_->alive = false;
  }
  if (stopping_.exchange(true)) return;
  std::vector<SpecFuturePtr> futures;
  std::vector<TimerId> timers;
  std::vector<std::shared_ptr<TreeControl>> trees;
  std::vector<std::shared_ptr<OutgoingCall>> orphans;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [_, rec] : shard.outgoing) {
      futures.push_back(rec->future);
      orphans.push_back(rec);
      if (const TimerId t = rec->timeout_timer.exchange(0)) timers.push_back(t);
    }
    for (auto& [_, early] : shard.early_state) {
      if (early.ttl_timer != 0) timers.push_back(early.ttl_timer);
    }
    shard.outgoing.clear();
    shard.wire_to_logical.clear();
    shard.incoming.clear();
    shard.early_state.clear();
    for (auto& weak : shard.trees) {
      if (auto tree = weak.lock()) trees.push_back(std::move(tree));
    }
    shard.trees.clear();
  }
  for (TimerId t : timers) wheel_.cancel(t);
  // Calls still in flight never reach a terminal state, so the listeners
  // they registered never fire — and each one captures the record that owns
  // its node (rec -> node -> listener -> rec). Break the cycles by hand.
  for (auto& rec : orphans) {
    std::lock_guard<std::mutex> lock(rec->node->tree->mu);
    rec->node->terminal_listeners.clear();
    rec->node->rollback = nullptr;
    for (auto& branch : rec->branches) {
      // The listeners that would have refilled the budget are being torn
      // down with the branch: return the token here so acquired == released
      // even across shutdown.
      release_spec_token_tree_locked(*branch, rec->id);
      branch->node->terminal_listeners.clear();
      branch->node->rollback = nullptr;
    }
    rec->branches.clear();
  }
  // Wake every spec_block waiter; the notify must happen under each tree's
  // mutex so a waiter between its predicate check and the wait can't miss it.
  for (auto& tree : trees) {
    std::lock_guard<std::mutex> lock(tree->mu);
    tree->cv.notify_all();
  }
  for (auto& f : futures) f->resolve(Outcome::failure("engine shut down"));
}

const Address& SpecEngine::address() const { return transport_.address(); }

void SpecEngine::bump(StatIdx idx, std::uint64_t key) const {
  shard_of(key).stats.v[idx].fetch_add(1, std::memory_order_release);
}

std::uint64_t SpecEngine::sum(StatIdx idx) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->stats.v[idx].load(std::memory_order_acquire);
  }
  return total;
}

SpecStats SpecEngine::stats() const {
  // Read derived counters before their bases: an increment of a derived
  // counter happens-after the increment of its base (same tree-lock
  // critical-section chain), so acquire-reading the derived value first
  // guarantees the base read that follows covers it. This is what keeps
  // e.g. predictions_correct + predictions_incorrect <= predictions_made
  // true in every snapshot, concurrent load included.
  SpecStats out;
  // budget_released is derived from budget_acquired (every release
  // happens-after its acquire in the same tree-lock chain): read it first
  // so released <= acquired in every snapshot.
  out.budget_released = sum(kBudgetReleased);
  out.budget_acquired = sum(kBudgetAcquired);
  out.budget_denied = sum(kBudgetDenied);
  out.predictions_correct = sum(kPredictionsCorrect);
  out.predictions_incorrect = sum(kPredictionsIncorrect);
  out.rollbacks_run = sum(kRollbacksRun);
  out.reexecutions = sum(kReexecutions);
  out.predictions_made = sum(kPredictionsMade);
  out.branches_abandoned = sum(kBranchesAbandoned);
  out.callbacks_spawned = sum(kCallbacksSpawned);
  out.state_msgs_sent = sum(kStateMsgsSent);
  out.spec_returns = sum(kSpecReturns);
  out.spec_blocks = sum(kSpecBlocks);
  out.retries = sum(kRetries);
  out.early_state_evictions = sum(kEarlyStateEvictions);
  out.calls_issued = sum(kCallsIssued);
  out.quorum_calls_issued = sum(kQuorumCallsIssued);
  return out;
}

SpecEngine::DebugSizes SpecEngine::debug_sizes() const {
  DebugSizes sizes;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    sizes.outgoing += shard.outgoing.size();
    sizes.incoming += shard.incoming.size();
    sizes.wire_routes += shard.wire_to_logical.size();
    sizes.early_state += shard.early_state.size();
  }
  return sizes;
}

void SpecEngine::set_transition_observer(TransitionObserver observer) {
  std::shared_ptr<TransitionObserver> next;
  if (observer) next = std::make_shared<TransitionObserver>(std::move(observer));
  std::atomic_store(&observer_, std::move(next));
}

void SpecEngine::register_method(const std::string& name,
                                 HandlerFactory factory) {
  std::unique_lock<std::shared_mutex> lock(methods_mu_);
  methods_[name] = std::move(factory);
}

void SpecEngine::register_method(const std::string& name, Handler handler) {
  register_method(name, HandlerFactory([handler] { return handler; }));
}

// ------------------------------------------------- QoS + speculation budget

void SpecEngine::set_method_qos(const std::string& method, QosClass qos) {
  std::unique_lock<std::shared_mutex> lock(qos_mu_);
  qos_[method] = qos;
  qos_any_.store(true, std::memory_order_release);
}

QosClass SpecEngine::method_qos(const std::string& method) const {
  if (!qos_any_.load(std::memory_order_acquire)) return QosClass{};
  std::shared_lock<std::shared_mutex> lock(qos_mu_);
  auto it = qos_.find(method);
  return it != qos_.end() ? it->second : QosClass{};
}

namespace {
std::int64_t tier_cap(const SpecBudget& budget, QosPriority priority) {
  const double frac = budget.tier_frac[static_cast<std::size_t>(priority)];
  return static_cast<std::int64_t>(
      static_cast<double>(budget.max_inflight) * frac);
}
}  // namespace

bool SpecEngine::spec_budget_headroom(const std::string& method) const {
  if (config_.budget.max_inflight == 0) return true;
  const QosPriority pri = method_qos(method).priority;
  return spec_inflight_.load(std::memory_order_acquire) <
         tier_cap(config_.budget, pri);
}

bool SpecEngine::try_acquire_spec_token(QosPriority priority,
                                        std::uint64_t key) {
  // The gauge is maintained even when the budget is unbounded, so tests and
  // the admission controller can watch spec_inflight() drain to zero.
  const std::int64_t occ =
      spec_inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (config_.budget.max_inflight != 0 &&
      occ > tier_cap(config_.budget, priority)) {
    spec_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    bump(kBudgetDenied, key);
    return false;
  }
  bump(kBudgetAcquired, key);
  return true;
}

void SpecEngine::release_spec_token_tree_locked(Branch& branch,
                                                std::uint64_t key) {
  if (!branch.token_held) return;
  branch.token_held = false;  // exactly-once: guarded by the tree mutex
  bump(kBudgetReleased, key);
  spec_inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

void SpecEngine::register_tree_locked(
    Shard& shard, const std::shared_ptr<TreeControl>& tree) {
  shard.trees.push_back(tree);
  if (shard.trees.size() >= shard.trees_prune_at) {
    std::erase_if(shard.trees,
                  [](const std::weak_ptr<TreeControl>& w) { return w.expired(); });
    shard.trees_prune_at = std::max<std::size_t>(16, shard.trees.size() * 2);
  }
}

std::shared_ptr<SpecEngine::OutgoingCall> SpecEngine::find_outgoing(
    CallId logical_id) const {
  Shard& shard = shard_of(logical_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.outgoing.find(logical_id);
  return it == shard.outgoing.end() ? nullptr : it->second;
}

// --------------------------------------------------------------- context

SpecNode::Ptr SpecEngine::context_node() const {
  if (tl_scope != nullptr && tl_scope->engine == this) return tl_scope->node;
  return root_;
}

void SpecEngine::check_live(const SpecNode::Ptr& node) const {
  if (node->state.load() == SpecState::kIncorrect) throw SpeculationAbandoned();
}

bool SpecEngine::speculative() const {
  return !is_terminal(context_node()->state.load());
}

void SpecEngine::set_rollback(std::function<void()> rollback) {
  const SpecNode::Ptr node = context_node();
  if (node == root_ || node->tree == nullptr) {
    return;  // nothing to roll back on the app thread
  }
  bool fire_now = false;
  {
    std::lock_guard<std::mutex> lock(node->tree->mu);
    if (node->state.load() == SpecState::kIncorrect && node->executed &&
        !node->rollback_fired) {
      node->rollback_fired = true;
      fire_now = true;
      bump(kRollbacksRun, node->debug_id);
    } else {
      node->rollback = std::move(rollback);
    }
  }
  if (fire_now) rollback();
}

void SpecEngine::spec_block() {
  const SpecNode::Ptr node = context_node();
  if (node == root_ || node->tree == nullptr) {
    return;  // application thread is never speculative
  }
  Executor::before_block();
  bump(kSpecBlocks, node->debug_id);
  std::unique_lock<std::mutex> lock(node->tree->mu);
  node->tree->cv.wait(lock, [&] {
    return is_terminal(node->state.load()) || stopping_.load();
  });
  if (node->state.load() == SpecState::kIncorrect) throw MisspeculationError();
}

// --------------------------------------------------------------- tree

SpecNode::Ptr SpecEngine::make_node(SpecNode::Kind kind, SpecNode::Ptr parent,
                                    std::shared_ptr<TreeControl> tree) {
  auto node = std::make_shared<SpecNode>();
  node->kind = kind;
  node->parent = parent;
  node->tree = std::move(tree);
  node->debug_id = next_debug_id_.fetch_add(1);
  // The root is shared by every tree and terminally kCorrect forever:
  // registering top-level calls as its children would serialize unrelated
  // trees on one node and grow an unbounded weak_ptr list for nothing
  // (no recomputation ever starts from a terminal root).
  if (parent != nullptr && parent != root_) parent->children.push_back(node);
  return node;
}

SpecState SpecEngine::compute_state(const SpecNode& node) const {
  switch (node.kind) {
    case SpecNode::Kind::kRoot:
      return SpecState::kCorrect;
    case SpecNode::Kind::kMirror:
      // Driven externally by state-change messages (§3.4); otherwise keeps
      // the state derived from the request's caller_speculative flag.
      return node.forced ? node.forced_state : node.state.load();
    case SpecNode::Kind::kCall: {
      const SpecState p =
          node.parent ? node.parent->state.load() : SpecState::kCorrect;
      if (p == SpecState::kCorrect) return SpecState::kCorrect;
      if (p == SpecState::kIncorrect) return SpecState::kIncorrect;
      return SpecState::kCallerSpeculative;  // Figure 5a
    }
    case SpecNode::Kind::kCallback: {
      const SpecState p =
          node.parent ? node.parent->state.load() : SpecState::kCorrect;
      if (node.value_status.load() == ValueStatus::kIncorrect ||
          p == SpecState::kIncorrect)
        return SpecState::kIncorrect;
      if (node.value_status.load() == ValueStatus::kUnknown)
        return SpecState::kCalleeSpeculative;  // running on a prediction
      return p == SpecState::kCorrect ? SpecState::kCorrect
                                      : SpecState::kCallerSpeculative;  // 5b
    }
  }
  return SpecState::kIncorrect;
}

void SpecEngine::apply_transition(const SpecNode::Ptr& node, SpecState next,
                                  Actions& actions) {
  const SpecState old = node->state.load();
  if (old == next || is_terminal(old)) return;
  node->state.store(next);
  if (auto obs = std::atomic_load(&observer_)) {
    actions.push_back(
        [obs, kind = node->kind, id = node->debug_id, old, next] {
          (*obs)(kind, id, old, next);
        });
  }
  if (!is_terminal(next)) return;
  // Terminal: fire listeners once, run rollback on abandonment, wake
  // specBlock waiters parked in this tree.
  auto listeners = std::move(node->terminal_listeners);
  node->terminal_listeners.clear();
  for (auto& l : listeners) {
    actions.push_back([l = std::move(l), next] { l(next); });
  }
  if (next == SpecState::kIncorrect) {
    bump(kBranchesAbandoned, node->debug_id);
    if (node->executed && node->rollback && !node->rollback_fired) {
      node->rollback_fired = true;
      bump(kRollbacksRun, node->debug_id);
      actions.push_back([rb = node->rollback] { rb(); });
    }
  }
  node->tree->cv.notify_all();
}

void SpecEngine::recompute_subtree(const SpecNode::Ptr& node,
                                   Actions& actions) {
  const SpecState next = compute_state(*node);
  if (next == node->state.load()) return;
  if (is_terminal(node->state.load())) return;  // terminal states are sticky
  apply_transition(node, next, actions);
  for (auto& weak_child : node->children) {
    if (SpecNode::Ptr child = weak_child.lock()) {
      recompute_subtree(child, actions);
    }
  }
}

void SpecEngine::set_value_status(const SpecNode::Ptr& cb_node, ValueStatus vs,
                                  Actions& actions) {
  if (cb_node->value_status.load() != ValueStatus::kUnknown) return;  // sticky
  cb_node->value_status.store(vs);
  recompute_subtree(cb_node, actions);
}

void SpecEngine::drain_tree_flush(TreeControl& tree, Actions& actions) {
  // Called with tree.mu held, after a transition batch: any incoming RPC
  // whose queued finish may have become sendable gets re-evaluated outside
  // the locks (flush_incoming takes shard → tree as needed).
  if (tree.flush_ids.empty()) return;
  actions.push_back([this, ids = std::move(tree.flush_ids)] {
    for (CallId id : ids) flush_incoming(id);
  });
  tree.flush_ids.clear();
}

bool SpecEngine::locally_resolved(const SpecNode::Ptr& ctx,
                                  const SpecNode::Ptr& mirror) const {
  const SpecNode* walk = ctx.get();
  while (walk != nullptr) {
    if (walk == mirror.get()) return true;
    if (walk->kind == SpecNode::Kind::kCallback &&
        walk->value_status.load() != ValueStatus::kCorrect)
      return false;
    walk = walk->parent.get();
  }
  // Context is not under this RPC's mirror (e.g. a captured ServerCall used
  // from an unrelated computation): fall back to global resolution.
  return ctx->state.load() == SpecState::kCorrect;
}

// --------------------------------------------------------------- client

SpecFuturePtr SpecEngine::call(const Address& dst, const std::string& method,
                               ValueList args, ValueList predictions,
                               CallbackFactory factory) {
  const SpecNode::Ptr caller = context_node();
  // Prediction hook (DESIGN.md §8): a call that could speculate but carries
  // no explicit predictions asks the configured supplier. Consulted outside
  // all engine locks — suppliers run user code (predictor lookups, the
  // adaptive gate). With no budget headroom for this method's tier the
  // supplier is skipped entirely (DESIGN.md §11 degradation ladder: no
  // predictions consulted, no speculative callbacks spawned).
  if (predictions.empty() && factory && config_.prediction_supplier) {
    if (spec_budget_headroom(method)) {
      predictions = config_.prediction_supplier(method, args);
    } else {
      bump(kBudgetDenied, caller->debug_id);
    }
  }
  check_live(caller);  // §3.3: abandoned computations may not issue RPCs
  return start_call(caller, {dst}, 1, method, std::move(args),
                    std::move(predictions), nullptr, std::move(factory));
}

SpecFuturePtr SpecEngine::call_quorum(const std::vector<Address>& dsts,
                                      int quorum, const std::string& method,
                                      ValueList args, Combiner combiner,
                                      CallbackFactory factory) {
  return call_quorum(dsts, quorum, method, std::move(args), ValueList{},
                     std::move(combiner), std::move(factory));
}

SpecFuturePtr SpecEngine::call_quorum(const std::vector<Address>& dsts,
                                      int quorum, const std::string& method,
                                      ValueList args, ValueList predictions,
                                      Combiner combiner,
                                      CallbackFactory factory) {
  assert(!dsts.empty());
  assert(quorum >= 1 && quorum <= static_cast<int>(dsts.size()));
  const SpecNode::Ptr caller = context_node();
  if (predictions.empty() && factory && config_.prediction_supplier) {
    if (spec_budget_headroom(method)) {
      predictions = config_.prediction_supplier(method, args);
    } else {
      bump(kBudgetDenied, caller->debug_id);
    }
  }
  check_live(caller);
  bump(kQuorumCallsIssued, caller->debug_id);
  return start_call(caller, dsts, quorum, method, std::move(args),
                    std::move(predictions), std::move(combiner),
                    std::move(factory));
}

SpecFuturePtr SpecEngine::start_call(SpecNode::Ptr caller,
                                     std::vector<Address> dsts, int quorum,
                                     const std::string& method, ValueList args,
                                     ValueList predictions, Combiner combiner,
                                     CallbackFactory factory) {
  auto rec = std::make_shared<OutgoingCall>();
  rec->id = next_call_id_.fetch_add(1);
  rec->dsts = std::move(dsts);
  rec->method = method;
  rec->quorum = quorum;
  rec->combiner = std::move(combiner);
  rec->factory = std::move(factory);
  rec->future = SpecFuture::create();
  // QoS (DESIGN.md §11): the priority tier gates this call's speculative
  // branches against the budget; a non-zero deadline class overrides the
  // engine-wide call_timeout.
  const QosClass qos = method_qos(method);
  rec->priority = qos.priority;
  const Duration timeout =
      qos.deadline > Duration::zero() ? qos.deadline : config_.call_timeout;
  rec->deadline = timeout > Duration::zero() ? Clock::now() + timeout
                                             : TimePoint::max();
  rec->dst_responded.assign(rec->dsts.size(), false);
  bump(kCallsIssued, rec->id);

  if (stopping_.load()) {
    rec->future->resolve(Outcome::failure("engine shut down"));
    return rec->future;
  }

  // Tree phase: the call joins its caller's tree (nested speculation) or
  // founds a new one (top-level call). Everything a racing response will
  // need — the node, wire ids, the state-change listener, the prediction
  // branches — is in place before the call is published to the shard maps,
  // so no reply can observe a half-built record.
  std::shared_ptr<TreeControl> tree;
  if (caller != root_ && caller->tree != nullptr) {
    tree = caller->tree;
  } else {
    tree = single_tree_ ? single_tree_ : std::make_shared<TreeControl>();
  }
  Actions actions;
  bool caller_speculative = false;
  {
    std::lock_guard<std::mutex> tree_lock(tree->mu);
    rec->node = make_node(SpecNode::Kind::kCall, std::move(caller), tree);
    rec->node->state.store(compute_state(*rec->node));
    caller_speculative = rec->node->state.load() != SpecState::kCorrect;
    for (std::size_t i = 0; i < rec->dsts.size(); ++i) {
      rec->wire_ids.emplace_back(next_call_id_.fetch_add(1), i);
    }
    // Retries re-encode the arguments; the prediction observer reports them
    // so predictors can key their learning.
    if (config_.retry.enabled() || config_.prediction_observer) {
      rec->args = args;
    }

    // Cross-machine dependency edge (§3.4): when this call's caller chain
    // resolves, tell every executing server so its RPC object (and its own
    // children) follow.
    if (!is_terminal(rec->node->state.load())) {
      rec->node->terminal_listeners.push_back([this, rec](SpecState s) {
        if (stopping_.load()) return;
        Actions inner;
        std::vector<std::pair<Address, Bytes>> msgs;
        {
          std::lock_guard<std::mutex> lock(rec->node->tree->mu);
          StateChangeMsg msg;
          msg.correct = (s == SpecState::kCorrect);
          // Every attempt's wire id: the server may hold an incoming record
          // under any of them (retries create fresh server-side mirrors).
          for (const auto& [wire_id, dst_idx] : rec->wire_ids) {
            msg.call_id = wire_id;
            msgs.emplace_back(rec->dsts[dst_idx], encode(msg, *config_.codec));
          }
          if (s == SpecState::kCorrect) deliver_direct(rec, inner);
        }
        for (auto& [dst, bytes] : msgs) {
          transport_.send(dst, std::move(bytes));
          bump(kStateMsgsSent, rec->id);
        }
        for (auto& a : inner) a();
        gc_outgoing(rec->id);
      });
    }

    // Client-side speculation (§2.1): each distinct predicted value starts a
    // fresh callback immediately — even before the request reaches the
    // server.
    if (rec->factory) {
      for (auto& p : predictions) {
        bool dup = false;
        for (const auto& b : rec->branches) {
          if (b->from_prediction && b->predicted_value == p) {
            dup = true;
            break;
          }
        }
        if (!dup) {
          spawn_branch(rec, std::move(p), ValueStatus::kUnknown, actions);
        }
      }
    }
  }

  // Publish phase: the logical record first, then the wire routes pointing
  // at it, each under its own shard lock (ids hash to different shards).
  {
    Shard& home = shard_of(rec->id);
    std::lock_guard<std::mutex> lock(home.mu);
    // Re-check under the shard lock: begin_shutdown drains shards after
    // flipping stopping_, so an insert past this check is guaranteed to be
    // seen (and failed) by the drain.
    if (stopping_.load()) {
      rec->future->resolve(Outcome::failure("engine shut down"));
      return rec->future;
    }
    home.outgoing.emplace(rec->id, rec);
    register_tree_locked(home, tree);
  }
  for (const auto& [wire_id, _] : rec->wire_ids) {
    Shard& wire_shard = shard_of(wire_id);
    std::lock_guard<std::mutex> lock(wire_shard.mu);
    if (!stopping_.load()) wire_shard.wire_to_logical.emplace(wire_id, rec->id);
  }

  // Requests go out with no locks held: an inline-delivery transport may
  // hand us the response on this very stack.
  bool send_failed = false;
  for (const auto& [wire_id, dst_idx] : rec->wire_ids) {
    RequestMsg msg;
    msg.call_id = wire_id;
    msg.caller_speculative = caller_speculative;
    msg.method = method;
    msg.args = args;  // copied per destination (quorum fan-out)
    if (!transport_.send(rec->dsts[dst_idx], encode(msg, *config_.codec))) {
      send_failed = true;
    }
  }
  for (auto& a : actions) a();

  {
    std::lock_guard<std::mutex> tree_lock(tree->mu);
    if (!rec->actual_done && !stopping_.load()) {
      schedule_call_timer_tree_locked(rec);
    }
  }
  if (send_failed) {
    // The frame(s) never left this process (connect refused / watermark
    // shed): expedite the attempt instead of waiting out the attempt
    // timeout. on_attempt_timeout runs the normal retry/fail decision; the
    // dst_responded dedup absorbs any replica that did get the request.
    if (const TimerId t = rec->timeout_timer.exchange(0)) wheel_.cancel(t);
    on_attempt_timeout(rec->id, 1);
  }
  return rec->future;
}

void SpecEngine::schedule_call_timer_tree_locked(
    const std::shared_ptr<OutgoingCall>& rec) {
  const auto now = Clock::now();
  Duration wait;
  if (config_.retry.enabled() &&
      config_.retry.attempt_timeout > Duration::zero()) {
    wait = config_.retry.attempt_timeout;
    if (rec->deadline != TimePoint::max() && rec->deadline - now < wait) {
      wait = rec->deadline - now;
    }
  } else if (rec->deadline != TimePoint::max()) {
    wait = rec->deadline - now;
  } else {
    return;  // no deadline and no per-attempt bound
  }
  if (wait < Duration::zero()) wait = Duration::zero();
  rec->timeout_timer.store(wheel_.schedule_after(
      wait, [this, life = life_, id = rec->id, attempt = rec->attempt] {
        std::lock_guard<std::mutex> guard(life->mu);
        if (!life->alive) return;
        on_attempt_timeout(id, attempt);
      }));
}

void SpecEngine::spawn_branch(const std::shared_ptr<OutgoingCall>& rec,
                              Value value, ValueStatus vs, Actions& actions) {
  // Budget gate (DESIGN.md §11): only *speculative* branches (value still
  // unknown) consume a token. Re-executions on the actual value (vs ==
  // kCorrect) always run — forward progress never depends on budget. A
  // denied spawn simply skips the branch: the call keeps TradRPC semantics
  // and process_actual re-executes when the actual arrives.
  if (vs == ValueStatus::kUnknown &&
      !try_acquire_spec_token(rec->priority, rec->id)) {
    return;
  }
  auto branch = std::make_shared<Branch>();
  branch->node = make_node(SpecNode::Kind::kCallback, rec->node,
                           rec->node->tree);
  branch->node->value_status.store(vs);
  branch->node->state.store(compute_state(*branch->node));
  branch->predicted_value = value;
  branch->from_prediction = (vs == ValueStatus::kUnknown);
  branch->token_held = branch->from_prediction;
  rec->branches.push_back(branch);
  // Counter order matters for snapshot consistency: the base counter
  // (callbacks_spawned) is bumped before the derived one (predictions_made).
  bump(kCallbacksSpawned, rec->id);
  if (vs == ValueStatus::kUnknown) bump(kPredictionsMade, rec->id);

  if (branch->node->state.load() == SpecState::kIncorrect) {
    release_spec_token_tree_locked(*branch, rec->id);
    return;  // dead on arrival
  }

  if (!is_terminal(branch->node->state.load())) {
    branch->node->terminal_listeners.push_back(
        [this, rec, branch](SpecState s) {
          Actions inner;
          {
            std::lock_guard<std::mutex> lock(rec->node->tree->mu);
            // Either terminal outcome retires the branch's speculation:
            // refill the budget if validation didn't already (kIncorrect
            // via an abandoned caller chain arrives here first).
            release_spec_token_tree_locked(*branch, rec->id);
            if (s == SpecState::kCorrect) {
              maybe_deliver_branch(rec, branch, inner);
            }
          }
          for (auto& a : inner) a();
          gc_outgoing(rec->id);
        });
  }

  actions.push_back([this, rec, branch, value = std::move(value)] {
    executor_.post([this, rec, branch, value] {
      // Factory + run happen on an executor thread, outside all locks.
      const std::shared_ptr<TreeControl> tree = rec->node->tree;
      bool start = false;
      {
        std::lock_guard<std::mutex> lock(tree->mu);
        if (branch->node->state.load() != SpecState::kIncorrect) {
          branch->node->executed = true;
          start = true;
        }
      }
      if (!start) return;
      CallbackFn fn;
      try {
        fn = rec->factory();
      } catch (const std::exception& e) {
        SRPC_LOG(ERROR) << "callback factory threw: " << e.what();
        return;
      }
      SpecContext ctx(*this, branch->node);
      ExecScope scope(this, branch->node);
      Actions inner;
      try {
        CallbackResult result = fn(ctx, value);
        std::lock_guard<std::mutex> lock(tree->mu);
        branch->run_done = true;
        if (result.is_future()) {
          branch->result_future = result.future;
        } else {
          branch->result_value = std::move(result.value);
        }
        maybe_deliver_branch(rec, branch, inner);
      } catch (const SpeculationAbandoned&) {
        std::lock_guard<std::mutex> lock(tree->mu);
        branch->run_done = true;
        branch->failed = true;
        branch->error = "abandoned";
      } catch (const MisspeculationError&) {
        std::lock_guard<std::mutex> lock(tree->mu);
        branch->run_done = true;
        branch->failed = true;
        branch->error = "misspeculation";
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(tree->mu);
        branch->run_done = true;
        branch->failed = true;
        branch->error = e.what();
        maybe_deliver_branch(rec, branch, inner);
      }
      for (auto& a : inner) a();
      gc_outgoing(rec->id);
    });
  });
}

void SpecEngine::maybe_deliver_branch(const std::shared_ptr<OutgoingCall>& rec,
                                      const std::shared_ptr<Branch>& branch,
                                      Actions& actions) {
  if (branch->delivered || !branch->run_done) return;
  if (branch->node->state.load() != SpecState::kCorrect) return;
  branch->delivered = true;
  SpecFuturePtr future = rec->future;
  if (branch->failed) {
    actions.push_back([future, error = branch->error] {
      future->resolve(Outcome::failure(error));
    });
  } else if (branch->result_future) {
    // Chained call (§2): the enclosing future acquires the value of the
    // final non-speculative callback of the nested chain.
    actions.push_back([future, sub = branch->result_future] {
      sub->then([future](const Outcome& o) { future->resolve(o); });
    });
  } else {
    actions.push_back([future, value = branch->result_value] {
      future->resolve(Outcome::success(value));
    });
  }
}

void SpecEngine::deliver_direct(const std::shared_ptr<OutgoingCall>& rec,
                                Actions& actions) {
  // Resolution path for calls with no dependent callback (plain async call)
  // and for error outcomes: deliver the RPC's own outcome once the call is
  // globally non-speculative.
  if (!rec->actual_done || rec->branch_matched) return;
  if (rec->node->state.load() != SpecState::kCorrect) return;
  if (rec->actual.ok && rec->factory) return;  // a re-executed branch delivers
  actions.push_back([future = rec->future, outcome = rec->actual] {
    future->resolve(outcome);
  });
}

void SpecEngine::process_actual(const std::shared_ptr<OutgoingCall>& rec,
                                Outcome outcome, Actions& actions) {
  // Caller holds rec's tree mutex.
  if (rec->actual_done) return;
  rec->actual_done = true;
  rec->actual = std::move(outcome);
  if (const TimerId t = rec->timeout_timer.exchange(0)) wheel_.cancel(t);
  if (rec->node->state.load() == SpecState::kIncorrect) {
    actions.push_back([this, id = rec->id] { gc_outgoing(id); });
    return;
  }
  // Validate every outstanding prediction (§3.3). Validation retires the
  // branch's speculation either way — a validated-correct branch is no
  // longer speculative risk, an incorrect one is being abandoned — so each
  // releases its budget token here (exactly once; the terminal listener's
  // release becomes a no-op).
  for (auto& branch : rec->branches) {
    if (branch->node->value_status.load() != ValueStatus::kUnknown) continue;
    const bool match =
        rec->actual.ok && branch->predicted_value == rec->actual.value;
    if (match) {
      bump(kPredictionsCorrect, rec->id);
      rec->branch_matched = true;
    } else {
      bump(kPredictionsIncorrect, rec->id);
    }
    release_spec_token_tree_locked(*branch, rec->id);
    set_value_status(branch->node,
                     match ? ValueStatus::kCorrect : ValueStatus::kIncorrect,
                     actions);
  }
  // Report the validation to the prediction observer (outside the locks,
  // with the transition batch) so predictors learn the actual value and
  // accuracy trackers see the hit/miss — including predictions_made == 0
  // calls, which keep learning alive while the adaptive gate is off.
  if (config_.prediction_observer && rec->factory) {
    std::size_t made = 0;
    for (const auto& branch : rec->branches) {
      made += branch->from_prediction ? 1 : 0;
    }
    actions.push_back([obs = config_.prediction_observer, method = rec->method,
                       args = rec->args, outcome = rec->actual, made,
                       correct = rec->branch_matched] {
      obs(method, args, outcome, made, correct);
    });
  }
  if (!rec->branch_matched) {
    if (rec->actual.ok && rec->factory) {
      // No prediction was correct: re-execute on the actual result so
      // forward progress never depends on prediction accuracy (§3.3).
      // Base counter (callbacks_spawned, inside spawn_branch) bumps before
      // the derived one so reexecutions <= callbacks_spawned holds in every
      // stats snapshot.
      spawn_branch(rec, rec->actual.value, ValueStatus::kCorrect, actions);
      bump(kReexecutions, rec->id);
    } else {
      deliver_direct(rec, actions);
    }
  }
  drain_tree_flush(*rec->node->tree, actions);
  actions.push_back([this, id = rec->id] { gc_outgoing(id); });
}

void SpecEngine::gc_outgoing(CallId id) {
  // Takes shard → tree; callers must hold no locks (deferred-action path).
  std::vector<CallId> wire_ids;
  {
    Shard& home = shard_of(id);
    std::lock_guard<std::mutex> lock(home.mu);
    auto it = home.outgoing.find(id);
    if (it == home.outgoing.end()) return;
    const std::shared_ptr<OutgoingCall> rec = it->second;
    std::lock_guard<std::mutex> tree_lock(rec->node->tree->mu);
    // The record is only needed to route wire messages; once the call is
    // terminally incorrect, or its actual result has been processed, nothing
    // further can arrive that matters. Branch delivery keeps working after
    // GC because listeners and run wrappers capture rec/branch by
    // shared_ptr.
    const SpecState state = rec->node->state.load();
    if (!is_terminal(state)) return;
    if (state == SpecState::kCorrect && !rec->actual_done) return;
    if (const TimerId t = rec->timeout_timer.exchange(0)) wheel_.cancel(t);
    for (const auto& [wire_id, _] : rec->wire_ids) wire_ids.push_back(wire_id);
    home.outgoing.erase(it);
  }
  // The wire routes live in other shards; drop them one lock at a time
  // (never two shard locks at once).
  for (const CallId wire_id : wire_ids) {
    Shard& wire_shard = shard_of(wire_id);
    std::lock_guard<std::mutex> lock(wire_shard.mu);
    wire_shard.wire_to_logical.erase(wire_id);
  }
}

void SpecEngine::on_attempt_timeout(CallId logical_id, int attempt) {
  Actions actions;
  {
    Shard& home = shard_of(logical_id);
    std::lock_guard<std::mutex> lock(home.mu);
    auto it = home.outgoing.find(logical_id);
    if (it == home.outgoing.end()) return;
    const std::shared_ptr<OutgoingCall> rec = it->second;
    std::lock_guard<std::mutex> tree_lock(rec->node->tree->mu);
    if (rec->actual_done) return;
    if (rec->attempt != attempt) return;  // stale timer for an older attempt
    const auto now = Clock::now();
    bool retry = config_.retry.enabled() &&
                 rec->attempt < config_.retry.max_attempts &&
                 !stopping_.load() &&
                 rec->node->state.load() != SpecState::kIncorrect;
    Duration backoff = Duration::zero();
    if (retry) {
      backoff = config_.retry.backoff_after(rec->attempt, home.rng);
      if (rec->deadline != TimePoint::max() &&
          now + backoff >= rec->deadline) {
        retry = false;  // backoff would overrun the overall deadline
      }
    }
    if (!retry) {
      SRPC_LOG(WARN) << address() << ": call " << rec->method << " (id "
                     << rec->id << ", attempt " << rec->attempt << ", quorum "
                     << rec->quorum << ", responses " << rec->responses.size()
                     << ", node state " << to_string(rec->node->state.load())
                     << ", branches " << rec->branches.size()
                     << ") timed out";
      process_actual(rec, Outcome::failure("spec call timed out"), actions);
    } else {
      rec->attempt += 1;
      bump(kRetries, rec->id);
      rec->timeout_timer.store(wheel_.schedule_after(
          backoff, [this, life = life_, logical_id, next = rec->attempt] {
            std::lock_guard<std::mutex> guard(life->mu);
            if (!life->alive) return;
            resend_attempt(logical_id, next);
          }));
    }
  }
  for (auto& a : actions) a();
}

void SpecEngine::resend_attempt(CallId logical_id, int attempt) {
  if (stopping_.load()) return;
  const std::shared_ptr<OutgoingCall> rec = find_outgoing(logical_id);
  if (rec == nullptr) return;
  std::vector<CallId> fresh_ids;
  std::vector<std::pair<Address, Bytes>> msgs;
  {
    std::lock_guard<std::mutex> tree_lock(rec->node->tree->mu);
    if (rec->actual_done || rec->attempt != attempt) return;
    if (rec->node->state.load() == SpecState::kIncorrect) return;  // abandoned
    const bool caller_speculative =
        rec->node->state.load() != SpecState::kCorrect;
    for (std::size_t i = 0; i < rec->dsts.size(); ++i) {
      // A replica whose actual already counted does not need the re-issue.
      if (rec->dst_responded[i]) continue;
      const CallId wire_id = next_call_id_.fetch_add(1);
      rec->wire_ids.emplace_back(wire_id, i);
      fresh_ids.push_back(wire_id);
      RequestMsg msg;
      msg.call_id = wire_id;
      msg.caller_speculative = caller_speculative;
      msg.method = rec->method;
      msg.args = rec->args;  // copy; later attempts may need them again
      msgs.emplace_back(rec->dsts[i], encode(msg, *config_.codec));
    }
    schedule_call_timer_tree_locked(rec);
  }
  // Route first, then send: a response must never beat its own route.
  for (const CallId wire_id : fresh_ids) {
    Shard& wire_shard = shard_of(wire_id);
    std::lock_guard<std::mutex> lock(wire_shard.mu);
    if (!stopping_.load()) {
      wire_shard.wire_to_logical.emplace(wire_id, logical_id);
    }
  }
  bool send_failed = false;
  for (auto& [dst, bytes] : msgs) {
    if (!transport_.send(dst, std::move(bytes))) send_failed = true;
  }
  if (send_failed) {
    // Locally refused: fail the attempt fast so backoff (or the final
    // failure) engages now rather than after the attempt timeout.
    if (const TimerId t = rec->timeout_timer.exchange(0)) wheel_.cancel(t);
    on_attempt_timeout(logical_id, attempt);
  }
}

// --------------------------------------------------------------- server

void SpecEngine::server_spec_return(CallId id, Value value) {
  const SpecNode::Ptr ctx = context_node();
  if (ctx != root_ && ctx->state.load() == SpecState::kIncorrect) {
    throw SpeculationAbandoned();  // §3.3
  }
  Address dst;
  Bytes bytes;
  {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.incoming.find(id);
    if (it == shard.incoming.end()) return;
    IncomingRpc& rec = *it->second;
    if (rec.actual_sent) return;
    for (const auto& sent : rec.predictions_sent) {
      if (sent == value) return;  // duplicate prediction; client dedups anyway
    }
    rec.predictions_sent.push_back(value);
    bump(kSpecReturns, id);
    PredictedResponseMsg msg;
    msg.call_id = id;
    msg.value = std::move(value);
    dst = rec.caller;
    bytes = encode(msg, *config_.codec);
  }
  transport_.send(dst, std::move(bytes));
}

void SpecEngine::send_actual_response_locked(IncomingRpc& rec,
                                             const Outcome& outcome,
                                             Actions& actions) {
  // Caller holds the owning shard's mutex; the send itself is deferred so
  // an inline-delivery transport never re-enters the engine under a lock.
  if (rec.actual_sent) return;
  rec.actual_sent = true;
  ActualResponseMsg msg;
  msg.call_id = rec.id;
  msg.ok = outcome.ok;
  msg.value = outcome.value;
  msg.error = outcome.error;
  actions.push_back(
      [this, dst = rec.caller, bytes = encode(msg, *config_.codec)]() mutable {
        transport_.send(dst, std::move(bytes));
      });
  // Clear only after the message is built: `outcome` may alias an entry of
  // rec.pending. GC is the caller's job (iterator safety).
  rec.pending.clear();
}

void SpecEngine::server_finish(CallId id, SpecNode::Ptr ctx, Outcome outcome) {
  Actions actions;
  {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.incoming.find(id);
    if (it == shard.incoming.end()) return;
    const std::shared_ptr<IncomingRpc> rec = it->second;
    if (ctx == nullptr) ctx = rec->mirror;
    if (ctx->state.load() == SpecState::kIncorrect) return;  // abandoned: drop
    if (rec->actual_sent) return;
    bool resolved = false;
    if (ctx->tree == nullptr) {
      resolved = locally_resolved(ctx, rec->mirror);  // root-like context
    } else {
      // Check-and-subscribe atomically under ctx's tree lock: either the
      // producing chain is already value-resolved, or any transition that
      // resolves it later will find this RPC id on the tree's flush list.
      std::lock_guard<std::mutex> tree_lock(ctx->tree->mu);
      if (ctx->state.load() == SpecState::kIncorrect) return;
      resolved = locally_resolved(ctx, rec->mirror);
      if (!resolved) {
        auto& ids = ctx->tree->flush_ids;
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
    }
    if (resolved) {
      send_actual_response_locked(*rec, outcome, actions);
      maybe_gc_incoming_locked(shard, id);
    } else {
      // The producing computation still depends on predictions: the value
      // travels as a *predicted* response (Figure 3b step 5); the actual
      // response follows once the chain value-resolves (step 9).
      if (outcome.ok) {
        bool dup = false;
        for (const auto& sent : rec->predictions_sent) {
          if (sent == outcome.value) {
            dup = true;
            break;
          }
        }
        if (!dup) {
          rec->predictions_sent.push_back(outcome.value);
          PredictedResponseMsg msg;
          msg.call_id = id;
          msg.value = outcome.value;
          actions.push_back([this, dst = rec->caller,
                             bytes = encode(msg, *config_.codec)]() mutable {
            transport_.send(dst, std::move(bytes));
          });
        }
      }
      rec->pending.push_back(PendingFinish{std::move(ctx), std::move(outcome)});
    }
  }
  for (auto& a : actions) a();
}

void SpecEngine::flush_incoming(CallId id) {
  // Re-evaluates one incoming RPC's queued finishes after a transition
  // batch. Takes shard → (per-pending) tree; callers hold no locks.
  Actions actions;
  {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.incoming.find(id);
    if (it == shard.incoming.end()) return;
    const std::shared_ptr<IncomingRpc> rec = it->second;
    if (!rec->actual_sent) {
      auto& pending = rec->pending;
      for (auto pit = pending.begin(); pit != pending.end();) {
        if (pit->ctx->state.load() == SpecState::kIncorrect) {
          pit = pending.erase(pit);  // abandoned producer: drop its finish
          continue;
        }
        bool resolved = false;
        if (pit->ctx->tree == nullptr) {
          resolved = locally_resolved(pit->ctx, rec->mirror);
        } else {
          // Subscribe-or-send under the producer's tree lock, as in
          // server_finish, so no resolving transition can slip between the
          // check and the re-registration.
          std::lock_guard<std::mutex> tree_lock(pit->ctx->tree->mu);
          if (pit->ctx->state.load() == SpecState::kIncorrect) {
            pit = pending.erase(pit);
            continue;
          }
          resolved = locally_resolved(pit->ctx, rec->mirror);
          if (!resolved) {
            auto& ids = pit->ctx->tree->flush_ids;
            if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
              ids.push_back(id);
            }
          }
        }
        if (resolved) {
          const Outcome outcome = pit->outcome;  // copy: send clears pending
          send_actual_response_locked(*rec, outcome, actions);
          break;
        }
        ++pit;
      }
    }
    maybe_gc_incoming_locked(shard, id);
  }
  for (auto& a : actions) a();
}

void SpecEngine::maybe_gc_incoming_locked(Shard& shard, CallId id) {
  auto it = shard.incoming.find(id);
  if (it == shard.incoming.end()) return;
  // Keep the record alive across the erase: destroying the mirror while a
  // caller still holds its tree mutex would destroy a locked mutex.
  const std::shared_ptr<IncomingRpc> rec = it->second;
  const SpecState state = rec->mirror->state.load();
  if (state == SpecState::kIncorrect ||
      (state == SpecState::kCorrect && rec->actual_sent)) {
    shard.incoming.erase(it);
  }
}

void SpecEngine::evict_early_state(CallId id) {
  Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.early_state.erase(id) > 0) bump(kEarlyStateEvictions, id);
}

// --------------------------------------------------------------- ingress

void SpecEngine::on_message(const Address& src, Bytes frame) {
  Actions actions;
  try {
    if (!stopping_.load()) {
      switch (peek_type(frame)) {
        case MsgType::kRequest:
          on_request(src, decode_request(frame, *config_.codec), actions);
          break;
        case MsgType::kPredictedResponse:
          on_predicted(decode_predicted(frame, *config_.codec), actions);
          break;
        case MsgType::kActualResponse:
          on_actual(decode_actual(frame, *config_.codec), actions);
          break;
        case MsgType::kStateChange:
          on_state_change(decode_state_change(frame, *config_.codec), actions);
          break;
      }
    }
  } catch (const DecodeError& e) {
    SRPC_LOG(ERROR) << address() << ": bad frame from " << src << ": "
                    << e.what();
  }
  // The frame is fully decoded; recycle its capacity for future encodes.
  BufferPool::release(std::move(frame));
  for (auto& a : actions) a();
}

void SpecEngine::on_request(const Address& src, RequestMsg msg,
                            Actions& actions) {
  auto rec = std::make_shared<IncomingRpc>();
  rec->id = msg.call_id;
  rec->caller = src;
  rec->method = msg.method;
  rec->args = std::move(msg.args);
  // A mirror roots its own tree: the handler and everything it spawns form
  // one concurrency domain, independent of other requests. Pre-publication,
  // so no lock is needed to build it.
  auto tree = single_tree_ ? single_tree_ : std::make_shared<TreeControl>();
  rec->mirror = make_node(SpecNode::Kind::kMirror, nullptr, tree);
  rec->mirror->state.store(msg.caller_speculative
                               ? SpecState::kCallerSpeculative
                               : SpecState::kCorrect);

  Shard& shard = shard_of(rec->id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // A state-change message can beat the request (independent links, or
    // TCP reconnect); apply it now.
    if (auto early = shard.early_state.find(msg.call_id);
        early != shard.early_state.end()) {
      if (early->second.ttl_timer != 0) wheel_.cancel(early->second.ttl_timer);
      rec->mirror->forced = true;
      rec->mirror->forced_state =
          early->second.correct ? SpecState::kCorrect : SpecState::kIncorrect;
      rec->mirror->state.store(rec->mirror->forced_state);
      shard.early_state.erase(early);
    }
    if (rec->mirror->state.load() == SpecState::kIncorrect) {
      return;  // dead on arrival
    }
    if (!shard.incoming.emplace(rec->id, rec).second) {
      // Expected under fault injection: a duplicated request delivery (the
      // retry path uses fresh wire ids, so only the network creates these).
      SRPC_LOG(WARN) << address() << ": duplicate incoming call id " << rec->id
                     << " from " << src << " — dropping request";
      return;
    }
    register_tree_locked(shard, tree);
    if (!is_terminal(rec->mirror->state.load())) {
      rec->mirror->terminal_listeners.push_back(
          [this, id = rec->id](SpecState) {
            if (stopping_.load()) return;
            flush_incoming(id);
          });
    }
  }

  HandlerFactory factory;
  {
    std::shared_lock<std::shared_mutex> methods_lock(methods_mu_);
    auto mit = methods_.find(msg.method);
    if (mit != methods_.end()) factory = mit->second;
  }
  if (!factory) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.incoming.find(rec->id);
    if (it != shard.incoming.end()) {
      const Outcome err = Outcome::failure("unknown method: " + msg.method);
      send_actual_response_locked(*it->second, err, actions);
      maybe_gc_incoming_locked(shard, rec->id);
    }
    return;
  }
  actions.push_back([this, id = rec->id, factory = std::move(factory)] {
    executor_.post([this, id, factory] {
      std::shared_ptr<IncomingRpc> rec;
      ValueList args;
      {
        Shard& shard = shard_of(id);
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.incoming.find(id);
        if (it == shard.incoming.end()) return;
        rec = it->second;
        // The handler task is the sole consumer of the decoded arguments;
        // hand them to the ServerCall instead of deep-copying the ValueList.
        args = std::move(rec->args);
      }
      {
        std::lock_guard<std::mutex> tree_lock(rec->mirror->tree->mu);
        if (rec->mirror->state.load() == SpecState::kIncorrect) return;
        rec->mirror->executed = true;
      }
      Handler handler;
      try {
        handler = factory();
      } catch (const std::exception& e) {
        SRPC_LOG(ERROR) << "handler factory threw: " << e.what();
        return;
      }
      auto call = std::make_shared<ServerCall>(*this, id, rec->caller,
                                               rec->method, std::move(args),
                                               rec->mirror);
      ExecScope scope(this, rec->mirror);
      try {
        handler(call);
      } catch (const SpeculationAbandoned&) {
        // Cooperative termination of an abandoned RPC object (§3.3).
      } catch (const MisspeculationError&) {
      } catch (const std::exception& e) {
        call->fail(e.what());
      }
    });
  });
}

void SpecEngine::on_predicted(PredictedResponseMsg msg, Actions& actions) {
  CallId logical_id = 0;
  {
    Shard& wire_shard = shard_of(msg.call_id);
    std::lock_guard<std::mutex> lock(wire_shard.mu);
    auto wit = wire_shard.wire_to_logical.find(msg.call_id);
    if (wit == wire_shard.wire_to_logical.end()) return;
    logical_id = wit->second;
  }
  const std::shared_ptr<OutgoingCall> rec = find_outgoing(logical_id);
  if (rec == nullptr) return;
  std::lock_guard<std::mutex> tree_lock(rec->node->tree->mu);
  if (rec->actual_done || !rec->factory) return;
  if (rec->node->state.load() == SpecState::kIncorrect) return;
  for (const auto& b : rec->branches) {
    if (b->from_prediction && b->predicted_value == msg.value) return;  // dup
  }
  spawn_branch(rec, std::move(msg.value), ValueStatus::kUnknown, actions);
}

void SpecEngine::on_actual(ActualResponseMsg msg, Actions& actions) {
  CallId logical_id = 0;
  {
    Shard& wire_shard = shard_of(msg.call_id);
    std::lock_guard<std::mutex> lock(wire_shard.mu);
    auto wit = wire_shard.wire_to_logical.find(msg.call_id);
    if (wit == wire_shard.wire_to_logical.end()) {
      return;  // dup/late/superseded reply
    }
    logical_id = wit->second;
    // Consume this wire id: a duplicated delivery of the same actual
    // (network dup) now misses the lookup above instead of being processed
    // twice. The id stays in rec->wire_ids so state-change fan-out still
    // reaches the server-side record it created.
    wire_shard.wire_to_logical.erase(wit);
  }
  const std::shared_ptr<OutgoingCall> rec = find_outgoing(logical_id);
  if (rec == nullptr) return;
  std::lock_guard<std::mutex> tree_lock(rec->node->tree->mu);
  std::size_t dst_idx = 0;
  for (const auto& [wire_id, idx] : rec->wire_ids) {
    if (wire_id == msg.call_id) {
      dst_idx = idx;
      break;
    }
  }
  Outcome outcome = msg.ok ? Outcome::success(std::move(msg.value))
                           : Outcome::failure(msg.error);
  if (rec->quorum > 1) {
    if (rec->actual_done) return;
    // A retried attempt can draw a second actual from the same replica;
    // quorum counts distinct replicas, not distinct replies.
    if (rec->dst_responded[dst_idx]) return;
    if (!outcome.ok) {
      // Keep the failure model simple: any replica error fails the logical
      // quorum call (the RC evaluation never exercises replica failures).
      process_actual(rec, std::move(outcome), actions);
      return;
    }
    rec->dst_responded[dst_idx] = true;
    rec->responses.push_back(outcome.value);
    // First response doubles as the prediction for the quorum result (§4.1).
    if (rec->responses.size() == 1 && rec->factory) {
      bool dup = false;
      for (const auto& b : rec->branches) {
        if (b->from_prediction && b->predicted_value == outcome.value) {
          dup = true;
          break;
        }
      }
      if (!dup && rec->node->state.load() != SpecState::kIncorrect) {
        spawn_branch(rec, outcome.value, ValueStatus::kUnknown, actions);
      }
    }
    if (static_cast<int>(rec->responses.size()) >= rec->quorum) {
      Value combined = rec->combiner ? rec->combiner(rec->responses)
                                     : rec->responses.front();
      process_actual(rec, Outcome::success(std::move(combined)), actions);
    }
    return;
  }
  process_actual(rec, std::move(outcome), actions);
}

void SpecEngine::on_state_change(StateChangeMsg msg, Actions& actions) {
  Shard& shard = shard_of(msg.call_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.incoming.find(msg.call_id);
  if (it == shard.incoming.end()) {
    // The state message beat its request. Stash it — bounded by a TTL so a
    // request the network permanently ate (fault injection + exhausted
    // retries) cannot leak the entry forever.
    EarlyState early;
    early.correct = msg.correct;
    if (config_.early_state_ttl > Duration::zero()) {
      early.ttl_timer = wheel_.schedule_after(
          config_.early_state_ttl, [this, life = life_, id = msg.call_id] {
            std::lock_guard<std::mutex> guard(life->mu);
            if (!life->alive) return;
            evict_early_state(id);
          });
    }
    if (!shard.early_state.emplace(msg.call_id, early).second &&
        early.ttl_timer != 0) {
      wheel_.cancel(early.ttl_timer);  // duplicate delivery: first wins
    }
    return;
  }
  const std::shared_ptr<IncomingRpc> rec = it->second;
  {
    std::lock_guard<std::mutex> tree_lock(rec->mirror->tree->mu);
    rec->mirror->forced = true;
    rec->mirror->forced_state =
        msg.correct ? SpecState::kCorrect : SpecState::kIncorrect;
    recompute_subtree(rec->mirror, actions);
    drain_tree_flush(*rec->mirror->tree, actions);
  }
  maybe_gc_incoming_locked(shard, msg.call_id);
}

// --------------------------------------------------------------- ServerCall

void ServerCall::spec_return(Value prediction) {
  engine_.server_spec_return(id_, std::move(prediction));
}

void ServerCall::finish(Value result) {
  SpecNode::Ptr ctx;
  if (tl_scope != nullptr && tl_scope->engine == &engine_) ctx = tl_scope->node;
  engine_.server_finish(id_, std::move(ctx),
                        Outcome::success(std::move(result)));
}

void ServerCall::fail(std::string error) {
  SpecNode::Ptr ctx;
  if (tl_scope != nullptr && tl_scope->engine == &engine_) ctx = tl_scope->node;
  engine_.server_finish(id_, std::move(ctx),
                        Outcome::failure(std::move(error)));
}

void ServerCall::finish_after(Duration work, Value result) {
  SpecNode::Ptr ctx;
  if (tl_scope != nullptr && tl_scope->engine == &engine_) ctx = tl_scope->node;
  auto self = shared_from_this();
  engine_.wheel().schedule_after(
      work, [self, ctx, life = engine_.life_,
             result = std::move(result)]() mutable {
        // Same lifetime fence as the engine's own timers: the engine may be
        // destroyed while this completion is parked on the wheel.
        std::lock_guard<std::mutex> guard(life->mu);
        if (!life->alive) return;
        self->engine_.server_finish(self->id_, ctx,
                                    Outcome::success(std::move(result)));
      });
}

}  // namespace srpc::spec
