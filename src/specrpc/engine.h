// SpecEngine — the per-process SpecRPC controller (paper §3, Figure 4).
//
// One engine per machine owns that machine's half of the distributed
// dependency tree: it creates call/callback/mirror nodes, runs state
// transitions (Figure 5), propagates terminal transitions downward and —
// for cross-machine edges — via dedicated state-change messages (§3.4),
// validates predictions against actual results, abandons incorrect branches
// (running rollbacks, §3.3/§3.5.2), re-executes on the actual value when no
// prediction matched, and resolves futures only with non-speculative
// results.
//
// Like rpc::Node, an engine is client and server at once: server-side
// handlers routinely issue speculative calls of their own (multi-level
// speculation, §2.2).
//
// Concurrency (DESIGN.md §6): the engine has no global lock. Call-tracking
// tables are striped into N shards keyed by call id; dependency-tree state
// is guarded per tree (TreeControl); stats are per-shard relaxed-ish atomics
// summed on snapshot. Lock-ordering rule: shard lock → tree lock is allowed
// (and common), tree lock → shard lock is forbidden — cross-domain work is
// routed through deferred Actions that run with no locks held.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/timer_wheel.h"
#include "specrpc/api.h"
#include "specrpc/node.h"
#include "specrpc/qos.h"
#include "specrpc/wire.h"

namespace srpc::spec {

/// Global speculation budget (DESIGN.md §11): a token bucket over in-flight
/// *speculative* branches (value_status still kUnknown), refilled by
/// completions — validation, branch abandonment, or shutdown each release
/// the branch's token. When the bucket is exhausted a call degrades to
/// TradRPC semantics (no predictions consulted, no speculative callback
/// spawned); it never queues. Re-executions on the actual value are exempt:
/// they are forward progress, not speculation risk.
struct SpecBudget {
  /// Max in-flight speculative branches. 0 = unbounded (the historical
  /// behaviour; the gauge is still maintained for stats).
  std::size_t max_inflight = 0;
  /// Per-priority fraction of max_inflight a tier may occupy, indexed by
  /// QosPriority. Lower tiers get smaller caps, so under pressure
  /// best-effort speculation exhausts its slice (and degrades to TradRPC)
  /// while critical traffic still finds tokens. Monotone non-increasing by
  /// construction of the defaults; not enforced.
  std::array<double, kNumQosPriorities> tier_frac = {1.0, 0.85, 0.6};
};

struct SpecConfig {
  const Codec* codec = &binary_codec();
  /// A call whose actual result has not arrived by then fails. 0 disables.
  Duration call_timeout = std::chrono::seconds(60);
  /// When enabled, outbound calls whose actual has not arrived within the
  /// per-attempt timeout are re-issued under fresh attempt-tagged wire ids
  /// (duplicate actuals are deduplicated per destination). Handlers must be
  /// idempotent — see DESIGN.md §7.
  RetryPolicy retry;
  /// Optional prediction hook (DESIGN.md §8): consulted by call()/
  /// call_quorum() for every speculation-capable call issued without
  /// explicit predictions. The usual installer is
  /// predict::SpeculationManager, which routes through a Predictor and the
  /// adaptive speculation gate.
  PredictionSupplier prediction_supplier;
  /// Optional observer of per-call prediction validation (method, args,
  /// actual, predictions_made, any_correct) — the feedback edge that lets
  /// predictors learn online and accuracy trackers drive the adaptive gate.
  PredictionObserver prediction_observer;
  /// Number of lock shards for the call-tracking tables (DESIGN.md §6).
  /// 0 = auto (~2× hardware_concurrency). 1 additionally collapses every
  /// speculation tree into one shared concurrency domain, reproducing the
  /// historical single-lock engine — the honest baseline for
  /// bench/perf_engine_scale.
  std::size_t shards = 0;
  /// TTL for stashed early state-change entries (a state message that beat
  /// its request, engine.cc on_state_change). If the request never arrives —
  /// dropped by fault injection with retries exhausted — the stash is
  /// evicted after this long instead of leaking forever. 0 disables.
  Duration early_state_ttl = std::chrono::seconds(30);
  /// Overload protection: bounds in-flight speculative branches
  /// (DESIGN.md §11). Default-unbounded so existing users are unaffected.
  SpecBudget budget;
};

/// Counters exposed for tests, benches and EXPERIMENTS.md. Maintained as
/// per-shard atomic cells; stats() sums them with an acquire discipline that
/// keeps derived counters consistent with their base counters (a snapshot
/// never shows predictions_correct + predictions_incorrect >
/// predictions_made, etc.) even under concurrent load.
struct SpecStats {
  std::uint64_t calls_issued = 0;
  std::uint64_t quorum_calls_issued = 0;
  std::uint64_t callbacks_spawned = 0;      // all branches, incl. re-executions
  std::uint64_t reexecutions = 0;           // branches spawned on actual value
                                            // after every prediction missed
  std::uint64_t predictions_made = 0;       // client + server + quorum-first
  std::uint64_t predictions_correct = 0;
  std::uint64_t predictions_incorrect = 0;
  std::uint64_t branches_abandoned = 0;     // nodes that reached kIncorrect
  std::uint64_t rollbacks_run = 0;
  std::uint64_t state_msgs_sent = 0;
  std::uint64_t spec_returns = 0;
  std::uint64_t spec_blocks = 0;
  std::uint64_t retries = 0;  // attempts re-issued after a timeout
  std::uint64_t early_state_evictions = 0;  // TTL'd early state stashes
  // Speculation-budget accounting (DESIGN.md §11). Exactly one release per
  // acquired token, so budget_released <= budget_acquired in every snapshot
  // and the two are equal once the workload drains.
  std::uint64_t budget_acquired = 0;  // tokens taken by speculative branches
  std::uint64_t budget_released = 0;  // tokens returned on completion
  std::uint64_t budget_denied = 0;    // speculation skipped: no headroom

  SpecStats& operator+=(const SpecStats& o) {
    calls_issued += o.calls_issued;
    quorum_calls_issued += o.quorum_calls_issued;
    callbacks_spawned += o.callbacks_spawned;
    reexecutions += o.reexecutions;
    predictions_made += o.predictions_made;
    predictions_correct += o.predictions_correct;
    predictions_incorrect += o.predictions_incorrect;
    branches_abandoned += o.branches_abandoned;
    rollbacks_run += o.rollbacks_run;
    state_msgs_sent += o.state_msgs_sent;
    spec_returns += o.spec_returns;
    spec_blocks += o.spec_blocks;
    retries += o.retries;
    early_state_evictions += o.early_state_evictions;
    budget_acquired += o.budget_acquired;
    budget_released += o.budget_released;
    budget_denied += o.budget_denied;
    return *this;
  }
};

class SpecEngine {
 public:
  SpecEngine(Transport& transport, Executor& executor, TimerWheel& wheel,
             SpecConfig config = SpecConfig());
  ~SpecEngine();

  SpecEngine(const SpecEngine&) = delete;
  SpecEngine& operator=(const SpecEngine&) = delete;

  /// Stops accepting work, fails outstanding futures and wakes spec_block
  /// waiters. Call before draining the executor that runs this engine's
  /// callbacks, so parked computations can unwind; the destructor calls it
  /// too. Idempotent.
  void begin_shutdown();

  // ------------------------------------------------------------- server

  /// Registers an RPC by name with a per-request handler factory (the
  /// paper's SpecRpcServer::register with an RPC host factory).
  void register_method(const std::string& name, HandlerFactory factory);

  /// Convenience overload for stateless handlers.
  void register_method(const std::string& name, Handler handler);

  // ------------------------------------------------------------- client

  /// Issues an RPC. Returns immediately with a future that acquires the
  /// return value of the final non-speculative callback in the chain (§2).
  ///
  /// `predictions` are client-side predicted return values (§2.1); each
  /// distinct value speculatively executes a fresh callback from `factory`.
  /// A null factory means "no dependent operation": the future resolves
  /// with the RPC's own result.
  ///
  /// Called from inside a running callback/handler, the new call becomes a
  /// child of that computation in the dependency tree (implicit context).
  SpecFuturePtr call(const Address& dst, const std::string& method,
                     ValueList args, ValueList predictions = {},
                     CallbackFactory factory = nullptr);

  /// Issues one logical call fanned out to `dsts`, completing when `quorum`
  /// responses arrived; `combiner` picks the actual result from them. The
  /// first response doubles as a prediction (§4.1: "we can use the first
  /// response to speculatively execute the next read operation").
  SpecFuturePtr call_quorum(const std::vector<Address>& dsts, int quorum,
                            const std::string& method, ValueList args,
                            Combiner combiner, CallbackFactory factory);

  /// call_quorum with client-side predictions of the *combined* result
  /// (validated against the combiner's output). The first quorum response
  /// still doubles as a prediction; client predictions start callbacks even
  /// earlier — before any response arrives (the RC read-chain pattern with
  /// a warm predictor).
  SpecFuturePtr call_quorum(const std::vector<Address>& dsts, int quorum,
                            const std::string& method, ValueList args,
                            ValueList predictions, Combiner combiner,
                            CallbackFactory factory);

  /// Blocks the calling computation until it is non-speculative; throws
  /// MisspeculationError if its speculation was incorrect (§3.5.2).
  /// No-op on a non-speculative application thread. Parks on the
  /// computation's *tree* condition variable, so resolutions in unrelated
  /// trees neither wake nor contend with this waiter.
  void spec_block();

  /// True if the current computation context is speculative.
  bool speculative() const;

  /// Installs a rollback for the current computation (§3.5.2).
  void set_rollback(std::function<void()> rollback);

  // ------------------------------------------------------------- misc

  const Address& address() const;
  Executor& executor() { return executor_; }
  TimerWheel& wheel() { return wheel_; }
  SpecStats stats() const;

  /// Assigns a QoS class to an outbound method (DESIGN.md §11): its
  /// priority tier for speculation-budget admission and an optional
  /// per-method deadline overriding call_timeout. Unclassified methods run
  /// at kNormal with the engine-wide timeout. Thread-safe; usually called
  /// once at setup (registry::apply_qos).
  void set_method_qos(const std::string& method, QosClass qos);
  QosClass method_qos(const std::string& method) const;

  /// Current in-flight speculative branches (budget gauge). Maintained even
  /// when the budget is unbounded; drains to 0 after a quiesced workload.
  std::int64_t spec_inflight() const {
    return spec_inflight_.load(std::memory_order_acquire);
  }

  /// True if a speculative branch for `method` would currently find budget
  /// headroom. Advisory (the authoritative check is at spawn time): call()
  /// uses it to skip the prediction supplier entirely when the bucket is
  /// dry, which is what "no predictions consulted" means in the
  /// degradation ladder.
  bool spec_budget_headroom(const std::string& method) const;

  /// Number of lock shards this engine was built with (after auto-sizing).
  std::size_t shard_count() const { return shards_.size(); }

  /// Diagnostic: live bookkeeping sizes {outgoing calls, incoming RPCs,
  /// wire-id routes, stashed early state changes}, summed across shards.
  /// After a quiesced workload these must drain back to ~zero (GC hygiene;
  /// tested).
  struct DebugSizes {
    std::size_t outgoing = 0;
    std::size_t incoming = 0;
    std::size_t wire_routes = 0;
    std::size_t early_state = 0;
  };
  DebugSizes debug_sizes() const;

  /// Test hook: observes every state transition (old -> new) of every node.
  /// Runs outside all engine locks, after the transition batch. With a
  /// sharded engine, events from *unrelated* trees may interleave in any
  /// order; events for one node are still well-ordered.
  using TransitionObserver = std::function<void(
      SpecNode::Kind kind, std::uint64_t debug_id, SpecState from,
      SpecState to)>;
  void set_transition_observer(TransitionObserver observer);

 private:
  friend class SpecContext;
  friend class ServerCall;

  struct Branch {
    SpecNode::Ptr node;
    Value predicted_value;     // the value run() received
    bool from_prediction;      // value_status started kUnknown
    /// Holds a speculation-budget token. Set at spawn for speculative
    /// branches, cleared (exactly once, under the tree mutex) by whichever
    /// of validation / terminal transition / shutdown reaps the branch
    /// first.
    bool token_held = false;
    bool run_done = false;
    bool failed = false;
    std::string error;
    Value result_value;
    SpecFuturePtr result_future;
    bool delivered = false;
  };

  /// One logical outbound call. Immutable after start_call's tree phase:
  /// id, dsts, method, quorum, combiner, factory, future, node, deadline,
  /// args. Everything else is guarded by node->tree->mu (the shard mutex
  /// only guards the map entry pointing here). timeout_timer is atomic so
  /// begin_shutdown can harvest it under the shard lock alone.
  struct OutgoingCall {
    CallId id = 0;
    std::vector<Address> dsts;
    /// Every attempt-tagged wire id issued for this call, with the index of
    /// the destination it was sent to (retries append fresh ids).
    std::vector<std::pair<CallId, std::size_t>> wire_ids;
    std::string method;
    ValueList args;  // retained only when retries/observer are enabled
    SpecNode::Ptr node;
    SpecFuturePtr future;
    CallbackFactory factory;
    std::vector<std::shared_ptr<Branch>> branches;
    bool actual_done = false;
    Outcome actual;
    bool branch_matched = false;
    QosPriority priority = QosPriority::kNormal;  // from method_qos at issue
    int attempt = 1;
    TimePoint deadline{};  // TimePoint::max() when call_timeout is 0
    // Quorum mode:
    int quorum = 1;
    Combiner combiner;
    std::vector<Value> responses;
    /// Per-destination flag: an actual from this replica already counted
    /// toward the quorum (a retried attempt must not double-count it).
    std::vector<bool> dst_responded;
    std::atomic<TimerId> timeout_timer{0};  // attempt-timeout/backoff timer
  };

  struct PendingFinish {
    SpecNode::Ptr ctx;
    Outcome outcome;
  };

  /// One incoming RPC. All mutable fields (predictions_sent, actual_sent,
  /// pending, args) are guarded by the owning shard's mutex; the mirror
  /// node follows the tree discipline.
  struct IncomingRpc {
    CallId id = 0;
    Address caller;
    std::string method;
    SpecNode::Ptr mirror;
    ValueList args;
    std::vector<Value> predictions_sent;
    bool actual_sent = false;
    std::vector<PendingFinish> pending;
  };

  using Actions = std::vector<std::function<void()>>;

  // Per-shard stat counters. Writes are fetch_add(release); stats() reads
  // acquire in derived-before-base order so cross-counter invariants hold
  // in every snapshot.
  enum StatIdx : std::size_t {
    kCallsIssued = 0,
    kQuorumCallsIssued,
    kCallbacksSpawned,
    kReexecutions,
    kPredictionsMade,
    kPredictionsCorrect,
    kPredictionsIncorrect,
    kBranchesAbandoned,
    kRollbacksRun,
    kStateMsgsSent,
    kSpecReturns,
    kSpecBlocks,
    kRetries,
    kEarlyStateEvictions,
    kBudgetAcquired,
    kBudgetReleased,
    kBudgetDenied,
    kNumStats,
  };
  struct alignas(64) StatsCell {
    std::array<std::atomic<std::uint64_t>, kNumStats> v{};
  };

  /// An early state-change stash (state message beat its request) with the
  /// timer that will evict it if the request never shows up.
  struct EarlyState {
    bool correct = false;
    TimerId ttl_timer = 0;
  };

  /// One lock stripe of the call-tracking tables. A call id belongs to
  /// shard id % N; note a call's logical id and its attempt-tagged wire ids
  /// generally land in *different* shards, so multi-map updates (publish,
  /// GC) take the shard locks one at a time, never nested.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<CallId, std::shared_ptr<OutgoingCall>> outgoing;
    std::unordered_map<CallId, CallId> wire_to_logical;
    std::unordered_map<CallId, std::shared_ptr<IncomingRpc>> incoming;
    std::unordered_map<CallId, EarlyState> early_state;
    /// Live trees homed here, so begin_shutdown can wake every spec_block
    /// waiter. Weak entries; pruned amortized on insert.
    std::vector<std::weak_ptr<TreeControl>> trees;
    std::size_t trees_prune_at = 16;
    Rng rng;  // retry backoff jitter; guarded by mu
    StatsCell stats;
  };

  Shard& shard_of(CallId id) const { return *shards_[id % shards_.size()]; }
  void bump(StatIdx idx, std::uint64_t key) const;
  std::uint64_t sum(StatIdx idx) const;
  void register_tree_locked(Shard& shard,
                            const std::shared_ptr<TreeControl>& tree);
  std::shared_ptr<OutgoingCall> find_outgoing(CallId logical_id) const;

  // Wire ingress. Dispatch is lock-free; each handler takes the shard and
  // tree locks it needs.
  void on_message(const Address& src, Bytes frame);
  void on_request(const Address& src, RequestMsg msg, Actions& actions);
  void on_predicted(PredictedResponseMsg msg, Actions& actions);
  void on_actual(ActualResponseMsg msg, Actions& actions);
  void on_state_change(StateChangeMsg msg, Actions& actions);
  void on_attempt_timeout(CallId logical_id, int attempt);
  void resend_attempt(CallId logical_id, int attempt);
  void evict_early_state(CallId id);

  // Tree machinery: callers hold the node's tree mutex.
  SpecState compute_state(const SpecNode& node) const;
  void recompute_subtree(const SpecNode::Ptr& node, Actions& actions);
  void apply_transition(const SpecNode::Ptr& node, SpecState next,
                        Actions& actions);
  void set_value_status(const SpecNode::Ptr& cb_node, ValueStatus vs,
                        Actions& actions);
  void drain_tree_flush(TreeControl& tree, Actions& actions);
  /// Pure read walk over atomic states; callers that need it to be stable
  /// against concurrent validation hold ctx's tree mutex.
  bool locally_resolved(const SpecNode::Ptr& ctx,
                        const SpecNode::Ptr& mirror) const;
  SpecNode::Ptr make_node(SpecNode::Kind kind, SpecNode::Ptr parent,
                          std::shared_ptr<TreeControl> tree);

  // Call progress. spawn_branch/process_actual/maybe_deliver_branch/
  // deliver_direct/schedule_call_timer_tree_locked require the call's tree
  // mutex; gc_outgoing/flush_incoming take their own locks and must be
  // invoked with none held (use deferred Actions from locked regions).
  SpecFuturePtr start_call(SpecNode::Ptr caller, std::vector<Address> dsts,
                           int quorum, const std::string& method,
                           ValueList args, ValueList predictions,
                           Combiner combiner, CallbackFactory factory);
  void spawn_branch(const std::shared_ptr<OutgoingCall>& rec, Value value,
                    ValueStatus vs, Actions& actions);
  void process_actual(const std::shared_ptr<OutgoingCall>& rec,
                      Outcome outcome, Actions& actions);
  void maybe_deliver_branch(const std::shared_ptr<OutgoingCall>& rec,
                            const std::shared_ptr<Branch>& branch,
                            Actions& actions);
  void deliver_direct(const std::shared_ptr<OutgoingCall>& rec,
                      Actions& actions);
  void schedule_call_timer_tree_locked(
      const std::shared_ptr<OutgoingCall>& rec);
  /// Budget accounting (DESIGN.md §11). Acquire is called from spawn_branch
  /// under the call's tree mutex; it bumps spec_inflight_ and checks the
  /// caller-priority tier cap. Release is idempotent per branch (the
  /// token_held flag, guarded by the same tree mutex, makes it
  /// exactly-once) and is invoked from validation, the branch's terminal
  /// listener, the dead-on-arrival path, and shutdown orphan cleanup —
  /// whichever runs first wins.
  bool try_acquire_spec_token(QosPriority priority, std::uint64_t key);
  void release_spec_token_tree_locked(Branch& branch, std::uint64_t key);

  void gc_outgoing(CallId id);
  void maybe_gc_incoming_locked(Shard& shard, CallId id);
  void flush_incoming(CallId id);
  void send_actual_response_locked(IncomingRpc& rec, const Outcome& outcome,
                                   Actions& actions);

  // Context plumbing used by SpecContext / ServerCall.
  SpecNode::Ptr context_node() const;
  void check_live(const SpecNode::Ptr& node) const;  // throws if kIncorrect
  void server_spec_return(CallId id, Value value);
  void server_finish(CallId id, SpecNode::Ptr ctx, Outcome outcome);

  /// Keeps timer-wheel callbacks from touching a destroyed engine: each
  /// callback holds the token's mutex for its whole run and bails if the
  /// engine already began shutdown. begin_shutdown() flips `alive` under
  /// the same mutex, so after it returns no callback can enter the engine.
  struct LifeToken {
    std::mutex mu;
    bool alive = true;
  };

  Transport& transport_;
  Executor& executor_;
  TimerWheel& wheel_;
  SpecConfig config_;
  std::shared_ptr<LifeToken> life_ = std::make_shared<LifeToken>();

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Non-null only when shards == 1: every tree shares this control block,
  /// reproducing the single global concurrency domain of the pre-shard
  /// engine (one mutex, one cv with notify_all thundering herd).
  std::shared_ptr<TreeControl> single_tree_;

  SpecNode::Ptr root_;
  std::shared_mutex methods_mu_;  // read-mostly: registration precedes serving
  std::unordered_map<std::string, HandlerFactory> methods_;
  /// Speculation-budget gauge: live branches whose value_status is still
  /// kUnknown. Tier caps are compared against it in try_acquire_spec_token.
  std::atomic<std::int64_t> spec_inflight_{0};
  /// Per-method QoS classes. qos_any_ short-circuits the common
  /// nothing-configured case so the call hot path skips the lock entirely.
  mutable std::shared_mutex qos_mu_;
  std::unordered_map<std::string, QosClass> qos_;
  std::atomic<bool> qos_any_{false};
  std::atomic<CallId> next_call_id_{1};
  std::atomic<std::uint64_t> next_debug_id_{1};
  std::shared_ptr<TransitionObserver> observer_;  // std::atomic_load/store
  std::atomic<bool> stopping_{false};
};

/// Execution context passed to callbacks; also constructible on the server
/// side. Wraps the implicit current-node context.
class SpecContext {
 public:
  SpecContext(SpecEngine& engine, SpecNode::Ptr node)
      : engine_(engine), node_(std::move(node)) {}

  SpecFuturePtr call(const Address& dst, const std::string& method,
                     ValueList args, ValueList predictions = {},
                     CallbackFactory factory = nullptr) {
    return engine_.call(dst, method, std::move(args), std::move(predictions),
                        std::move(factory));
  }

  SpecFuturePtr call_quorum(const std::vector<Address>& dsts, int quorum,
                            const std::string& method, ValueList args,
                            Combiner combiner, CallbackFactory factory) {
    return engine_.call_quorum(dsts, quorum, method, std::move(args),
                               std::move(combiner), std::move(factory));
  }

  SpecFuturePtr call_quorum(const std::vector<Address>& dsts, int quorum,
                            const std::string& method, ValueList args,
                            ValueList predictions, Combiner combiner,
                            CallbackFactory factory) {
    return engine_.call_quorum(dsts, quorum, method, std::move(args),
                               std::move(predictions), std::move(combiner),
                               std::move(factory));
  }

  void spec_block() { engine_.spec_block(); }
  bool speculative() const { return engine_.speculative(); }
  void set_rollback(std::function<void()> rollback) {
    engine_.set_rollback(std::move(rollback));
  }

  SpecEngine& engine() { return engine_; }
  const SpecNode::Ptr& node() const { return node_; }

 private:
  SpecEngine& engine_;
  SpecNode::Ptr node_;
};

/// Server-side view of one incoming RPC (the paper's RPC object surface).
/// Handlers (and callbacks that captured the ServerCallPtr) use it to return
/// predictions and the actual result.
class ServerCall : public std::enable_shared_from_this<ServerCall> {
 public:
  ServerCall(SpecEngine& engine, CallId id, Address caller, std::string method,
             ValueList args, SpecNode::Ptr mirror)
      : engine_(engine),
        id_(id),
        caller_(std::move(caller)),
        method_(std::move(method)),
        args_(std::move(args)),
        mirror_(std::move(mirror)) {}

  const ValueList& args() const { return args_; }
  const std::string& method() const { return method_; }
  const Address& caller() const { return caller_; }
  CallId call_id() const { return id_; }

  /// Sends a predicted return value to the caller mid-execution (§2.1
  /// specReturn). Throws SpeculationAbandoned from a dead branch.
  void spec_return(Value prediction);

  /// Provides the RPC's return value. Sent to the caller as the actual
  /// response once the producing computation is value-resolved; until then
  /// it travels as a predicted response (Figure 3b, steps 5 and 9).
  /// Silently ignored from an abandoned branch.
  void finish(Value result);

  /// Fails the call (actual error response; never sent speculatively).
  void fail(std::string error);

  /// Simulates `work` of service time before finish(result). The execution
  /// context is captured now, so speculation semantics match finish().
  void finish_after(Duration work, Value result);

  // Speculative operations, delegated to the engine's implicit context.
  SpecFuturePtr call(const Address& dst, const std::string& method,
                     ValueList args, ValueList predictions = {},
                     CallbackFactory factory = nullptr) {
    return engine_.call(dst, method, std::move(args), std::move(predictions),
                        std::move(factory));
  }
  void spec_block() { engine_.spec_block(); }
  bool speculative() const { return engine_.speculative(); }
  void set_rollback(std::function<void()> rollback) {
    engine_.set_rollback(std::move(rollback));
  }

  SpecEngine& engine() { return engine_; }

 private:
  friend class SpecEngine;

  SpecEngine& engine_;
  CallId id_;
  Address caller_;
  std::string method_;
  ValueList args_;
  SpecNode::Ptr mirror_;
};

}  // namespace srpc::spec
