#include "workload/microbench.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "grpcsim/grpcsim.h"
#include "rpc/node.h"
#include "specrpc/engine.h"
#include "transport/sim_network.h"

namespace srpc::wl {
namespace {

/// The deterministic server function: flips the first byte of the payload.
/// Pure, so clients can predict results exactly when they choose to.
std::string work_fn(const std::string& arg) {
  std::string out = arg;
  if (!out.empty()) out[0] = 'R';
  return out;
}

/// Argument for chain step `idx`, derived from the previous step's result —
/// this is what makes the RPCs *dependent*.
std::string next_arg(const std::string& prev_result, int idx,
                     std::size_t payload_size) {
  std::string arg = prev_result;
  arg.resize(payload_size, 'p');
  arg[0] = 'a';
  if (payload_size > 1) arg[1] = static_cast<char>('0' + (idx % 10));
  return arg;
}

std::string initial_arg(int client, std::uint64_t seq,
                        std::size_t payload_size) {
  char head[48];
  std::snprintf(head, sizeof(head), "a0c%dq%llu-", client,
                static_cast<unsigned long long>(seq));
  std::string arg = head;
  arg.resize(payload_size, 'p');
  return arg;
}

std::string wrong_value(const std::string& correct) {
  std::string out = correct;
  if (!out.empty()) out[0] = 'W';
  return out;
}

/// Deterministic per-request accuracy draw for server-side prediction.
bool server_flip(const std::string& arg, double rate, std::uint64_t seed) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
  for (char ch : arg) h = (h ^ static_cast<std::uint8_t>(ch)) * 0x100000001B3ULL;
  return (static_cast<double>(h >> 11) * 0x1.0p-53) < rate;
}

/// Predictor wrapper over the deterministic oracle: predicts work_fn(arg)
/// but deliberately corrupts it at rate 1 - correct_rate. Gives the fig8a
/// adaptive series a predictor with a *controlled* accuracy.
class OraclePredictor : public predict::Predictor {
 public:
  OraclePredictor(double correct_rate, std::uint64_t seed)
      : correct_rate_(correct_rate), rng_(seed) {}

  ValueList predict(const std::string& method, const ValueList& args) override {
    if (method != "work" || args.empty()) return {};
    const std::string correct = work_fn(args.at(0).as_string());
    bool flip;
    {
      std::lock_guard<std::mutex> lock(mu_);
      flip = rng_.flip(correct_rate_);
    }
    ValueList out;
    out.emplace_back(flip ? correct : wrong_value(correct));
    return out;
  }

  void learn(const std::string&, const ValueList&, const Value&) override {}
  void forget(const std::string&, const ValueList&) override {}
  std::size_t size() const override { return 0; }
  const char* name() const override { return "oracle"; }

 private:
  const double correct_rate_;
  std::mutex mu_;
  Rng rng_;
};

/// Per-server mutable state for the predictor-mode twists.
struct ServerState {
  std::mutex mu;
  TimePoint busy_until{};                 // server_serial occupancy timeline
  std::atomic<std::uint64_t> counter{0};  // volatile_results phase
};

struct Fixture {
  ~Fixture() {
    // Stop engines (wakes spec_block waiters), drain their executor, then
    // destroy them, then the network. See RcCluster::~RcCluster.
    for (auto& e : spec_servers) e->begin_shutdown();
    for (auto& e : spec_clients) e->begin_shutdown();
    work_executor->shutdown();
    spec_servers.clear();
    spec_clients.clear();
    rpc_servers.clear();
    rpc_clients.clear();
    net.reset();
    work_executor.reset();
  }

  explicit Fixture(const MicroConfig& config) : config(config) {
    SimConfig sim_config;
    sim_config.executor_threads = config.executor_threads;
    sim_config.default_delay = config.link_delay;
    sim_config.seed = config.seed;
    net = std::make_unique<SimNetwork>(sim_config);
    // Callbacks may park in spec_block; keep them off the delivery executor.
    work_executor = std::make_unique<Executor>(
        config.num_clients * 3 + config.num_servers + 8, "micro-work");

    for (int s = 0; s < config.num_servers; ++s) {
      const Address addr = "server" + std::to_string(s);
      Transport& transport = net->add_node(addr);
      server_addrs.push_back(addr);
      server_states.push_back(std::make_unique<ServerState>());
      ServerState* state = server_states.back().get();
      if (config.flavor == Flavor::kSpec) {
        auto engine = std::make_unique<spec::SpecEngine>(
            transport, *work_executor, net->wheel());
        engine->register_method(
            "work",
            spec::Handler([this, state](const spec::ServerCallPtr& call) {
              const std::string arg = call->args().at(0).as_string();
              const std::string result = twist(*state, work_fn(arg));
              if (this->config.server_side_prediction) {
                // Figure 2c: the server predicts its own result partway
                // through execution. Accuracy is drawn deterministically
                // from the request payload so reruns are reproducible.
                const bool correct =
                    server_flip(arg, this->config.correct_rate,
                                this->config.seed);
                const std::string predicted =
                    correct ? result : wrong_value(result);
                const auto handoff = std::chrono::duration_cast<Duration>(
                    this->config.service_time *
                    this->config.server_handoff_fraction);
                net->wheel().schedule_after(handoff, [call, predicted] {
                  try {
                    call->spec_return(Value(predicted));
                  } catch (const spec::SpeculationAbandoned&) {
                  }
                });
              }
              call->finish_after(service_delay(*state), Value(result));
            }));
        spec_servers.push_back(std::move(engine));
      } else {
        auto node = std::make_unique<rpc::Node>(transport, *work_executor,
                                                net->wheel(), node_config());
        node->register_method(
            "work", [this, state](const rpc::CallContext& ctx, ValueList args,
                                  rpc::Responder responder) {
              ctx.finish_after(
                  service_delay(*state), std::move(responder),
                  Value(twist(*state, work_fn(args.at(0).as_string()))));
            });
        rpc_servers.push_back(std::move(node));
      }
    }
    for (int c = 0; c < config.num_clients; ++c) {
      const Address addr = "client" + std::to_string(c);
      Transport& transport = net->add_node(addr);
      client_addrs.push_back(addr);
      if (config.flavor == Flavor::kSpec) {
        spec::SpecConfig spec_config;
        if (predictor_mode()) {
          predict::ManagerConfig mgr_config;
          mgr_config.adaptive = config.predict.adaptive;
          mgr_config.adaptive_config = config.predict.adaptive_config;
          predict::PredictorPtr predictor =
              config.predict.oracle
                  ? std::make_shared<OraclePredictor>(
                        config.correct_rate,
                        config.seed * 104729 +
                            static_cast<std::uint64_t>(c))
                  : predict::make_predictor(config.predict.kind,
                                            config.predict.predictor);
          predict_managers.push_back(
              std::make_unique<predict::SpeculationManager>(
                  std::move(predictor), mgr_config));
          predict_managers.back()->install(spec_config);
        }
        spec_clients.push_back(std::make_unique<spec::SpecEngine>(
            transport, *work_executor, net->wheel(), spec_config));
      } else {
        rpc_clients.push_back(std::make_unique<rpc::Node>(
            transport, *work_executor, net->wheel(), node_config()));
      }
    }
  }

  rpc::NodeConfig node_config() const {
    if (config.flavor == Flavor::kGrpc) {
      return grpcsim::to_node_config(grpcsim::GrpcSimConfig{});
    }
    return rpc::NodeConfig{};
  }

  const Address& server_for(int chain_idx) const {
    return server_addrs[static_cast<std::size_t>(chain_idx) %
                        server_addrs.size()];
  }

  /// True when client-side predictions come from an installed supplier
  /// (predict module or wrapped oracle) instead of inline oracle values.
  bool predictor_mode() const {
    return (config.predict.kind != predict::Kind::kNone ||
            config.predict.oracle) &&
           !config.server_side_prediction;
  }

  std::string twist(ServerState& state, std::string result) const {
    if (config.predict.volatile_results && !result.empty()) {
      result[0] = static_cast<char>(
          'A' + state.counter.fetch_add(1, std::memory_order_relaxed) % 7);
    }
    return result;
  }

  /// Completion delay for one RPC: the fixed service time, or — with
  /// server_serial — that time booked on the server's occupancy timeline,
  /// so concurrent (and misspeculated) calls queue.
  Duration service_delay(ServerState& state) const {
    if (!config.predict.server_serial) return config.service_time;
    const TimePoint now = Clock::now();
    std::lock_guard<std::mutex> lock(state.mu);
    const TimePoint start = std::max(now, state.busy_until);
    state.busy_until = start + config.service_time;
    return state.busy_until - now;
  }

  MicroConfig config;
  std::unique_ptr<SimNetwork> net;
  std::unique_ptr<Executor> work_executor;
  std::vector<Address> server_addrs;
  std::vector<Address> client_addrs;
  std::vector<std::unique_ptr<spec::SpecEngine>> spec_servers;
  std::vector<std::unique_ptr<spec::SpecEngine>> spec_clients;
  std::vector<std::unique_ptr<rpc::Node>> rpc_servers;
  std::vector<std::unique_ptr<rpc::Node>> rpc_clients;
  std::vector<std::unique_ptr<ServerState>> server_states;
  /// One per spec client in predictor mode (same order as spec_clients).
  std::vector<std::unique_ptr<predict::SpeculationManager>> predict_managers;
};

/// One SpecRPC request: the whole chain is expressed as nested callbacks so
/// every level can be speculated on (§2: "a sequence of dependent RPCs ...
/// a chain of callback functions").
spec::CallbackFactory chain_factory(Fixture& fixture,
                                    std::shared_ptr<std::vector<bool>> flips,
                                    int idx) {
  return [&fixture, flips, idx]() -> spec::CallbackFn {
    return [&fixture, flips, idx](spec::SpecContext& ctx,
                                  const Value& v) -> spec::CallbackResult {
      const int next = idx + 1;
      if (next >= fixture.config.rpcs_per_request) return v;
      const std::string arg =
          next_arg(v.as_string(), next, fixture.config.payload_size);
      ValueList predictions;
      if (!fixture.config.server_side_prediction &&
          !fixture.predictor_mode()) {
        const std::string correct = work_fn(arg);
        predictions.emplace_back((*flips)[static_cast<std::size_t>(next)]
                                     ? correct
                                     : wrong_value(correct));
      }
      // Predictor mode: leave predictions empty — the engine consults the
      // client's installed prediction supplier.
      ValueList args;
      args.emplace_back(arg);
      return ctx.call(fixture.server_for(next), "work", std::move(args),
                      std::move(predictions),
                      chain_factory(fixture, flips, next));
    };
  };
}

Duration run_one_request_spec(Fixture& fixture, int client, std::uint64_t seq,
                              Rng& rng) {
  auto& engine = *fixture.spec_clients[static_cast<std::size_t>(client)];
  const int n = fixture.config.rpcs_per_request;
  auto flips = std::make_shared<std::vector<bool>>();
  flips->reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    flips->push_back(rng.flip(fixture.config.correct_rate));

  const TimePoint t0 = Clock::now();
  const int key_space = fixture.config.predict.key_space;
  const std::uint64_t key = key_space > 0
                                ? seq % static_cast<std::uint64_t>(key_space)
                                : seq;
  const std::string arg0 = initial_arg(client, key, fixture.config.payload_size);
  ValueList predictions;
  if (!fixture.config.server_side_prediction && !fixture.predictor_mode()) {
    const std::string correct0 = work_fn(arg0);
    predictions.emplace_back((*flips)[0] ? correct0 : wrong_value(correct0));
  }
  ValueList args;
  args.emplace_back(arg0);
  auto future = engine.call(fixture.server_for(0), "work", std::move(args),
                            std::move(predictions),
                            chain_factory(fixture, flips, 0));
  future->get();
  return Clock::now() - t0;
}

Duration run_one_request_sync(Fixture& fixture, int client,
                              std::uint64_t seq) {
  auto& node = *fixture.rpc_clients[static_cast<std::size_t>(client)];
  const TimePoint t0 = Clock::now();
  const int key_space = fixture.config.predict.key_space;
  const std::uint64_t key = key_space > 0
                                ? seq % static_cast<std::uint64_t>(key_space)
                                : seq;
  std::string arg = initial_arg(client, key, fixture.config.payload_size);
  for (int i = 0; i < fixture.config.rpcs_per_request; ++i) {
    ValueList args;
    args.emplace_back(arg);
    const Value result =
        node.call_sync(fixture.server_for(i), "work", std::move(args));
    if (i + 1 < fixture.config.rpcs_per_request) {
      arg = next_arg(result.as_string(), i + 1, fixture.config.payload_size);
    }
  }
  return Clock::now() - t0;
}

}  // namespace

MicroResult run_microbench(const MicroConfig& config, Duration warmup,
                           Duration measure) {
  Fixture fixture(config);
  MicroResult result;
  std::mutex mu;

  const TimePoint start = Clock::now();
  const TimePoint measure_from = start + warmup;
  const TimePoint measure_until = measure_from + measure;
  const auto period = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(1.0 / config.requests_per_s));

  // Traffic accounting covers exactly the measurement window.
  std::thread stats_reset([&] {
    std::this_thread::sleep_until(measure_from);
    fixture.net->reset_stats();
  });

  std::vector<std::thread> threads;
  for (int c = 0; c < config.num_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(config.seed * 7919 + static_cast<std::uint64_t>(c));
      std::uint64_t seq = 0;
      TimePoint next_slot = start + period * c / config.num_clients;
      while (Clock::now() < measure_until) {
        std::this_thread::sleep_until(next_slot);
        next_slot += period;
        const TimePoint t0 = Clock::now();
        if (t0 >= measure_until) break;
        Duration latency;
        bool failed = false;
        try {
          latency = (config.flavor == Flavor::kSpec)
                        ? run_one_request_spec(fixture, c, seq, rng)
                        : run_one_request_sync(fixture, c, seq);
        } catch (const std::exception& e) {
          SRPC_LOG(WARN) << "microbench request failed: " << e.what();
          failed = true;
        }
        if (!failed) ++seq;
        if (t0 < measure_from) continue;
        std::lock_guard<std::mutex> lock(mu);
        if (failed) {
          result.failed++;
          continue;
        }
        result.latency.record(latency);
        result.requests++;
      }
    });
  }
  for (auto& t : threads) t.join();
  stats_reset.join();

  result.elapsed_s = std::chrono::duration<double>(measure).count();
  for (const auto& addr : fixture.client_addrs)
    result.client_traffic += fixture.net->stats(addr);
  for (const auto& addr : fixture.server_addrs)
    result.server_traffic += fixture.net->stats(addr);
  for (const auto& engine : fixture.spec_clients)
    result.spec += engine->stats();
  for (const auto& mgr : fixture.predict_managers)
    result.managers += mgr->stats();
  return result;
}

}  // namespace srpc::wl
