// Dependent-RPC chain workloads (the paper's §5.1 microbenchmark shape).
//
// A request is a chain of `hops` dependent calls of method "work"; hop i
// goes to server i % servers and its argument is derived from hop i-1's
// result. SpecRPC expresses the chain as nested callbacks, TradRPC as
// Future::then continuations; both are issued asynchronously from one
// generator thread, never one blocking thread per client.
//
// "work" is a pure function of its argument except on the volatile share
// of arguments, whose first result byte changes on every call (a value no
// predictor can learn). The next hop's argument overwrites that byte, so a
// chain's final value is deterministic up to it and is checked on every
// completion.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/flavor.h"
#include "common/timer_wheel.h"
#include "measure.h"
#include "predict/manager.h"
#include "rpc/node.h"
#include "specrpc/engine.h"
#include "trace.h"
#include "transport/sim_network.h"
#include "transport/tcp_transport.h"

namespace specbench {

/// Frozen parameters of a chain workload. Rates and pool sizes are not
/// recomputed per run, so a faster build is judged at the same load.
struct ChainSpec {
  std::string name;
  bool tcp = true;              // TcpTransport on loopback, else SimNetwork
  int servers = 4;
  int clients = 4;
  int hops = 4;
  double service_ms = 1.0;      // emulated per hop: 10 ms x lat scale 0.1
  double link_us = 100;         // SimNetwork one-way delay
  std::size_t req_bytes = 64;
  std::size_t big_bytes = 16384;
  int big_pct = 0;              // % of arguments answered with big_bytes
  int volatile_pct = 0;         // % of arguments answered anew every call
  /// true: SpecRPC predictions come from one last-value predictor shared by
  /// the client engines. false: every call carries one inline prediction
  /// that is always wrong (no predictor, no adaptive gate).
  bool last_value_predictor = true;
  int key_space = 512;          // recurring chain keys
  double rate = 1000;           // open loop, chains/s
  int window = 256;             // closed loop, outstanding chains
  int work_threads = 4;         // engine executor
  int io_threads = 2;           // TcpTransport / SimNetwork delivery
  int reactors = 1;             // per TcpTransport
  double warmup_s = 0.5;        // per deployment
  int call_timeout_ms = 5000;
};

ChainSpec chain_tcp_spec();
ChainSpec chain_miss_spec();

struct TradChain;

/// One deployment of servers and clients for one flavor. With a tracer,
/// every layer is wrapped (trace.h); without, the engines get the real
/// components.
class ChainFixture {
 public:
  ChainFixture(const ChainSpec& spec, srpc::Flavor flavor, Tracer* tracer);
  ~ChainFixture();
  ChainFixture(const ChainFixture&) = delete;
  ChainFixture& operator=(const ChainFixture&) = delete;

  using Done = std::function<void(const srpc::rpc::Outcome&)>;
  /// Starts chain `chain_id` for `key` from client `client`; `done` runs
  /// once with the chain's final outcome. Never blocks.
  void issue(std::uint64_t chain_id, std::uint64_t key, int client, Done done);

  /// True if `v` is the correct final value of `key`'s chain.
  bool check(std::uint64_t key, const srpc::Value& v) const;

  srpc::spec::SpecStats spec_stats() const;
  srpc::predict::ManagerStats manager_stats() const;
  srpc::TrafficStats traffic() const;
  std::size_t queue_depth() const;
  TransitMatcher* matcher() { return matcher_.get(); }

 private:
  struct Server;
  std::string work(Server& server, const std::string& arg) const;
  std::string pure_work(const std::string& arg) const;
  std::string next_arg(const std::string& prev, int hop) const;
  std::string wrong(const std::string& correct) const;
  srpc::ValueList inline_predictions(const std::string& arg) const;
  srpc::spec::CallbackFactory factory(int hop, std::uint64_t chain_id);
  void trad_step(std::shared_ptr<TradChain> chain, int hop, std::string arg);
  const Address& server_for(int hop) const;
  void exec_wait(const Address& addr, std::uint64_t call_id);
  srpc::TimerWheel& wheel();

  ChainSpec spec_;
  srpc::Flavor flavor_;
  Tracer* tracer_;
  std::vector<std::string> first_arg_;  // per key
  std::vector<std::string> expected_;   // per key: final value
  std::vector<bool> last_volatile_;     // per key: final hop is volatile

  std::unique_ptr<srpc::Executor> io_exec_;
  std::unique_ptr<srpc::SimNetwork> net_;
  std::unique_ptr<srpc::TimerWheel> wheel_;  // TCP only; sim uses net_'s
  std::unique_ptr<srpc::Executor> work_exec_;
  std::vector<std::unique_ptr<srpc::TcpTransport>> tcp_;
  std::unique_ptr<TransitMatcher> matcher_;
  std::unique_ptr<IngressLog> ingress_;
  std::unique_ptr<TracingCodec> codec_;
  std::vector<std::unique_ptr<TracingTransport>> traced_;
  std::shared_ptr<srpc::predict::SpeculationManager> manager_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<Address> server_addrs_;
  std::vector<std::unique_ptr<srpc::spec::SpecEngine>> spec_servers_;
  std::vector<std::unique_ptr<srpc::spec::SpecEngine>> spec_clients_;
  std::vector<std::unique_ptr<srpc::rpc::Node>> rpc_servers_;
  std::vector<std::unique_ptr<srpc::rpc::Node>> rpc_clients_;
};

/// Runs both flavors of a chain workload and reports its metrics.
WorkloadResult run_chain(const ChainSpec& spec, const RunOptions& opt);

}  // namespace specbench
