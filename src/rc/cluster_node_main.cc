// rc_cluster_node — one process of a cross-process Replicated Commit
// cluster, driven by rc::ProcessCluster over stdio (see process_cluster.h
// for the line protocol).
//
//   role=server : hosts one datacentre's 3 shard servers + coordinator,
//                 each on its own TcpTransport.
//   role=client : hosts one datacentre's client machines and runs the
//                 closed-loop workload when told to RUN.
//
// All configuration arrives as key=value argv pairs; only the TCP topology
// (learned ports) travels over the pipe.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "batch/client.h"
#include "batch/seed.h"
#include "common/cpu_model.h"
#include "common/executor.h"
#include "common/flavor.h"
#include "common/timer_wheel.h"
#include "grpcsim/grpcsim.h"
#include "kvstore/store.h"
#include "predict/manager.h"
#include "rc/client.h"
#include "rc/common.h"
#include "rc/kit.h"
#include "rc/server.h"
#include "rpc/node.h"
#include "specrpc/engine.h"
#include "transport/tcp_transport.h"
#include "workload/qstream.h"
#include "workload/retwis.h"
#include "workload/runner.h"
#include "workload/ycsbt.h"

namespace srpc::rc {
namespace {

struct Args {
  std::map<std::string, std::string> kv;

  std::string str(const std::string& key, const std::string& dflt = "") const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  long num(const std::string& key, long dflt = 0) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : std::strtol(it->second.c_str(), nullptr, 10);
  }
  double real(const std::string& key, double dflt = 0) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
};

Flavor parse_flavor(const std::string& s) {
  if (s == "grpc") return Flavor::kGrpc;
  if (s == "spec") return Flavor::kSpec;
  return Flavor::kTrad;
}

batch::BatchMode parse_batch_mode(const std::string& s) {
  if (s == "per-txn-2pc") return batch::BatchMode::kPerTxn2pc;
  if (s == "group-commit") return batch::BatchMode::kGroupCommit;
  return batch::BatchMode::kSpeculative;
}

/// One machine of this process: transport + the flavour's engine + kit.
/// Mirrors RcCluster::NodeBundle, over TCP instead of SimNetwork.
struct Machine {
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<rpc::Node> rpc_node;
  std::unique_ptr<spec::SpecEngine> spec_engine;
  std::unique_ptr<RpcKit> kit;
};

std::unique_ptr<Machine> make_machine(Flavor flavor, Executor& executor,
                                      TimerWheel& wheel,
                                      double grpc_overhead_us,
                                      predict::SpeculationManager* manager =
                                          nullptr) {
  auto m = std::make_unique<Machine>();
  TcpConfig tc;
  // One reactor per machine-transport: a node process hosts several
  // transports on a box with few cores; the reactor count multiplies.
  tc.reactors = 1;
  m->transport = std::make_unique<TcpTransport>(executor, tc);
  switch (flavor) {
    case Flavor::kGrpc: {
      grpcsim::GrpcSimConfig grpc_config;
      grpc_config.per_message_overhead = std::chrono::microseconds(
          static_cast<std::int64_t>(grpc_overhead_us));
      m->rpc_node = std::make_unique<rpc::Node>(
          *m->transport, executor, wheel, grpcsim::to_node_config(grpc_config));
      m->kit = std::make_unique<TradKit>(*m->rpc_node);
      break;
    }
    case Flavor::kTrad: {
      m->rpc_node = std::make_unique<rpc::Node>(*m->transport, executor, wheel,
                                                rpc::NodeConfig{});
      m->kit = std::make_unique<TradKit>(*m->rpc_node);
      break;
    }
    case Flavor::kSpec: {
      spec::SpecConfig sc;
      if (manager != nullptr) manager->install(sc);  // before construction
      m->spec_engine = std::make_unique<spec::SpecEngine>(
          *m->transport, executor, wheel, sc);
      m->kit = std::make_unique<SpecKit>(*m->spec_engine);
      break;
    }
  }
  return m;
}

int node_main(const Args& args) {
  const std::string role = args.str("role");
  const int my_dc = static_cast<int>(args.num("dc"));
  const Flavor flavor = parse_flavor(args.str("flavor", "trad"));
  const int num_dcs = static_cast<int>(args.num("num_dcs", 3));
  const int num_shards = static_cast<int>(args.num("num_shards", 3));
  const int clients_per_dc = static_cast<int>(args.num("clients_per_dc", 4));
  const auto num_keys = static_cast<std::size_t>(args.num("num_keys", 20'000));
  const auto value_size = static_cast<std::size_t>(args.num("value_size", 16));
  const int server_cores = static_cast<int>(args.num("server_cores"));
  const double grpc_overhead_us = args.real("grpc_overhead_us", 75.0);
  ServerCosts costs;
  costs.read = std::chrono::microseconds(args.num("read_us"));
  costs.prepare = std::chrono::microseconds(args.num("prepare_us"));
  costs.apply = std::chrono::microseconds(args.num("apply_us"));
  costs.commit = std::chrono::microseconds(args.num("commit_us"));

  const int machines = role == "server" ? num_shards + 1 : clients_per_dc;
  Executor executor(std::max(8, machines * 3), "node-work");
  TimerWheel wheel;

  // qstream client machines under kSpec get per-machine queue-seed
  // prediction, installed before the engine exists (the hooks are read at
  // construction). The manager objects just need to outlive install();
  // the installed hooks keep the shared state alive on their own.
  const bool qstream =
      role == "client" && args.str("workload", "ycsbt") == "qstream";
  std::vector<std::shared_ptr<batch::SeedStore>> seed_stores;
  std::vector<std::shared_ptr<batch::QueueSeedPredictor>> qpredictors;
  std::vector<std::unique_ptr<predict::SpeculationManager>> managers;

  std::vector<std::unique_ptr<Machine>> nodes;
  for (int i = 0; i < machines; ++i) {
    predict::SpeculationManager* mgr = nullptr;
    if (qstream && flavor == Flavor::kSpec) {
      auto seeds = std::make_shared<batch::SeedStore>();
      auto qp = std::make_shared<batch::QueueSeedPredictor>(seeds);
      managers.push_back(std::make_unique<predict::SpeculationManager>(qp));
      seed_stores.push_back(std::move(seeds));
      qpredictors.push_back(std::move(qp));
      mgr = managers.back().get();
    }
    nodes.push_back(
        make_machine(flavor, executor, wheel, grpc_overhead_us, mgr));
    if (qstream && flavor == Flavor::kSpec) {
      seed_stores[static_cast<std::size_t>(i)]->attach_engine(
          nodes.back()->spec_engine.get());
    }
  }

  // Announce listening endpoints (servers) or just check in (clients).
  if (role == "server") {
    std::printf("ADDRS");
    for (const auto& m : nodes) std::printf(" %s", m->transport->address().c_str());
    std::printf("\n");
  } else {
    std::printf("ADDRS -\n");
  }
  std::fflush(stdout);

  // Receive the full TCP topology and build the address map every kit
  // routes through.
  std::string line;
  if (!std::getline(std::cin, line) || line.rfind("TOPOLOGY", 0) != 0) {
    std::fprintf(stderr, "node[%s dc%d]: bad TOPOLOGY line\n", role.c_str(),
                 my_dc);
    return 2;
  }
  // Static epoch-1 view over the learned TCP endpoints. Cross-process runs
  // do not reconfigure (the in-process cluster covers that), so every
  // machine gets its own provider pinned at this view.
  ClusterView base = ClusterView::make_static(num_dcs, num_shards);
  {
    std::istringstream in(line.substr(8));
    base.shard_addrs_override.resize(static_cast<std::size_t>(num_dcs));
    base.coord_addrs_override.resize(static_cast<std::size_t>(num_dcs));
    for (int dc = 0; dc < num_dcs; ++dc) {
      auto& shards = base.shard_addrs_override[static_cast<std::size_t>(dc)];
      shards.resize(static_cast<std::size_t>(num_shards));
      for (int s = 0; s < num_shards; ++s) {
        if (!(in >> shards[static_cast<std::size_t>(s)])) return 2;
      }
      if (!(in >> base.coord_addrs_override[static_cast<std::size_t>(dc)]))
        return 2;
    }
  }
  const auto make_views = [&base] {
    return std::make_shared<ViewProvider>(base);
  };

  std::vector<std::unique_ptr<kv::VersionedStore>> stores;
  std::vector<std::unique_ptr<CpuModel>> cpus;
  std::vector<std::unique_ptr<ShardServer>> shard_servers;
  std::vector<std::unique_ptr<Coordinator>> coordinators;
  std::vector<std::unique_ptr<RcClient>> clients;
  std::vector<std::unique_ptr<batch::BatchClient>> batch_clients;

  if (role == "server") {
    for (int shard = 0; shard < num_shards; ++shard) {
      auto store = std::make_unique<kv::VersionedStore>();
      for (std::size_t i = 0; i < num_keys; ++i) {
        char key[32];
        std::snprintf(key, sizeof(key), "k%08zu", i);
        if (base.shard_of(key) == shard)
          store->load(key, std::string(value_size, 'v'), 1);
      }
      CpuModel* cpu = nullptr;
      if (server_cores > 0) {
        cpus.push_back(std::make_unique<CpuModel>(wheel, server_cores));
        cpu = cpus.back().get();
      }
      shard_servers.push_back(std::make_unique<ShardServer>(
          *nodes[static_cast<std::size_t>(shard)]->kit, *store, make_views(),
          my_dc, shard, cpu, costs));
      stores.push_back(std::move(store));
    }
    CpuModel* coord_cpu = nullptr;
    if (server_cores > 0) {
      cpus.push_back(std::make_unique<CpuModel>(wheel, server_cores));
      coord_cpu = cpus.back().get();
    }
    coordinators.push_back(std::make_unique<Coordinator>(
        *nodes[static_cast<std::size_t>(num_shards)]->kit, make_views(), my_dc,
        coord_cpu, costs));
  } else if (qstream) {
    batch::BatchClientConfig batch_config;
    batch_config.my_dc = my_dc;
    batch_config.read_quorum = static_cast<int>(args.num("read_quorum", 2));
    batch_config.vote_quorum = static_cast<int>(args.num("vote_quorum", 2));
    batch_config.mode = parse_batch_mode(args.str("batch_mode", "speculative"));
    batch_config.txns_per_epoch =
        static_cast<std::size_t>(args.num("txns_per_epoch", 32));
    const bool adaptive = args.num("adaptive_batch", 0) != 0;
    for (int i = 0; i < clients_per_dc; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      batch_clients.push_back(std::make_unique<batch::BatchClient>(
          *nodes[idx]->kit, make_views(), batch_config,
          idx < seed_stores.size() ? seed_stores[idx] : nullptr,
          idx < qpredictors.size() ? qpredictors[idx] : nullptr, nullptr));
      if (adaptive) {
        batch::AdaptiveBatchConfig acfg;
        acfg.min_epoch = static_cast<std::size_t>(args.num("min_epoch", 4));
        acfg.max_epoch = static_cast<std::size_t>(args.num("max_epoch", 64));
        acfg.initial_epoch = batch_config.txns_per_epoch;
        acfg.initial_mode = batch_config.mode;
        acfg.allow_speculative = flavor == Flavor::kSpec;
        batch_clients.back()->set_controller(
            std::make_shared<batch::AdaptiveBatchController>(acfg));
      }
    }
  } else {
    RcClientConfig client_config;
    client_config.my_dc = my_dc;
    client_config.read_quorum = static_cast<int>(args.num("read_quorum", 2));
    client_config.vote_quorum = static_cast<int>(args.num("vote_quorum", 2));
    for (int i = 0; i < clients_per_dc; ++i) {
      clients.push_back(std::make_unique<RcClient>(
          *nodes[static_cast<std::size_t>(i)]->kit, make_views(),
          client_config));
    }
  }

  std::printf("READY\n");
  std::fflush(stdout);
  if (!std::getline(std::cin, line) || line != "RUN") return 2;

  if (role == "client" && qstream) {
    // Ordered-stream batch workload: every client machine drives batch
    // epochs back-to-back. The RESULT line keeps the standard field names
    // (committed/aborted count transactions; latency fields are per-epoch)
    // so the parent's aggregation works unchanged.
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
    wl::QStreamConfig wc;
    wc.txns_per_epoch =
        static_cast<std::size_t>(args.num("txns_per_epoch", 32));
    wc.ops_per_txn = static_cast<int>(args.num("ops_per_txn", 4));
    wc.num_keys = num_keys;
    wc.value_size = value_size;
    wc.hot_keys = static_cast<std::size_t>(args.num("hot_keys", 16));
    wc.hot_fraction = args.real("hot_fraction", 0.5);
    wc.cross_partition_fraction = args.real("cross_fraction", 0.3);
    // Sized source: each pull asks the client for the next epoch's depth
    // (the adaptive controller's pick; txns_per_epoch without one).
    wl::SizedBatchWorkloadFactory factory = [wc, seed, base](int client_index) {
      auto w = std::make_shared<wl::QStreamWorkload>(
          wc, seed + static_cast<std::uint64_t>(client_index), base);
      return [w](std::size_t n) { return w->next_txns(n); };
    };
    std::vector<batch::BatchClient*> raw;
    for (auto& c : batch_clients) raw.push_back(c.get());
    const auto run = wl::run_batch_closed_loop(
        raw, my_dc * clients_per_dc, factory,
        std::chrono::milliseconds(args.num("warmup_ms", 200)),
        std::chrono::milliseconds(args.num("measure_ms", 2000)));
    // Controller counters summed over this node's clients; the parent's
    // field() parser ignores keys it doesn't know, so the extra fields are
    // compatible with old parents.
    batch::AdaptiveBatchStats astats;
    for (auto* c : raw) {
      if (c->controller() != nullptr) astats += c->controller()->stats();
    }
    std::printf(
        "RESULT committed=%llu aborted=%llu read_only=0 failed=%llu "
        "elapsed_s=%.3f mean_us=%.1f p50_us=%.1f p99_us=%.1f "
        "commit_count=%llu commit_mean_us=%.1f adaptive_epochs=%llu "
        "mode_flips=%llu probes=%llu grows=%llu shrinks=%llu "
        "epoch_size=%llu\n",
        static_cast<unsigned long long>(run.committed),
        static_cast<unsigned long long>(run.aborted),
        static_cast<unsigned long long>(run.failed), run.elapsed_s,
        run.epoch_latency.mean_us(), run.epoch_latency.percentile_us(50),
        run.epoch_latency.percentile_us(99),
        static_cast<unsigned long long>(run.commit_latency.count()),
        run.commit_latency.mean_us(),
        static_cast<unsigned long long>(astats.epochs),
        static_cast<unsigned long long>(astats.mode_flips),
        static_cast<unsigned long long>(astats.probes),
        static_cast<unsigned long long>(astats.grows),
        static_cast<unsigned long long>(astats.shrinks),
        static_cast<unsigned long long>(astats.epoch_size));
    std::fflush(stdout);
  } else if (role == "client") {
    const std::string workload = args.str("workload", "ycsbt");
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
    wl::WorkloadFactory factory;
    if (workload == "retwis") {
      wl::RetwisConfig wc;
      wc.num_keys = num_keys;
      wc.value_size = value_size;
      factory = [wc, seed](int client_index) {
        auto w = std::make_shared<wl::RetwisWorkload>(
            wc, seed + static_cast<std::uint64_t>(client_index));
        return [w] { return w->next_txn().ops; };
      };
    } else {
      wl::YcsbtConfig wc;
      wc.ops_per_txn = static_cast<int>(args.num("ops_per_txn", 5));
      wc.read_fraction = args.real("read_fraction", 0.5);
      wc.num_keys = num_keys;
      wc.value_size = value_size;
      factory = [wc, seed](int client_index) {
        auto w = std::make_shared<wl::YcsbtWorkload>(
            wc, seed + static_cast<std::uint64_t>(client_index));
        return [w] { return w->next_txn(); };
      };
    }
    std::vector<RcClient*> raw;
    for (auto& c : clients) raw.push_back(c.get());
    const auto run = wl::run_rc_closed_loop(
        raw, my_dc * clients_per_dc, factory,
        std::chrono::milliseconds(args.num("warmup_ms", 200)),
        std::chrono::milliseconds(args.num("measure_ms", 2000)));
    std::printf(
        "RESULT committed=%llu aborted=%llu read_only=%llu failed=%llu "
        "elapsed_s=%.3f mean_us=%.1f p50_us=%.1f p99_us=%.1f "
        "commit_count=%llu commit_mean_us=%.1f\n",
        static_cast<unsigned long long>(run.committed),
        static_cast<unsigned long long>(run.aborted),
        static_cast<unsigned long long>(run.read_only),
        static_cast<unsigned long long>(run.failed), run.elapsed_s,
        run.txn_latency.mean_us(), run.txn_latency.percentile_us(50),
        run.txn_latency.percentile_us(99),
        static_cast<unsigned long long>(run.commit_latency.count()),
        run.commit_latency.mean_us());
    std::fflush(stdout);
  }

  // Hold everything up until the parent releases us; servers spend the whole
  // run here answering RPCs.
  while (std::getline(std::cin, line)) {
    if (line == "QUIT") break;
  }

  // Teardown mirrors RcCluster: unwind parked speculative computations,
  // drain workers, join timers, then destroy in dependency order.
  for (auto& m : nodes) {
    if (m->spec_engine) m->spec_engine->begin_shutdown();
  }
  executor.shutdown();
  wheel.shutdown();
  batch_clients.clear();
  clients.clear();
  coordinators.clear();
  shard_servers.clear();
  nodes.clear();
  cpus.clear();
  stores.clear();
  return 0;
}

}  // namespace
}  // namespace srpc::rc

int main(int argc, char** argv) {
  srpc::rc::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    if (eq == nullptr) continue;
    args.kv.emplace(
        std::string(argv[i], static_cast<std::size_t>(eq - argv[i])),
        std::string(eq + 1));
  }
  return srpc::rc::node_main(args);
}
