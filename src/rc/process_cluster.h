// ProcessCluster — cross-process Replicated Commit harness.
//
// Forks one `rc_cluster_node` process per datacentre role (a server process
// hosting that DC's 3 shard transports + coordinator, and a client process
// hosting its client machines), exchanges real TCP addresses over the
// children's stdio pipes, barriers on readiness, runs the closed-loop
// workload in the client processes, and aggregates their RESULT lines.
// This is the first configuration where the RC evaluation crosses real
// process boundaries on the TcpTransport instead of SimNetwork.
//
// Pipe line protocol (one line per step, parent-driven):
//
//   child  -> parent : ADDRS <shard0> ... <shardN-1> <coord>      (servers)
//   child  -> parent : ADDRS -                                    (clients)
//   parent -> child  : TOPOLOGY <a(0,0)> ... <a(0,N-1)> <c(0)> <a(1,0)>...
//   child  -> parent : READY
//   parent -> child  : RUN
//   client -> parent : RESULT committed=... aborted=... failed=... mean_us=...
//   parent -> child  : QUIT
//
// Children that miss a phase deadline are SIGKILLed; a child that dies
// mid-protocol (its pipe EOFs) fails the run immediately with the child's
// exit status in the error, rather than stalling out the phase deadline.
// Teardown is otherwise cooperative (QUIT, then waitpid).
#pragma once

#include <string>
#include <vector>

#include "common/flavor.h"
#include "common/types.h"
#include "rc/server.h"

namespace srpc::rc {

struct ProcessClusterConfig {
  Flavor flavor = Flavor::kTrad;
  int num_dcs = 3;
  int num_shards = 3;
  int clients_per_dc = 4;
  /// Quorum sizes forwarded to every RcClient (shrink to 1 for the
  /// single-DC smoke configuration).
  int read_quorum = 2;
  int vote_quorum = 2;
  std::size_t num_keys = 20'000;
  std::size_t value_size = 16;
  /// >0 enables the CpuModel on every server (Figure 13 configuration).
  int server_cores = 0;
  ServerCosts costs;
  /// Multiplier on `costs` for every datacentre other than DC 0. Loopback
  /// has no WAN RTT, so the latency asymmetry the paper gets from geography
  /// (the local replica answers long before the quorum completes, §5.2) is
  /// reproduced as a service-time asymmetry: DC 0 answers fast, the DCs
  /// that complete the quorum answer slow. 1.0 = symmetric.
  double remote_cost_mult = 1.0;
  /// gRPC flavour only: GrpcSim per-message overhead.
  double grpc_overhead_us = 75.0;
  std::string workload = "ycsbt";  // "ycsbt" | "retwis" | "qstream"
  int ops_per_txn = 5;
  double read_fraction = 0.5;
  /// qstream (batch-epoch) knobs, used when workload == "qstream". The
  /// client processes then host batch::BatchClients instead of RcClients;
  /// RESULT latency fields are per-epoch rather than per-txn.
  std::string batch_mode = "speculative";  // | "group-commit" | "per-txn-2pc"
  int txns_per_epoch = 32;
  /// Adaptive batching (DESIGN.md §14) in the client processes: every batch
  /// client gets an AdaptiveBatchController sizing epochs within
  /// [min_epoch, max_epoch] and picking the commit mode online; batch_mode
  /// becomes its initial mode and txns_per_epoch its initial size.
  bool adaptive_batch = false;
  int min_epoch = 4;
  int max_epoch = 64;
  int hot_keys = 16;
  double hot_fraction = 0.5;
  double cross_fraction = 0.3;
  std::uint64_t seed = 1;
  Duration warmup = std::chrono::milliseconds(200);
  Duration measure = std::chrono::seconds(2);
  /// Path to rc_cluster_node; empty = find_node_binary().
  std::string node_binary;
  /// Per-protocol-phase deadline before children are declared hung.
  Duration phase_timeout = std::chrono::seconds(60);
};

struct ProcessClusterResult {
  bool ok = false;
  std::string error;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t read_only = 0;
  std::uint64_t failed = 0;  // transactions/epochs that threw, summed
  double elapsed_s = 0;
  double mean_txn_ms = 0;    // committed-weighted mean over client processes
  double p50_txn_ms = 0;     // committed-weighted mean of per-process p50s
  double p99_txn_ms = 0;     // max over client processes (conservative)
  double mean_commit_ms = 0;
  /// Adaptive-batching counters summed over client processes (zero when
  /// adaptive_batch is off or the node binary predates them).
  std::uint64_t adaptive_epochs = 0;
  std::uint64_t mode_flips = 0;
  std::uint64_t probes = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  double committed_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s : 0;
  }
};

class ProcessCluster {
 public:
  /// Locates the rc_cluster_node binary: $SPECRPC_CLUSTER_NODE_BIN, then
  /// candidates relative to /proc/self/exe (same directory, and the build
  /// tree's src/rc/ from tests/ or bench/). Empty string when not found —
  /// callers (tests) skip rather than fail.
  static std::string find_node_binary();

  explicit ProcessCluster(ProcessClusterConfig config);
  ~ProcessCluster();

  /// Full lifecycle: spawn, address exchange, readiness barrier, RUN,
  /// collect client RESULTs, QUIT + reap. Children are SIGKILLed on any
  /// phase timeout and the result carries `error` instead of numbers.
  ProcessClusterResult run();

 private:
  struct Child {
    pid_t pid = -1;
    int to_child = -1;    // parent writes protocol lines here
    int from_child = -1;  // parent reads protocol lines here
    std::string buf;      // partial-line accumulator
    bool is_client = false;
  };

  bool spawn(const std::vector<std::string>& kv, bool is_client,
             std::string& error);
  /// On failure `why` (when non-null) says whether the deadline expired or
  /// the child's pipe EOFed — including the dead child's exit status.
  bool read_line(Child& c, std::string& line, TimePoint deadline,
                 std::string* why = nullptr);
  bool write_line(Child& c, const std::string& line);
  /// Reaps a child that closed its pipe and formats how it went down.
  std::string child_status(Child& c);
  void kill_all();
  void reap_all(Duration grace);

  ProcessClusterConfig config_;
  std::string binary_;
  std::vector<Child> children_;
};

}  // namespace srpc::rc
