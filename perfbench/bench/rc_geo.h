// rc_geo: Replicated Commit over a 3-DC SimNetwork (Table 1 RTTs x the
// latency scale), driven by the Retwis mix with one closed-loop client per
// DC. The deployment is assembled from the public ShardServer /
// Coordinator / RcClient constructors (not RcCluster) so that the traced
// run can hand every server a wrapping RpcKit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/flavor.h"
#include "kvstore/store.h"
#include "kvstore/txn_log.h"
#include "measure.h"
#include "rc/client.h"
#include "rc/server.h"
#include "trace.h"
#include "transport/geo.h"
#include "transport/sim_network.h"

namespace specbench {

/// Frozen parameters of rc_geo.
struct RcSpec {
  double zipf_alpha = 0.9;
  std::uint64_t num_keys = 20'000;
  std::size_t value_size = 16;
  int num_shards = 3;
  int clients_per_dc = 1;     // one closed-loop generator thread each
  int work_threads = 8;       // engine executor
  int sim_threads = 4;        // SimNetwork delivery executor
  double warmup_s = 0.5;
  double spec_share = 0.25;   // of the run's seconds; trad commits ~3x slower
  int call_timeout_ms = 5000;
};

class RcFixture {
 public:
  /// Transaction logs go to `log_dir`/<flavor>.<dc>.<shard>.rclog and are
  /// removed on destruction.
  RcFixture(const RcSpec& spec, srpc::Flavor flavor, Tracer* tracer,
            std::uint64_t seed, const std::string& log_dir);
  ~RcFixture();
  RcFixture(const RcFixture&) = delete;
  RcFixture& operator=(const RcFixture&) = delete;

  int num_dcs() const { return num_dcs_; }
  srpc::rc::RcClient& client(int dc, int index);

  std::size_t locked_keys() const;
  std::uint64_t log_backlog() const;
  std::size_t queue_depth() const;
  srpc::spec::SpecStats spec_stats() const;
  srpc::TrafficStats traffic() const { return net_->total_stats(); }
  /// Empty if every shard's replicas hold identical (key, value, version)
  /// sets and no key is locked; else what differs.
  std::string divergence() const;
  /// Polls divergence() until it is empty or `max_s` passed.
  std::string wait_converged(double max_s) const;

 private:
  struct Node;
  Node& make_node(int dc, const std::string& name);

  RcSpec spec_;
  srpc::Flavor flavor_;
  Tracer* tracer_;
  int num_dcs_ = 0;
  std::vector<std::string> log_paths_;
  std::unique_ptr<srpc::SimNetwork> net_;
  std::unique_ptr<srpc::Executor> work_exec_;
  std::unique_ptr<srpc::GeoTopology> geo_;
  std::unique_ptr<TransitMatcher> matcher_;
  std::unique_ptr<IngressLog> ingress_;
  std::unique_ptr<TracingCodec> codec_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<srpc::kv::VersionedStore>> stores_;  // [dc][shard]
  std::vector<std::unique_ptr<srpc::kv::TxnLog>> logs_;
  std::vector<std::unique_ptr<srpc::rc::ShardServer>> shard_servers_;
  std::vector<std::unique_ptr<srpc::rc::Coordinator>> coordinators_;
  std::vector<std::unique_ptr<srpc::rc::RcClient>> clients_;
};

/// Runs both flavors of rc_geo and reports its metrics.
WorkloadResult run_rc_geo(const RcSpec& spec, const RunOptions& opt);

}  // namespace specbench
