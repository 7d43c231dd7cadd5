// Closed-loop benchmark driver for Replicated Commit (§5.2: "a client sends
// transactions back-to-back, and there are 16 clients in each datacentre").
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rc/cluster.h"
#include "stats/histogram.h"

namespace srpc::wl {

struct RcRunResult {
  stats::Histogram txn_latency;     // completion time of committed txns
  stats::Histogram commit_latency;  // commit phase of committed r/w txns
  stats::Histogram abort_latency;   // completion time of aborted txns
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t read_only = 0;
  /// Transactions that threw instead of deciding (e.g. no read quorum).
  std::uint64_t failed = 0;
  double elapsed_s = 0;

  double committed_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s : 0;
  }
  double abort_rate() const {
    const auto total = committed + aborted;
    return total > 0 ? static_cast<double>(aborted) /
                           static_cast<double>(total)
                     : 0;
  }
};

/// Per-client transaction source; must be safe to use from that client's
/// thread only. The int argument is the global client index.
using WorkloadFactory =
    std::function<std::function<std::vector<rc::Op>()>(int client_index)>;

/// Runs every client of `cluster` in a closed loop for warmup+measure,
/// recording only transactions that *start* inside the measurement window
/// (the paper measures the middle of each run for the same reason). A
/// transaction that throws is counted in `failed`, not retried.
RcRunResult run_rc_closed_loop(rc::RcCluster& cluster,
                               const WorkloadFactory& workload_factory,
                               Duration warmup, Duration measure);

/// Same closed loop over bare clients. A cross-process cluster node drives
/// only its local clients through this; `index_base` offsets the global
/// client index so workload streams stay distinct across processes.
RcRunResult run_rc_closed_loop(const std::vector<rc::RcClient*>& clients,
                               int index_base,
                               const WorkloadFactory& workload_factory,
                               Duration warmup, Duration measure);

// ------------------------------------------------------- batch closed loop

struct BatchRunResult {
  stats::Histogram epoch_latency;   // full epoch (plan -> decide)
  stats::Histogram commit_latency;  // batch commit round (batched modes)
  std::uint64_t committed = 0;      // transactions, not epochs
  std::uint64_t aborted = 0;
  std::uint64_t epochs = 0;
  std::uint64_t failed = 0;         // epochs that threw instead of deciding
  double elapsed_s = 0;

  double committed_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s : 0;
  }
  double abort_rate() const {
    const auto total = committed + aborted;
    return total > 0 ? static_cast<double>(aborted) /
                           static_cast<double>(total)
                     : 0;
  }
};

/// Per-client epoch source (one ordered stream per client); the int is the
/// global client index.
using BatchWorkloadFactory = std::function<
    std::function<std::vector<batch::BatchTxn>()>(int client_index)>;

/// Sized variant: the per-client source takes the epoch's transaction
/// count. The loop asks the client (BatchClient::next_epoch_size — the
/// adaptive controller's pick, or the static config size) before each
/// epoch, so epoch depth can move mid-run.
using SizedBatchWorkloadFactory = std::function<
    std::function<std::vector<batch::BatchTxn>(std::size_t)>(int client_index)>;

/// Closed loop over every batch client of `cluster` (requires
/// config.batch_clients): each client runs epochs back-to-back; only epochs
/// that *start* inside the measurement window are recorded.
BatchRunResult run_batch_closed_loop(rc::RcCluster& cluster,
                                     const BatchWorkloadFactory& factory,
                                     Duration warmup, Duration measure);
BatchRunResult run_batch_closed_loop(rc::RcCluster& cluster,
                                     const SizedBatchWorkloadFactory& factory,
                                     Duration warmup, Duration measure);

/// Same loop over bare batch clients (cross-process cluster nodes).
BatchRunResult run_batch_closed_loop(
    const std::vector<batch::BatchClient*>& clients, int index_base,
    const BatchWorkloadFactory& factory, Duration warmup, Duration measure);
BatchRunResult run_batch_closed_loop(
    const std::vector<batch::BatchClient*>& clients, int index_base,
    const SizedBatchWorkloadFactory& factory, Duration warmup,
    Duration measure);

}  // namespace srpc::wl
