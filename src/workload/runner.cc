#include "workload/runner.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace srpc::wl {

RcRunResult run_rc_closed_loop(rc::RcCluster& cluster,
                               const WorkloadFactory& workload_factory,
                               Duration warmup, Duration measure) {
  std::vector<rc::RcClient*> clients;
  const int per_dc = cluster.clients_per_dc();
  for (int dc = 0; dc < cluster.num_dcs(); ++dc)
    for (int i = 0; i < per_dc; ++i) clients.push_back(&cluster.client(dc, i));
  return run_rc_closed_loop(clients, 0, workload_factory, warmup, measure);
}

RcRunResult run_rc_closed_loop(const std::vector<rc::RcClient*>& clients,
                               int index_base,
                               const WorkloadFactory& workload_factory,
                               Duration warmup, Duration measure) {
  RcRunResult result;
  std::mutex result_mu;
  const TimePoint start = Clock::now();
  const TimePoint measure_from = start + warmup;
  const TimePoint measure_until = measure_from + measure;

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const int global_index = index_base + static_cast<int>(c);
    threads.emplace_back([&, c, global_index] {
        auto next_txn = workload_factory(global_index);
        rc::RcClient& client = *clients[c];
        while (Clock::now() < measure_until) {
          const TimePoint t0 = Clock::now();
          rc::TxnResult txn;
          bool failed = false;
          try {
            txn = client.run(next_txn());
          } catch (const std::exception& e) {
            SRPC_LOG(WARN) << "txn failed: " << e.what();
            failed = true;
          }
          if (t0 < measure_from || t0 >= measure_until) continue;
          std::lock_guard<std::mutex> lock(result_mu);
          if (failed) {
            result.failed++;
          } else if (txn.committed) {
            result.committed++;
            if (txn.read_only) result.read_only++;
            result.txn_latency.record(txn.total);
            if (!txn.read_only) result.commit_latency.record(txn.commit_phase);
          } else {
            result.aborted++;
            result.abort_latency.record(txn.total);
          }
        }
    });
  }
  for (auto& t : threads) t.join();
  result.elapsed_s = std::chrono::duration<double>(measure).count();
  return result;
}

BatchRunResult run_batch_closed_loop(rc::RcCluster& cluster,
                                     const BatchWorkloadFactory& factory,
                                     Duration warmup, Duration measure) {
  std::vector<batch::BatchClient*> clients;
  const int per_dc = cluster.clients_per_dc();
  for (int dc = 0; dc < cluster.num_dcs(); ++dc)
    for (int i = 0; i < per_dc; ++i)
      clients.push_back(&cluster.batch_client(dc, i));
  return run_batch_closed_loop(clients, 0, factory, warmup, measure);
}

BatchRunResult run_batch_closed_loop(rc::RcCluster& cluster,
                                     const SizedBatchWorkloadFactory& factory,
                                     Duration warmup, Duration measure) {
  std::vector<batch::BatchClient*> clients;
  const int per_dc = cluster.clients_per_dc();
  for (int dc = 0; dc < cluster.num_dcs(); ++dc)
    for (int i = 0; i < per_dc; ++i)
      clients.push_back(&cluster.batch_client(dc, i));
  return run_batch_closed_loop(clients, 0, factory, warmup, measure);
}

BatchRunResult run_batch_closed_loop(
    const std::vector<batch::BatchClient*>& clients, int index_base,
    const SizedBatchWorkloadFactory& factory, Duration warmup,
    Duration measure) {
  // Adapt the sized source onto the plain loop: each pull first asks the
  // client how deep the next epoch should be (the adaptive controller's
  // decision is cached until run_epoch consumes it, so size and mode stay
  // one decision).
  BatchWorkloadFactory adapted = [&factory, &clients,
                                  index_base](int client_index) {
    auto sized = factory(client_index);
    batch::BatchClient* client =
        clients[static_cast<std::size_t>(client_index - index_base)];
    return [sized = std::move(sized), client]() {
      return sized(client->next_epoch_size());
    };
  };
  return run_batch_closed_loop(clients, index_base, adapted, warmup, measure);
}

BatchRunResult run_batch_closed_loop(
    const std::vector<batch::BatchClient*>& clients, int index_base,
    const BatchWorkloadFactory& factory, Duration warmup, Duration measure) {
  BatchRunResult result;
  std::mutex result_mu;
  const TimePoint start = Clock::now();
  const TimePoint measure_from = start + warmup;
  const TimePoint measure_until = measure_from + measure;

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const int global_index = index_base + static_cast<int>(c);
    threads.emplace_back([&, c, global_index] {
      auto next_epoch = factory(global_index);
      batch::BatchClient& client = *clients[c];
      while (Clock::now() < measure_until) {
        const TimePoint t0 = Clock::now();
        batch::EpochResult epoch;
        bool failed = false;
        try {
          epoch = client.run_epoch(next_epoch());
        } catch (const std::exception& e) {
          SRPC_LOG(WARN) << "batch epoch failed: " << e.what();
          failed = true;
        }
        if (t0 < measure_from || t0 >= measure_until) continue;
        std::lock_guard<std::mutex> lock(result_mu);
        if (failed) {
          result.failed++;
          continue;
        }
        result.epochs++;
        result.committed += epoch.committed;
        result.aborted += epoch.aborted;
        result.epoch_latency.record(epoch.total);
        if (epoch.mode != batch::BatchMode::kPerTxn2pc) {
          result.commit_latency.record(epoch.commit_phase);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.elapsed_s = std::chrono::duration<double>(measure).count();
  return result;
}

}  // namespace srpc::wl
