// The §5.1 microbenchmark: 16 clients each issuing requests, where a request
// is a chain of dependent RPCs (default 4) to multiple servers, each RPC
// exchanging 64-byte payloads and taking 10 ms of service time. Clients
// issue 10 requests/s, and for SpecRPC predict every RPC result with a
// configurable per-RPC correct-prediction rate (the Figure 8a x-axis).
//
// Result determinism: server method "work" computes a pure function of its
// argument, so the client can construct either the exactly-correct
// prediction or a deliberately wrong one, realizing the target rate.
#pragma once

#include <string>

#include "common/flavor.h"
#include "predict/manager.h"
#include "predict/predictor.h"
#include "specrpc/engine.h"
#include "stats/histogram.h"
#include "transport/transport.h"

namespace srpc::wl {

struct MicroConfig {
  Flavor flavor = Flavor::kSpec;
  int num_clients = 16;
  int num_servers = 4;
  int rpcs_per_request = 4;
  Duration service_time = std::chrono::milliseconds(10);
  std::size_t payload_size = 64;
  double correct_rate = 1.0;         // per-RPC prediction accuracy
  /// false (default): client-side prediction (Figure 2b) — the client
  /// supplies a predicted result with each call. true: server-side
  /// prediction (Figure 2c) — the server specReturns its prediction after
  /// `server_handoff_fraction` of the service time.
  bool server_side_prediction = false;
  double server_handoff_fraction = 0.1;
  double requests_per_s = 10.0;      // per client
  Duration link_delay = std::chrono::microseconds(100);  // one-way LAN
  int executor_threads = 8;
  std::uint64_t seed = 1;

  /// Real-predictor mode (src/predict). When `kind != kNone` the oracle
  /// above (correct_rate flips) is bypassed: clients issue calls with *no*
  /// inline predictions and each client engine carries a SpeculationManager
  /// whose predictor supplies them from learned state.
  struct PredictMode {
    predict::Kind kind = predict::Kind::kNone;
    predict::PredictorConfig predictor;
    /// Use the deterministic oracle as a *predictor*: predictions still
    /// realize `correct_rate`, but flow through the supplier hook (and the
    /// adaptive gate) instead of being passed inline with each call. Lets
    /// the Figure 8a sweep add an adaptive series at a controlled accuracy.
    bool oracle = false;
    /// Gate speculation on observed accuracy instead of always speculating.
    bool adaptive = false;
    predict::AdaptiveConfig adaptive_config;
    /// >0: initial args are drawn from a per-client pool of this many keys,
    /// so predictor state recurs and can become accurate. 0 = every request
    /// uses a fresh key (predictor stays cold).
    int key_space = 0;
    /// Adversarial twist: servers mix a per-server counter into the first
    /// result byte, so the same argument yields a different result on every
    /// call — predictions learned from history are almost always wrong.
    /// Chain structure is unaffected (next_arg overwrites that byte).
    bool volatile_results = false;
    /// Servers serialize work on a busy-until timeline instead of completing
    /// all in-flight requests concurrently. Misspeculated (and re-executed)
    /// calls then queue behind real work, giving wrong speculation a cost.
    bool server_serial = false;
  };
  PredictMode predict;
};

struct MicroResult {
  stats::Histogram latency;  // request completion time
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;  // requests that threw, measure window
  double elapsed_s = 0;
  TrafficStats client_traffic;  // summed over client nodes, measure window
  TrafficStats server_traffic;
  spec::SpecStats spec;            // summed over client engines (kSpec only)
  predict::ManagerStats managers;  // summed; zeroes unless predict.kind set

  double prediction_hit_rate() const {
    const auto total = spec.predictions_correct + spec.predictions_incorrect;
    return total > 0
               ? static_cast<double>(spec.predictions_correct) /
                     static_cast<double>(total)
               : 0;
  }

  double mean_ms() const { return latency.mean_ms(); }
  double client_send_kbps() const {
    return elapsed_s > 0 ? client_traffic.bytes_sent * 8.0 / 1000.0 / elapsed_s
                         : 0;
  }
  double client_recv_kbps() const {
    return elapsed_s > 0 ? client_traffic.bytes_recv * 8.0 / 1000.0 / elapsed_s
                         : 0;
  }
  double server_send_kbps() const {
    return elapsed_s > 0 ? server_traffic.bytes_sent * 8.0 / 1000.0 / elapsed_s
                         : 0;
  }
  double server_recv_kbps() const {
    return elapsed_s > 0 ? server_traffic.bytes_recv * 8.0 / 1000.0 / elapsed_s
                         : 0;
  }
};

MicroResult run_microbench(const MicroConfig& config, Duration warmup,
                           Duration measure);

}  // namespace srpc::wl
