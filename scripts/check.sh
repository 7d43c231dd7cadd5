#!/usr/bin/env bash
# Tier-1 gate: (1) the full test suite under AddressSanitizer+UBSan, then
# (2) a bounded chaos soak (fault-injecting network + retry layer) under
# ThreadSanitizer, which exercises the timer/transport/engine lifecycle
# races ASan cannot see. Usage: scripts/check.sh [extra ctest args]
#
# For deeper data-race hunting on the executor/network hot paths, build the
# full tsan preset:
#   cmake --preset tsan && cmake --build --preset tsan -j && ctest --preset tsan
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ASAN_OPTIONS=detect_leaks=0 ctest --preset asan -j"$(nproc)" "$@"

# A flaky test counts as a bug: this one used to hang ("spec call timed
# out") in a few of every 30 fresh processes while read-chain tails parked
# work threads, which in-process --gtest_repeat never showed. Ten fresh
# processes keep it honest.
for _ in $(seq 10); do
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/test_batch_adaptive \
    --gtest_filter='BatchAdaptiveCluster.SerialReplayEqualityAcrossModeSwitches'
done

# The repository benchmark's own wrapper tests (perfbench/, a separate
# Release CMake project over ../src): traced and untraced chains and RC
# transactions must stay byte-identical.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j"$(nproc)" --target specbench_tests
./build-perfbench/specbench_tests

# Bounded TSan chaos pass: a handful of transactions per client keeps the
# whole pass within ~2 minutes while still driving retries, duplicate
# replies, and flapping links through every engine flavour. The predict
# subset covers the concurrent predict/learn paths and the adaptive gate's
# storm/heal loop (supplier + observer hooks firing from engine threads).
# The engine-shard suite storms the sharded call tables, per-tree locks,
# and stat snapshots (DESIGN.md §6.4) with 8 client threads.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target test_executor_stress test_transport test_chaos_soak test_predict \
  test_engine_shard test_overload test_batch test_batch_adaptive \
  test_reconfig rc_cluster_node
./build-tsan/tests/test_executor_stress
./build-tsan/tests/test_transport --gtest_filter='SimNetworkFaults.*'
# The real-TCP reactor suite under TSan: reactor sharding, wake coalescing,
# backpressure park/release, simultaneous-connect dedup, and the
# cross-process smoke (the TSan-built rc_cluster_node is pointed at
# explicitly so the children run instrumented too). DESIGN.md §10.
SPECRPC_CLUSTER_NODE_BIN=./build-tsan/src/rc/rc_cluster_node \
  ./build-tsan/tests/test_transport \
  --gtest_filter='TcpTransport.*:ProcessCluster.*'
./build-tsan/tests/test_predict \
  --gtest_filter='Predictors.ConcurrentPredictLearnStress:PredictEngineTest.*'
SPECRPC_CHAOS_TXNS=10 ./build-tsan/tests/test_chaos_soak
./build-tsan/tests/test_engine_shard
# Overload protection (DESIGN.md §11): the admission controller's admit()
# fast path + try_lock poll + tick() under an 8-thread storm, and the
# budget's exactly-once token accounting under the engine call paths.
./build-tsan/tests/test_overload
# Batch transactions (DESIGN.md §12): the full suite under TSan — the
# multi-shard batch storm drives 6 concurrent clients' speculative read
# chains, seed-store puts from engine threads, batch-id lock ownership,
# and the gauge's cross-thread accounting.
./build-tsan/tests/test_batch
# Adaptive batching (DESIGN.md §14): controller gate/climber units plus the
# multi-client phase-shift storm under TSan — controller next()/observe()
# from client threads, mid-run epoch resizing through the sized workload
# source, and seed poisoning racing the prediction manager's learn path.
./build-tsan/tests/test_batch_adaptive
# Live reconfiguration (DESIGN.md §13): the full suite under TSan — view
# installs racing closed-loop traffic, wrong-epoch NACK refresh from client
# threads, warming/pull state transfer, and the provider's epoch-monotone
# install under concurrent readers. The chaos epoch-flip variant (migrations
# mid-2PC under drop/dup/flap) already runs in the bounded chaos pass above.
./build-tsan/tests/test_reconfig

# Engine-scale smoke (reuses the asan build): sanity-check that the sharded
# engine beats the single-domain baseline at 8 client threads and that the
# bench's shutdown path is leak-free. Sanitizer overhead mutes the ratio —
# the ≥3× acceptance number (EXPERIMENTS.md) is for the release build. Run
# from the build tree so the sanitized single point doesn't clobber the
# committed release sweep in BENCH_engine.json.
cmake --build --preset asan -j"$(nproc)" --target perf_engine_scale perf_tcp
(cd build-asan && SPECRPC_ENGINE_SCALE_SECS=0.5 \
  SPECRPC_ENGINE_SCALE_THREADS=8 ./bench/perf_engine_scale)

# TCP transport smoke under ASan: short echo/pipeline A/B against the frozen
# baseline plus the 2-process cluster smoke inside the test suite above;
# the full fig9/fig13 cross-process points are release-build only (the
# cluster children would inherit sanitizer slowdowns and distort the
# orderings), so they are skipped here. Run from the build tree so the
# instrumented BENCH_tcp.json doesn't clobber the release one at the root.
(cd build-asan && SPECRPC_TCP_SECONDS=0.3 SPECRPC_TCP_SKIP_CLUSTER=1 \
  ./bench/perf_tcp)

# Overload-ramp smoke under ASan: tiny windows, low offered load — checks
# the budget/admission/shed paths and the bench's open-loop shutdown drain
# for leaks and lifetime bugs. The goodput acceptance numbers
# (EXPERIMENTS.md) are for the release build; the JSON here is noise.
cmake --build --preset asan -j"$(nproc)" --target perf_overload
(cd build-asan && SPECRPC_OVERLOAD_SECS=0.2 SPECRPC_OVERLOAD_FRACS=0.5,2 \
  SPECRPC_OVERLOAD_THREADS=4 ./bench/perf_overload)

# Adaptive-speculation smoke under ASan (DESIGN.md §8.3): the only bench
# that drives the adaptive speculation gate through the engine's
# supplier/observer hooks. The windows are the shortest in which the
# adversarial workload's gate still closes (its gate_suppressed column is
# nonzero; with 0.5 s windows it never does); checks the gate, tracker and
# manager paths and the bench's shutdown drain for leaks and lifetime bugs.
# The acceptance ratios (EXPERIMENTS.md) are release-build only. Run from
# the build tree so the instrumented BENCH_predict.json doesn't clobber the
# release one at the root.
cmake --build --preset asan -j"$(nproc)" --target perf_predict
(cd build-asan && SPECRPC_PREDICT_WARMUP_S=1.5 SPECRPC_PREDICT_MEASURE_S=1 \
  ./bench/perf_predict)

# Batch-transactions smoke under ASan (DESIGN.md §12): tiny windows, one
# conflict point, process phase skipped (sanitized children would distort
# nothing useful here) — checks the planner/executor/group-commit paths
# and the epoch shutdown drain for leaks. The 1.5x acceptance number
# (EXPERIMENTS.md) is release-build only.
cmake --build --preset asan -j"$(nproc)" --target perf_batch
(cd build-asan && SPECRPC_BENCH_WARMUP_S=0.1 SPECRPC_BENCH_MEASURE_S=0.3 \
  SPECRPC_BATCH_HOTFRACS=0.5 SPECRPC_BATCH_SKIP_PROCESS=1 \
  SPECRPC_BATCH_NUM_KEYS=2000 ./bench/perf_batch)

# Adaptive-batching smoke under ASan (DESIGN.md §14): tiny windows over the
# low->high->low conflict schedule — drives the controller's regime reflex,
# probing, and mode gates across all four configs and checks the sized
# closed loop's shutdown drain for leaks. The within-10%/1.3x acceptance
# bars (EXPERIMENTS.md) are release-build only; the JSON here is noise.
cmake --build --preset asan -j"$(nproc)" --target perf_batch_adaptive
(cd build-asan && SPECRPC_BENCH_WARMUP_S=0.1 SPECRPC_BENCH_MEASURE_S=0.3 \
  ./bench/perf_batch_adaptive)

# Reconfiguration smoke under ASan (DESIGN.md §13): tiny windows — drives a
# live slot migration (view install broadcast, wrong-epoch NACK refresh,
# warming/pull state transfer) under closed-loop traffic and checks the
# counter audit (zero lost committed writes) for leaks and lifetime bugs.
# The ≥90% recovered-throughput acceptance (EXPERIMENTS.md) is
# release-build only; the sanitized ratios are noise.
cmake --build --preset asan -j"$(nproc)" --target perf_reconfig
(cd build-asan && SPECRPC_BENCH_WARMUP_S=0.1 SPECRPC_RECONFIG_STEADY_S=0.3 \
  SPECRPC_RECONFIG_POST_S=0.3 ./bench/perf_reconfig)
