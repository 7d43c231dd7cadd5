#include "rc_geo.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <thread>

#include "common/env.h"
#include "phase.h"
#include "rc/kit.h"
#include "rpc/wire.h"
#include "specrpc/wire.h"
#include "workload/retwis.h"

namespace specbench {

using srpc::Clock;
using srpc::Flavor;

struct RcFixture::Node {
  srpc::Transport* transport = nullptr;
  std::unique_ptr<TracingTransport> traced;
  std::unique_ptr<srpc::rpc::Node> rpc_node;
  std::unique_ptr<srpc::spec::SpecEngine> spec_engine;
  std::unique_ptr<srpc::rc::RpcKit> kit;
  std::unique_ptr<TracingKit> tracing_kit;
  srpc::rc::RpcKit& api() { return tracing_kit ? *tracing_kit : *kit; }
};

namespace {

srpc::GeoConfig geo_config() {
  srpc::GeoConfig geo;
  geo.scale = srpc::latency_scale();
  return geo;
}

/// Modeled one-way delay between two machines of the geo topology.
Duration one_way(const srpc::GeoConfig& geo, const Address& a,
                 const Address& b) {
  auto dc_of = [&geo](const Address& addr) {
    for (std::size_t i = 0; i < geo.dc_names.size(); ++i) {
      if (addr.rfind(geo.dc_names[i] + ".", 0) == 0) return i;
    }
    return std::size_t{0};
  };
  const std::size_t da = dc_of(a);
  const std::size_t db = dc_of(b);
  const double rtt = da == db ? geo.lan_rtt_ms : geo.dc_rtt_ms[da][db];
  return srpc::from_ms(rtt * geo.scale / 2);
}

}  // namespace

RcFixture::RcFixture(const RcSpec& spec, Flavor flavor, Tracer* tracer,
                     std::uint64_t seed, const std::string& log_dir)
    : spec_(spec), flavor_(flavor), tracer_(tracer) {
  const srpc::GeoConfig geo = geo_config();
  num_dcs_ = static_cast<int>(geo.dc_names.size());
  auto base_view = srpc::rc::ClusterView::make_static(
      num_dcs_, spec_.num_shards, spec_.num_shards);
  base_view.dc_names = geo.dc_names;

  if (tracer_ != nullptr) {
    matcher_ = std::make_unique<TransitMatcher>(
        [geo](const Address& a, const Address& b) { return one_way(geo, a, b); });
    ingress_ = std::make_unique<IngressLog>(
        flavor_ == Flavor::kSpec
            ? static_cast<std::uint8_t>(srpc::spec::MsgType::kRequest)
            : static_cast<std::uint8_t>(srpc::rpc::MsgType::kRequest));
    codec_ = std::make_unique<TracingCodec>(srpc::binary_codec(), *tracer_);
  }
  srpc::SimConfig sim;
  sim.executor_threads = spec_.sim_threads;
  sim.seed = seed;
  net_ = std::make_unique<srpc::SimNetwork>(sim);
  work_exec_ = std::make_unique<srpc::Executor>(spec_.work_threads, "rc-work");
  geo_ = std::make_unique<srpc::GeoTopology>(*net_, geo);

  for (int dc = 0; dc < num_dcs_; ++dc) {
    for (int shard = 0; shard < spec_.num_shards; ++shard) {
      Node& node = make_node(dc, "shard" + std::to_string(shard));
      auto store = std::make_unique<srpc::kv::VersionedStore>();
      for (std::uint64_t i = 0; i < spec_.num_keys; ++i) {
        char key[32];
        std::snprintf(key, sizeof(key), "k%08llu",
                      static_cast<unsigned long long>(i));
        if (base_view.shard_of(key) == shard) {
          store->load(key, std::string(spec_.value_size, 'v'), 1);
        }
      }
      log_paths_.push_back(log_dir + "/" + label(flavor_) + "." +
                           std::to_string(dc) + "." + std::to_string(shard) +
                           ".rclog");
      std::remove(log_paths_.back().c_str());
      logs_.push_back(std::make_unique<srpc::kv::TxnLog>(log_paths_.back()));
      shard_servers_.push_back(std::make_unique<srpc::rc::ShardServer>(
          node.api(), *store, std::make_shared<srpc::rc::ViewProvider>(base_view),
          dc, shard, nullptr, srpc::rc::ServerCosts{}, logs_.back().get()));
      stores_.push_back(std::move(store));
    }
    Node& coord = make_node(dc, "coord");
    coordinators_.push_back(std::make_unique<srpc::rc::Coordinator>(
        coord.api(), std::make_shared<srpc::rc::ViewProvider>(base_view), dc));
  }
  for (int dc = 0; dc < num_dcs_; ++dc) {
    for (int i = 0; i < spec_.clients_per_dc; ++i) {
      Node& node = make_node(dc, "client" + std::to_string(i));
      srpc::rc::RcClientConfig cfg;
      cfg.my_dc = dc;
      clients_.push_back(std::make_unique<srpc::rc::RcClient>(
          node.api(), std::make_shared<srpc::rc::ViewProvider>(base_view), cfg));
    }
  }
}

RcFixture::Node& RcFixture::make_node(int dc, const std::string& name) {
  auto node = std::make_unique<Node>();
  node->transport = &geo_->add_machine(dc, name);
  if (tracer_ != nullptr) {
    node->traced = std::make_unique<TracingTransport>(
        *node->transport, *tracer_, *matcher_, *ingress_);
    node->transport = node->traced.get();
  }
  const srpc::Codec* codec =
      codec_ != nullptr ? static_cast<const srpc::Codec*>(codec_.get())
                        : &srpc::binary_codec();
  const Duration timeout = std::chrono::milliseconds(spec_.call_timeout_ms);
  if (flavor_ == Flavor::kSpec) {
    srpc::spec::SpecConfig cfg;
    cfg.codec = codec;
    cfg.call_timeout = timeout;
    node->spec_engine = std::make_unique<srpc::spec::SpecEngine>(
        *node->transport, *work_exec_, net_->wheel(), cfg);
    node->kit = std::make_unique<srpc::rc::SpecKit>(*node->spec_engine);
  } else {
    srpc::rpc::NodeConfig cfg;
    cfg.codec = codec;
    cfg.call_timeout = timeout;
    node->rpc_node = std::make_unique<srpc::rpc::Node>(
        *node->transport, *work_exec_, net_->wheel(), cfg);
    node->kit = std::make_unique<srpc::rc::TradKit>(*node->rpc_node);
  }
  if (tracer_ != nullptr) {
    node->tracing_kit = std::make_unique<TracingKit>(
        *node->kit, node->rpc_node.get(), *tracer_, *ingress_);
  }
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

RcFixture::~RcFixture() {
  // Same order as RcCluster: stop engines, drain the executor, stop the
  // timers (they capture raw server pointers), then destroy.
  for (auto& node : nodes_) {
    if (node->spec_engine) node->spec_engine->begin_shutdown();
  }
  work_exec_->shutdown();
  net_->wheel().shutdown();
  clients_.clear();
  coordinators_.clear();
  shard_servers_.clear();
  nodes_.clear();
  logs_.clear();
  stores_.clear();
  geo_.reset();
  net_.reset();
  work_exec_.reset();
  for (const auto& path : log_paths_) std::remove(path.c_str());
}

srpc::rc::RcClient& RcFixture::client(int dc, int index) {
  return *clients_.at(static_cast<std::size_t>(dc * spec_.clients_per_dc + index));
}

std::size_t RcFixture::locked_keys() const {
  std::size_t total = 0;
  for (const auto& s : stores_) total += s->locked_keys();
  return total;
}

std::uint64_t RcFixture::log_backlog() const {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->appended() - log->flushed();
  return total;
}

std::size_t RcFixture::queue_depth() const {
  return work_exec_->queue_depth() + net_->executor().queue_depth();
}

srpc::spec::SpecStats RcFixture::spec_stats() const {
  srpc::spec::SpecStats total;
  for (const auto& node : nodes_) {
    if (node->spec_engine) accumulate(total, node->spec_engine->stats());
  }
  return total;
}

std::string RcFixture::divergence() const {
  if (const auto locked = locked_keys()) {
    return std::to_string(locked) + " keys still locked";
  }
  auto all = [](const std::string&) { return true; };
  for (int shard = 0; shard < spec_.num_shards; ++shard) {
    auto replica = [&](int dc) {
      auto entries =
          stores_[static_cast<std::size_t>(dc * spec_.num_shards + shard)]
              ->export_if(all);
      std::sort(entries.begin(), entries.end());
      return entries;
    };
    const auto reference = replica(0);
    for (int dc = 1; dc < num_dcs_; ++dc) {
      if (replica(dc) != reference) {
        return "shard " + std::to_string(shard) + ": DC " + std::to_string(dc) +
               " differs from DC 0";
      }
    }
  }
  return {};
}

std::string RcFixture::wait_converged(double max_s) const {
  const TimePoint deadline = Clock::now() + srpc::from_ms(max_s * 1000);
  for (;;) {
    std::string why = divergence();
    if (why.empty() || Clock::now() >= deadline) return why;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ------------------------------------------------------------------ phases

namespace {

/// Windows of the closed-loop phase (by transaction start). CPU per
/// transaction is a window median; latency percentiles cover the whole
/// phase, since the Retwis mix makes per-window percentiles jump between
/// transaction types.
constexpr int kWindows = 5;

/// One closed-loop client per DC for `seconds`; every started transaction
/// counts as attempted.
LatencyPhase closed_loop(RcFixture& fx, const RcSpec& spec,
                         std::vector<srpc::wl::RetwisWorkload>& workloads,
                         double seconds, LayerCounters* counters) {
  LatencyPhase ph;
  ph.whole_phase_latency = true;
  ph.windows.resize(kWindows);
  std::mutex mu;
  const TimePoint start = Clock::now();
  const Duration window_len = srpc::from_ms(seconds * 1000 / kWindows);
  const TimePoint until = start + window_len * kWindows;
  std::vector<std::thread> threads;
  for (int dc = 0; dc < fx.num_dcs(); ++dc) {
    for (int i = 0; i < spec.clients_per_dc; ++i) {
      threads.emplace_back([&, dc, i] {
        auto& workload =
            workloads[static_cast<std::size_t>(dc * spec.clients_per_dc + i)];
        srpc::rc::RcClient& client = fx.client(dc, i);
        Outcomes out;
        std::vector<std::pair<std::size_t, double>> lat;  // (window, ms)
        std::vector<double> read_ms, commit_ms;
        std::uint64_t refreshes = 0;
        for (TimePoint t0 = Clock::now(); t0 < until; t0 = Clock::now()) {
          const auto ops = workload.next_txn().ops;
          out.attempted++;
          srpc::rc::TxnResult txn;
          try {
            txn = client.run(ops);
          } catch (const std::exception&) {
            out.errors++;
            continue;
          }
          refreshes += static_cast<std::uint64_t>(txn.view_refreshes);
          if (!txn.committed) {
            out.aborted++;
            continue;
          }
          out.ok++;
          lat.emplace_back(static_cast<std::size_t>((t0 - start) / window_len),
                           ms_of(txn.total));
          read_ms.push_back(ms_of(txn.total - txn.commit_phase));
          if (!txn.read_only) commit_ms.push_back(ms_of(txn.commit_phase));
        }
        std::lock_guard<std::mutex> lock(mu);
        ph.out += out;
        for (const auto& [w, ms] : lat) {
          ph.lat_ms.push_back(ms);
          ph.windows[std::min<std::size_t>(w, kWindows - 1)].lat_ms.push_back(ms);
        }
        if (counters != nullptr) {
          counters->read_phase_ms.insert(counters->read_phase_ms.end(),
                                         read_ms.begin(), read_ms.end());
          counters->commit_phase_ms.insert(counters->commit_phase_ms.end(),
                                           commit_ms.begin(), commit_ms.end());
          counters->view_refreshes += refreshes;
        }
      });
    }
  }
  std::array<double, kWindows + 1> cpu_at{};
  cpu_at[0] = cpu_seconds();
  for (int w = 1; w < kWindows; ++w) {
    std::this_thread::sleep_until(start + window_len * w);
    cpu_at[static_cast<std::size_t>(w)] = cpu_seconds();
  }
  for (auto& t : threads) t.join();
  cpu_at[kWindows] = cpu_seconds();
  ph.cpu_s = cpu_at[kWindows] - cpu_at[0];
  for (std::size_t w = 0; w < kWindows; ++w) {
    ph.windows[w].ok = ph.windows[w].lat_ms.size();
    ph.windows[w].cpu_s = cpu_at[w + 1] - cpu_at[w];
  }
  return ph;
}

std::vector<srpc::wl::RetwisWorkload> make_workloads(const RcSpec& spec,
                                                     std::uint64_t seed,
                                                     int clients) {
  srpc::wl::RetwisConfig cfg;
  cfg.zipf_alpha = spec.zipf_alpha;
  cfg.num_keys = spec.num_keys;
  cfg.value_size = spec.value_size;
  std::vector<srpc::wl::RetwisWorkload> out;
  for (int c = 0; c < clients; ++c) {
    out.emplace_back(cfg, seed * 1'000'003ULL + static_cast<std::uint64_t>(c));
  }
  return out;
}

}  // namespace

WorkloadResult run_rc_geo(const RcSpec& spec, const RunOptions& opt) {
  WorkloadResult result;
  const Flavor flavors[] = {Flavor::kSpec, Flavor::kTrad};
  const int clients = 3 * spec.clients_per_dc;
  auto share = [&](Flavor f) {
    return opt.seconds * (f == Flavor::kSpec ? spec.spec_share
                                             : 1 - spec.spec_share);
  };
  auto settle = [&](Flavor f, const RcFixture& fx) {
    const std::string why = fx.wait_converged(5.0);
    if (!why.empty()) result.fail(std::string(label(f)) + ": " + why);
  };
  auto note = [&](const Outcomes& o) { result.outcomes += o; };

  if (!opt.trace) {
    SetupTimes setup;
    // Set-up rounds without traffic, spread over the run; the measured
    // deployments count too.
    auto setup_rounds = [&] {
      for (int f = 0; f < 2; ++f) {
        for (int r = 0; r < 3; ++r) {
          const TimePoint t0 = Clock::now();
          RcFixture fx(spec, flavors[f], nullptr, opt.seed, opt.work_dir);
          setup.secs[f].push_back(seconds_since(t0));
        }
      }
    };
    setup_rounds();
    for (int f = 0; f < 2; ++f) {
      auto workloads = make_workloads(spec, opt.seed, clients);
      FlavorRun run;
      {
        const TimePoint t0 = Clock::now();
        RcFixture fx(spec, flavors[f], nullptr, opt.seed, opt.work_dir);
        setup.secs[f].push_back(seconds_since(t0));
        note(closed_loop(fx, spec, workloads, spec.warmup_s, nullptr).out);
        run.lat = closed_loop(fx, spec, workloads, share(flavors[f]), nullptr);
        settle(flavors[f], fx);
      }
      run.tput_n = run.lat.out.ok;
      run.tput_per_s = static_cast<double>(run.lat.out.ok) / share(flavors[f]);
      note(run.lat.out);
      add_end_to_end(result, label(flavors[f]), run);
      setup_rounds();
    }
    result.add("setup_s", setup.value(), "s", setup.rounds());
    result.add("rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    TracedRun runs[2];
    for (int f = 0; f < 2; ++f) {
      const Flavor flavor = flavors[f];
      TracedRun& run = runs[f];
      {
        auto workloads = make_workloads(spec, opt.seed, clients);
        RcFixture fx(spec, flavor, nullptr, opt.seed, opt.work_dir);
        note(closed_loop(fx, spec, workloads, spec.warmup_s, nullptr).out);
        run.untraced = closed_loop(fx, spec, workloads, share(flavor) / 2, nullptr);
        settle(flavor, fx);
      }
      Tracer tracer;
      {
        auto workloads = make_workloads(spec, opt.seed + 1, clients);
        RcFixture fx(spec, flavor, &tracer, opt.seed, opt.work_dir);
        note(closed_loop(fx, spec, workloads, spec.warmup_s, nullptr).out);
        tracer.reset();
        const double cpu0 = cpu_seconds();
        const auto spec0 = fx.spec_stats();
        const auto traffic0 = fx.traffic();
        GaugeMeans gauges;
        {
          Sampler sampler(std::chrono::milliseconds(5), [&] {
            gauges.add(static_cast<double>(fx.queue_depth()),
                       static_cast<double>(fx.locked_keys()),
                       static_cast<double>(fx.log_backlog()));
          });
          run.traced = closed_loop(fx, spec, workloads, share(flavor) / 2,
                                   &run.counters);
        }
        run.counters.cpu_s = cpu_seconds() - cpu0;
        run.counters.msgs_sent = fx.traffic().msgs_sent - traffic0.msgs_sent;
        run.counters.spec = minus(fx.spec_stats(), spec0);
        gauges.fill(run.counters);
        settle(flavor, fx);
      }
      run.totals = tracer.collect();
      tracer.write(opt.work_dir + "/trace-rc_geo-" + label(flavor) + ".csv");
      note(run.untraced.out);
      note(run.traced.out);
      add_layers(result, label(flavor), run);
    }
    add_gap(result, runs[0], runs[1]);
  }

  char buf[64];
  auto fmt = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  result.knobs = {
      {"transport", "SimNetwork, Table 1 RTTs x SPECRPC_LAT_SCALE"},
      {"datacenters", "3"},
      {"shards_per_dc", std::to_string(spec.num_shards)},
      {"clients_per_dc", std::to_string(spec.clients_per_dc)},
      {"generator_threads", std::to_string(clients)},
      {"mix", "Retwis (Table 2)"},
      {"zipf_alpha", fmt(spec.zipf_alpha)},
      {"keys", std::to_string(spec.num_keys)},
      {"value_bytes", std::to_string(spec.value_size)},
      {"txn_log", "async TxnLog, fflush, no fsync"},
      {"work_executor_threads", std::to_string(spec.work_threads)},
      {"sim_executor_threads", std::to_string(spec.sim_threads)},
      {"warmup_s", fmt(spec.warmup_s)},
      {"spec_phase_s", fmt(share(Flavor::kSpec) / (opt.trace ? 2 : 1))},
      {"trad_phase_s", fmt(share(Flavor::kTrad) / (opt.trace ? 2 : 1))},
  };
  return result;
}

}  // namespace specbench
