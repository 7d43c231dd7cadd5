#include "chain.h"

#include <array>
#include <cstdio>
#include <semaphore>
#include <thread>

#include "common/rng.h"
#include "phase.h"
#include "rpc/wire.h"
#include "specrpc/wire.h"

namespace specbench {

using srpc::Clock;
using srpc::Flavor;
using srpc::Value;
using srpc::ValueList;

namespace {

constexpr std::uint64_t kBigSalt = 0x51;
constexpr std::uint64_t kVolatileSalt = 0xA7;

std::uint64_t fnv(const std::string& s, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ULL ^ (salt * 0x9E3779B97F4A7C15ULL);
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

bool in_share(const std::string& arg, int pct, std::uint64_t salt) {
  return pct > 0 && static_cast<int>(fnv(arg, salt) % 100) < pct;
}

}  // namespace

ChainSpec chain_tcp_spec() {
  ChainSpec s;
  s.name = "chain_tcp";
  s.tcp = true;
  s.big_pct = 10;
  s.volatile_pct = 10;
  s.last_value_predictor = true;
  s.rate = 4000;
  s.window = 512;
  return s;
}

ChainSpec chain_miss_spec() {
  ChainSpec s;
  s.name = "chain_miss";
  s.tcp = false;
  s.last_value_predictor = false;
  s.rate = 2000;
  s.window = 256;
  return s;
}

struct ChainFixture::Server {
  std::atomic<std::uint64_t> calls{0};  // drives the volatile results
};

struct TradChain {
  std::uint64_t id = 0;
  srpc::rpc::Node* node = nullptr;
  ChainFixture::Done done;
};

ChainFixture::ChainFixture(const ChainSpec& spec, Flavor flavor,
                           Tracer* tracer)
    : spec_(spec), flavor_(flavor), tracer_(tracer) {
  for (int k = 0; k < spec_.key_space; ++k) {
    char head[32];
    std::snprintf(head, sizeof(head), "a0q%d-", k);
    std::string arg = head;
    arg.resize(spec_.req_bytes, 'p');
    first_arg_.push_back(arg);
    std::string result;
    for (int hop = 0; hop < spec_.hops; ++hop) {
      result = pure_work(arg);
      if (hop + 1 < spec_.hops) arg = next_arg(result, hop + 1);
    }
    last_volatile_.push_back(in_share(arg, spec_.volatile_pct, kVolatileSalt));
    expected_.push_back(std::move(result));
  }

  const bool speculative = flavor_ == Flavor::kSpec;
  const Duration link = srpc::from_ms(spec_.link_us / 1000.0);
  if (tracer_ != nullptr) {
    TransitMatcher::Delay modeled;
    if (!spec_.tcp) modeled = [link](const Address&, const Address&) { return link; };
    matcher_ = std::make_unique<TransitMatcher>(std::move(modeled));
    ingress_ = std::make_unique<IngressLog>(
        speculative
            ? static_cast<std::uint8_t>(srpc::spec::MsgType::kRequest)
            : static_cast<std::uint8_t>(srpc::rpc::MsgType::kRequest));
    codec_ = std::make_unique<TracingCodec>(srpc::binary_codec(), *tracer_);
  }

  work_exec_ = std::make_unique<srpc::Executor>(spec_.work_threads, "bench-work");
  std::vector<srpc::Transport*> endpoints;  // servers, then clients
  const int total = spec_.servers + spec_.clients;
  if (spec_.tcp) {
    io_exec_ = std::make_unique<srpc::Executor>(spec_.io_threads, "bench-io");
    wheel_ = std::make_unique<srpc::TimerWheel>();
    for (int i = 0; i < total; ++i) {
      srpc::TcpConfig cfg;
      cfg.reactors = spec_.reactors;
      tcp_.push_back(std::make_unique<srpc::TcpTransport>(*io_exec_, cfg));
      endpoints.push_back(tcp_.back().get());
    }
  } else {
    srpc::SimConfig cfg;
    cfg.executor_threads = spec_.io_threads;
    cfg.default_delay = link;
    net_ = std::make_unique<srpc::SimNetwork>(cfg);
    for (int i = 0; i < total; ++i) {
      endpoints.push_back(&net_->add_node(
          i < spec_.servers ? "server" + std::to_string(i)
                            : "client" + std::to_string(i - spec_.servers)));
    }
  }
  if (tracer_ != nullptr) {
    for (auto& ep : endpoints) {
      traced_.push_back(std::make_unique<TracingTransport>(
          *ep, *tracer_, *matcher_, *ingress_));
      ep = traced_.back().get();
    }
  }
  const srpc::Codec* codec =
      codec_ != nullptr ? static_cast<const srpc::Codec*>(codec_.get())
                        : &srpc::binary_codec();
  const Duration timeout = std::chrono::milliseconds(spec_.call_timeout_ms);
  const Duration service = srpc::from_ms(spec_.service_ms);

  for (int s = 0; s < spec_.servers; ++s) {
    servers_.push_back(std::make_unique<Server>());
    Server* server = servers_.back().get();
    srpc::Transport& transport = *endpoints[static_cast<std::size_t>(s)];
    const Address addr = transport.address();
    server_addrs_.push_back(addr);
    if (speculative) {
      srpc::spec::SpecConfig cfg;
      cfg.codec = codec;
      cfg.call_timeout = timeout;
      auto engine = std::make_unique<srpc::spec::SpecEngine>(
          transport, *work_exec_, wheel(), cfg);
      engine->register_method(
          "work", srpc::spec::Handler([this, server, service, addr](
                                          const srpc::spec::ServerCallPtr& call) {
            exec_wait(addr, call->call_id());
            ScopedSpan span(tracer_, Kind::kHandler);
            call->finish_after(
                service, Value(work(*server, call->args().at(0).as_string())));
          }));
      spec_servers_.push_back(std::move(engine));
    } else {
      srpc::rpc::NodeConfig cfg;
      cfg.codec = codec;
      cfg.call_timeout = timeout;
      auto node = std::make_unique<srpc::rpc::Node>(transport, *work_exec_,
                                                    wheel(), cfg);
      node->register_method(
          "work", [this, server, service, addr](
                      const srpc::rpc::CallContext& ctx, ValueList args,
                      srpc::rpc::Responder responder) {
            exec_wait(addr, ctx.call_id);
            ScopedSpan span(tracer_, Kind::kHandler);
            ctx.finish_after(service, std::move(responder),
                             Value(work(*server, args.at(0).as_string())));
          });
      rpc_servers_.push_back(std::move(node));
    }
  }

  if (speculative && spec_.last_value_predictor) {
    srpc::predict::PredictorPtr predictor =
        srpc::predict::make_predictor(srpc::predict::Kind::kLastValue);
    if (tracer_ != nullptr) {
      predictor = std::make_shared<TracingPredictor>(std::move(predictor),
                                                     *tracer_);
    }
    manager_ = std::make_shared<srpc::predict::SpeculationManager>(
        std::move(predictor));
  }
  for (int c = 0; c < spec_.clients; ++c) {
    srpc::Transport& transport =
        *endpoints[static_cast<std::size_t>(spec_.servers + c)];
    if (speculative) {
      srpc::spec::SpecConfig cfg;
      cfg.codec = codec;
      cfg.call_timeout = timeout;
      if (manager_ != nullptr) manager_->install(cfg);
      spec_clients_.push_back(std::make_unique<srpc::spec::SpecEngine>(
          transport, *work_exec_, wheel(), cfg));
    } else {
      srpc::rpc::NodeConfig cfg;
      cfg.codec = codec;
      cfg.call_timeout = timeout;
      rpc_clients_.push_back(std::make_unique<srpc::rpc::Node>(
          transport, *work_exec_, wheel(), cfg));
    }
  }
}

ChainFixture::~ChainFixture() {
  // Stop the engines, drain their executor and timers, then tear down
  // engines before the transports and executors they use.
  for (auto& e : spec_servers_) e->begin_shutdown();
  for (auto& e : spec_clients_) e->begin_shutdown();
  work_exec_->shutdown();
  wheel().shutdown();
  spec_clients_.clear();
  spec_servers_.clear();
  rpc_clients_.clear();
  rpc_servers_.clear();
  traced_.clear();
  tcp_.clear();
  net_.reset();
  wheel_.reset();
  io_exec_.reset();
  work_exec_.reset();
}

srpc::TimerWheel& ChainFixture::wheel() {
  return wheel_ != nullptr ? *wheel_ : net_->wheel();
}

const Address& ChainFixture::server_for(int hop) const {
  return server_addrs_[static_cast<std::size_t>(hop % spec_.servers)];
}

std::string ChainFixture::pure_work(const std::string& arg) const {
  std::string out = arg;
  out[0] = 'R';
  if (in_share(arg, spec_.big_pct, kBigSalt)) out.resize(spec_.big_bytes, 'z');
  return out;
}

std::string ChainFixture::work(Server& server, const std::string& arg) const {
  std::string out = pure_work(arg);
  if (in_share(arg, spec_.volatile_pct, kVolatileSalt)) {
    out[0] = static_cast<char>(
        'A' + server.calls.fetch_add(1, std::memory_order_relaxed) % 7);
  }
  return out;
}

std::string ChainFixture::next_arg(const std::string& prev, int hop) const {
  std::string arg = prev.substr(0, spec_.req_bytes);
  arg.resize(spec_.req_bytes, 'p');
  arg[0] = 'a';
  arg[1] = static_cast<char>('0' + hop % 10);
  return arg;
}

std::string ChainFixture::wrong(const std::string& correct) const {
  // Byte 5 survives next_arg, so a chain that consumed a wrong prediction
  // ends with a visibly wrong value.
  std::string out = correct;
  out[5] = out[5] == 'W' ? 'V' : 'W';
  return out;
}

ValueList ChainFixture::inline_predictions(const std::string& arg) const {
  ValueList predictions;
  if (flavor_ == Flavor::kSpec && !spec_.last_value_predictor) {
    predictions.emplace_back(wrong(pure_work(arg)));
  }
  return predictions;
}

bool ChainFixture::check(std::uint64_t key, const Value& v) const {
  if (v.type() != Value::Type::kString) return false;
  const std::string& got = v.as_string();
  const std::string& want = expected_[static_cast<std::size_t>(key)];
  if (got.size() != want.size() || got.compare(1, std::string::npos, want, 1,
                                               std::string::npos) != 0) {
    return false;
  }
  return got[0] == 'R' || (last_volatile_[static_cast<std::size_t>(key)] &&
                           got[0] >= 'A' && got[0] < 'A' + 7);
}

void ChainFixture::exec_wait(const Address& addr, std::uint64_t call_id) {
  if (ingress_ == nullptr) return;
  if (auto wait = ingress_->take(addr, call_id)) {
    tracer_->sample(Sample::kExecWait, *wait);
  }
}

srpc::spec::CallbackFactory ChainFixture::factory(int hop,
                                                  std::uint64_t chain_id) {
  return [this, hop, chain_id]() -> srpc::spec::CallbackFn {
    return [this, hop, chain_id](srpc::spec::SpecContext& ctx,
                                 const Value& v) -> srpc::spec::CallbackResult {
      Tracer::set_request(chain_id);
      ScopedSpan span(tracer_, Kind::kCallback);
      if (hop + 1 >= spec_.hops) return v;
      std::string arg = next_arg(v.as_string(), hop + 1);
      ValueList predictions = inline_predictions(arg);
      ValueList args;
      args.emplace_back(std::move(arg));
      ScopedSpan issue(tracer_, Kind::kIssue);
      return ctx.call(server_for(hop + 1), "work", std::move(args),
                      std::move(predictions), factory(hop + 1, chain_id));
    };
  };
}

void ChainFixture::trad_step(std::shared_ptr<TradChain> chain, int hop,
                             std::string arg) {
  ValueList args;
  args.emplace_back(std::move(arg));
  srpc::rpc::Future::Ptr future;
  {
    ScopedSpan span(tracer_, Kind::kIssue);
    future = chain->node->call(server_for(hop), "work", std::move(args));
  }
  future->then([this, chain, hop](const srpc::rpc::Outcome& outcome) {
    if (!outcome.ok || hop + 1 >= spec_.hops) {
      chain->done(outcome);
      return;
    }
    Tracer::set_request(chain->id);
    ScopedSpan span(tracer_, Kind::kCallback);
    trad_step(chain, hop + 1, next_arg(outcome.value.as_string(), hop + 1));
  });
}

void ChainFixture::issue(std::uint64_t chain_id, std::uint64_t key, int client,
                         Done done) {
  Tracer::set_request(chain_id);
  const std::string& arg0 = first_arg_[static_cast<std::size_t>(key)];
  const auto c = static_cast<std::size_t>(client);
  try {
    if (flavor_ == Flavor::kSpec) {
      ValueList args;
      args.emplace_back(arg0);
      srpc::spec::SpecFuturePtr future;
      {
        ScopedSpan span(tracer_, Kind::kIssue);
        future = spec_clients_[c]->call(server_for(0), "work", std::move(args),
                                        inline_predictions(arg0),
                                        factory(0, chain_id));
      }
      future->then(std::move(done));
    } else {
      auto chain = std::make_shared<TradChain>();
      chain->id = chain_id;
      chain->node = rpc_clients_[c].get();
      chain->done = std::move(done);
      trad_step(std::move(chain), 0, arg0);
    }
  } catch (const std::exception& e) {
    if (done) done(srpc::rpc::Outcome::failure(e.what()));
  }
}

srpc::spec::SpecStats ChainFixture::spec_stats() const {
  srpc::spec::SpecStats total;
  for (const auto& e : spec_servers_) accumulate(total, e->stats());
  for (const auto& e : spec_clients_) accumulate(total, e->stats());
  return total;
}

srpc::predict::ManagerStats ChainFixture::manager_stats() const {
  return manager_ != nullptr ? manager_->stats()
                             : srpc::predict::ManagerStats{};
}

srpc::TrafficStats ChainFixture::traffic() const {
  if (net_ != nullptr) return net_->total_stats();
  srpc::TrafficStats total;
  for (const auto& t : tcp_) total += t->stats();
  return total;
}

std::size_t ChainFixture::queue_depth() const {
  const srpc::Executor& io = io_exec_ != nullptr ? *io_exec_ : net_->executor();
  return work_exec_->queue_depth() + io.queue_depth();
}

// ------------------------------------------------------------------ phases

namespace {

/// Measured phases are cut into windows and report window medians, so a
/// transient stall in a few windows does not move them. Open-loop windows
/// hold 1000 requests (a p99 with ten samples beyond it); closed-loop
/// phases use kWindows.
constexpr std::uint64_t kRequestsPerWindow = 1000;
constexpr int kWindows = 5;

/// Completion bookkeeping, shared with the callbacks so a late completion
/// never touches a finished phase's stack.
struct Tally {
  std::mutex mu;
  std::vector<double> lat_ms;
  std::vector<std::vector<double>> window_lat_ms;  // guarded by mu
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> wrong{0};
  std::array<std::atomic<std::uint64_t>, kWindows> counted{};  // closed loop
  TimePoint from{};
  Duration window_len{};
  std::counting_semaphore<1 << 20> slots{0};

  /// Classifies one completion; returns whether it was correct.
  bool record(const ChainFixture& fx, std::uint64_t key,
              const srpc::rpc::Outcome& outcome) {
    if (!outcome.ok) {
      errors++;
      return false;
    }
    if (!fx.check(key, outcome.value)) {
      wrong++;
      return false;
    }
    ok++;
    return true;
  }
};

/// Waits until every issued chain completed (the engines' call timeout
/// bounds this) or the deadline passed; the rest count as lost.
Outcomes drain(Tally& t, double max_s) {
  const TimePoint deadline = Clock::now() + srpc::from_ms(max_s * 1000);
  while (t.done.load() < t.issued.load() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Outcomes o;
  o.attempted = t.issued.load();
  o.ok = t.ok.load();
  o.errors = t.errors.load();
  o.wrong = t.wrong.load();
  o.lost = o.attempted - std::min(o.attempted, t.done.load());
  return o;
}

double drain_limit(const ChainSpec& spec) {
  return spec.call_timeout_ms / 1000.0 + 2.0;
}

/// Open loop at spec.rate for `seconds`; latency from each intended send.
/// Request i belongs to window i / kRequestsPerWindow.
LatencyPhase open_loop(ChainFixture& fx, const ChainSpec& spec, srpc::Rng& rng,
                       double seconds, std::uint64_t& next_id) {
  auto tally = std::make_shared<Tally>();
  const auto n = static_cast<std::uint64_t>(seconds * spec.rate);
  const std::chrono::duration<double> period(1.0 / spec.rate);
  LatencyPhase ph;
  ph.late_ms.reserve(n);
  tally->lat_ms.reserve(n);
  const std::uint64_t windows = std::max<std::uint64_t>(1, n / kRequestsPerWindow);
  tally->window_lat_ms.resize(windows);
  std::vector<double> cpu_at(windows + 1);
  const TimePoint start = Clock::now() + std::chrono::milliseconds(1);
  auto due_at = [&](std::uint64_t i) {
    return start + std::chrono::duration_cast<Duration>(
                       period * static_cast<double>(i));
  };
  std::size_t window = 0;
  cpu_at[0] = cpu_seconds();
  for (std::uint64_t i = 0; i < n; ++i) {
    const TimePoint due = due_at(i);
    std::this_thread::sleep_until(due);
    const auto w = static_cast<std::size_t>(i * windows / n);
    if (w != window) cpu_at[window = w] = cpu_seconds();
    ph.late_ms.push_back(ms_of(Clock::now() - due));
    const std::uint64_t key =
        rng.uniform(static_cast<std::uint64_t>(spec.key_space));
    tally->issued++;
    fx.issue(next_id++, key,
             static_cast<int>(i % static_cast<std::uint64_t>(spec.clients)),
             [tally, &fx, key, due, w](const srpc::rpc::Outcome& outcome) {
               const double ms = ms_of(Clock::now() - due);
               if (tally->record(fx, key, outcome)) {
                 std::lock_guard<std::mutex> lock(tally->mu);
                 tally->lat_ms.push_back(ms);
                 tally->window_lat_ms[w].push_back(ms);
               }
               tally->done++;
             });
  }
  std::this_thread::sleep_until(due_at(n));
  cpu_at[windows] = cpu_seconds();
  ph.cpu_s = cpu_at[windows] - cpu_at[0];
  ph.out = drain(*tally, drain_limit(spec));
  std::lock_guard<std::mutex> lock(tally->mu);
  ph.lat_ms = std::move(tally->lat_ms);
  for (std::size_t w = 0; w < windows; ++w) {
    LatencyPhase::Window win;
    win.lat_ms = std::move(tally->window_lat_ms[w]);
    win.ok = win.lat_ms.size();
    win.cpu_s = cpu_at[w + 1] - cpu_at[w];
    ph.windows.push_back(std::move(win));
  }
  return ph;
}

/// Closed loop with spec.window chains outstanding: correct completions per
/// second in kWindows windows after a ramp-up, appended to `run`.
void closed_loop(ChainFixture& fx, const ChainSpec& spec, srpc::Rng& rng,
                 double seconds, std::uint64_t& next_id, FlavorRun& run) {
  auto tally = std::make_shared<Tally>();
  tally->slots.release(spec.window);
  tally->from = Clock::now() + std::chrono::milliseconds(400);  // ramp up
  tally->window_len = srpc::from_ms(seconds * 1000 / kWindows);
  const TimePoint until = tally->from + tally->window_len * kWindows;
  std::uint64_t i = 0;
  while (Clock::now() < until) {
    if (!tally->slots.try_acquire_for(std::chrono::milliseconds(10))) continue;
    const std::uint64_t key =
        rng.uniform(static_cast<std::uint64_t>(spec.key_space));
    tally->issued++;
    fx.issue(next_id++, key,
             static_cast<int>(i++ % static_cast<std::uint64_t>(spec.clients)),
             [tally, &fx, key](const srpc::rpc::Outcome& outcome) {
               const TimePoint now = Clock::now();
               if (tally->record(fx, key, outcome) && now >= tally->from) {
                 const auto w = (now - tally->from) / tally->window_len;
                 if (w < kWindows) tally->counted[static_cast<std::size_t>(w)]++;
               }
               tally->done++;
               tally->slots.release();
             });
  }
  run.tput_out += drain(*tally, drain_limit(spec));
  for (const auto& c : tally->counted) {
    run.tput_n += c.load();
    run.tput_windows.push_back(static_cast<double>(c.load()) * kWindows /
                               seconds);
  }
  run.tput_per_s = median(run.tput_windows);
}

srpc::predict::ManagerStats minus(srpc::predict::ManagerStats a,
                                  const srpc::predict::ManagerStats& b) {
  a.supplier_calls -= b.supplier_calls;
  a.predictions_supplied -= b.predictions_supplied;
  return a;
}

/// Builds a fixture, recording its set-up time; with `extra_rounds`, first
/// builds and tears down that many more without traffic.
std::unique_ptr<ChainFixture> timed_fixture(const ChainSpec& spec, int f,
                                            SetupTimes& setup,
                                            int extra_rounds = 2) {
  const Flavor flavor = f == 0 ? Flavor::kSpec : Flavor::kTrad;
  for (int r = 0; r < extra_rounds; ++r) {
    const TimePoint t0 = Clock::now();
    ChainFixture fx(spec, flavor, nullptr);
    setup.secs[f].push_back(seconds_since(t0));
  }
  const TimePoint t0 = Clock::now();
  auto fx = std::make_unique<ChainFixture>(spec, flavor, nullptr);
  setup.secs[f].push_back(seconds_since(t0));
  return fx;
}

}  // namespace

WorkloadResult run_chain(const ChainSpec& spec, const RunOptions& opt) {
  WorkloadResult result;
  const Flavor flavors[] = {Flavor::kSpec, Flavor::kTrad};
  const double per_flavor = opt.seconds / 2;

  auto note = [&](const char* flavor, const Outcomes& o) {
    result.outcomes += o;
    if (o.wrong > 0) {
      result.fail(std::string(flavor) + ": " + std::to_string(o.wrong) +
                  " chains ended with a wrong value");
    }
  };

  if (!opt.trace) {
    // Each phase runs on kFixtures fresh deployments in turn, so one
    // deployment's scheduling luck cannot decide a run's figures.
    constexpr int kFixtures = 3;
    FlavorRun runs[2];
    SetupTimes setup;
    for (int f = 0; f < 2; ++f) {
      srpc::Rng rng(opt.seed);  // both flavors see the same inputs
      std::uint64_t next_id = 1;
      for (int k = 0; k < kFixtures; ++k) {
        auto fx = timed_fixture(spec, f, setup);
        note(label(flavors[f]),
             open_loop(*fx, spec, rng, spec.warmup_s, next_id).out);
        runs[f].lat.merge(open_loop(*fx, spec, rng,
                                    per_flavor * 0.6 / kFixtures, next_id));
      }
    }
    // Peak memory at the fixed offered load, before the saturation phases.
    const double rss_mb = peak_rss_mb();
    for (int f = 0; f < 2; ++f) {
      srpc::Rng rng(opt.seed + 1);
      std::uint64_t next_id = 1;
      for (int k = 0; k < kFixtures; ++k) {
        auto fx = timed_fixture(spec, f, setup);
        closed_loop(*fx, spec, rng, per_flavor * 0.4 / kFixtures, next_id,
                    runs[f]);
      }
      note(label(flavors[f]), runs[f].lat.out);
      note(label(flavors[f]), runs[f].tput_out);
      add_end_to_end(result, label(flavors[f]), runs[f]);
    }
    result.add("setup_s", setup.value(), "s", setup.rounds());
    result.add("rss_mb", rss_mb, "MB", 1);
  } else {
    TracedRun runs[2];
    for (int f = 0; f < 2; ++f) {
      const Flavor flavor = flavors[f];
      TracedRun& run = runs[f];
      srpc::Rng rng(opt.seed);
      std::uint64_t next_id = 1;
      {
        ChainFixture fx(spec, flavor, nullptr);
        note(label(flavor), open_loop(fx, spec, rng, spec.warmup_s, next_id).out);
        run.untraced = open_loop(fx, spec, rng, per_flavor / 2, next_id);
      }
      Tracer tracer;
      {
        ChainFixture fx(spec, flavor, &tracer);
        note(label(flavor), open_loop(fx, spec, rng, spec.warmup_s, next_id).out);
        tracer.reset();
        const double cpu0 = cpu_seconds();
        const auto spec0 = fx.spec_stats();
        const auto mgr0 = fx.manager_stats();
        const auto traffic0 = fx.traffic();
        GaugeMeans gauges;
        {
          Sampler sampler(std::chrono::milliseconds(5), [&] {
            gauges.add(static_cast<double>(fx.queue_depth()), 0, 0);
          });
          run.traced = open_loop(fx, spec, rng, per_flavor / 2, next_id);
        }
        run.counters.cpu_s = cpu_seconds() - cpu0;
        const auto traffic1 = fx.traffic();
        run.counters.msgs_sent = traffic1.msgs_sent - traffic0.msgs_sent;
        run.counters.wakeups = traffic1.wakeups - traffic0.wakeups;
        run.counters.spec = minus(fx.spec_stats(), spec0);
        run.counters.manager = minus(fx.manager_stats(), mgr0);
        gauges.fill(run.counters);
        if (const auto orphans = fx.matcher()->unmatched_receives()) {
          std::fprintf(stderr, "%s: %llu receives had no matching send\n",
                       label(flavor), static_cast<unsigned long long>(orphans));
        }
      }
      run.totals = tracer.collect();
      tracer.write(opt.work_dir + "/trace-" + spec.name + "-" + label(flavor) +
                   ".csv");
      note(label(flavor), run.untraced.out);
      note(label(flavor), run.traced.out);
      add_layers(result, label(flavor), run);
    }
    add_gap(result, runs[0], runs[1]);
  }

  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  result.knobs = {
      {"transport", spec.tcp ? "TcpTransport(loopback)" : "SimNetwork"},
      {"servers", std::to_string(spec.servers)},
      {"clients", std::to_string(spec.clients)},
      {"hops", std::to_string(spec.hops)},
      {"service_ms", fmt(spec.service_ms)},
      {"link_one_way_us", spec.tcp ? "n/a" : fmt(spec.link_us)},
      {"request_bytes", std::to_string(spec.req_bytes)},
      {"big_response_bytes", std::to_string(spec.big_bytes)},
      {"big_response_pct", std::to_string(spec.big_pct)},
      {"volatile_result_pct", std::to_string(spec.volatile_pct)},
      {"predictions", spec.last_value_predictor
                          ? "last-value predictor, shared by client engines"
                          : "inline, always wrong, no adaptive gate"},
      {"key_space", std::to_string(spec.key_space)},
      {"open_loop_rate_per_s", fmt(spec.rate)},
      {"closed_loop_window", std::to_string(spec.window)},
      {"generator_threads", "1"},
      {"work_executor_threads", std::to_string(spec.work_threads)},
      {"io_executor_threads", std::to_string(spec.io_threads)},
      {"reactors_per_transport", spec.tcp ? std::to_string(spec.reactors) : "n/a"},
      {"warmup_s", fmt(spec.warmup_s)},
      {"latency_phase_s", fmt(opt.trace ? per_flavor / 2 : per_flavor * 0.6)},
      {"saturation_phase_s", fmt(opt.trace ? 0 : per_flavor * 0.4)},
      {"deployments_per_phase", opt.trace ? "1" : "3"},
  };
  return result;
}

}  // namespace specbench
