#include "phase.h"

#include <algorithm>

namespace specbench {

Sampler::Sampler(srpc::Duration period, std::function<void()> fn)
    : thread_([this, period, fn = std::move(fn)] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
          lock.unlock();
          fn();
          lock.lock();
        }
      }) {}

Sampler::~Sampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void GaugeMeans::add(double queue_depth, double locked_keys,
                     double log_backlog) {
  std::lock_guard<std::mutex> lock(mu_);
  sums_[0] += queue_depth;
  sums_[1] += locked_keys;
  sums_[2] += log_backlog;
  n_++;
}

void GaugeMeans::fill(LayerCounters& c) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double n = static_cast<double>(n_);
  c.queue_depth = ratio(sums_[0], n);
  c.locked_keys = ratio(sums_[1], n);
  c.log_backlog = ratio(sums_[2], n);
  c.gauge_samples = n_;
}

void LatencyPhase::merge(LatencyPhase&& other) {
  lat_ms.insert(lat_ms.end(), other.lat_ms.begin(), other.lat_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  out += other.out;
  cpu_s += other.cpu_s;
  for (auto& w : other.windows) windows.push_back(std::move(w));
}

const char* label(srpc::Flavor flavor) {
  return flavor == srpc::Flavor::kSpec ? "spec" : "trad";
}

void accumulate(srpc::spec::SpecStats& total, const srpc::spec::SpecStats& s) {
  total.callbacks_spawned += s.callbacks_spawned;
  total.reexecutions += s.reexecutions;
  total.predictions_made += s.predictions_made;
  total.predictions_correct += s.predictions_correct;
  total.branches_abandoned += s.branches_abandoned;
  total.state_msgs_sent += s.state_msgs_sent;
}

srpc::spec::SpecStats minus(srpc::spec::SpecStats a,
                            const srpc::spec::SpecStats& b) {
  a.callbacks_spawned -= b.callbacks_spawned;
  a.reexecutions -= b.reexecutions;
  a.predictions_made -= b.predictions_made;
  a.predictions_correct -= b.predictions_correct;
  a.branches_abandoned -= b.branches_abandoned;
  a.state_msgs_sent -= b.state_msgs_sent;
  return a;
}

void add_end_to_end(WorkloadResult& result, const std::string& f,
                    const FlavorRun& run) {
  const auto& lat = run.lat;
  std::vector<double> p50s, p99s, cpus;
  if (lat.windows.empty()) {
    p50s.push_back(percentile(lat.lat_ms, 50));
    p99s.push_back(percentile(lat.lat_ms, 99));
    cpus.push_back(ratio(lat.cpu_s * 1e6, static_cast<double>(lat.out.ok)));
  }
  for (const auto& w : lat.windows) {
    p50s.push_back(percentile(w.lat_ms, 50));
    p99s.push_back(percentile(w.lat_ms, 99));
    cpus.push_back(ratio(w.cpu_s * 1e6, static_cast<double>(w.ok)));
  }
  if (lat.whole_phase_latency) {
    p50s = {percentile(lat.lat_ms, 50)};
    p99s = {percentile(lat.lat_ms, 99)};
  }
  const auto n = static_cast<std::uint64_t>(lat.lat_ms.size());
  result.add(f + ".p50_ms", median(p50s), "ms", n);
  result.add(f + ".p99_ms", median(p99s), "ms", n);
  result.add(f + ".cpu_us_per_req", median(cpus), "us", lat.out.ok);
  result.add(f + ".tput_per_s", run.tput_per_s, "1/s", run.tput_n);
  Outcomes all = lat.out;
  all += run.tput_out;
  // ok_frac = 1 - failed_frac, where failed counts errors, timeouts,
  // refused sends, wrong results and (rc_geo) aborts.
  result.add(f + ".ok_frac",
             ratio(static_cast<double>(all.ok),
                   static_cast<double>(all.attempted)),
             "ratio", all.attempted);
}

namespace {

/// Per-request busy time of the traced layers, grouped as in add_gap.
struct LayerSplit {
  double framework = 0, serde = 0, transport = 0, app = 0, predict = 0;
  double untraced = 0, cpu = 0;
};

LayerSplit split(const TracedRun& run) {
  const auto& t = run.totals;
  const double reqs = static_cast<double>(run.traced.out.ok);
  auto us = [&](Kind k) { return ratio(t.self_us[static_cast<std::size_t>(k)], reqs); };
  LayerSplit s;
  s.framework = us(Kind::kIssue) + us(Kind::kReceive);
  s.serde = us(Kind::kEncode) + us(Kind::kDecode);
  s.transport = us(Kind::kSend);
  s.app = us(Kind::kHandler) + us(Kind::kCallback);
  s.predict = us(Kind::kPredict) + us(Kind::kLearn);
  s.cpu = ratio(run.counters.cpu_s * 1e6, reqs);
  s.untraced = s.cpu - ratio(t.busy_us(), reqs);
  return s;
}

}  // namespace

void add_gap(WorkloadResult& r, const TracedRun& spec, const TracedRun& trad) {
  const LayerSplit a = split(spec);
  const LayerSplit b = split(trad);
  const std::uint64_t n = spec.traced.out.ok;
  r.add("gap.cpu_us", a.cpu - b.cpu, "us", n, false);
  r.add("gap.framework_us", a.framework - b.framework, "us", n, false);
  r.add("gap.serde_us", a.serde - b.serde, "us", n, false);
  r.add("gap.transport_us", a.transport - b.transport, "us", n, false);
  r.add("gap.app_us", a.app - b.app, "us", n, false);
  r.add("gap.predict_us", a.predict - b.predict, "us", n, false);
  r.add("gap.common_untraced_us", a.untraced - b.untraced, "us", n, false);
  r.add("gap.p50_ms",
        percentile(spec.untraced.lat_ms, 50) - percentile(trad.untraced.lat_ms, 50),
        "ms", n, false);
}

void add_layers(WorkloadResult& r, const std::string& f,
                const TracedRun& run) {
  const Tracer::Totals& t = run.totals;
  const LayerCounters& c = run.counters;
  const LatencyPhase& ph = run.traced;
  const double reqs = static_cast<double>(ph.out.ok);
  const auto req_n = ph.out.ok;
  auto per_req = [&](Kind k) {
    return ratio(t.self_us[static_cast<std::size_t>(k)], reqs);
  };
  auto count = [&](Kind k) { return t.count[static_cast<std::size_t>(k)]; };
  auto samples = [&](Sample s) -> const std::vector<double>& {
    return t.samples[static_cast<std::size_t>(s)];
  };
  const std::string p = f + ".";

  const auto& wait = samples(Sample::kExecWait);
  r.add(p + "common.exec_wait_us", percentile(wait, 50), "us", wait.size());
  r.add(p + "common.queue_depth", c.queue_depth, "count", c.gauge_samples);
  r.add(p + "common.untraced_cpu_frac",
        std::max(0.0, 1.0 - ratio(t.busy_us(), c.cpu_s * 1e6)), "ratio",
        req_n);

  r.add(p + "serde.encode_us", per_req(Kind::kEncode), "us",
        count(Kind::kEncode));
  r.add(p + "serde.decode_us", per_req(Kind::kDecode), "us",
        count(Kind::kDecode));
  r.add(p + "serde.bytes_per_req",
        ratio(static_cast<double>(t.encoded_bytes), reqs), "B", req_n);

  const auto& transit = samples(Sample::kTransit);
  r.add(p + "transport.send_us", per_req(Kind::kSend), "us",
        count(Kind::kSend));
  r.add(p + "transport.transit_us", percentile(transit, 50), "us",
        transit.size());
  r.add(p + "transport.msgs_per_req",
        ratio(static_cast<double>(c.msgs_sent), reqs), "count", req_n);
  r.add(p + "transport.wakeups_per_msg",
        ratio(static_cast<double>(c.wakeups),
              static_cast<double>(c.msgs_sent)),
        "ratio", c.msgs_sent);
  r.add(p + "transport.refused", static_cast<double>(t.refused), "count",
        c.msgs_sent);

  const std::string engine = f == "spec" ? "specrpc." : "rpc.";
  r.add(p + engine + "issue_us", per_req(Kind::kIssue), "us",
        count(Kind::kIssue));
  r.add(p + engine + "ingress_us", per_req(Kind::kReceive), "us",
        count(Kind::kReceive));
  if (f == "spec") {
    const auto& s = c.spec;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.add(p + "specrpc.callbacks_per_req", ratio(d(s.callbacks_spawned), reqs),
          "count", req_n);
    r.add(p + "specrpc.reexec_per_req", ratio(d(s.reexecutions), reqs),
          "count", req_n);
    r.add(p + "specrpc.state_msgs_per_req", ratio(d(s.state_msgs_sent), reqs),
          "count", req_n);
    r.add(p + "specrpc.wasted_frac",
          ratio(d(s.branches_abandoned), d(s.callbacks_spawned)), "ratio",
          s.callbacks_spawned);
    r.add(p + "specrpc.hit_frac",
          ratio(d(s.predictions_correct), d(s.predictions_made)), "ratio",
          s.predictions_made);
    r.add(p + "predict.supplied_frac",
          ratio(d(c.manager.predictions_supplied), d(c.manager.supplier_calls)),
          "ratio", c.manager.supplier_calls);
    if (count(Kind::kPredict) + count(Kind::kLearn) > 0) {
      r.add(p + "predict.predict_us", per_req(Kind::kPredict), "us",
            count(Kind::kPredict), false);
      r.add(p + "predict.learn_us", per_req(Kind::kLearn), "us",
            count(Kind::kLearn), false);
    }
  }

  r.add(p + "app.handler_us", per_req(Kind::kHandler), "us",
        count(Kind::kHandler));
  if (count(Kind::kCallback) > 0) {
    r.add(p + "app.callback_us", per_req(Kind::kCallback), "us",
          count(Kind::kCallback), false);
  }

  r.add(p + "kvstore.locked_keys", c.locked_keys, "count", c.gauge_samples);
  r.add(p + "kvstore.log_backlog", c.log_backlog, "count", c.gauge_samples);
  r.add(p + "rc.abort_frac",
        ratio(static_cast<double>(ph.out.aborted),
              static_cast<double>(ph.out.attempted)),
        "ratio", ph.out.attempted);
  r.add(p + "rc.view_refreshes", static_cast<double>(c.view_refreshes),
        "count", ph.out.attempted);
  if (!c.read_phase_ms.empty()) {
    const auto& reads = samples(Sample::kServerRead);
    const auto& prepares = samples(Sample::kServerPrepare);
    r.add(p + "rc.read_phase_ms", percentile(c.read_phase_ms, 50), "ms",
          c.read_phase_ms.size(), false);
    r.add(p + "rc.commit_phase_ms", percentile(c.commit_phase_ms, 50), "ms",
          c.commit_phase_ms.size(), false);
    r.add(p + "rc.server_read_us", percentile(reads, 99), "us", reads.size(),
          false);
    r.add(p + "rc.server_prepare_us", percentile(prepares, 99), "us",
          prepares.size(), false);
  }
  if (!run.untraced.late_ms.empty()) {
    r.add(p + "workload.late_ms", percentile(run.untraced.late_ms, 99), "ms",
          run.untraced.late_ms.size(), false);
  }

  const double p50_u = percentile(run.untraced.lat_ms, 50);
  const double p50_t = percentile(ph.lat_ms, 50);
  const double cpu_u = ratio(run.untraced.cpu_s,
                             static_cast<double>(run.untraced.out.ok));
  const double cpu_t = ratio(ph.cpu_s, reqs);
  r.add(p + "trace.p50_overhead_frac", p50_u > 0 ? p50_t / p50_u - 1 : 0,
        "ratio", ph.lat_ms.size());
  r.add(p + "trace.cpu_overhead_frac", cpu_u > 0 ? cpu_t / cpu_u - 1 : 0,
        "ratio", req_n);
}

}  // namespace specbench
