#include "trace.h"

#include <cstdio>

#include "rc/common.h"
#include "serde/io.h"

namespace specbench {
namespace {

std::atomic<std::uint64_t> g_next_gen{1};
std::atomic<std::uint64_t> g_next_tracer{1};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          srpc::Clock::now().time_since_epoch())
          .count());
}

double us_since(TimePoint t) {
  return std::chrono::duration<double, std::micro>(srpc::Clock::now() - t)
      .count();
}

thread_local std::uint64_t tl_request = 0;

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kEncode: return "serde.encode";
    case Kind::kDecode: return "serde.decode";
    case Kind::kSend: return "transport.send";
    case Kind::kReceive: return "ingress";
    case Kind::kIssue: return "issue";
    case Kind::kPredict: return "predict.predict";
    case Kind::kLearn: return "predict.learn";
    case Kind::kHandler: return "app.handler";
    case Kind::kCallback: return "app.callback";
    case Kind::kCount: break;
  }
  return "?";
}

// ------------------------------------------------------------------ Tracer

struct Tracer::Block {
  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t request = 0;
    std::int64_t parent = -1;
    Kind kind = Kind::kCount;
  };
  struct Open {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t index;  // row in `spans`, -1 when not kept
    Kind kind;
  };
  std::uint64_t gen = 0;
  std::size_t tid = 0;
  std::vector<Span> spans;
  std::vector<Open> stack;
  std::array<std::uint64_t, kNumKinds> self_ns{};
  std::array<std::uint64_t, kNumKinds> count{};
  std::array<std::vector<double>, kNumSamples> samples;
  std::uint64_t refused = 0;
  std::uint64_t encoded = 0;
};

namespace {
// The calling thread's block for the tracer whose generation it last saw.
thread_local void* tl_block = nullptr;
thread_local std::uint64_t tl_gen = 0;
thread_local std::uint64_t tl_tracer = 0;
}  // namespace

Tracer::Tracer()
    : id_(g_next_tracer.fetch_add(1)),
      gen_(g_next_gen.fetch_add(1)) {}

Tracer::~Tracer() = default;

void Tracer::reset() { gen_.store(g_next_gen.fetch_add(1)); }

void Tracer::set_request(std::uint64_t id) { tl_request = id; }

Tracer::Block& Tracer::block() {
  const std::uint64_t gen = gen_.load(std::memory_order_acquire);
  if (tl_tracer != id_ || tl_gen != gen || tl_block == nullptr) {
    auto fresh = std::make_unique<Block>();
    fresh->gen = gen;
    fresh->spans.reserve(kSpansPerThread);
    std::lock_guard<std::mutex> lock(mu_);
    fresh->tid = blocks_.size();
    tl_block = fresh.get();
    tl_gen = gen;
    tl_tracer = id_;
    blocks_.push_back(std::move(fresh));
  }
  return *static_cast<Block*>(tl_block);
}

void Tracer::begin(Kind kind) {
  Block& b = block();
  std::int64_t index = -1;
  if (b.spans.size() < kSpansPerThread) {
    index = static_cast<std::int64_t>(b.spans.size());
    Block::Span span;
    span.request = tl_request;
    span.kind = kind;
    span.parent = b.stack.empty() ? -1 : b.stack.back().index;
    b.spans.push_back(span);
  }
  b.stack.push_back(Block::Open{now_ns(), 0, index, kind});
}

void Tracer::end() {
  const std::uint64_t t = now_ns();
  Block& b = block();
  // Empty after a reset() that replaced this thread's block mid-span.
  if (b.stack.empty()) return;
  const Block::Open open = b.stack.back();
  b.stack.pop_back();
  const std::uint64_t dur = t - open.start_ns;
  const std::uint64_t self = dur > open.child_ns ? dur - open.child_ns : 0;
  if (!b.stack.empty()) b.stack.back().child_ns += dur;
  const auto k = static_cast<std::size_t>(open.kind);
  b.self_ns[k] += self;
  b.count[k]++;
  if (open.index >= 0) {
    auto& span = b.spans[static_cast<std::size_t>(open.index)];
    span.start_ns = open.start_ns;
    span.end_ns = t;
  }
}

void Tracer::sample(Sample s, double value_us) {
  block().samples[static_cast<std::size_t>(s)].push_back(value_us);
}

void Tracer::count_refused() { block().refused++; }

void Tracer::add_encoded(std::size_t bytes) { block().encoded += bytes; }

double Tracer::Totals::busy_us() const {
  double total = 0;
  for (double v : self_us) total += v;
  return total;
}

Tracer::Totals Tracer::collect() const {
  Totals totals;
  const std::uint64_t gen = gen_.load();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : blocks_) {
    if (b->gen != gen) continue;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      totals.self_us[k] += static_cast<double>(b->self_ns[k]) / 1e3;
      totals.count[k] += b->count[k];
    }
    for (std::size_t s = 0; s < kNumSamples; ++s) {
      totals.samples[s].insert(totals.samples[s].end(), b->samples[s].begin(),
                               b->samples[s].end());
    }
    totals.refused += b->refused;
    totals.encoded_bytes += b->encoded;
  }
  return totals;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "tid,kind,start_ns,end_ns,parent,request\n");
  const std::uint64_t gen = gen_.load();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : blocks_) {
    if (b->gen != gen) continue;
    for (const auto& s : b->spans) {
      if (s.end_ns == 0) continue;  // still open when the phase ended
      std::fprintf(f, "%zu,%s,%llu,%llu,%lld,%llu\n", b->tid,
                   kind_name(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------- TransitMatcher

TransitMatcher::TransitMatcher(Delay modeled) : modeled_(std::move(modeled)) {}

TransitMatcher::Shard& TransitMatcher::shard_of(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::uint64_t TransitMatcher::on_send(const Address& src, const Address& dst) {
  const std::string key = src + '\n' + dst;
  const std::uint64_t ticket = next_ticket_.fetch_add(1);
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.pairs[key].push_back(Pending{ticket, srpc::Clock::now()});
  }
  sent_.fetch_add(1);
  return ticket;
}

void TransitMatcher::cancel(const Address& src, const Address& dst,
                            std::uint64_t ticket) {
  const std::string key = src + '\n' + dst;
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& q = shard.pairs[key];
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (it->ticket == ticket) {
      q.erase(it);
      sent_.fetch_sub(1);
      return;
    }
  }
}

std::optional<double> TransitMatcher::on_receive(const Address& src,
                                                 const Address& dst) {
  const TimePoint now = srpc::Clock::now();
  const std::string key = src + '\n' + dst;
  Shard& shard = shard_of(key);
  TimePoint sent_at;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.pairs.find(key);
    if (it == shard.pairs.end() || it->second.empty()) {
      orphans_.fetch_add(1);
      return std::nullopt;
    }
    sent_at = it->second.front().at;
    it->second.pop_front();
  }
  matched_.fetch_add(1);
  Duration transit = now - sent_at;
  if (modeled_) transit -= modeled_(src, dst);
  return std::chrono::duration<double, std::micro>(transit).count();
}

std::size_t TransitMatcher::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, q] : shard.pairs) total += q.size();
  }
  return total;
}

// -------------------------------------------------------------- IngressLog

namespace {
std::string ingress_key(const Address& dst, std::uint64_t call_id) {
  std::string key = dst;
  key.push_back('#');
  key += std::to_string(call_id);
  return key;
}
}  // namespace

void IngressLog::on_frame(const Address& dst, const Bytes& frame) {
  // Both wire formats start with u8 type, u64 call id (little endian).
  if (frame.size() < 9 || frame[0] != type_) return;
  srpc::Reader reader(frame);
  reader.u8();
  const std::uint64_t call_id = reader.u64();
  const TimePoint now = srpc::Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  seen_[ingress_key(dst, call_id)] = now;
}

std::optional<double> IngressLog::take(const Address& dst,
                                       std::uint64_t call_id) {
  TimePoint at;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = seen_.find(ingress_key(dst, call_id));
    if (it == seen_.end()) return std::nullopt;
    at = it->second;
    seen_.erase(it);
  }
  return us_since(at);
}

// ---------------------------------------------------------------- wrappers

void TracingCodec::encode(const srpc::Value& v, Bytes& out) const {
  const std::size_t before = out.size();
  {
    ScopedSpan span(&tracer_, Kind::kEncode);
    inner_.encode(v, out);
  }
  tracer_.add_encoded(out.size() - before);
}

srpc::Value TracingCodec::decode(srpc::Reader& in) const {
  ScopedSpan span(&tracer_, Kind::kDecode);
  return inner_.decode(in);
}

bool TracingTransport::send(const Address& dst, Bytes payload) {
  // Registered before the send: the receive can beat send()'s return.
  const std::uint64_t ticket = matcher_.on_send(address(), dst);
  bool ok;
  {
    ScopedSpan span(&tracer_, Kind::kSend);
    ok = inner_.send(dst, std::move(payload));
  }
  if (!ok) {
    matcher_.cancel(address(), dst, ticket);
    tracer_.count_refused();
  }
  return ok;
}

void TracingTransport::set_receiver(Receiver receiver) {
  if (!receiver) {
    inner_.set_receiver(nullptr);
    return;
  }
  inner_.set_receiver([this, receiver = std::move(receiver)](
                          const Address& src, Bytes payload) {
    if (auto transit = matcher_.on_receive(src, address())) {
      tracer_.sample(Sample::kTransit, *transit);
    }
    ingress_.on_frame(address(), payload);
    ScopedSpan span(&tracer_, Kind::kReceive);
    receiver(src, std::move(payload));
  });
}

srpc::ValueList TracingPredictor::predict(const std::string& method,
                                          const srpc::ValueList& args) {
  ScopedSpan span(&tracer_, Kind::kPredict);
  return inner_->predict(method, args);
}

void TracingPredictor::learn(const std::string& method,
                             const srpc::ValueList& args,
                             const srpc::Value& actual) {
  ScopedSpan span(&tracer_, Kind::kLearn);
  inner_->learn(method, args, actual);
}

void TracingKit::invoke(const std::string& name,
                        const srpc::rc::AsyncHandler& handler,
                        std::uint64_t call_id, srpc::ValueList args,
                        std::function<void(srpc::rc::Outcome)> respond) {
  if (auto wait = ingress_.take(address(), call_id)) {
    tracer_.sample(Sample::kExecWait, *wait);
  }
  std::optional<Sample> timed;
  if (name == srpc::rc::kRead) timed = Sample::kServerRead;
  if (name == srpc::rc::kPrepare) timed = Sample::kServerPrepare;
  if (timed) {
    respond = [this, s = *timed, t0 = srpc::Clock::now(),
               respond = std::move(respond)](srpc::rc::Outcome outcome) {
      tracer_.sample(s, us_since(t0));
      respond(std::move(outcome));
    };
  }
  ScopedSpan span(&tracer_, Kind::kHandler);
  handler(std::move(args), std::move(respond));
}

void TracingKit::register_handler(const std::string& name,
                                  srpc::rc::AsyncHandler handler) {
  if (srpc::spec::SpecEngine* engine = inner_.spec_engine()) {
    engine->register_method(
        name, srpc::spec::Handler([this, name, handler](
                                      const srpc::spec::ServerCallPtr& call) {
          invoke(name, handler, call->call_id(), call->args(),
                 [call](srpc::rc::Outcome outcome) {
                   if (outcome.ok) {
                     call->finish(std::move(outcome.value));
                   } else {
                     call->fail(outcome.error);
                   }
                 });
        }));
    return;
  }
  node_->register_method(
      name, [this, name, handler](const srpc::rpc::CallContext& ctx,
                                  srpc::ValueList args,
                                  srpc::rpc::Responder responder) {
        auto shared =
            std::make_shared<srpc::rpc::Responder>(std::move(responder));
        invoke(name, handler, ctx.call_id, std::move(args),
               [shared](srpc::rc::Outcome outcome) {
                 if (outcome.ok) {
                   shared->finish(std::move(outcome.value));
                 } else {
                   shared->fail(outcome.error);
                 }
               });
      });
}

srpc::rc::FuturePtr TracingKit::call(const Address& dst,
                                     const std::string& method,
                                     srpc::ValueList args) {
  ScopedSpan span(&tracer_, Kind::kIssue);
  return inner_.call(dst, method, std::move(args));
}

}  // namespace specbench
