// Out-of-band tracing for the benchmark's traced run.
//
// Every layer is observed from outside, through its public interface: the
// wrappers below forward each call to the real Codec / Transport /
// Predictor / RpcKit and record a span around it. Spans are kept in
// per-thread memory (name, start, end, parent, request id), folded into
// per-kind self times as they close, and written out once the phase ends.
// A span's self time is its duration minus the time covered by its child
// spans on the same thread.
//
// Untraced runs install none of this: the engines get the real components.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "predict/predictor.h"
#include "rc/kit.h"
#include "serde/codec.h"
#include "transport/transport.h"

namespace specbench {

using srpc::Address;
using srpc::Bytes;
using srpc::Duration;
using srpc::TimePoint;

/// One span kind per wrapped layer boundary.
enum class Kind : std::uint8_t {
  kEncode,    // serde: Codec::encode
  kDecode,    // serde: Codec::decode
  kSend,      // transport: Transport::send
  kReceive,   // rpc / specrpc ingress: the engine's transport receiver
  kIssue,     // rpc / specrpc: Node::call, SpecEngine::call, RpcKit::call
  kPredict,   // predict: Predictor::predict
  kLearn,     // predict: Predictor::learn
  kHandler,   // app: server handler bodies (the RC servers on rc_geo)
  kCallback,  // app: callback / continuation bodies
  kCount
};
inline constexpr std::size_t kNumKinds = static_cast<std::size_t>(Kind::kCount);
const char* kind_name(Kind kind);

/// Per-event latencies (not spans), in microseconds.
enum class Sample : std::uint8_t {
  kExecWait,       // request ingress -> handler start, matched on call id
  kTransit,        // send -> receive, minus the modeled link delay
  kServerRead,     // rc.read invocation -> respond
  kServerPrepare,  // rc.prepare invocation -> respond
  kCount
};
inline constexpr std::size_t kNumSamples =
    static_cast<std::size_t>(Sample::kCount);

class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Discards everything recorded so far (warm-up). Spans still open on
  /// some thread when this runs are dropped when they close.
  void reset();

  void begin(Kind kind);
  void end();
  void sample(Sample s, double value_us);
  void count_refused();
  void add_encoded(std::size_t bytes);

  /// Request id stamped on spans the calling thread opens.
  static void set_request(std::uint64_t id);

  struct Totals {
    std::array<double, kNumKinds> self_us{};
    std::array<std::uint64_t, kNumKinds> count{};
    std::array<std::vector<double>, kNumSamples> samples;
    std::uint64_t refused = 0;
    std::uint64_t encoded_bytes = 0;
    double busy_us() const;
  };
  /// Sums every thread's block. Call only once the traced threads stopped.
  Totals collect() const;

  /// Writes the kept spans as CSV: tid,kind,start_ns,end_ns,parent,request.
  /// `parent` is the row index of the enclosing span on the same thread
  /// (-1 for none). Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Block;
  Block& block();

  /// Raw spans kept per thread for the trace file; aggregation covers
  /// every span regardless.
  static constexpr std::size_t kSpansPerThread = 8192;

  const std::uint64_t id_;
  std::atomic<std::uint64_t> gen_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Block>> blocks_;  // stale blocks kept alive
};

/// RAII span; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Kind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Pairs each message's send with its receive, FIFO per (src, dst) pair —
/// the order both transports guarantee. A refused send is withdrawn.
class TransitMatcher {
 public:
  /// Modeled one-way delay of a link (SimNetwork); subtracted from transit.
  using Delay = std::function<Duration(const Address& src, const Address& dst)>;
  explicit TransitMatcher(Delay modeled = nullptr);

  std::uint64_t on_send(const Address& src, const Address& dst);
  void cancel(const Address& src, const Address& dst, std::uint64_t ticket);
  /// Transit in us for the oldest unmatched send on the pair, if any.
  std::optional<double> on_receive(const Address& src, const Address& dst);

  std::uint64_t sent() const { return sent_.load(); }
  std::uint64_t matched() const { return matched_.load(); }
  std::uint64_t unmatched_receives() const { return orphans_.load(); }
  std::size_t pending() const;

 private:
  struct Pending {
    std::uint64_t ticket;
    TimePoint at;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::deque<Pending>> pairs;
  };
  Shard& shard_of(const std::string& key);

  Delay modeled_;
  std::array<Shard, 16> shards_;
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> matched_{0};
  std::atomic<std::uint64_t> orphans_{0};
};

/// Request ingress times keyed on (receiving address, wire call id), so a
/// handler can report how long its request waited to start.
class IngressLog {
 public:
  /// `request_type` is the wire type byte of a request frame (rpc and
  /// specrpc use different ones).
  explicit IngressLog(std::uint8_t request_type) : type_(request_type) {}

  void on_frame(const Address& dst, const Bytes& frame);
  /// Microseconds since the request's ingress, or nullopt if unseen.
  std::optional<double> take(const Address& dst, std::uint64_t call_id);

 private:
  const std::uint8_t type_;
  std::mutex mu_;
  std::unordered_map<std::string, TimePoint> seen_;
};

class TracingCodec final : public srpc::Codec {
 public:
  TracingCodec(const srpc::Codec& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  using Codec::decode;
  using Codec::encode;
  void encode(const srpc::Value& v, Bytes& out) const override;
  srpc::Value decode(srpc::Reader& in) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const srpc::Codec& inner_;
  Tracer& tracer_;
};

class TracingTransport final : public srpc::Transport {
 public:
  TracingTransport(srpc::Transport& inner, Tracer& tracer,
                   TransitMatcher& matcher, IngressLog& ingress)
      : inner_(inner), tracer_(tracer), matcher_(matcher), ingress_(ingress) {}

  const Address& address() const override { return inner_.address(); }
  bool send(const Address& dst, Bytes payload) override;
  void set_receiver(Receiver receiver) override;
  void quiesce() override { inner_.quiesce(); }

 private:
  srpc::Transport& inner_;
  Tracer& tracer_;
  TransitMatcher& matcher_;
  IngressLog& ingress_;
};

class TracingPredictor final : public srpc::predict::Predictor {
 public:
  TracingPredictor(srpc::predict::PredictorPtr inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  srpc::ValueList predict(const std::string& method,
                          const srpc::ValueList& args) override;
  void learn(const std::string& method, const srpc::ValueList& args,
             const srpc::Value& actual) override;
  void forget(const std::string& method, const srpc::ValueList& args) override {
    inner_->forget(method, args);
  }
  std::size_t size() const override { return inner_->size(); }
  const char* name() const override { return inner_->name(); }

 private:
  srpc::predict::PredictorPtr inner_;
  Tracer& tracer_;
};

/// RpcKit wrapper for the RC deployment. Calls, the wheel and the engine
/// accessor forward to `inner`; handlers are registered on the engine
/// (`inner.spec_engine()`) or on `trad_node` directly, as SpecKit and
/// TradKit do, so that each invocation sees its wire call id.
class TracingKit final : public srpc::rc::RpcKit {
 public:
  TracingKit(srpc::rc::RpcKit& inner, srpc::rpc::Node* trad_node,
             Tracer& tracer, IngressLog& ingress)
      : inner_(inner), node_(trad_node), tracer_(tracer), ingress_(ingress) {}

  void register_handler(const std::string& name,
                        srpc::rc::AsyncHandler handler) override;
  srpc::rc::FuturePtr call(const Address& dst, const std::string& method,
                           srpc::ValueList args) override;
  const Address& address() const override { return inner_.address(); }
  srpc::TimerWheel& wheel() override { return inner_.wheel(); }
  srpc::spec::SpecEngine* spec_engine() override {
    return inner_.spec_engine();
  }

 private:
  /// Runs `handler` inside a handler span, timing rc.read / rc.prepare
  /// from invocation to respond.
  void invoke(const std::string& name, const srpc::rc::AsyncHandler& handler,
              std::uint64_t call_id, srpc::ValueList args,
              std::function<void(srpc::rc::Outcome)> respond);

  srpc::rc::RpcKit& inner_;
  srpc::rpc::Node* node_;
  Tracer& tracer_;
  IngressLog& ingress_;
};

}  // namespace specbench
