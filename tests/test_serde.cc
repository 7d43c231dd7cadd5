// Value semantics and codec round-trips, including randomized
// property-style sweeps over deep value trees and codec size comparisons
// (the Figure 8c premise: tagged < binary on the wire).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "rpc/wire.h"
#include "serde/buffer_pool.h"
#include "serde/codec.h"
#include "serde/io.h"
#include "specrpc/wire.h"

namespace srpc {

// Codec parameters print by name, not by address: the address moves with
// every process (ASLR), and it would make the test names that CTest records
// at discovery differ from build to build.
void PrintTo(const Codec* codec, std::ostream* os) { *os << codec->name(); }

namespace {

TEST(Value, TypeAccessorsAndErrors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_THROW(Value(42).as_string(), ValueTypeError);
  EXPECT_THROW(Value("hi").as_int(), ValueTypeError);
  EXPECT_THROW(Value().as_list(), ValueTypeError);
}

TEST(Value, DeepEqualityDecidesPredictions) {
  // Prediction correctness is deep structural equality (§3.3).
  Value a = vlist("key", 42, vlist(1.5, false));
  Value b = vlist("key", 42, vlist(1.5, false));
  Value c = vlist("key", 42, vlist(1.5, true));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ValueMap m1{{"x", Value(1)}, {"y", Value("z")}};
  ValueMap m2{{"y", Value("z")}, {"x", Value(1)}};
  EXPECT_EQ(Value(m1), Value(m2));  // map order canonical
}

TEST(Value, ToStringRendersAllTypes) {
  Value v = vlist(Value(), true, 7, "s", Value(Bytes{1, 2, 3}));
  EXPECT_EQ(v.to_string(), "[null, true, 7, \"s\", bytes[3]]");
  ValueMap m{{"k", Value(1)}};
  EXPECT_EQ(Value(m).to_string(), "{k: 1}");
}

TEST(IoPrimitives, VarintBoundaries) {
  Bytes buf;
  Writer w(buf);
  const std::uint64_t cases[] = {0, 1, 127, 128, 16383, 16384,
                                 ~0ULL, 1ULL << 63};
  for (auto v : cases) w.varint(v);
  Reader r(buf);
  for (auto v : cases) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(IoPrimitives, ZigZagRoundTrip) {
  Bytes buf;
  Writer w(buf);
  const std::int64_t cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (auto v : cases) w.svarint(v);
  Reader r(buf);
  for (auto v : cases) EXPECT_EQ(r.svarint(), v);
}

TEST(IoPrimitives, TruncatedInputThrows) {
  Bytes buf;
  Writer w(buf);
  w.str32("hello");
  buf.resize(buf.size() - 2);
  Reader r(buf);
  EXPECT_THROW(r.str32(), DecodeError);
}

class CodecTest : public ::testing::TestWithParam<const Codec*> {};

TEST_P(CodecTest, ScalarRoundTrips) {
  const Codec& codec = *GetParam();
  for (const Value& v :
       {Value(), Value(true), Value(false), Value(0), Value(-1),
        Value(INT64_MAX), Value(INT64_MIN), Value(3.14159), Value(-0.0),
        Value(""), Value(std::string(1000, 'x')), Value(Bytes{}),
        Value(Bytes{0, 255, 128})}) {
    EXPECT_EQ(codec.decode(codec.encode(v)), v) << v.to_string();
  }
}

TEST_P(CodecTest, NestedRoundTrips) {
  const Codec& codec = *GetParam();
  ValueMap inner{{"a", Value(1)}, {"b", vlist(2, 3)}};
  Value v = vlist("txn", 42, Value(inner), vlist(vlist(vlist(0))));
  EXPECT_EQ(codec.decode(codec.encode(v)), v);
}

TEST_P(CodecTest, RejectsTrailingGarbage) {
  const Codec& codec = *GetParam();
  Bytes encoded = codec.encode(Value(7));
  encoded.push_back(0x00);
  EXPECT_THROW(codec.decode(encoded), DecodeError);
}

TEST_P(CodecTest, RejectsTruncation) {
  const Codec& codec = *GetParam();
  Bytes encoded = codec.encode(vlist("hello", 12345));
  for (std::size_t cut = 1; cut < encoded.size(); cut += 3) {
    Bytes truncated(encoded.begin(), encoded.begin() + cut);
    EXPECT_THROW(codec.decode(truncated), DecodeError) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(BothCodecs, CodecTest,
                         ::testing::Values(&binary_codec(), &tagged_codec()),
                         [](const auto& info) {
                           return info.param->name();
                         });

// Random value generator for property sweeps.
Value random_value(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform(depth > 0 ? 8 : 6));
  switch (kind) {
    case 0:
      return Value();
    case 1:
      return Value(rng.flip(0.5));
    case 2:
      return Value(static_cast<std::int64_t>(rng.next()));
    case 3:
      return Value(rng.uniform01() * 1e9 - 5e8);
    case 4: {
      std::string s(rng.uniform(40), 'a');
      for (auto& c : s) c = static_cast<char>('a' + rng.uniform(26));
      return Value(std::move(s));
    }
    case 5: {
      Bytes b(rng.uniform(40));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform(256));
      return Value(std::move(b));
    }
    case 6: {
      ValueList list;
      const auto n = rng.uniform(5);
      for (std::uint64_t i = 0; i < n; ++i)
        list.push_back(random_value(rng, depth - 1));
      return Value(std::move(list));
    }
    default: {
      ValueMap map;
      const auto n = rng.uniform(5);
      for (std::uint64_t i = 0; i < n; ++i)
        map.emplace("k" + std::to_string(i), random_value(rng, depth - 1));
      return Value(std::move(map));
    }
  }
}

TEST_P(CodecTest, PropertyRandomRoundTrips) {
  const Codec& codec = *GetParam();
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const Value v = random_value(rng, 3);
    EXPECT_EQ(codec.decode(codec.encode(v)), v) << "case " << i;
  }
}

TEST(CodecComparison, TaggedIsNoLargerThanBinary) {
  // The premise behind GrpcSim's bandwidth advantage (Figure 8c): the
  // tagged codec never encodes common payloads larger than the binary one.
  Rng rng(7);
  std::uint64_t binary_total = 0;
  std::uint64_t tagged_total = 0;
  for (int i = 0; i < 300; ++i) {
    const Value v = random_value(rng, 3);
    binary_total += binary_codec().encode(v).size();
    tagged_total += tagged_codec().encode(v).size();
  }
  EXPECT_LT(tagged_total, binary_total);
}

TEST(CodecComparison, CrossCodecEquivalence) {
  // Both codecs must represent the same value space.
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const Value v = random_value(rng, 3);
    EXPECT_EQ(binary_codec().decode(binary_codec().encode(v)),
              tagged_codec().decode(tagged_codec().encode(v)));
  }
}

TEST(Value, TakeAccessorsMoveOutHeapPayloads) {
  Value s(std::string(100, 'x'));
  std::string moved = s.take_string();
  EXPECT_EQ(moved, std::string(100, 'x'));
  EXPECT_EQ(s.as_string(), "");  // valid-but-empty, still a string

  Value b(Bytes{1, 2, 3});
  Bytes taken = b.take_bytes();
  EXPECT_EQ(taken, (Bytes{1, 2, 3}));
  EXPECT_TRUE(b.as_bytes().empty());

  Value lst = vlist(1, "two", 3.0);
  ValueList items = lst.take_list();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[1], Value("two"));
  EXPECT_TRUE(lst.as_list().empty());

  ValueMap m{{"k", Value(7)}};
  Value vm(m);
  ValueMap taken_map = vm.take_map();
  EXPECT_EQ(taken_map.at("k"), Value(7));
  EXPECT_TRUE(vm.as_map().empty());
}

TEST(Value, TakeAccessorsThrowOnTypeMismatch) {
  EXPECT_THROW(Value(42).take_string(), ValueTypeError);
  EXPECT_THROW(Value("s").take_bytes(), ValueTypeError);
  EXPECT_THROW(Value().take_list(), ValueTypeError);
  EXPECT_THROW(Value(true).take_map(), ValueTypeError);
}

TEST(WireEncodeInto, ReusedBufferYieldsIdenticalBytes) {
  rpc::Request req;
  req.call_id = 99;
  req.method = "put";
  req.args = {Value("key"), vlist(1, 2, 3)};
  const Bytes fresh = rpc::encode_request(req, binary_codec());
  EXPECT_EQ(rpc::decode_request(fresh, binary_codec()).args, req.args);

  Bytes reused;
  reused.reserve(1024);
  for (int i = 0; i < 3; ++i) {
    reused.clear();
    rpc::encode_request_into(req, binary_codec(), reused);
    EXPECT_EQ(reused, fresh) << "iteration " << i;
  }

  rpc::Response rsp;
  rsp.call_id = 99;
  rsp.result = vlist("ok", 1);
  const Bytes rsp_fresh = rpc::encode_response(rsp, binary_codec());
  reused.clear();
  rpc::encode_response_into(rsp, binary_codec(), reused);
  EXPECT_EQ(reused, rsp_fresh);
}

TEST(WireEncodeInto, AppendsWithoutClearing) {
  // encode_*_into is documented as append-only: framing layers can write a
  // header first and encode the payload behind it.
  rpc::Response rsp;
  rsp.call_id = 5;
  rsp.result = Value("payload");
  Bytes buf{0xAA, 0xBB};
  rpc::encode_response_into(rsp, binary_codec(), buf);
  ASSERT_GT(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0xAA);
  EXPECT_EQ(buf[1], 0xBB);
  const Bytes payload(buf.begin() + 2, buf.end());
  EXPECT_EQ(rpc::decode_response(payload, binary_codec()).result,
            Value("payload"));
}

TEST(WireEncodeInto, SpecMessagesRoundTripThroughReusedBuffer) {
  spec::RequestMsg m;
  m.call_id = 7;
  m.caller_speculative = true;
  m.method = "lookup";
  m.args = {Value("k"), Value(123)};
  const Bytes fresh = spec::encode(m, tagged_codec());

  Bytes reused = BufferPool::acquire(256);
  spec::encode_into(m, tagged_codec(), reused);
  EXPECT_EQ(reused, fresh);

  const spec::RequestMsg back = spec::decode_request(reused, tagged_codec());
  EXPECT_EQ(back.call_id, 7u);
  EXPECT_TRUE(back.caller_speculative);
  EXPECT_EQ(back.method, "lookup");
  EXPECT_EQ(back.args, m.args);
  BufferPool::release(std::move(reused));
}

TEST(BufferPool, RecirculatesCapacityWithinThread) {
  // Drain whatever earlier tests parked so counts below are exact.
  while (BufferPool::local_size() > 0) (void)BufferPool::acquire();

  Bytes b = BufferPool::acquire(4096);
  b.assign(100, 0x42);
  const std::size_t cap = b.capacity();
  BufferPool::release(std::move(b));
  EXPECT_EQ(BufferPool::local_size(), 1u);

  Bytes again = BufferPool::acquire();
  EXPECT_EQ(BufferPool::local_size(), 0u);
  EXPECT_TRUE(again.empty());          // cleared on acquire
  EXPECT_EQ(again.capacity(), cap);    // capacity survived the round trip

  // Zero-capacity and oversized buffers are dropped, not pooled.
  BufferPool::release(Bytes{});
  EXPECT_EQ(BufferPool::local_size(), 0u);
  Bytes huge;
  huge.reserve(BufferPool::kMaxPooledCapacity + 1);
  BufferPool::release(std::move(huge));
  EXPECT_EQ(BufferPool::local_size(), 0u);
}

}  // namespace
}  // namespace srpc
