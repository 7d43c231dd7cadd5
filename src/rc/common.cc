#include "rc/common.h"

#include <atomic>

namespace srpc::rc {

Value encode_read_result(const ReadResult& r) {
  return vlist(r.value, r.version);
}

ReadResult decode_read_result(const std::string& key, const Value& v) {
  const ValueList& list = v.as_list();
  ReadResult r;
  r.key = key;
  r.value = list.at(0).as_string();
  r.version = list.at(1).as_int();
  return r;
}

namespace {

Value encode_reads(const std::vector<kv::ReadValidation>& reads) {
  ValueList out;
  out.reserve(reads.size());
  for (const auto& r : reads) out.push_back(vlist(r.key, r.version));
  return Value(std::move(out));
}

std::vector<kv::ReadValidation> decode_reads(const Value& v) {
  std::vector<kv::ReadValidation> out;
  for (const auto& e : v.as_list()) {
    const ValueList& pair = e.as_list();
    out.push_back(kv::ReadValidation{pair.at(0).as_string(),
                                     pair.at(1).as_int()});
  }
  return out;
}

Value encode_writes(const std::vector<kv::WriteOp>& writes) {
  ValueList out;
  out.reserve(writes.size());
  for (const auto& w : writes) out.push_back(vlist(w.key, w.value));
  return Value(std::move(out));
}

std::vector<kv::WriteOp> decode_writes(const Value& v) {
  std::vector<kv::WriteOp> out;
  for (const auto& e : v.as_list()) {
    const ValueList& pair = e.as_list();
    out.push_back(kv::WriteOp{pair.at(0).as_string(), pair.at(1).as_string()});
  }
  return out;
}

}  // namespace

Value encode_batch_entries(const std::vector<kv::BatchEntry>& entries) {
  ValueList out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back(vlist(static_cast<std::int64_t>(e.txn),
                        static_cast<std::int64_t>(e.index),
                        encode_reads(e.reads), encode_writes(e.writes)));
  }
  return Value(std::move(out));
}

std::vector<kv::BatchEntry> decode_batch_entries(const Value& v) {
  std::vector<kv::BatchEntry> out;
  for (const auto& item : v.as_list()) {
    const ValueList& quad = item.as_list();
    kv::BatchEntry e;
    e.txn = static_cast<kv::TxnId>(quad.at(0).as_int());
    e.index = static_cast<std::size_t>(quad.at(1).as_int());
    e.reads = decode_reads(quad.at(2));
    e.writes = decode_writes(quad.at(3));
    out.push_back(std::move(e));
  }
  return out;
}

Value encode_batch_flags(const std::vector<bool>& flags) {
  ValueList out;
  out.reserve(flags.size());
  for (const bool f : flags) out.push_back(Value(f));
  return Value(std::move(out));
}

std::vector<bool> decode_batch_flags(const Value& v) {
  std::vector<bool> out;
  for (const auto& e : v.as_list()) out.push_back(e.as_bool());
  return out;
}

Value encode_store_entries(
    const std::vector<std::tuple<std::string, std::string, std::int64_t>>&
        entries) {
  ValueList out;
  out.reserve(entries.size());
  for (const auto& [key, value, version] : entries) {
    out.push_back(vlist(key, value, version));
  }
  return Value(std::move(out));
}

std::vector<std::tuple<std::string, std::string, std::int64_t>>
decode_store_entries(const Value& v) {
  std::vector<std::tuple<std::string, std::string, std::int64_t>> out;
  for (const auto& e : v.as_list()) {
    const ValueList& triple = e.as_list();
    out.emplace_back(triple.at(0).as_string(), triple.at(1).as_string(),
                     triple.at(2).as_int());
  }
  return out;
}

std::int64_t next_txn_stamp() {
  static std::atomic<std::int64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace srpc::rc
