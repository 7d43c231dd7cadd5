#include "kvstore/txn_log.h"

#include <stdexcept>

#include "serde/io.h"

namespace srpc::kv {

TxnLog::TxnLog(const std::string& path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open txn log " + path);
  }
  writer_ = std::thread([this] { writer_loop(); });
}

TxnLog::~TxnLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  std::fclose(file_);
}

void TxnLog::append_batch(std::vector<CommitRecord> records) {
  if (records.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& record : records) queue_.push_back(std::move(record));
    appended_ += records.size();
  }
  cv_.notify_one();
}

void TxnLog::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t target = appended_;
  cv_.wait(lock, [&] { return flushed_ >= target || stopping_; });
}

std::uint64_t TxnLog::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::uint64_t TxnLog::flushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_;
}

Bytes TxnLog::encode(const CommitRecord& record) {
  Bytes body;
  Writer w(body);
  w.u64(record.txn);
  w.u64(static_cast<std::uint64_t>(record.commit_version));
  w.u32(static_cast<std::uint32_t>(record.writes.size()));
  for (const auto& write : record.writes) {
    w.str32(write.key);
    w.str32(write.value);
  }
  Bytes framed;
  Writer fw(framed);
  fw.u32(static_cast<std::uint32_t>(body.size()));
  fw.raw(body.data(), body.size());
  return framed;
}

void TxnLog::writer_loop() {
  for (;;) {
    std::deque<CommitRecord> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty() && stopping_) return;
      batch.swap(queue_);
    }
    // One contiguous buffer, one fwrite, one fflush for the whole drained
    // group — the per-record write()+flush() pair was the dominant cost of
    // bursty commits (group commit appends whole batches at once).
    Bytes buf;
    for (const auto& record : batch) {
      const Bytes framed = encode(record);
      buf.insert(buf.end(), framed.begin(), framed.end());
    }
    const std::uint64_t written = batch.size();
    if (!buf.empty()) std::fwrite(buf.data(), 1, buf.size(), file_);
    std::fflush(file_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      flushed_ += written;
    }
    cv_.notify_all();
  }
}

std::uint64_t TxnLog::replay(
    const std::string& path,
    const std::function<void(const CommitRecord&)>& fn) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return 0;
  std::uint64_t replayed = 0;
  for (;;) {
    std::uint8_t len_buf[4];
    if (std::fread(len_buf, 1, 4, in) != 4) break;
    Reader len_reader(len_buf, 4);
    const std::uint32_t len = len_reader.u32();
    Bytes body(len);
    if (len > 0 && std::fread(body.data(), 1, len, in) != len) break;  // torn
    try {
      Reader r(body);
      CommitRecord record;
      record.txn = r.u64();
      record.commit_version = static_cast<std::int64_t>(r.u64());
      const std::uint32_t n = r.u32();
      record.writes.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        WriteOp write;
        write.key = r.str32();
        write.value = r.str32();
        record.writes.push_back(std::move(write));
      }
      fn(record);
      replayed++;
    } catch (const DecodeError&) {
      break;  // corrupt tail
    }
  }
  std::fclose(in);
  return replayed;
}

std::uint64_t TxnLog::recover(const std::string& path, VersionedStore& store) {
  return replay(path, [&store](const CommitRecord& record) {
    for (const auto& w : record.writes) {
      store.load_if_newer(w.key, w.value, record.commit_version);
    }
  });
}

}  // namespace srpc::kv
