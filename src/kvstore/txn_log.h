// Asynchronous transaction log (paper §5.2: "our implementation
// asynchronously persists transaction logs to SSDs").
//
// Commit records are appended to an in-memory queue and flushed to disk by
// a background writer, keeping persistence off the commit critical path —
// exactly the paper's design point. The binary record format round-trips
// through replay() so a store can be reconstructed after a crash.
//
// Record layout (little endian):
//   u32 record_len | u64 txn_id | i64 commit_version | u32 num_writes |
//   { u32 key_len | key | u32 value_len | value } * num_writes
#pragma once

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/types.h"
#include "kvstore/store.h"

namespace srpc::kv {

struct CommitRecord {
  TxnId txn = 0;
  std::int64_t commit_version = 0;
  std::vector<WriteOp> writes;
};

class TxnLog {
 public:
  /// Opens (appends to) `path`. Throws on failure.
  explicit TxnLog(const std::string& path);
  ~TxnLog();

  TxnLog(const TxnLog&) = delete;
  TxnLog& operator=(const TxnLog&) = delete;

  /// Enqueues N commit records with one lock acquisition and one wake-up;
  /// returns immediately (asynchronous). The writer drains them into a
  /// single contiguous buffer and issues one fwrite + one fflush for the
  /// whole group, so a batch commit (or any burst) costs one flush, not N.
  void append_batch(std::vector<CommitRecord> records);

  /// Blocks until everything appended so far reaches the OS.
  void flush();

  /// Records appended since construction (diagnostic).
  std::uint64_t appended() const;
  std::uint64_t flushed() const;

  /// Reads all complete records from `path`, invoking `fn` per record.
  /// Stops at the first truncated/corrupt record (torn tail after a crash
  /// is expected and not an error). Returns the number of records replayed.
  static std::uint64_t replay(
      const std::string& path,
      const std::function<void(const CommitRecord&)>& fn);

  /// Convenience: replays the log into a store (apply in log order).
  static std::uint64_t recover(const std::string& path,
                               VersionedStore& store);

 private:
  void writer_loop();
  static Bytes encode(const CommitRecord& record);

  std::FILE* file_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<CommitRecord> queue_;
  std::uint64_t appended_ = 0;
  std::uint64_t flushed_ = 0;
  bool stopping_ = false;
  std::thread writer_;
};

}  // namespace srpc::kv
