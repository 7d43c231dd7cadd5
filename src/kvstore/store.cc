#include "kvstore/store.h"

namespace srpc::kv {

std::optional<VersionedValue> VersionedStore::get(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void VersionedStore::load(const std::string& key, std::string value,
                          std::int64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  data_[key] = VersionedValue{std::move(value), version};
}

void VersionedStore::load_if_newer(const std::string& key, std::string value,
                                   std::int64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = data_[key];
  if (version > entry.version) {
    entry.value = std::move(value);
    entry.version = version;
  }
}

std::vector<std::tuple<std::string, std::string, std::int64_t>>
VersionedStore::export_if(
    const std::function<bool(const std::string&)>& pred) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::tuple<std::string, std::string, std::int64_t>> out;
  for (const auto& [key, vv] : data_) {
    if (pred(key)) out.emplace_back(key, vv.value, vv.version);
  }
  return out;
}

bool VersionedStore::any_locked_if(
    const std::function<bool(const std::string&)>& pred) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, _] : locks_) {
    if (pred(key)) return true;
  }
  return false;
}

std::size_t VersionedStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.size();
}

std::vector<bool> VersionedStore::prepare(
    TxnId owner, const std::vector<BatchEntry>& entries) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<bool> votes(entries.size(), false);
  // Keys the yes-voting entries so far will write: reads of these are
  // queue-overlay reads (no store validation), and writes to these never
  // conflict with each other (single owner).
  std::unordered_map<std::string, bool> batch_written;
  // Phase A: vote in queue order against store state + overlay. Nothing is
  // locked yet, so a no vote leaves no residue to unwind.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    bool ok = true;
    for (const auto& r : e.reads) {
      if (batch_written.count(r.key) != 0) continue;  // overlay read
      auto lit = locks_.find(r.key);
      if (lit != locks_.end() && lit->second != owner) {
        ok = false;
        break;
      }
      auto dit = data_.find(r.key);
      const std::int64_t current =
          dit == data_.end() ? 0 : dit->second.version;
      if (current != r.version) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const auto& w : e.writes) {
        auto lit = locks_.find(w.key);
        if (lit != locks_.end() && lit->second != owner) {
          ok = false;
          break;
        }
      }
    }
    votes[i] = ok;
    if (ok) {
      for (const auto& w : e.writes) batch_written.emplace(w.key, true);
    }
  }
  // Phase B: acquire every yes-entry write lock under the owner. All were
  // checked free (or already owner-held) above and the mutex was never
  // released, so acquisition cannot fail.
  auto& held = txn_locks_[owner];
  for (const auto& [key, _] : batch_written) {
    auto [it, inserted] = locks_.emplace(key, owner);
    (void)it;
    if (inserted) held.push_back(key);
  }
  if (held.empty()) txn_locks_.erase(owner);
  return votes;
}

void VersionedStore::commit(TxnId owner,
                            const std::vector<BatchEntry>& entries,
                            const std::vector<bool>& decisions,
                            std::int64_t version_base) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i >= decisions.size() || !decisions[i]) continue;
    const auto& e = entries[i];
    const std::int64_t commit_version =
        version_base + static_cast<std::int64_t>(e.txn);
    for (const auto& w : e.writes) {
      auto& entry = data_[w.key];
      if (commit_version > entry.version) {
        entry.value = w.value;
        entry.version = commit_version;
      }
    }
  }
  auto it = txn_locks_.find(owner);
  if (it != txn_locks_.end()) {
    for (const auto& k : it->second) {
      auto lit = locks_.find(k);
      if (lit != locks_.end() && lit->second == owner) locks_.erase(lit);
    }
    txn_locks_.erase(it);
  }
}

void VersionedStore::abort(TxnId owner) { commit(owner, {}, {}, 0); }

bool VersionedStore::is_locked(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return locks_.find(key) != locks_.end();
}

std::optional<TxnId> VersionedStore::lock_holder(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = locks_.find(key);
  if (it == locks_.end()) return std::nullopt;
  return it->second;
}

std::size_t VersionedStore::locked_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return locks_.size();
}

}  // namespace srpc::kv
