#include "batch/seed.h"

namespace srpc::batch {

void SeedStore::put(const std::string& key, std::string value,
                    std::int64_t version) {
  Stripe& stripe = stripe_of(key);
  std::optional<SeedValue> previous;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.data.find(key);
    if (it != stripe.data.end()) {
      if (it->second.version > version) return;  // monotone: keep newer
      previous = it->second;
    }
    stripe.data[key] = SeedValue{std::move(value), version};
  }
  if (engine_ != nullptr && engine_->speculative()) {
    engine_->set_rollback([this, key, previous, version] {
      Stripe& s = stripe_of(key);
      std::lock_guard<std::mutex> lock(s.mu);
      auto it = s.data.find(key);
      // Only undo if our put is still the latest state for the key; a
      // newer write (e.g. the commit round's exact-version put) wins.
      if (it == s.data.end() || it->second.version != version) return;
      if (previous.has_value()) {
        it->second = *previous;
      } else {
        s.data.erase(it);
      }
    });
  }
}

std::optional<SeedValue> SeedStore::get(const std::string& key) const {
  const Stripe& stripe = stripe_of(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.data.find(key);
  if (it == stripe.data.end()) return std::nullopt;
  return it->second;
}

void SeedStore::clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.data.clear();
  }
}

std::size_t SeedStore::invalidate_moved(const rc::ClusterView& from,
                                        const rc::ClusterView& to) {
  // Malformed slot tables (never produced by ClusterView factories, but the
  // views arrive off the wire) degrade to the conservative full clear.
  if (from.slot_owner.size() != static_cast<std::size_t>(rc::kViewSlots) ||
      to.slot_owner.size() != static_cast<std::size_t>(rc::kViewSlots)) {
    const std::size_t n = size();
    clear();
    return n;
  }
  std::array<bool, rc::kViewSlots> moved{};
  bool any = false;
  for (int slot = 0; slot < rc::kViewSlots; ++slot) {
    moved[static_cast<std::size_t>(slot)] =
        from.slot_owner[static_cast<std::size_t>(slot)] !=
        to.slot_owner[static_cast<std::size_t>(slot)];
    any = any || moved[static_cast<std::size_t>(slot)];
  }
  if (!any) return 0;
  std::size_t dropped = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.data.begin(); it != stripe.data.end();) {
      if (moved[static_cast<std::size_t>(rc::slot_of_key(it->first))]) {
        it = stripe.data.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

std::size_t SeedStore::size() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.data.size();
  }
  return total;
}

void QueueSeedPredictor::begin_epoch() {
  std::lock_guard<std::mutex> lock(mu_);
  primed_.clear();
}

void QueueSeedPredictor::prime(const std::string& method,
                               const ValueList& args, Value predicted) {
  const std::string key = predict::key_of(method, args);
  std::lock_guard<std::mutex> lock(mu_);
  primed_[key] = std::move(predicted);
  primed_total_.fetch_add(1, std::memory_order_relaxed);
}

ValueList QueueSeedPredictor::predict(const std::string& method,
                                      const ValueList& args) {
  const std::string key = predict::key_of(method, args);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = primed_.find(key);
  if (it == primed_.end()) return {};
  hits_.fetch_add(1, std::memory_order_relaxed);
  return {it->second};
}

void QueueSeedPredictor::learn(const std::string& method,
                               const ValueList& args, const Value& actual) {
  // batch rc.read args: (key, epoch, shard, pos, vepoch); actual:
  // vlist(value, version).
  // Tolerate anything else (the manager shadow-evaluates every observed
  // call) by simply not learning from it.
  if (args.empty() || args[0].type() != Value::Type::kString ||
      actual.type() != Value::Type::kList) {
    return;
  }
  {
    // Score the primed seed for this exact position, if any: the engine
    // validates by deep (value, version) equality, so score the same way.
    const std::string key = predict::key_of(method, args);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = primed_.find(key);
    if (it != primed_.end()) {
      checked_.fetch_add(1, std::memory_order_relaxed);
      if (it->second == actual) {
        correct_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const ValueList& pair = actual.as_list();
  if (pair.size() < 2 || pair[0].type() != Value::Type::kString ||
      pair[1].type() != Value::Type::kInt) {
    return;
  }
  seeds_->put(args[0].as_string(), pair[0].as_string(), pair[1].as_int());
}

std::size_t QueueSeedPredictor::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primed_.size();
}

}  // namespace srpc::batch
