// Queue-order prediction seeding (DESIGN.md §12.3).
//
// SeedStore is the client-local cache of (value, version) pairs the planner
// seeds read predictions from: committed batch writes land here with their
// exact commit versions, and every validated read refreshes its key. The
// SpecRPC engine validates predictions by deep equality against the quorum
// combiner's vlist(value, version), so seeds must carry exact versions —
// a right value at a stale version is still a misprediction.
//
// Puts from a speculative context (the executor's chain callbacks refresh
// seeds as reads resolve) register a rollback with the engine, SideTable
// style: if the branch is abandoned, the previous seed is restored, so the
// cache only keeps state from surviving branches. The store is advisory —
// a stale seed costs one misprediction, never correctness — which is why a
// lock-striped last-writer-wins cache is enough here while authoritative
// execution state lives in callback captures (DESIGN.md §12.5).
//
// QueueSeedPredictor is the predict::Predictor that carries those seeds
// through the standard PredictionSupplier hook: the planner primes it per
// queue position (batch rc.read args are (key, epoch, shard, pos), so every
// position gets a distinct predictor key), the engine's supplier consults
// it like any other predictor — budget, admission and accuracy tracking
// from PRs 3/6 apply unchanged — and learn() writes actuals back into the
// SeedStore.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "predict/predictor.h"
#include "rc/view.h"
#include "specrpc/engine.h"

namespace srpc::batch {

struct SeedValue {
  std::string value;
  std::int64_t version = 0;
};

class SeedStore {
 public:
  SeedStore() = default;

  /// Late-binds the engine whose speculative contexts should get rollback
  /// protection (the engine is constructed after the store, which the
  /// prediction hooks must capture). Wire before traffic; nullptr is fine
  /// (plain writes, e.g. non-speculative modes).
  void attach_engine(spec::SpecEngine* engine) { engine_ = engine; }

  /// Version-monotone upsert: an older version never clobbers a newer one.
  /// From a speculative context, registers a rollback restoring the prior
  /// seed if this branch is abandoned (guarded by the written version, so a
  /// late rollback cannot clobber a newer non-speculative put).
  void put(const std::string& key, std::string value, std::int64_t version);

  std::optional<SeedValue> get(const std::string& key) const;
  std::size_t size() const;

  /// Drops every seed. Last resort on a view change whose predecessor is
  /// unknown (see invalidate_moved for the surgical path). Advisory store,
  /// so racing in-flight puts are harmless.
  void clear();

  /// Drops only the seeds whose slot changed shards between `from` and
  /// `to` (slot-table diff, kViewSlots comparisons). Seeds on migrated
  /// slots may reflect the old owner's tail — a guaranteed misprediction —
  /// but seeds on unmoved slots are exactly as good as before the
  /// reconfiguration, so a migration must not cold-start queue-seed
  /// accuracy cluster-wide. Returns the number of seeds dropped.
  std::size_t invalidate_moved(const rc::ClusterView& from,
                               const rc::ClusterView& to);

 private:
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, SeedValue> data;
  };
  Stripe& stripe_of(const std::string& key) {
    return stripes_[std::hash<std::string>{}(key) % kStripes];
  }
  const Stripe& stripe_of(const std::string& key) const {
    return stripes_[std::hash<std::string>{}(key) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;
  spec::SpecEngine* engine_ = nullptr;
};

class QueueSeedPredictor final : public predict::Predictor {
 public:
  explicit QueueSeedPredictor(std::shared_ptr<SeedStore> seeds)
      : seeds_(std::move(seeds)) {}

  /// Drops every primed entry. The planner calls this at the start of each
  /// epoch; run_epoch is synchronous per client, so nothing from the
  /// previous epoch is still in flight when the map clears.
  void begin_epoch();

  /// Primes one queue position: predict(method, args) will return exactly
  /// `predicted` (the combined read result vlist(value, version)).
  void prime(const std::string& method, const ValueList& args,
             Value predicted);

  ValueList predict(const std::string& method, const ValueList& args) override;

  /// Actual combined read result for one position. Parsed back into the
  /// SeedStore (rc.read args carry the key at position 0), so validated
  /// reads refresh next epoch's seeds even for keys the batch never wrote.
  /// When the position was primed, also scores the seed exactly (primed
  /// value deep-compared against the actual) into checked()/correct() —
  /// the adaptive controller's accuracy signal. This is deliberately NOT
  /// the engine's predictions_correct: the engine only scores positions it
  /// chose to speculate on, while the controller needs accuracy over every
  /// primed seed, including epochs where the budget throttled speculation.
  void learn(const std::string& method, const ValueList& args,
             const Value& actual) override;

  std::size_t size() const override;
  const char* name() const override { return "queue-seed"; }

  const std::shared_ptr<SeedStore>& seeds() const { return seeds_; }
  std::uint64_t primed_total() const {
    return primed_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Cumulative primed positions scored / scored correct (see learn()).
  std::uint64_t checked() const {
    return checked_.load(std::memory_order_relaxed);
  }
  std::uint64_t correct() const {
    return correct_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<SeedStore> seeds_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Value> primed_;
  std::atomic<std::uint64_t> primed_total_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> checked_{0};
  std::atomic<std::uint64_t> correct_{0};
};

}  // namespace srpc::batch
