#pragma once
// The engine-level sweep compiler's cache types.
//
// A sweep (blocksize tuning, variant ranking, a predict_many burst)
// revisits the same (family, variant, sizes, blocksize) points over and
// over -- across the sweep's own iterations, across repeated user
// queries, and across overlapping queries from many users. Each point's
// work factors into three layers of decreasing volatility:
//
//   1. the compiled trace                     -- fixed per sweep point,
//   2. the interned resolver ids of its keys  -- fixed per engine,
//   3. the resolved model pointers            -- valid until some model
//                                                is (re)generated.
//
// CompiledSweepPoint captures 1+2 immutably and 3 as a versioned snapshot
// (ResolvedSlots) stamped with the engine's model-cache version; when a
// generation widens any model the version moves on and the snapshot is
// rebuilt on next use (invalidation-on-regeneration); Engine::reload
// also takes the snapshots out of the cached points (take_slots), so
// they stop pinning the previous models. A prediction is a pure function
// of the compiled trace and the models, so the snapshot also keeps the
// Prediction its models imply and that prediction's wire text
// (write_prediction), both computed on first read. The points live in a
// sharded LRU keyed by SweepPointKey, so a repeated or overlapping sweep
// skips compilation (OperationSpec::compile, which runs the blocked
// algorithm against a CompilingContext), interning, model evaluation and
// number formatting entirely.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru.hpp"
#include "predict/compiled_trace.hpp"
#include "sampler/locality.hpp"

namespace dlap {

/// Identity of one sweep point: the operation coordinates plus the system
/// whose interned ids the compiled form carries. `m` is 0 for a one-axis
/// family, whose algorithm ignores it, so specs differing only in `m`
/// share one point.
struct SweepPointKey {
  std::string op;  ///< operation family name ("trinv", "sylv", ...)
  int variant = 0;
  index_t m = 0;
  index_t n = 0;
  index_t blocksize = 0;
  std::string backend;
  Locality locality = Locality::InCache;

  [[nodiscard]] bool operator==(const SweepPointKey&) const = default;
};

struct SweepPointKeyHash {
  [[nodiscard]] std::size_t operator()(const SweepPointKey& k) const {
    std::size_t h = std::hash<std::string>{}(k.op);
    const auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::size_t>(k.variant));
    mix(static_cast<std::size_t>(k.m));
    mix(static_cast<std::size_t>(k.n));
    mix(static_cast<std::size_t>(k.blocksize));
    mix(std::hash<std::string>{}(k.backend));
    mix(static_cast<std::size_t>(k.locality));
    return h;
  }
};

/// Immutable snapshot of the models resolved for a compiled trace's keys,
/// stamped with the engine model-cache version it was built against.
/// `pins[k]` answers keys()[k] and keeps it alive for the snapshot's
/// lifetime (an engine snapshot has a model for every key); `models` is
/// the raw-pointer mirror the lock-free predict loop indexes. On first
/// read the snapshot also stores the prediction those models imply and
/// its wire text, about 230 bytes; both are immutable from then on and
/// are discarded with the snapshot.
struct ResolvedSlots {
  std::uint64_t version = 0;
  std::vector<const RoutineModel*> models;
  std::vector<std::shared_ptr<const RoutineModel>> pins;  // aligned per key

  void assign(std::size_t keys, std::uint64_t v) {
    version = v;
    models.assign(keys, nullptr);
    pins.assign(keys, nullptr);
  }
  void set(std::size_t k, std::shared_ptr<const RoutineModel> model) {
    models[k] = model.get();
    pins[k] = std::move(model);
  }

  /// `trace.predict(models)`, where `trace` is the compiled trace of the
  /// sweep point this snapshot belongs to. The first reader computes it
  /// and formats its wire text (prediction_json) in the same one-time
  /// step; every later reader, on any thread, gets the same stored
  /// value, so a cached sweep point answers without evaluating a model.
  /// Both live and die with the snapshot: a regeneration or reload,
  /// which replaces the snapshot, discards them too.
  [[nodiscard]] const Prediction& prediction(
      const CompiledTrace& trace) const {
    compute(trace);
    return prediction_;
  }

  /// write_prediction's text of prediction(trace), about 230 bytes. It
  /// is immutable once formatted; the api layer hands it out without
  /// reading it.
  [[nodiscard]] const std::string& prediction_json(
      const CompiledTrace& trace) const {
    compute(trace);
    return prediction_json_;
  }

 private:
  void compute(const CompiledTrace& trace) const {
    std::call_once(predicted_, [&] {
      prediction_ = trace.predict(models);
      prediction_json_.clear();  // a throw part-way leaves the flag unset
      write_prediction(prediction_, &prediction_json_);
    });
  }

  mutable std::once_flag predicted_;
  mutable Prediction prediction_;
  mutable std::string prediction_json_;
};

/// One cached sweep point: the compiled trace, its keys' interned ids
/// (stable for the owning engine's lifetime), and the current slot
/// snapshot.
class CompiledSweepPoint {
 public:
  CompiledSweepPoint(CompiledTrace trace, std::vector<int> ids)
      : trace_(std::move(trace)), ids_(std::move(ids)) {}

  [[nodiscard]] const CompiledTrace& trace() const noexcept { return trace_; }
  /// Interned resolver id per compiled key.
  [[nodiscard]] const std::vector<int>& ids() const noexcept { return ids_; }

  /// The snapshot if it is still current at `version`, nullptr otherwise
  /// (the caller then re-resolves and stores a fresh one).
  [[nodiscard]] std::shared_ptr<const ResolvedSlots> slots(
      std::uint64_t version) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slots_ == nullptr || slots_->version != version) return nullptr;
    return slots_;
  }

  void store_slots(std::shared_ptr<const ResolvedSlots> slots) const {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_ = std::move(slots);
  }

  /// Moves the snapshot out, leaving none (the next query re-resolves).
  /// The caller frees it, outside this point's lock.
  [[nodiscard]] std::shared_ptr<const ResolvedSlots> take_slots() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(slots_);
  }

 private:
  CompiledTrace trace_;
  std::vector<int> ids_;
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const ResolvedSlots> slots_;
};

using CompiledTraceCache =
    ShardedLru<SweepPointKey, CompiledSweepPoint, SweepPointKeyHash>;

}  // namespace dlap
