#pragma once
// The engine-level sweep compiler's cache types.
//
// A sweep (blocksize tuning, variant ranking, a burst of predictions)
// revisits the same (family, variant, sizes, blocksize) points over and
// over -- across the sweep's own iterations, across repeated user
// queries, and across overlapping queries from many users -- and often
// under several systems (both localities, several backends, a model set
// regenerated under a new backend name). Each point's work factors into
// two layers of different volatility:
//
//   1. the compiled trace                     -- fixed per spec, whatever
//                                                the system,
//   2. the resolved model pointers            -- valid until the model
//                                                repository's version
//                                                moves.
//
// Layer 1 is system-free: a CompiledTrace names (routine, flags) keys,
// never a backend or locality, so one trace serves every system. It lives
// in its own sharded LRU keyed by TraceKey (CompiledTraceCache), held as
// a shared immutable value. CompiledSweepPoint holds that shared trace
// with layer 2 as a versioned snapshot (ResolvedSlots) stamped with the
// model repository's version (modeler/repository.hpp); when a store or a
// reload moves the version, the point's next query resolves it again and
// builds a fresh snapshot (invalidation-on-regeneration);
// Engine::reload also takes the snapshots out of the cached points
// (take_slots), so they stop pinning the previous models. A prediction is
// a pure function of the compiled trace and the models, so the snapshot
// also keeps the Prediction its models imply and that prediction's wire
// text (write_prediction), both computed on first read. The points live
// in a second sharded LRU keyed by SweepPointKey (SweepPointCache), so a
// repeated or overlapping sweep skips compilation (OperationSpec::compile,
// which runs the blocked algorithm against a CompilingContext), model
// resolution, model evaluation and number formatting entirely, and a
// known spec under a new system skips compilation. Evicting a point
// leaves its trace in layer 1.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru.hpp"
#include "predict/compiled_trace.hpp"
#include "sampler/locality.hpp"

namespace dlap {

struct OperationDescriptor;  // ops/registry.hpp

/// Identity of one compiled trace: the operation coordinates, with the
/// validated family descriptor standing for its name (it lives as long
/// as the registry). `m` is 0 for a one-axis family, whose algorithm
/// ignores it, so specs differing only in `m` share one trace.
struct TraceKey {
  const OperationDescriptor* family = nullptr;
  int variant = 0;
  index_t m = 0;
  index_t n = 0;
  index_t blocksize = 0;

  [[nodiscard]] bool operator==(const TraceKey&) const = default;
};

/// Identity of one sweep point: a compiled trace plus the system whose
/// models the point's snapshot holds.
struct SweepPointKey {
  TraceKey trace;
  std::string backend;
  Locality locality = Locality::InCache;

  [[nodiscard]] bool operator==(const SweepPointKey&) const = default;
};

struct TraceKeyHash {
  [[nodiscard]] std::size_t operator()(const TraceKey& k) const noexcept {
    std::size_t h = std::hash<const void*>{}(k.family);
    mix(&h, static_cast<std::size_t>(k.variant));
    mix(&h, static_cast<std::size_t>(k.m));
    mix(&h, static_cast<std::size_t>(k.n));
    mix(&h, static_cast<std::size_t>(k.blocksize));
    return h;
  }
  [[nodiscard]] std::size_t operator()(const SweepPointKey& k) const {
    std::size_t h = (*this)(k.trace);
    mix(&h, std::hash<std::string>{}(k.backend));
    mix(&h, static_cast<std::size_t>(k.locality));
    return h;
  }

 private:
  static void mix(std::size_t* h, std::size_t v) noexcept {
    *h ^= v + 0x9e3779b97f4a7c15ull + (*h << 6) + (*h >> 2);
  }
};

/// Immutable snapshot of the models resolved for a compiled trace's keys,
/// stamped with the repository version read before they were resolved.
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

/// One cached sweep point: the shared compiled trace and the current
/// slot snapshot of the models of the point's system.
class CompiledSweepPoint {
 public:
  explicit CompiledSweepPoint(std::shared_ptr<const CompiledTrace> trace)
      : trace_(std::move(trace)) {}

  [[nodiscard]] const CompiledTrace& trace() const noexcept { return *trace_; }

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
  std::shared_ptr<const CompiledTrace> trace_;
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const ResolvedSlots> slots_;
};

/// Layer 1: system-free compiled traces, shared by every point and system.
using CompiledTraceCache =
    ShardedLru<TraceKey, const CompiledTrace, TraceKeyHash>;
/// Layer 2: one point per (trace, system).
using SweepPointCache =
    ShardedLru<SweepPointKey, CompiledSweepPoint, TraceKeyHash>;

}  // namespace dlap
