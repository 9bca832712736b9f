#pragma once
// MeasurementScheduler: fulfills the point batches emitted by the
// generation step machines (modeler/strategies.hpp).
//
// A generation strategy *declares* what it needs -- a region's whole
// sample grid as one batch -- and this scheduler decides how each point
// is satisfied, in order of preference:
//
//   1. the engine-wide SampleStore (in-memory, or replayed from the
//      on-disk sample repository when the store is persistent),
//   2. joining a measurement of the same (engine key, point) already in
//      flight on another thread. Points are keyed PER engine key, so
//      this dedupes concurrent fulfillments of one key -- direct
//      scheduler users, overlapping regenerations -- never across
//      different keys; ModelService additionally serializes whole-model
//      generations per key, making this a defensive second layer there,
//   3. actually measuring, either fanned out across the ThreadPool
//      (deterministic measurement sources: synthetic cost surfaces,
//      latency-bound test hooks) or serialized on the calling thread
//      (real timing on a backend instance, where concurrent kernel
//      execution would corrupt the measured ticks).
//
// A fulfillment's newly measured points are inserted into the store as
// one batch -- journaled, when persistent, in batch order with one write
// -- before any of their waiters is released. A crash therefore loses at
// most the batch in flight, which nothing has consumed yet. Results come
// back in batch order, so with a deterministic measurement source a
// fulfilled batch is bit-identical to measuring the batch sequentially,
// and the journal it leaves does not depend on completion order.

#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/threadpool.hpp"
#include "sampler/sample_store.hpp"

namespace dlap {

/// Per-fulfillment accounting (one batch; add across batches for one
/// generation's totals).
struct FulfillStats {
  index_t measured = 0;     ///< points newly measured by this call
  index_t from_memory = 0;  ///< store hits measured earlier this process
  index_t from_disk = 0;    ///< store hits replayed from a journal
  index_t joined = 0;       ///< waited on another caller's measurement

  FulfillStats& operator+=(const FulfillStats& o) {
    measured += o.measured;
    from_memory += o.from_memory;
    from_disk += o.from_disk;
    joined += o.joined;
    return *this;
  }
};

class MeasurementScheduler {
 public:
  using PointMeasure = std::function<SampleStats(const std::vector<index_t>&)>;

  /// How the missing points of a batch are measured.
  enum class Mode {
    /// Serialized on the calling thread. Required when the measurement
    /// times real kernel executions on a backend instance: concurrent
    /// runs would contend for cores/caches and corrupt the timings.
    Exclusive,
    /// Fanned out across the pool (the calling thread participates, so
    /// a saturated pool can never deadlock the batch). Only valid for
    /// measurement sources that tolerate concurrency -- the
    /// deterministic test/bench hooks.
    Parallel,
  };

  /// Only stores the addresses: `pool` and `store` may be
  /// not-yet-constructed siblings of the scheduler (ModelService
  /// declares its pool *after* the scheduler for destruction-order
  /// reasons). Nothing may be dereferenced here.
  MeasurementScheduler(ThreadPool& pool, SampleStore& store)
      : pool_(&pool), store_(&store) {}

  MeasurementScheduler(const MeasurementScheduler&) = delete;
  MeasurementScheduler& operator=(const MeasurementScheduler&) = delete;

  /// Fulfills `points` for `engine_key`, returning statistics in point
  /// order. Throws the first measurement error in batch order, after
  /// storing the batch's successful points and settling every in-flight
  /// registration, so concurrent waiters never hang.
  [[nodiscard]] std::vector<SampleStats> fulfill(
      std::string_view engine_key,
      const std::vector<std::vector<index_t>>& points,
      const PointMeasure& measure, Mode mode,
      FulfillStats* stats = nullptr);

 private:
  using Future = std::shared_future<SampleStats>;
  using Promise = std::promise<SampleStats>;

  ThreadPool* pool_;
  SampleStore* store_;

  // Points currently being measured, keyed (engine key -> point). Late
  // arrivals wait on the future instead of measuring again.
  std::mutex inflight_mutex_;
  std::map<std::string, std::map<std::vector<index_t>, Future>, std::less<>>
      inflight_;
};

}  // namespace dlap
