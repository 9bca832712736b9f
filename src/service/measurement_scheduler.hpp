#pragma once
// fulfill_batch: fulfills the point batches emitted by the generation
// step machines (modeler/strategies.hpp).
//
// A generation strategy *declares* what it needs -- a region's whole
// sample grid as one batch -- and fulfill_batch decides how each point
// is satisfied, in order of preference:
//
//   1. the engine-wide SampleStore (in-memory, or replayed from the
//      on-disk sample repository when the store is persistent),
//   2. actually measuring, either on the calling thread (real timing on
//      a backend instance, where concurrent kernel execution would
//      corrupt the measured ticks) or spread over a ThreadPool
//      (deterministic measurement sources: synthetic cost surfaces,
//      latency-bound test hooks).
//
// It keeps no state: ModelService generates each key under a per-key
// claim, so no two batches of one key overlap on the generation path.
// A batch's newly measured points are stored with one SampleStore::insert
// -- journaled, when persistent, in batch order with one write -- and the
// batch returns the statistics the store kept (the first insert of a
// point wins), so callers that measured a point concurrently all see one
// value. A crash loses at most the batch in flight, which nothing has
// consumed yet. Results come back in batch order, so with a
// deterministic measurement source a fulfilled batch is bit-identical to
// measuring the batch sequentially, and the journal it leaves does not
// depend on completion order.

#include <string_view>
#include <vector>

#include "common/threadpool.hpp"
#include "modeler/strategies.hpp"
#include "sampler/sample_store.hpp"

namespace dlap {

/// Per-fulfillment accounting (one batch; add across batches for one
/// generation's totals).
struct FulfillStats {
  index_t measured = 0;     ///< points newly measured by this call
  index_t from_memory = 0;  ///< store hits measured earlier this process
  index_t from_disk = 0;    ///< store hits replayed from a journal

  FulfillStats& operator+=(const FulfillStats& o) {
    measured += o.measured;
    from_memory += o.from_memory;
    from_disk += o.from_disk;
    return *this;
  }
};

/// Fulfills `points` for `engine_key` from `store`, measuring the points
/// it lacks and storing them as one batch; returns the statistics the
/// store kept, in point order. The missing points are measured on the
/// calling thread when `pool` is null, else spread over `pool` (the
/// calling thread participates, so a pool worker may call this). Only
/// measurement sources that tolerate concurrent calls may be given a
/// pool. Throws the first measurement error in batch order, after
/// storing the batch's successful points.
[[nodiscard]] std::vector<SampleStats> fulfill_batch(
    SampleStore& store, std::string_view engine_key,
    const std::vector<std::vector<index_t>>& points, const MeasureFn& measure,
    ThreadPool* pool, FulfillStats* stats = nullptr);

}  // namespace dlap
