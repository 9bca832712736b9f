#include "service/measurement_scheduler.hpp"

#include <exception>

namespace dlap {

std::vector<SampleStats> fulfill_batch(
    SampleStore& store, std::string_view engine_key,
    const std::vector<std::vector<index_t>>& points, const MeasureFn& measure,
    ThreadPool* pool, FulfillStats* stats) {
  std::vector<SampleStats> results(points.size());
  FulfillStats counts;
  std::vector<std::size_t> missing;  // batch positions to measure
  for (std::size_t i = 0; i < points.size(); ++i) {
    switch (store.probe(engine_key, points[i], &results[i])) {
      case SampleStore::Origin::Memory: ++counts.from_memory; break;
      case SampleStore::Origin::Disk: ++counts.from_disk; break;
      case SampleStore::Origin::Miss: missing.push_back(i); break;
    }
  }
  counts.measured = static_cast<index_t>(missing.size());

  // A failed point is not stored; the batch's successful points still
  // are, and the first failure in batch order surfaces after the insert.
  std::vector<std::exception_ptr> errors(missing.size());
  const auto measure_one = [&](std::size_t m) {
    try {
      results[missing[m]] = measure(points[missing[m]]);
    } catch (...) {
      errors[m] = std::current_exception();
    }
  };
  if (pool == nullptr || missing.size() <= 1) {
    for (std::size_t m = 0; m < missing.size(); ++m) measure_one(m);
  } else {
    pool->parallel_for_each(static_cast<index_t>(missing.size()),
                            [&](index_t m) {
                              measure_one(static_cast<std::size_t>(m));
                            });
  }

  std::vector<SampleStore::Measured> measured;
  measured.reserve(missing.size());
  for (std::size_t m = 0; m < missing.size(); ++m) {
    const std::size_t i = missing[m];
    if (!errors[m]) measured.push_back({&points[i], results[i]});
  }
  store.insert(engine_key, measured);
  // insert wrote back the statistics the store kept.
  std::size_t next = 0;
  for (std::size_t m = 0; m < missing.size(); ++m) {
    if (errors[m]) std::rethrow_exception(errors[m]);
    results[missing[m]] = measured[next++].stats;
  }

  if (stats != nullptr) *stats += counts;
  return results;
}

}  // namespace dlap
