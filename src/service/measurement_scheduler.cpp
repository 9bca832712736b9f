#include "service/measurement_scheduler.hpp"

#include <exception>
#include <memory>
#include <utility>

namespace dlap {

namespace {

struct Claim {
  std::size_t index = 0;  // position in the batch
  std::shared_ptr<std::promise<SampleStats>> promise;
};

struct Join {
  std::size_t index = 0;
  std::shared_future<SampleStats> future;
};

}  // namespace

std::vector<SampleStats> MeasurementScheduler::fulfill(
    std::string_view engine_key,
    const std::vector<std::vector<index_t>>& points,
    const PointMeasure& measure, Mode mode, FulfillStats* stats) {
  std::vector<SampleStats> results(points.size());
  FulfillStats counts;
  std::vector<Claim> claims;
  std::vector<Join> joins;

  const auto remove_inflight = [&](const std::vector<index_t>& point) {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto key_it = inflight_.find(engine_key);
    if (key_it != inflight_.end()) {
      key_it->second.erase(point);
      if (key_it->second.empty()) inflight_.erase(key_it);
    }
  };

  try {
    // Triage each point: store hit, join an in-flight measurement, or
    // claim it for measurement by this call.
    for (std::size_t i = 0; i < points.size(); ++i) {
      switch (store_->probe(engine_key, points[i], &results[i])) {
        case SampleStore::Origin::Memory:
          ++counts.from_memory;
          continue;
        case SampleStore::Origin::Disk:
          ++counts.from_disk;
          continue;
        case SampleStore::Origin::Miss:
          break;
      }
      auto promise = std::make_shared<Promise>();
      {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        auto key_it = inflight_.find(engine_key);
        if (key_it == inflight_.end()) {
          key_it =
              inflight_
                  .emplace(std::string(engine_key),
                           std::map<std::vector<index_t>, Future>{})
                  .first;
        }
        const auto point_it = key_it->second.find(points[i]);
        if (point_it != key_it->second.end()) {
          joins.push_back({i, point_it->second});
          ++counts.joined;
          continue;
        }
        // Record the claim BEFORE registering it in inflight_: if
        // registration throws, the recovery below only has to settle
        // claims it can see.
        claims.push_back({i, promise});
        key_it->second.emplace(points[i], promise->get_future().share());
      }
      // Close the probe->claim race AFTER claiming (and outside the
      // in-flight lock, so one key's journal I/O never serializes other
      // keys' triage): a concurrent fulfill may have measured, inserted
      // and settled this point between our probe above and the claim.
      // Owners insert into the store BEFORE dropping their in-flight
      // entry, so if the entry was gone when we claimed, the store
      // already has the stats -- adopt them into our own promise
      // (joiners of our claim see the same coherent values) instead of
      // measuring again, which would double-pay and, with a real timing
      // source, yield stats differing from what the store/journal kept,
      // breaking warm-start bit-identity. The first probe already
      // counted this point's miss, so the re-check must not count
      // another.
      const SampleStore::Origin origin = store_->probe(
          engine_key, points[i], &results[i], /*count_miss=*/false);
      if (origin != SampleStore::Origin::Miss) {
        claims.back().promise->set_value(results[i]);
        claims.pop_back();
        remove_inflight(points[i]);
        ++(origin == SampleStore::Origin::Disk ? counts.from_disk
                                               : counts.from_memory);
        continue;
      }
      ++counts.measured;
    }

    // Measure the claimed points, store the successful ones as one batch
    // (one journal write when persistent), and only then settle each
    // promise and drop its in-flight registration. Joiners therefore
    // either see the future or find the point in the store, which the
    // re-probe above relies on. A failed point settles its waiters with
    // its error; the batch's successful points are still stored, and the
    // first failure in batch order surfaces after the batch.
    std::vector<std::exception_ptr> errors(claims.size());
    const auto measure_claim = [&](std::size_t c) {
      const std::size_t i = claims[c].index;
      try {
        results[i] = measure(points[i]);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    };

    if (mode == Mode::Exclusive || claims.size() <= 1) {
      for (std::size_t c = 0; c < claims.size(); ++c) measure_claim(c);
    } else {
      // The calling thread participates in the fan-out, so this is safe
      // to run from a pool worker (generation tasks) without
      // deadlocking a saturated pool.
      pool_->parallel_for_each(static_cast<index_t>(claims.size()),
                               [&](index_t c) {
                                 measure_claim(static_cast<std::size_t>(c));
                               });
    }

    std::vector<SampleStore::Measured> measured;
    measured.reserve(claims.size());
    for (std::size_t c = 0; c < claims.size(); ++c) {
      const std::size_t i = claims[c].index;
      if (!errors[c]) measured.push_back({&points[i], results[i]});
    }
    store_->insert(engine_key, measured);

    std::exception_ptr first_error;
    for (std::size_t c = 0; c < claims.size(); ++c) {
      const std::size_t i = claims[c].index;
      if (errors[c]) {
        claims[c].promise->set_exception(errors[c]);
        if (!first_error) first_error = errors[c];
      } else {
        claims[c].promise->set_value(results[i]);
      }
      remove_inflight(points[i]);
    }

    // Collect joined points last: their owners run concurrently with
    // this call's own measurements. get() rethrows the owner's failure.
    for (const Join& join : joins) {
      results[join.index] = join.future.get();
    }

    if (first_error) std::rethrow_exception(first_error);
  } catch (...) {
    // A failure anywhere above (including an allocation failure in the
    // triage loop itself) must not strand a registered claim: settle
    // every one of this call's promises that is still open -- waiters
    // on a dead future would otherwise hang forever -- and drop those
    // registrations so later fulfills re-measure. Claims the settle loop
    // already settled were also already deregistered; touching them
    // again could erase a LATER caller's fresh registration of the same
    // point and let two measurements race.
    const std::exception_ptr error = std::current_exception();
    for (const Claim& claim : claims) {
      try {
        claim.promise->set_exception(error);
      } catch (const std::future_error&) {
        continue;  // settled (and deregistered) by the settle loop
      }
      remove_inflight(points[claim.index]);
    }
    throw;
  }

  if (stats != nullptr) *stats += counts;
  return results;
}

}  // namespace dlap
