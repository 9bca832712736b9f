#pragma once
// The trace-walking planner, kept as the oracle the compiled-trace
// planner (api/plan.hpp) is checked against: it walks recorded CallTraces
// call by call and spans each (routine, flags) key's domain over the
// sizes of its non-degenerate calls. plan_jobs over the compiled forms of
// the same traces must yield the same jobs, field for field.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/plan.hpp"
#include "predict/trace.hpp"

namespace dlap::reference {

/// Jobs covering every kernel the traces invoke on `system`: one per
/// distinct (routine, flags), domain [domain_lo, max size seen] per
/// dimension (floored at min_domain_hi). Calls with any zero size are
/// ignored (they are skipped at prediction time too).
inline std::vector<ModelJob> plan_jobs(
    const std::vector<const CallTrace*>& traces, const SystemSpec& system,
    const PlanningPolicy& policy) {
  // Per distinct (routine, flags): the per-dimension size range the calls
  // span across all traces.
  struct SizeRange {
    std::vector<index_t> min, max;
  };
  std::map<std::pair<RoutineId, std::string>, SizeRange> ranges;
  for (const CallTrace* trace : traces) {
    for (const KernelCall& call : *trace) {
      if (call_is_degenerate(call)) continue;
      auto& range = ranges[{call.routine, call.flag_key()}];
      if (range.min.empty()) {
        range.min = call.sizes;
        range.max = call.sizes;
        continue;
      }
      DLAP_REQUIRE(range.min.size() == call.sizes.size(),
                   "plan_jobs: inconsistent call arity");
      for (std::size_t d = 0; d < range.min.size(); ++d) {
        range.min[d] = std::min(range.min[d], call.sizes[d]);
        range.max[d] = std::max(range.max[d], call.sizes[d]);
      }
    }
  }

  std::vector<ModelJob> jobs;
  jobs.reserve(ranges.size());
  for (const auto& [key, range] : ranges) {
    ModelJob job;
    job.backend = system.backend;
    job.request.routine = key.first;
    job.request.flags.assign(key.second.begin(), key.second.end());
    job.request.fixed_ld = policy.fixed_ld;
    job.request.sampler.locality = system.locality;
    job.request.sampler.reps =
        policy.reps + (system.locality == Locality::OutOfCache
                           ? policy.out_of_cache_extra_reps
                           : 0);
    std::vector<index_t> lo(range.min.size());
    std::vector<index_t> hi(range.max.size());
    for (std::size_t d = 0; d < range.min.size(); ++d) {
      // The domain must contain every traced point, so the bounds widen
      // beyond the policy's defaults when calls fall outside them.
      lo[d] = std::min(policy.domain_lo, range.min[d]);
      hi[d] = std::max(range.max[d], policy.min_domain_hi);
    }
    job.request.domain = Region(std::move(lo), std::move(hi));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace dlap::reference
