#include "api/plan.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

namespace dlap {

std::vector<ModelJob> plan_jobs(const std::vector<const CompiledTrace*>& traces,
                                const SystemSpec& system,
                                const PlanningPolicy& policy) {
  // Per distinct (routine, flags): the bounding box of its entries'
  // sizes across all traces. The flag views point into the traces, which
  // outlive this call.
  struct Box {
    std::vector<index_t> lo, hi;
  };
  std::map<std::pair<RoutineId, std::string_view>, Box> boxes;
  std::vector<Box*> by_key;
  for (const CompiledTrace* trace : traces) {
    by_key.clear();
    for (const CompiledKey& key : trace->keys()) {
      by_key.push_back(&boxes[{key.routine, key.flags}]);
    }
    for (const CompiledCall& call : trace->entries()) {
      Box& box = *by_key[static_cast<std::size_t>(call.key)];
      if (box.lo.empty()) {
        box.lo = call.sizes;
        box.hi = call.sizes;
        continue;
      }
      DLAP_REQUIRE(box.lo.size() == call.sizes.size(),
                   "plan_jobs: inconsistent call arity");
      for (std::size_t d = 0; d < box.lo.size(); ++d) {
        box.lo[d] = std::min(box.lo[d], call.sizes[d]);
        box.hi[d] = std::max(box.hi[d], call.sizes[d]);
      }
    }
  }

  std::vector<ModelJob> jobs;
  jobs.reserve(boxes.size());
  for (auto& [key, box] : boxes) {
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
    for (std::size_t d = 0; d < box.lo.size(); ++d) {
      // The domain must contain every entry, so the bounds widen beyond
      // the policy's defaults when entries fall outside them.
      box.lo[d] = std::min(policy.domain_lo, box.lo[d]);
      box.hi[d] = std::max(box.hi[d], policy.min_domain_hi);
    }
    job.request.domain = Region(std::move(box.lo), std::move(box.hi));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<ModelJob> plan_jobs_for_specs(
    const std::vector<OperationSpec>& specs, const SystemSpec& system,
    const PlanningPolicy& policy) {
  std::vector<CompiledTrace> compiled;
  compiled.reserve(specs.size());
  for (const OperationSpec& spec : specs) compiled.push_back(spec.compile());
  std::vector<const CompiledTrace*> traces;
  traces.reserve(compiled.size());
  for (const CompiledTrace& trace : compiled) traces.push_back(&trace);
  return plan_jobs(traces, system, policy);
}

}  // namespace dlap
