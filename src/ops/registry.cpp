#include "ops/registry.hpp"

#include <algorithm>
#include <utility>

namespace dlap {

namespace {

// The trace-driven default planner: derive jobs from the union of the
// specs' call traces (api/plan.hpp). Installed for descriptors that leave
// `plan` empty, so every registered family has a real planner.
//
// Re-traces the specs even though the engine holds the query's traces
// already: planners are keyed on specs so custom ones can plan without
// tracing at all, and this path only runs on a model miss, where the
// sampling it triggers outweighs an in-memory re-trace by orders of
// magnitude.
std::vector<ModelJob> trace_driven_plan(
    const std::vector<OperationSpec>& specs, const SystemSpec& system,
    const PlanningPolicy& policy) {
  std::vector<CallTrace> traces;
  traces.reserve(specs.size());
  for (const OperationSpec& spec : specs) traces.push_back(spec.trace());
  std::vector<const CallTrace*> ptrs;
  ptrs.reserve(traces.size());
  for (const CallTrace& t : traces) ptrs.push_back(&t);
  return plan_jobs(ptrs, system, policy);
}

}  // namespace

OperationRegistry::OperationRegistry() { ops::register_builtin_families(*this); }

OperationRegistry& OperationRegistry::instance() {
  static OperationRegistry registry;
  return registry;
}

bool OperationRegistry::register_family(OperationDescriptor descriptor) {
  DLAP_REQUIRE(!descriptor.name.empty(),
               "OperationRegistry: descriptor needs a name");
  DLAP_REQUIRE(descriptor.variant_count >= 1,
               "OperationRegistry: '" + descriptor.name +
                   "' needs at least one variant");
  DLAP_REQUIRE(descriptor.size_axes == 1 || descriptor.size_axes == 2,
               "OperationRegistry: '" + descriptor.name +
                   "' size_axes must be 1 or 2");
  DLAP_REQUIRE(descriptor.run != nullptr,
               "OperationRegistry: '" + descriptor.name +
                   "' needs a run callback");
  DLAP_REQUIRE(descriptor.nominal_flops != nullptr,
               "OperationRegistry: '" + descriptor.name +
                   "' needs a flop count");
  if (!descriptor.plan) descriptor.plan = trace_driven_plan;

  std::unique_lock<std::shared_mutex> lock(mutex_);
  return families_.emplace(descriptor.name, std::move(descriptor)).second;
}

const OperationDescriptor* OperationRegistry::find(
    std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? nullptr : &it->second;
}

const OperationDescriptor& OperationRegistry::require(
    std::string_view name) const {
  const OperationDescriptor* descriptor = find(name);
  if (descriptor == nullptr) {
    throw lookup_error("unknown operation family: '" + std::string(name) +
                       "'");
  }
  return *descriptor;
}

std::vector<std::string> OperationRegistry::names() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, descriptor] : families_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::vector<ModelJob> plan_jobs_for_specs(
    const std::vector<OperationSpec>& specs, const SystemSpec& system,
    const PlanningPolicy& policy) {
  // Group specs by family, preserving first-seen order for determinism.
  std::vector<std::pair<std::string, std::vector<OperationSpec>>> groups;
  for (const OperationSpec& spec : specs) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == spec.op; });
    if (it == groups.end()) {
      groups.push_back({spec.op, {spec}});
    } else {
      it->second.push_back(spec);
    }
  }

  // Plan each family through its descriptor, then merge by model key: one
  // job per key, its domain the union of the per-family domains (mirrors
  // the engine's grow-don't-replace rule for stored models).
  std::vector<ModelJob> merged;
  std::map<ModelKey, std::size_t> index;
  const OperationRegistry& registry = OperationRegistry::instance();
  for (const auto& [name, group] : groups) {
    const OperationDescriptor& descriptor = registry.require(name);
    for (ModelJob& job : descriptor.plan(group, system, policy)) {
      const ModelKey key = ModelService::key_for(job);
      const auto [it, inserted] = index.emplace(key, merged.size());
      if (inserted) {
        merged.push_back(std::move(job));
        continue;
      }
      ModelJob& existing = merged[it->second];
      DLAP_REQUIRE(
          existing.request.domain.dims() == job.request.domain.dims(),
          "plan_jobs_for_specs: families disagree on the arity of " +
              key.to_string());
      existing.request.domain =
          region_union(existing.request.domain, job.request.domain);
    }
  }
  return merged;
}

}  // namespace dlap
