#pragma once
// Job planning: derive the modeling jobs a query needs from the compiled
// traces the engine already holds for it (paper Section III: models are
// generated for the kernels a blocked algorithm calls, over the size
// ranges those calls span). One job per distinct (routine, flags) key the
// traces invoke, its domain the PlanningPolicy bounds applied to the
// bounding box of that key's entries across all the traces.
//
// This is the one planner: Engine::resolve runs it over the compiled
// traces of every point of a query when some model has to be generated,
// and plan_jobs_for_specs compiles specs and runs it.

#include <vector>

#include "api/query.hpp"
#include "predict/compiled_trace.hpp"
#include "service/model_service.hpp"

namespace dlap {

/// Knobs of the derivation; engine-wide, not per query.
struct PlanningPolicy {
  /// Domain lower bound per size dimension (the paper samples from 8).
  index_t domain_lo = 8;
  /// Domain upper bound floor, so one tiny trace still yields a model
  /// usable for neighboring queries.
  index_t min_domain_hi = 64;
  /// Leading dimension fixed throughout generation (the paper uses 2500).
  index_t fixed_ld = 512;
  /// Sampler repetitions per measured point.
  index_t reps = 3;
  /// Out-of-cache measurements fluctuate more; extra repetitions keep the
  /// refinement from chasing noise.
  index_t out_of_cache_extra_reps = 2;
};

/// Jobs covering every kernel the traces invoke on `system`: one per
/// distinct (routine, flags), in (routine, flags) order, with domain
/// [min(domain_lo, min size), max(max size, min_domain_hi)] per dimension
/// over that key's entries. Compilation already dropped the zero-size
/// calls, so they never widen a domain. Throws
/// dlap::invalid_argument_error when one key's entries differ in arity
/// (never for specs, nor for calls that pass validate_call).
[[nodiscard]] std::vector<ModelJob> plan_jobs(
    const std::vector<const CompiledTrace*>& traces, const SystemSpec& system,
    const PlanningPolicy& policy);

/// plan_jobs over the specs' compiled traces. Specs must name registered
/// families (dlap::lookup_error otherwise -- Engine validates specs before
/// it compiles them).
[[nodiscard]] std::vector<ModelJob> plan_jobs_for_specs(
    const std::vector<OperationSpec>& specs, const SystemSpec& system,
    const PlanningPolicy& policy);

}  // namespace dlap
