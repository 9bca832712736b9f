#pragma once
// OperationRegistry: pluggable operation families.
//
// The paper's pipeline generalizes across operations — trinv and sylv are
// merely its two worked examples. This registry makes that generality
// concrete: every blocked-operation family the engine can reason about
// registers one OperationDescriptor (its name, variant count, size axes,
// blocked algorithm, nominal flop count, and domain planner), and the
// api layer (`OperationSpec`, `RankQuery`, spec→job planning, Engine
// validation) performs registry lookups instead of branching over
// hardcoded family names. Adding a workload is a one-file registration
// (docs/ADDING_AN_OPERATION.md walks through the Cholesky family,
// src/ops/families.cpp, end to end).
//
// Layering: src/ops sits between the domain layers (algorithms, predict,
// service) and the api facade. The descriptor signatures reference the
// api's value types (OperationSpec, SystemSpec, PlanningPolicy), whose
// headers depend on nothing in src/ops; the api's *implementations* call
// back into the registry.

#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/plan.hpp"
#include "api/query.hpp"
#include "predict/trace.hpp"
#include "service/model_service.hpp"

namespace dlap {

/// Plans the model-generation jobs a set of same-family specs needs on
/// `system`: which (routine, flags) pairs to model and over which size
/// domains. The jobs MUST cover every non-degenerate call of every spec's
/// trace, or prediction fails with UncoveredDomain.
using DomainPlanner = std::function<std::vector<ModelJob>(
    const std::vector<OperationSpec>& specs, const SystemSpec& system,
    const PlanningPolicy& policy)>;

/// Everything the engine needs to know about one operation family.
struct OperationDescriptor {
  /// Family name; the `op` field of an OperationSpec ("trinv", "sylv",
  /// "chol", ...). Also the registry key.
  std::string name;
  /// Number of algorithmic variants, numbered 1..variant_count.
  int variant_count = 0;
  /// Problem-size axes: 1 (square problems, `n` alone) or 2 (`m` and `n`).
  int size_axes = 1;
  /// Runs the operation's blocked algorithm for a validated spec against
  /// `ctx`, issuing its exact invocation sequence as kernel calls. The
  /// context is a recording one (TraceContext for OperationSpec::trace,
  /// CompilingContext for OperationSpec::compile), so operand pointers
  /// are never dereferenced and may be null; the built-in families run on
  /// untouched buffers (record_trinv, ... in predict/trace.hpp).
  std::function<void(const OperationSpec&, KernelContext&)> run;
  /// Nominal flop count (the paper's efficiency formulas use this, not
  /// the trace sum).
  std::function<double(const OperationSpec&)> nominal_flops;
  /// Domain planner; leave empty to get the trace-driven default (one job
  /// per distinct (routine, flags) the traces invoke, domains spanning
  /// the union of the calls' size arguments — api/plan.hpp).
  DomainPlanner plan;
};

/// Process-wide, thread-safe family table. The built-in families (trinv,
/// sylv, chol — src/ops/families.cpp) are registered on first use;
/// callers may register additional families at any time.
class OperationRegistry {
 public:
  /// The singleton. First access registers the built-in families.
  [[nodiscard]] static OperationRegistry& instance();

  /// Registers a family. Registration is idempotent by name: a second
  /// descriptor under an existing name is ignored and `false` is
  /// returned, so repeated registration (static initializers, repeated
  /// test setup) is safe. Throws dlap::invalid_argument_error when the
  /// descriptor is malformed (empty name, no variants, missing run or
  /// flop callbacks, size_axes outside {1, 2}).
  bool register_family(OperationDescriptor descriptor);

  /// nullptr when no family with that name is registered. The returned
  /// descriptor lives as long as the registry (families are never
  /// unregistered).
  [[nodiscard]] const OperationDescriptor* find(std::string_view name) const;

  /// Like find, but throws dlap::lookup_error on unknown names.
  [[nodiscard]] const OperationDescriptor& require(
      std::string_view name) const;

  /// Registered family names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  OperationRegistry();

  mutable std::shared_mutex mutex_;
  // Node-based map: descriptor addresses stay valid across registrations.
  std::map<std::string, OperationDescriptor, std::less<>> families_;
};

/// Jobs covering every kernel the specs' traces invoke on `system`,
/// planned per family through each descriptor's DomainPlanner and merged
/// across families (same-key jobs keep one entry whose domain is the
/// region union). Specs must name registered families (dlap::lookup_error
/// otherwise — Engine validates specs before planning).
[[nodiscard]] std::vector<ModelJob> plan_jobs_for_specs(
    const std::vector<OperationSpec>& specs, const SystemSpec& system,
    const PlanningPolicy& policy);

namespace ops {
/// Registers trinv, sylv and chol (called once by
/// OperationRegistry::instance; exposed for documentation/tests).
void register_builtin_families(OperationRegistry& registry);
}  // namespace ops

}  // namespace dlap
