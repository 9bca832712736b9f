#pragma once
// OperationRegistry: pluggable operation families.
//
// The paper's pipeline generalizes across operations — trinv and sylv are
// merely its two worked examples. This registry makes that generality
// concrete: every blocked-operation family the engine can reason about
// registers one OperationDescriptor (its name, variant count, size axes,
// blocked algorithm and nominal flop count), and the api layer
// (`OperationSpec`, `RankQuery`, Engine validation) performs registry
// lookups instead of branching over hardcoded family names. Which models
// a family needs follows from the calls its algorithm issues: the engine
// plans them from the compiled traces (api/plan.hpp). Adding a workload
// is a one-file registration (docs/ADDING_AN_OPERATION.md walks through
// the Cholesky family, src/ops/families.cpp, end to end).
//
// Layering: src/ops sits between the domain layers (algorithms, predict)
// and the api facade. The descriptor signatures reference the api's
// OperationSpec, whose header depends on nothing in src/ops; the api's
// *implementations* call back into the registry.

#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.hpp"
#include "predict/trace.hpp"

namespace dlap {

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

namespace ops {
/// Registers trinv, sylv and chol (called once by
/// OperationRegistry::instance; exposed for documentation/tests).
void register_builtin_families(OperationRegistry& registry);
}  // namespace ops

}  // namespace dlap
