#pragma once
// Kernel-call descriptors.
//
// A KernelCall is the value the whole framework revolves around: the
// Sampler measures calls, the Modeler models the mapping
// (call arguments) -> (performance statistics), the tracer records the
// calls a blocked algorithm makes, and the predictor evaluates models on
// them. Arguments are classified as in the paper (Section III-A): flags,
// sizes, scalars, data, and leading dimensions; models only account for
// flags and sizes.
//
// Calls have a textual form identical in spirit to the paper's tuples,
// e.g.  dtrsm(R,L,N,U,512,128,0.37,A,256,B,512).

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "blas/backend.hpp"
#include "common/matrix.hpp"
#include "common/types.hpp"

namespace dlap {

/// Routines the framework can measure, model and predict.
enum class RoutineId : int {
  Gemm = 0,
  Trsm,
  Trmm,
  Syrk,
  Symm,
  Syr2k,
  Trinv1Unb,  // unblocked trinv, loop structure of blocked variant 1
  Trinv2Unb,
  Trinv3Unb,
  Trinv4Unb,
  SylvUnb,  // unblocked triangular Sylvester solve
  Chol1Unb,  // unblocked Cholesky, loop structure of blocked variant 1
  Chol2Unb,
  Chol3Unb,
};

inline constexpr int kRoutineCount = 14;

/// The unblocked trinv routine with the loop structure of blocked variant
/// `variant` (1-3; any other value names variant 4's).
[[nodiscard]] constexpr RoutineId trinv_unb_routine(int variant) noexcept {
  switch (variant) {
    case 1: return RoutineId::Trinv1Unb;
    case 2: return RoutineId::Trinv2Unb;
    case 3: return RoutineId::Trinv3Unb;
    default: return RoutineId::Trinv4Unb;
  }
}

/// The unblocked Cholesky routine of blocked variant `variant` (1-2; any
/// other value names variant 3's).
[[nodiscard]] constexpr RoutineId chol_unb_routine(int variant) noexcept {
  switch (variant) {
    case 1: return RoutineId::Chol1Unb;
    case 2: return RoutineId::Chol2Unb;
    default: return RoutineId::Chol3Unb;
  }
}

[[nodiscard]] const char* routine_name(RoutineId id);
[[nodiscard]] RoutineId routine_from_name(const std::string& name);

/// The paper's argument classification (Section III-A).
enum class ArgKind : char {
  Flag = 'f',
  Size = 's',
  Scalar = 'a',
  Data = 'D',
  Lead = 'l',
};

/// Ordered argument-kind template of a routine's textual signature.
[[nodiscard]] const std::vector<ArgKind>& routine_signature(RoutineId id);

/// A concrete routine invocation. Data arguments are represented only by
/// position (their buffers are supplied at execution time), exactly as the
/// paper reduces them to size + storage location.
struct KernelCall {
  RoutineId routine = RoutineId::Gemm;
  std::vector<char> flags;     ///< flag values in signature order
  std::vector<index_t> sizes;  ///< size arguments in signature order
  std::vector<double> scalars;
  std::vector<index_t> leads;  ///< leading dimensions in signature order

  /// Submodel key: the flag characters joined, e.g. "LLNN" (empty when the
  /// routine has no flags).
  [[nodiscard]] std::string flag_key() const {
    return std::string(flags.begin(), flags.end());
  }

  /// flag_key without the allocation: a view over the stored flag values
  /// (valid while the call is; the resolver hot path uses this).
  [[nodiscard]] std::string_view flag_view() const noexcept {
    return {flags.data(), flags.size()};
  }
};

/// True when any size argument is zero: the call performs no flops (such
/// calls appear naturally in traces, e.g. the first trinv iteration's
/// dtrmm with n = 0). The trace compiler drops the calls this predicate
/// flags, so neither prediction nor planning ever sees them.
[[nodiscard]] bool call_is_degenerate(std::span<const index_t> sizes) noexcept;
[[nodiscard]] bool call_is_degenerate(const KernelCall& call) noexcept;

/// Throws dlap::invalid_argument_error unless the field counts match the
/// routine's signature and all sizes/leads are valid.
void validate_call(const KernelCall& call);

/// Number of double-precision flops a call of `routine` with these flag
/// values and sizes (signature order) performs, mult+add counted
/// separately, matching the efficiency formulas in the paper. The one flop
/// formula: the KernelCall overload and the trace compiler both use it.
/// Throws dlap::invalid_argument_error when `flags` or `sizes` is shorter
/// than the formula reads.
[[nodiscard]] double call_flops(RoutineId routine,
                                std::span<const char> flags,
                                std::span<const index_t> sizes);
[[nodiscard]] double call_flops(const KernelCall& call);

/// Shape/type of one matrix operand of a call.
struct OperandShape {
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;
  enum class Fill { General, LowerTri, UpperTri, Symmetric, SymPosDef } fill =
      Fill::General;
  bool written = false;  ///< operand is modified by the call
};

/// Shapes of all data operands, in signature order.
[[nodiscard]] std::vector<OperandShape> operand_shapes(const KernelCall& c);

/// Parses the textual form "name(arg,...)"; data arguments accept any
/// token. Throws dlap::parse_error on malformed input.
[[nodiscard]] KernelCall parse_call(const std::string& text);

/// Formats a call into its canonical textual form (data args rendered as
/// A, B, C in order).
[[nodiscard]] std::string format_call(const KernelCall& call);

/// Executes the call on the given operand buffers (one per Data argument,
/// in signature order) using `backend` for level-3 routines and the scalar
/// kernels for unblocked ones.
void execute_call(const KernelCall& call, Level3Backend& backend,
                  const std::vector<double*>& operands);

}  // namespace dlap
