#pragma once
// CompiledTrace: the representation of a call trace that prediction runs
// on (paper Section IV: "Each invocation corresponds to the evaluation of
// the corresponding performance model; the results are then accumulated,
// thus generating a performance prediction").
//
// A blocked algorithm's trace is highly redundant: sylv on an (m, n)
// problem issues O((m/b)*(n/b)) calls but only O(m/b + n/b) distinct
// (routine, flags, sizes) tuples, and every unblocked diagonal call of
// trinv/chol repeats the same full-block size. Compiling a CallTrace
// dedupes it into
//   - keys:    the distinct (routine, flags) resolver keys (what a model
//              is looked up by),
//   - entries: the unique (key, size point) calls, each carrying its
//              multiplicity and precomputed flop count,
//   - order:   per source call, the entry it deduped into (or "skipped"),
// so prediction evaluates each model at each unique point ONCE (batched
// per key through PiecewiseModel::evaluate_many) and then accumulates the
// cached estimates over the original call order.
//
// Accumulating in source order -- rather than folding each entry's
// contribution as multiplicity * estimate (and multiplicity-scaled
// variance for the stddev) -- costs a few additions per call but keeps
// the result BIT-identical to the plain per-call loop (evaluate each
// call's model, add in trace order) for arbitrary model values:
// floating-point addition is not associative, so any regrouping would
// drift in the last ulps. The expensive work (model lookups, region
// search, polynomial evaluation) is per unique entry either way.

#include <cstdint>
#include <string>
#include <vector>

#include "modeler/modeler.hpp"
#include "predict/trace.hpp"
#include "sampler/stats.hpp"

namespace dlap {

struct Prediction {
  /// Accumulated tick statistics: sums of min/median/mean/max, stddev
  /// combined as sqrt of summed variances (independence assumption).
  SampleStats ticks;
  double flops = 0.0;
  index_t calls = 0;    ///< calls that contributed estimates
  index_t skipped = 0;  ///< degenerate (zero-work) calls
  index_t missing = 0;  ///< calls whose key had no model

  /// Efficiency estimate for a given total flop count (callers often use
  /// the operation's nominal flop formula rather than the trace sum).
  /// Defined for every input: returns 0 when total_flops is nonpositive or
  /// non-finite, and for empty or all-skipped traces (median 0) -- never
  /// NaN.
  [[nodiscard]] double efficiency_median(double total_flops) const;
};

/// Appends the wire text of `p`, the JSON object a dlapd predict answer
/// is: {"ticks":{"min","median","mean","max","stddev","count"},"flops",
/// "calls","skipped","missing"}, every number (the integer fields
/// converted to double) as the text of printf("%.17g"). The one writer
/// of a Prediction's text: responses and the text each snapshot stores
/// (api/trace_cache.hpp) both come from it, and it writes exactly the
/// bytes of server::render_prediction(p).dump().
void write_prediction(const Prediction& p, std::string* out);

/// One distinct (routine, flags) pair of a compiled trace: the unit of
/// model resolution. Backend/locality are properties of the query, not
/// the trace, so a compiled trace is reusable across systems.
struct CompiledKey {
  RoutineId routine = RoutineId::Gemm;
  std::string flags;  ///< flag values joined (KernelCall::flag_key)
};

/// One unique (key, size point) call: the unit of model evaluation.
struct CompiledCall {
  int key = 0;                  ///< index into CompiledTrace::keys()
  std::vector<index_t> sizes;   ///< size arguments in signature order
  std::vector<double> point;    ///< sizes as doubles (evaluation input)
  double flops = 0.0;           ///< flops of ONE occurrence
  index_t multiplicity = 0;     ///< occurrences in the source trace
};

class CompiledTrace {
 public:
  CompiledTrace() = default;

  /// Compiles `trace`. Degenerate zero-size calls (call_is_degenerate)
  /// perform no flops: they are counted and dropped, so they never reach
  /// a model, and every key has at least one non-degenerate entry.
  [[nodiscard]] static CompiledTrace compile(const CallTrace& trace);

  [[nodiscard]] const std::vector<CompiledKey>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::vector<CompiledCall>& entries() const noexcept {
    return entries_;
  }
  /// Entry indices per key (evaluation batches).
  [[nodiscard]] const std::vector<std::uint32_t>& entries_of(
      int key) const {
    return key_entries_.at(static_cast<std::size_t>(key));
  }

  /// Calls in the source trace.
  [[nodiscard]] index_t source_calls() const noexcept {
    return source_calls_;
  }
  /// Unique (key, point) entries -- the number of model evaluations a
  /// prediction performs.
  [[nodiscard]] index_t unique_calls() const noexcept {
    return static_cast<index_t>(entries_.size());
  }
  /// Degenerate calls dropped at compile time.
  [[nodiscard]] index_t skipped() const noexcept { return skipped_; }

  /// Predicts against pre-resolved models: models_by_key[k] is the model
  /// for keys()[k] (nullptr = missing; such entries' occurrences count
  /// into Prediction::missing, never throw). The result is bit-identical
  /// to evaluating each source call's model and accumulating in trace
  /// order.
  [[nodiscard]] Prediction predict(
      const std::vector<const RoutineModel*>& models_by_key) const;

 private:
  std::vector<CompiledKey> keys_;
  std::vector<CompiledCall> entries_;
  std::vector<std::vector<std::uint32_t>> key_entries_;
  /// Per source call: entry index, or kSkippedCall for dropped
  /// degenerate calls.
  std::vector<std::int32_t> order_;
  index_t source_calls_ = 0;
  index_t skipped_ = 0;

  static constexpr std::int32_t kSkippedCall = -1;
};

}  // namespace dlap
