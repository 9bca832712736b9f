#pragma once
// CompiledTrace: the representation of a call trace that prediction runs
// on (paper Section IV: "Each invocation corresponds to the evaluation of
// the corresponding performance model; the results are then accumulated,
// thus generating a performance prediction").
//
// A blocked algorithm's trace is highly redundant: sylv on an (m, n)
// problem issues O((m/b)*(n/b)) calls but only O(m/b + n/b) distinct
// (routine, flags, sizes) tuples, and every unblocked diagonal call of
// trinv/chol repeats the same full-block size. Compiling a call sequence
// dedupes it into
//   - keys:    the distinct (routine, flags) resolver keys (what a model
//              is looked up by),
//   - entries: the unique (key, size point) calls, each carrying its
//              multiplicity and precomputed flop count,
//   - order:   per source call, the entry it deduped into (or "skipped"),
// so prediction evaluates each model at each unique point ONCE, straight
// into that entry's estimate (PiecewiseModel::evaluate, which allocates
// nothing), and then accumulates the estimates over the original call
// order.
//
// One compiler, CompiledTrace::Builder, does the dedupe one call at a
// time on fixed-size values, allocating only per unique entry. It has two
// feeds that yield the same compiled form field for field:
// CompiledTrace::compile walks a recorded CallTrace (a raw-trace query's),
// and CompilingContext is the KernelContext a blocked algorithm runs
// against to be compiled as it issues its calls, with no CallTrace in
// between (OperationSpec::compile, the engine's trace-cache miss path).
// The compiled form is the engine's only record of a query's calls: it
// drives prediction here and model planning too (api/plan.hpp spans each
// key's domain over its entries).
//
// Accumulating in source order -- rather than folding each entry's
// contribution as multiplicity * estimate (and multiplicity-scaled
// variance for the stddev) -- costs a few additions per call but keeps
// the result BIT-identical to the plain per-call loop (evaluate each
// call's model, add in trace order) for arbitrary model values:
// floating-point addition is not associative, so any regrouping would
// drift in the last ulps. The expensive work (model lookups, region
// search, polynomial evaluation) is per unique entry either way.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
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
/// the trace, so the engine compiles a spec once and shares the trace
/// across systems (api/trace_cache.hpp).
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
  class Builder;

  /// source_order() value of a dropped degenerate call.
  static constexpr std::int32_t kSkippedCall = -1;

  CompiledTrace() = default;

  /// Compiles `trace`: a Builder fed each call in trace order.
  /// Degenerate zero-size calls (call_is_degenerate) perform no flops:
  /// they are counted and dropped, so they never reach a model, and every
  /// key has at least one non-degenerate entry.
  [[nodiscard]] static CompiledTrace compile(const CallTrace& trace);

  [[nodiscard]] const std::vector<CompiledKey>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] const std::vector<CompiledCall>& entries() const noexcept {
    return entries_;
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
  /// Per source call, in source order: the index of the entry it deduped
  /// into, or kSkippedCall.
  [[nodiscard]] const std::vector<std::int32_t>& source_order()
      const noexcept {
    return order_;
  }

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
  std::vector<std::int32_t> order_;  ///< see source_order()
  index_t source_calls_ = 0;
  index_t skipped_ = 0;
};

/// The trace compiler: takes one source call at a time and dedupes it on
/// fixed-size values (routine, at most kMaxFlags flag characters, at most
/// kMaxSizes sizes), so a call that repeats an earlier (routine, flags,
/// sizes) costs a hash probe and no allocation. Keys and entries are
/// numbered in first-seen order, and a new entry's flops come from
/// call_flops, so the result depends only on the sequence of calls fed
/// in, not on where it came from.
class CompiledTrace::Builder {
 public:
  static constexpr std::size_t kMaxFlags = 4;
  static constexpr std::size_t kMaxSizes = 3;

  /// Appends the next source call: its flag values and sizes in signature
  /// order. Throws dlap::invalid_argument_error when it has more than
  /// kMaxFlags flags or kMaxSizes sizes (no routine does).
  void add(RoutineId routine, std::span<const char> flags,
           std::span<const index_t> sizes);

  /// Capacity hint: about `calls` source calls follow.
  void reserve(std::size_t calls) {
    out_.order_.reserve(out_.order_.size() + calls);
  }

  /// The compiled form of every call added so far.
  [[nodiscard]] CompiledTrace finish() && { return std::move(out_); }

 private:
  /// A (routine, flags) resolver key as a fixed-size value.
  struct KeyProbe {
    RoutineId routine = RoutineId::Gemm;
    std::uint8_t nflags = 0;
    std::array<char, kMaxFlags> flags{};
    [[nodiscard]] bool operator==(const KeyProbe&) const = default;
  };
  /// A (key, sizes) entry as a fixed-size value.
  struct EntryProbe {
    KeyProbe key;
    std::uint8_t nsizes = 0;
    std::array<index_t, kMaxSizes> sizes{};
    [[nodiscard]] bool operator==(const EntryProbe&) const = default;
  };
  struct ProbeHash {
    [[nodiscard]] std::size_t operator()(const KeyProbe& k) const noexcept;
    [[nodiscard]] std::size_t operator()(const EntryProbe& e) const noexcept;
  };

  CompiledTrace out_;
  std::unordered_map<KeyProbe, int, ProbeHash> key_ids_;
  std::unordered_map<EntryProbe, std::int32_t, ProbeHash> entry_ids_;
};

/// The KernelContext that compiles: every kernel a blocked algorithm
/// issues goes straight into a CompiledTrace::Builder, so running the
/// algorithm against it yields CompiledTrace::compile of the CallTrace a
/// TraceContext would have recorded, without building that trace. Like
/// TraceContext it never dereferences an operand pointer.
class CompilingContext final : public KernelContext {
 public:
  /// The compiled form of every call issued so far.
  [[nodiscard]] CompiledTrace finish() && {
    return std::move(builder_).finish();
  }

  void reserve(index_t calls) override {
    if (calls > 0) builder_.reserve(static_cast<std::size_t>(calls));
  }
  void gemm(Trans transa, Trans transb, index_t m, index_t n, index_t k,
            double alpha, const double* a, index_t lda, const double* b,
            index_t ldb, double beta, double* c, index_t ldc) override;
  void trsm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
            index_t n, double alpha, const double* a, index_t lda, double* b,
            index_t ldb) override;
  void trmm(Side side, Uplo uplo, Trans transa, Diag diag, index_t m,
            index_t n, double alpha, const double* a, index_t lda, double* b,
            index_t ldb) override;
  void syrk(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
            const double* a, index_t lda, double beta, double* c,
            index_t ldc) override;
  void trinv_unb(int variant, index_t n, double* l, index_t ldl) override;
  void chol_unb(int variant, index_t n, double* a, index_t lda) override;
  void sylv_unb(index_t m, index_t n, const double* l, index_t ldl,
                const double* u, index_t ldu, double* x,
                index_t ldx) override;

 private:
  CompiledTrace::Builder builder_;
};

}  // namespace dlap
