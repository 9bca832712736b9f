#pragma once
// Shared support for the figure-reproduction benches.
//
// Every fig_* binary prints the series the corresponding paper figure
// plots, as whitespace-aligned columns with a '#'-prefixed header, so the
// output can be fed straight to gnuplot/pandas. Two scales are supported:
//   - default: CI-friendly domains (minutes for the whole suite),
//   - DLAPERF_PAPER_SCALE=1: the paper's exact domains.
// Model access goes through one process-wide Engine: queries derive their
// modeling jobs automatically, generated models land in an on-disk
// repository (DLAPERF_MODEL_DIR, default ./dlaperf_models) keyed by
// routine/backend/locality/flags, so the model-hungry benches share one
// generation pass; a batch of missing models is generated concurrently
// (DLAPERF_WORKERS, default hardware concurrency).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "blas/registry.hpp"
#include "modeler/modeler.hpp"
#include "modeler/repository.hpp"
#include "modeler/strategies.hpp"
#include "predict/compiled_trace.hpp"
#include "predict/trace.hpp"
#include "sampler/machine.hpp"
#include "sampler/sampler.hpp"
#include "service/model_service.hpp"

namespace dlap::bench {

/// Problem-size scales for the current run.
struct Scales {
  bool paper = false;
  index_t sweep_max = 384;      ///< largest n in size sweeps (paper: 1024)
  index_t sweep_step = 8;       ///< size sweep granularity
  index_t trinv_fixed_n = 256;  ///< block-size sweeps (paper: 1000)
  index_t blocksize = 96;       ///< the paper's default block size
  index_t bsweep_max = 256;     ///< largest block size in b sweeps
  index_t model_max_2d = 384;   ///< 2-D model domain upper bound
  index_t model_max_3d = 256;   ///< 3-D (gemm) model domain upper bound
  index_t model_max_unb = 256;  ///< unblocked-kernel model domain bound
  index_t sylv_max = 384;       ///< sylv sweep bound (paper: 1024)
  /// sylv block size. Default 16: on hosts with very large last-level
  /// caches the memory-traffic penalty of push-style schedules only shows
  /// once the pull gemms become skinny; the paper's 96 is used at paper
  /// scale.
  index_t sylv_blocksize = 16;
  index_t reps = 3;             ///< sampler repetitions
};

/// Reads DLAPERF_PAPER_SCALE / DLAPERF_REPS and derives the scales.
[[nodiscard]] Scales current_scales();

/// The three "libraries" of the paper's comparisons.
[[nodiscard]] std::vector<std::string> library_backends();

/// System A (Harpertown stand-in) and system B (Sandy Bridge stand-in).
[[nodiscard]] std::string system_a();
[[nodiscard]] std::string system_b();

// ------------------------------------------------------------- printing

void print_comment(const std::string& text);
void print_header(const std::vector<std::string>& columns);
void print_row(const std::vector<double>& values);
void print_row(double x, const std::vector<double>& values);

/// Streams a 2-D generation stepper's construction events as table rows
/// (step, event kind, region bounds, error, samples) -- prints only the
/// events produced since the previous call, advancing *printed / *step.
/// Used by the fig_iii4/fig_iii5 walk-throughs between batches.
void print_generation_events(const GenerationStepper& stepper,
                             std::size_t* printed, index_t* step);

// -------------------------------------------------- machine-readable out

/// Tiny flat-JSON-object writer: the micro benches dump their headline
/// metrics (ns/query, speedups, pass/fail gates) as BENCH_<name>.json so
/// the perf trajectory is tracked across PRs (CI uploads the files as
/// artifacts). Fields keep insertion order; non-finite numbers render as
/// null.
class BenchJson {
 public:
  void set(const std::string& key, double value);
  void set(const std::string& key, index_t value);
  void set(const std::string& key, bool value);
  void set(const std::string& key, const std::string& value);

  [[nodiscard]] std::string to_string() const;

  /// Writes the object to `path` (e.g. "BENCH_predict.json") and prints a
  /// comment naming the file. Exits nonzero on I/O failure -- a perf-smoke
  /// run without its artifact is a failed run.
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key, rendered
};

// -------------------------------------------------------- engine access

/// The Adaptive Refinement configuration the paper selects in III-D3
/// (error bound 10%, minimum region size 32).
[[nodiscard]] RefinementConfig paper_refinement_config();

/// The process-wide engine every bench queries: repository at
/// DLAPERF_MODEL_DIR, DLAPERF_WORKERS generation workers, the paper's
/// refinement configuration and generation leading dimension (2500).
/// Benches call Engine::prepare with their sweep's largest specs so the
/// whole sweep's models are generated as one concurrent batch up front.
[[nodiscard]] Engine& shared_engine();

/// Unwraps a Result or exits with the status on stderr (a bench has no
/// recovery path for a failed query). The lvalue overload returns a
/// reference into the Result; the rvalue overload moves the value out, so
/// unwrapping a temporary (`require_ok(engine.rank(q))`) can never
/// dangle.
template <class T>
const T& require_ok(const Result<T>& result) {
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().to_string().c_str());
    std::exit(1);
  }
  return *result;
}

template <class T>
T require_ok(Result<T>&& result) {
  require_ok(static_cast<const Result<T>&>(result));
  return std::move(*result);
}

/// Exits with the status on stderr unless it is Ok (for Engine::prepare).
void require_ok(const Status& status);

// ----------------------------------------------------- direct execution

/// Median ticks of actually executing trinv variant `variant` with the
/// given backend (fresh well-conditioned operand per repetition).
[[nodiscard]] double measure_trinv_ticks(const std::string& backend,
                                         int variant, index_t n,
                                         index_t blocksize, index_t reps);

/// Median ticks of actually executing sylv variant `variant` (m = n).
[[nodiscard]] double measure_sylv_ticks(const std::string& backend,
                                        int variant, index_t n,
                                        index_t blocksize, index_t reps);

/// Median ticks of actually executing chol variant `variant` (fresh SPD
/// operand per repetition).
[[nodiscard]] double measure_chol_ticks(const std::string& backend,
                                        int variant, index_t n,
                                        index_t blocksize, index_t reps);

/// Efficiency of a trinv / sylv / chol run from its tick count.
[[nodiscard]] double trinv_efficiency(index_t n, double ticks);
[[nodiscard]] double sylv_efficiency(index_t n, double ticks);
[[nodiscard]] double chol_efficiency(index_t n, double ticks);

}  // namespace dlap::bench
