#pragma once
// The synthetic machine behind the benchmark: kernel "measurements" and
// ground truth are one pure function of (routine, flags, sizes, system).
//
// Each machine has per-kernel rates, a per-call overhead, a cache cliff
// (calls whose operands outgrow the cache run slower, so a single
// polynomial cannot fit across it) and a deterministic +-3 % jitter on
// measurements. Truth is the jitter-free cost summed over a trace, which
// is what a ranking or tuning answer should have picked.

#include <functional>

#include "api/engine.hpp"

namespace dlapbench {

struct Machine {
  double overhead;      ///< ticks per call
  double gemm_rate;     ///< flops per tick
  double trsm_left_rate;
  double trsm_right_rate;
  double trmm_rate;
  double syrk_rate;
  double unblocked_rate;
  double cache_bytes;   ///< working set at which the cliff sits
  double cliff;         ///< slowdown factor past the cliff
  double jitter;        ///< relative half-width of measurement jitter
  unsigned long long salt;
};

/// System A: serves the fixture of every workload.
[[nodiscard]] const Machine& machine_a();
/// System B: generated cold by the `generate` workload; different rates
/// and a smaller cache.
[[nodiscard]] const Machine& machine_b();

/// Jitter-free cost of one call, in ticks.
[[nodiscard]] double call_cost(const Machine& machine,
                               const dlap::KernelCall& call);

/// Ground truth of an operation: call_cost summed over its trace, with
/// zero-size calls skipped as the predictor skips them.
[[nodiscard]] double trace_cost(const Machine& machine,
                                const dlap::CallTrace& trace);

/// Measurement source for ServiceConfig::measure_factory: every job
/// samples the machine (with jitter), whatever backend key it carries.
[[nodiscard]] std::function<dlap::MeasureFn(const dlap::ModelJob&)>
measure_factory(const Machine& machine);

/// One measurement of a job's call at a parameter point.
[[nodiscard]] dlap::SampleStats measure(const Machine& machine,
                                        const dlap::ModelingRequest& request,
                                        const std::vector<dlap::index_t>& point);

}  // namespace dlapbench
