#include "machine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "modeler/modeler.hpp"
#include "sampler/calls.hpp"

namespace dlapbench {

using dlap::index_t;
using dlap::KernelCall;
using dlap::RoutineId;

const Machine& machine_a() {
  static const Machine m{.overhead = 3000.0,
                         .gemm_rate = 4.0,
                         .trsm_left_rate = 3.2,
                         .trsm_right_rate = 2.6,
                         .trmm_rate = 3.4,
                         .syrk_rate = 3.6,
                         .unblocked_rate = 0.6,
                         .cache_bytes = 262144.0,
                         .cliff = 1.6,
                         .jitter = 0.03,
                         .salt = 0xa11ce5eedULL};
  return m;
}

const Machine& machine_b() {
  static const Machine m{.overhead = 4500.0,
                         .gemm_rate = 3.0,
                         .trsm_left_rate = 2.9,
                         .trsm_right_rate = 2.0,
                         .trmm_rate = 2.5,
                         .syrk_rate = 3.3,
                         .unblocked_rate = 0.5,
                         .cache_bytes = 131072.0,
                         .cliff = 1.9,
                         .jitter = 0.03,
                         .salt = 0xb0b5eedULL};
  return m;
}

namespace {

double rate_of(const Machine& m, const KernelCall& c) {
  switch (c.routine) {
    case RoutineId::Gemm:
      return m.gemm_rate;
    case RoutineId::Trsm:
      return c.flags.at(0) == 'R' ? m.trsm_right_rate : m.trsm_left_rate;
    case RoutineId::Trmm:
      return m.trmm_rate;
    case RoutineId::Syrk:
      return m.syrk_rate;
    case RoutineId::Symm:
    case RoutineId::Syr2k:
      return 0.9 * m.gemm_rate;
    default:
      return m.unblocked_rate;
  }
}

/// Skinny operands waste the kernel's register blocking.
double shape_penalty(const KernelCall& c) {
  const auto size = [&](std::size_t i) {
    return std::max(1.0, static_cast<double>(c.sizes.at(i)));
  };
  switch (c.routine) {
    case RoutineId::Gemm:
      return 1.0 + 24.0 / size(2);
    case RoutineId::Trsm:
    case RoutineId::Trmm:
      return 1.0 + 12.0 / std::min(size(0), size(1));
    default:
      return 1.0;
  }
}

double working_set_bytes(const KernelCall& c) {
  double elements = 0.0;
  for (const dlap::OperandShape& shape : dlap::operand_shapes(c)) {
    elements += static_cast<double>(shape.rows) *
                static_cast<double>(shape.cols);
  }
  return 8.0 * elements;
}

/// Uniform in [-1, 1), a pure function of the call and the machine.
double jitter_unit(const Machine& m, const KernelCall& c) {
  std::uint64_t h = 1469598103934665603ULL ^ m.salt;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(c.routine));
  for (const char f : c.flags) mix(static_cast<unsigned char>(f));
  for (const index_t s : c.sizes) mix(static_cast<std::uint64_t>(s));
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

}  // namespace

double call_cost(const Machine& m, const KernelCall& c) {
  const double ws = working_set_bytes(c);
  // A steep logistic step: smooth enough to be a real machine, steep
  // enough that refinement must split regions around it.
  const double spill =
      1.0 / (1.0 + std::exp(-(ws - m.cache_bytes) / (0.08 * m.cache_bytes)));
  const double slowdown = 1.0 + (m.cliff - 1.0) * spill;
  return m.overhead +
         dlap::call_flops(c) * shape_penalty(c) * slowdown / rate_of(m, c);
}

double trace_cost(const Machine& m, const dlap::CallTrace& trace) {
  double total = 0.0;
  for (const KernelCall& c : trace) {
    if (!dlap::call_is_degenerate(c)) total += call_cost(m, c);
  }
  return total;
}

dlap::SampleStats measure(const Machine& m,
                          const dlap::ModelingRequest& request,
                          const std::vector<index_t>& point) {
  const KernelCall call = dlap::make_call(request, point);
  const double median =
      call_cost(m, call) * (1.0 + m.jitter * jitter_unit(m, call));
  dlap::SampleStats s;
  s.median = median;
  s.min = median * 0.97;
  s.mean = median * 1.01;
  s.max = median * 1.08;
  s.stddev = median * 0.015;
  s.count = 5;
  return s;
}

std::function<dlap::MeasureFn(const dlap::ModelJob&)> measure_factory(
    const Machine& m) {
  return [&m](const dlap::ModelJob& job) -> dlap::MeasureFn {
    return [&m, request = job.request](const std::vector<index_t>& point) {
      return measure(m, request, point);
    };
  };
}

}  // namespace dlapbench
