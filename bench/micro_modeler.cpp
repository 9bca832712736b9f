// Modeling-cost google-benchmark suite: how expensive are fitting, model
// evaluation, full strategy runs (on synthetic data), trace extraction and
// prediction? These are the framework's own overheads -- the quantities
// that must stay negligible against kernel execution for the paper's
// approach to pay off.

#include <benchmark/benchmark.h>

#include "modeler/fit.hpp"
#include "modeler/repository.hpp"
#include "modeler/strategies.hpp"
#include "predict/trace.hpp"

namespace {

using namespace dlap;

MeasureFn synthetic_fn() {
  return [](const std::vector<index_t>& p) {
    SampleStats s;
    double v = 100.0;
    for (index_t x : p) v += static_cast<double>(x * x);
    s.min = s.median = s.mean = s.max = v;
    s.count = 1;
    return s;
  };
}

void BM_fit_polynomial(benchmark::State& state) {
  const Region r({8, 8}, {512, 512});
  const MeasureFn fn = synthetic_fn();
  std::vector<SamplePoint> samples;
  for (index_t x = 8; x <= 512; x += 56) {
    for (index_t y = 8; y <= 512; y += 56) {
      samples.push_back({{x, y}, fn({x, y})});
    }
  }
  for (auto _ : state) {
    const FitResult fit =
        fit_polynomial(r, samples, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(fit.erelmax);
  }
  state.counters["samples"] = static_cast<double>(samples.size());
}
BENCHMARK(BM_fit_polynomial)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

void BM_strategy_refinement(benchmark::State& state) {
  const Region domain({8, 8}, {512, 512});
  RefinementConfig cfg;
  cfg.base.error_bound = 0.05;
  cfg.base.degree = 2;  // forces refinement of the quadratic+jump surface
  cfg.min_region_size = static_cast<index_t>(state.range(0));
  const MeasureFn fn = [](const std::vector<index_t>& p) {
    SampleStats s;
    double v = 100.0 + static_cast<double>(p[0] * p[1]);
    if (p[0] > 256) v *= 1.5;  // jump
    s.min = s.median = s.mean = s.max = v;
    s.count = 1;
    return s;
  };
  for (auto _ : state) {
    const GenerationResult gen =
        generate_adaptive_refinement(domain, fn, cfg);
    benchmark::DoNotOptimize(gen.unique_samples);
  }
}
BENCHMARK(BM_strategy_refinement)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_strategy_expansion(benchmark::State& state) {
  const Region domain({8, 8}, {512, 512});
  ExpansionConfig cfg;
  cfg.base.error_bound = 0.05;
  cfg.base.degree = 2;
  cfg.initial_size = static_cast<index_t>(state.range(0));
  cfg.direction = ExpansionConfig::Direction::TowardOrigin;
  const MeasureFn fn = synthetic_fn();
  for (auto _ : state) {
    const GenerationResult gen = generate_model_expansion(domain, fn, cfg);
    benchmark::DoNotOptimize(gen.unique_samples);
  }
}
BENCHMARK(BM_strategy_expansion)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

PiecewiseModel synthetic_model() {
  const Region domain({8, 8}, {512, 512});
  RefinementConfig cfg;
  cfg.base.error_bound = 0.01;
  cfg.base.degree = 2;
  cfg.min_region_size = 64;
  return generate_adaptive_refinement(domain, synthetic_fn(), cfg).model;
}

void BM_model_evaluate(benchmark::State& state) {
  const PiecewiseModel model = synthetic_model();
  std::vector<index_t> p{123, 345};
  for (auto _ : state) {
    const SampleStats s = model.evaluate(p);
    benchmark::DoNotOptimize(s.median);
  }
  state.counters["regions"] = static_cast<double>(model.pieces().size());
}
BENCHMARK(BM_model_evaluate)->Unit(benchmark::kNanosecond);

void BM_trace_trinv(benchmark::State& state) {
  for (auto _ : state) {
    const CallTrace t = trace_trinv(3, state.range(0), 96);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_trace_trinv)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_trace_sylv(benchmark::State& state) {
  for (auto _ : state) {
    const CallTrace t = trace_sylv(1, state.range(0), state.range(0), 96);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_trace_sylv)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_serialize_roundtrip(benchmark::State& state) {
  RoutineModel m;
  m.key = {"dtrsm", "blocked", Locality::InCache, "LLNN"};
  m.model = synthetic_model();
  for (auto _ : state) {
    const std::string text = ModelRepository::serialize(m);
    const RoutineModel back = ModelRepository::deserialize(text);
    benchmark::DoNotOptimize(back.unique_samples);
  }
}
BENCHMARK(BM_serialize_roundtrip)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
