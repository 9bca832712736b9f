// micro_predict -- the compiled sweep path vs the reference per-call
// loop, on the two sweep shapes the paper's Section IV services run:
//
//   - a 16-variant sylv ranking sweep (Fig IV.5): sylv traces carry
//     O((m/b)*(n/b)) calls but only O(m/b + n/b) distinct argument
//     shapes, so compiled prediction evaluates models per UNIQUE call;
//   - a trinv blocksize tuning sweep (Fig IV.2).
//
// The baseline is the reference per-call loop (reference::predict in
// tests/support/reference_predict.hpp): regenerate the trace at every
// sweep point, look each call's model up by (routine, flags) with
// allocation-free string_view probes, and evaluate one call at a time.
// The compiled path is Engine::rank / Engine::tune, which compile each
// sweep point once, cache it in the sharded trace LRU, and predict over
// pre-resolved model slots.
//
// Model generation uses a deterministic synthetic cost surface and runs
// before the timed region (Engine::prepare). Three gates (acceptance
// criteria of the compiled-prediction work):
//   - sylv ranking:  compiled warm sweep >= 5x the reference baseline,
//   - trinv tuning:  compiled warm sweep >= 2x the reference baseline,
//   - trace cache:   second identical Engine sweep >= 10x the first
//                    (cold, cache-cleared) one,
// and every compiled prediction must be bit-identical to the baseline.
// Headline metrics land in BENCH_predict.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "predict/compiled_trace.hpp"
#include "reference_predict.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace dlap;
namespace fs = std::filesystem;

MeasureFn synthetic_measure(double offset) {
  return [offset](const std::vector<index_t>& point) {
    double cost = 100.0 + offset;
    for (index_t x : point) {
      const double v = static_cast<double>(x);
      cost += 2.0 * v + 0.03 * v * v;
    }
    SampleStats s;
    s.min = cost * 0.95;
    s.median = cost;
    s.mean = cost * 1.01;
    s.max = cost * 1.10;
    s.stddev = cost * 0.02;
    s.count = 5;
    return s;
  };
}

EngineConfig config_for(const fs::path& dir) {
  EngineConfig cfg;
  cfg.service.repository_dir = dir;
  cfg.service.workers = 4;
  cfg.service.measure_factory = [](const ModelJob& job) {
    double h = 0.0;
    for (char c : ModelService::key_for(job).to_string()) {
      h = 0.9 * h + static_cast<double>(c);
    }
    return synthetic_measure(h);
  };
  return cfg;
}

bool identical(const Prediction& a, const Prediction& b) {
  return a.ticks.min == b.ticks.min && a.ticks.median == b.ticks.median &&
         a.ticks.mean == b.ticks.mean && a.ticks.max == b.ticks.max &&
         a.ticks.stddev == b.ticks.stddev && a.flops == b.flops &&
         a.calls == b.calls && a.skipped == b.skipped &&
         a.missing == b.missing;
}

/// Wall milliseconds of `iters` runs of fn (total, not per run).
template <class Fn>
double wall_ms(Fn&& fn, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The reference loop's models: the repository's model for every
/// distinct (routine, flags) of `specs`.
reference::Models baseline_models(Engine& engine,
                                  const std::vector<OperationSpec>& specs) {
  reference::Models set;
  for (const OperationSpec& spec : specs) {
    for (const KernelCall& call : spec.trace()) {
      const std::string routine = routine_name(call.routine);
      const std::string flags = call.flag_key();
      if (set.find(routine, flags) != nullptr || call_is_degenerate(call)) {
        continue;
      }
      auto model = engine.service().find(
          ModelKey{routine, engine.config().system.backend,
                   engine.config().system.locality, flags});
      if (model == nullptr) {
        std::fprintf(stderr, "baseline model missing for %s/%s\n",
                     routine.c_str(), flags.c_str());
        std::exit(1);
      }
      set.add(std::move(model));
    }
  }
  return set;
}

struct SweepTimings {
  double baseline_ms = 0.0;  ///< reference per-call loop, per sweep
  double cold_ms = 0.0;      ///< compiled path, trace cache cleared
  double warm_ms = 0.0;      ///< compiled path, trace cache hit
  bool identical = true;     ///< compiled == baseline, bit for bit
};

/// Times one sweep shape. `run_engine` executes the engine sweep and
/// returns its predictions; `specs` are the sweep points in order.
template <class RunEngine>
SweepTimings time_sweep(Engine& engine,
                        const std::vector<OperationSpec>& specs,
                        RunEngine&& run_engine, int reps, int warm_iters) {
  using namespace dlap::bench;
  SweepTimings out;
  const reference::Models set = baseline_models(engine, specs);

  // Bit-identity first (also warms everything once).
  const std::vector<Prediction> compiled = run_engine();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Prediction expected = reference::predict(specs[i].trace(), set);
    out.identical = out.identical && identical(compiled[i], expected);
  }

  std::vector<double> baseline_ms, cold_ms, warm_ms;
  for (int r = 0; r < reps; ++r) {
    baseline_ms.push_back(wall_ms(
        [&] {
          // Regenerate the trace at every sweep point, look each call's
          // model up by (routine, flags), evaluate one call at a time.
          for (const OperationSpec& spec : specs) {
            (void)reference::predict(spec.trace(), set);
          }
        },
        1));
    engine.clear_trace_cache();
    cold_ms.push_back(wall_ms([&] { (void)run_engine(); }, 1));
    warm_ms.push_back(wall_ms([&] { (void)run_engine(); }, warm_iters) /
                      warm_iters);
  }
  out.baseline_ms = median(baseline_ms);
  out.cold_ms = median(cold_ms);
  out.warm_ms = median(warm_ms);
  return out;
}

}  // namespace

int main() {
  using namespace dlap::bench;

  const fs::path dir = fs::temp_directory_path() / "dlap_micro_predict";
  fs::remove_all(dir);
  Engine engine(config_for(dir));

  // ---------------------------------------------------------- sweeps
  const index_t sylv_mn = 256, sylv_b = 16;
  const RankQuery sylv_rank = RankQuery::sylv_variants(sylv_mn, sylv_mn,
                                                       sylv_b);
  TuneQuery trinv_tune;
  trinv_tune.spec = OperationSpec::trinv(2, 256, 16);
  trinv_tune.lo = 16;
  trinv_tune.hi = 160;
  trinv_tune.step = 16;
  std::vector<OperationSpec> trinv_specs;
  for (index_t b = trinv_tune.lo; b <= trinv_tune.hi; b += trinv_tune.step) {
    OperationSpec s = trinv_tune.spec;
    s.blocksize = b;
    trinv_specs.push_back(s);
  }

  // Models for both sweeps, generated as one batch outside the timing.
  std::vector<OperationSpec> all_specs = sylv_rank.candidates;
  all_specs.insert(all_specs.end(), trinv_specs.begin(), trinv_specs.end());
  require_ok(engine.prepare(all_specs));

  // Trace redundancy the compiler exploits (the issue's O((m/b)(n/b)) vs
  // O(m/b + n/b) structure, printed for the record).
  const dlap::CallTrace sylv_trace =
      dlap::trace_sylv(1, sylv_mn, sylv_mn, sylv_b);
  const auto sylv_compiled = dlap::CompiledTrace::compile(sylv_trace);
  print_comment(
      "sylv variant 1 trace: " + std::to_string(sylv_compiled.source_calls()) +
      " calls, " + std::to_string(sylv_compiled.unique_calls()) +
      " unique -> " +
      std::to_string(static_cast<double>(sylv_compiled.source_calls()) /
                     static_cast<double>(sylv_compiled.unique_calls())) +
      "x evaluation compression");

  // ------------------------------------------------------- measurement
  const int reps = 9;
  const SweepTimings sylv = time_sweep(
      engine, sylv_rank.candidates,
      [&] {
        return require_ok(engine.rank(sylv_rank)).predictions;
      },
      reps, 20);
  const SweepTimings trinv = time_sweep(
      engine, trinv_specs,
      [&] {
        return require_ok(engine.tune(trinv_tune)).predictions;
      },
      reps, 20);

  const double sylv_speedup = sylv.baseline_ms / sylv.warm_ms;
  const double trinv_speedup = trinv.baseline_ms / trinv.warm_ms;
  const double cache_speedup = sylv.cold_ms / sylv.warm_ms;
  const double sylv_ns_per_query =
      sylv.warm_ms * 1e6 / static_cast<double>(sylv_rank.candidates.size());
  const double baseline_ns_per_query =
      sylv.baseline_ms * 1e6 /
      static_cast<double>(sylv_rank.candidates.size());

  print_header({"sweep", "baseline_ms", "cold_ms", "warm_ms", "speedup",
                "identical"});
  std::printf("  %14s", "sylv_rank16");
  print_row({sylv.baseline_ms, sylv.cold_ms, sylv.warm_ms, sylv_speedup,
             sylv.identical ? 1.0 : 0.0});
  std::printf("  %14s", "trinv_tune10");
  print_row({trinv.baseline_ms, trinv.cold_ms, trinv.warm_ms, trinv_speedup,
             trinv.identical ? 1.0 : 0.0});

  const auto cache = engine.trace_cache_stats();
  print_comment("trace cache: " + std::to_string(cache.hits) + " hits, " +
                std::to_string(cache.misses) + " misses, " +
                std::to_string(cache.size) + " entries");

  const bool identical_ok = sylv.identical && trinv.identical;
  const bool pass = identical_ok && sylv_speedup >= 5.0 &&
                    trinv_speedup >= 2.0 && cache_speedup >= 10.0;
  print_comment(identical_ok
                    ? "compiled predictions bit-identical to the "
                      "reference per-call loop"
                    : "IDENTITY VIOLATION: compiled differs from baseline");
  print_comment("sylv ranking speedup:  " + std::to_string(sylv_speedup) +
                " (need >= 5)");
  print_comment("trinv tuning speedup:  " + std::to_string(trinv_speedup) +
                " (need >= 2)");
  print_comment("warm vs cold sweep:    " + std::to_string(cache_speedup) +
                " (need >= 10)");
  print_comment(pass ? "PASS" : "FAIL");

  BenchJson json;
  json.set("bench", std::string("micro_predict"));
  json.set("sylv_baseline_ns_per_query", baseline_ns_per_query);
  json.set("sylv_compiled_ns_per_query", sylv_ns_per_query);
  json.set("sylv_rank_speedup", sylv_speedup);
  json.set("trinv_tune_speedup", trinv_speedup);
  json.set("trace_cache_warm_speedup", cache_speedup);
  json.set("sylv_trace_calls", sylv_compiled.source_calls());
  json.set("sylv_trace_unique_calls", sylv_compiled.unique_calls());
  json.set("trace_cache_hits", static_cast<index_t>(cache.hits));
  json.set("trace_cache_misses", static_cast<index_t>(cache.misses));
  json.set("bit_identical", identical_ok);
  json.set("pass", pass);
  json.write("BENCH_predict.json");

  fs::remove_all(dir);
  return pass ? 0 : 1;
}
