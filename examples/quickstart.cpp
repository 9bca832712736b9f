// Quickstart: the 60-second tour of dlaperf.
//
//  1. measure a BLAS call with the Sampler,
//  2. ask the Engine -- the typed, non-throwing query facade -- for a
//     prediction of a call it has never seen: the engine derives the
//     modeling jobs it needs, generates the models through its
//     ModelService, and answers with a Result instead of throwing,
//  3. sweep a block size with one typed tune query,
//  4. compare the prediction from step 2 to a fresh measurement.
//
// Build & run:  ./build/examples/quickstart

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "api/engine.hpp"
#include "blas/registry.hpp"
#include "sampler/sampler.hpp"

int main() {
  using namespace dlap;

  // --- 1. Measure one call (the paper's textual tuple form) ------------
  Level3Backend& backend = backend_instance("blocked");
  SamplerConfig scfg;
  scfg.reps = 5;
  scfg.locality = Locality::InCache;
  Sampler sampler(backend, scfg);

  const std::string call = "dtrsm(L,L,N,N,144,112,1,A,256,B,256)";
  const SampleStats observed = sampler.measure_text(call);
  std::printf("measured %s on '%s':\n", call.c_str(),
              backend.name().c_str());
  std::printf("  ticks: min %.0f  median %.0f  mean %.0f  max %.0f  "
              "stddev %.0f\n",
              observed.min, observed.median, observed.mean, observed.max,
              observed.stddev);

  // --- 2. Ask the engine -----------------------------------------------
  // No job assembly: the engine plans the dtrsm model from the query
  // itself (domain spanning the call, this leading dimension), generates
  // it, stores it in the repository, and evaluates it.
  EngineConfig cfg;
  cfg.service.repository_dir =
      std::filesystem::temp_directory_path() / "dlaperf_quickstart";
  cfg.service.refinement.base.error_bound = 0.10;  // paper epsilon (III-D3)
  cfg.service.refinement.min_region_size = 32;     // s_min
  cfg.planning.fixed_ld = 256;  // match the measured call's leads
  Engine engine(cfg);

  const Result<SampleStats> predicted = engine.predict_call(call);
  if (!predicted.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 predicted.status().to_string().c_str());
    return 1;
  }
  std::printf("\nrepository: %s (models cached: %zu)\n",
              engine.service().repository().directory().c_str(),
              engine.service().repository().cache_size());

  // --- 3. A typed sweep -------------------------------------------------
  // Predict a whole block-size sweep of blocked triangular inversion with
  // one tune query; the engine also names the predicted-fastest b.
  TuneQuery sweep;
  sweep.spec = OperationSpec::trinv(1, 192, 32);
  sweep.lo = 32;
  sweep.hi = 128;
  sweep.step = 32;
  const Result<TuneResult> tuned = engine.tune(sweep);
  if (!tuned.ok()) {
    std::fprintf(stderr, "tune failed: %s\n",
                 tuned.status().to_string().c_str());
    return 1;
  }
  std::printf("\ntrinv variant 1, n=192, predicted median ticks per b:\n");
  for (std::size_t i = 0; i < tuned->values.size(); ++i) {
    std::printf("  b = %4lld : %12.0f\n",
                static_cast<long long>(tuned->values[i]),
                tuned->predictions[i].ticks.median);
  }
  std::printf("  predicted best b = %lld\n",
              static_cast<long long>(tuned->best_value()));

  // --- 4. ... and check step 2 against reality -------------------------
  std::printf("\nat m=144, n=112: predicted median %.0f ticks, "
              "observed median %.0f ticks (error %.1f%%)\n",
              predicted->median, observed.median,
              100.0 * std::abs(predicted->median - observed.median) /
                  observed.median);
  return 0;
}
