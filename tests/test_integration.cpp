// Integration tests across modules.
//
// 1. A deterministic "virtual machine": per-routine analytic cost
//    functions play the role of the hardware. Models are generated from
//    them through the real generation strategies, predictions run through
//    the real CompiledTrace path, and the resulting variant ranking must
//    equal the ranking computed by summing the same cost function over the
//    traces (ground truth). This exercises the entire pipeline end to end
//    with zero measurement noise.
// 2. A real-measurement smoke test: tiny models are generated from actual
//    timings on the naive backend, directly through the strategies and
//    through the ModelService; predictions must be positive, increase
//    with problem size, and round-trip through the on-disk repository.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "api/engine.hpp"
#include "blas/registry.hpp"
#include "common/matrix_util.hpp"
#include "common/rng.hpp"
#include "modeler/modeler.hpp"
#include "sampler/ticks.hpp"
#include "modeler/repository.hpp"
#include "modeler/strategies.hpp"
#include "predict/compiled_trace.hpp"
#include "predict/ranking.hpp"
#include "predict/trace.hpp"
#include "reference_predict.hpp"
#include "service/model_service.hpp"

namespace dlap {
namespace {

// ------------------------------------------------- virtual-machine costs

// Analytic cost of a call on the fictitious machine: proportional to
// flops, with a fixed per-call overhead and a penalty for skinny shapes
// (k small), which is what separates push- from pull-style schedules.
double vm_cost(const KernelCall& c) {
  const double flops = call_flops(c);
  double shape_penalty = 1.0;
  if (c.routine == RoutineId::Gemm) {
    const double k = static_cast<double>(c.sizes[2]);
    shape_penalty = 1.0 + 24.0 / std::max(1.0, k);
  }
  // Per-kernel speed factors (like a real library: trmm slower than gemm,
  // right-side trsm slower than left; unblocked kernels at scalar speed).
  double speed = 1.0;
  switch (c.routine) {
    case RoutineId::Trmm:
      speed = 1.2;
      break;
    case RoutineId::Trsm:
      speed = (c.flags[0] == 'R') ? 1.35 : 1.05;
      break;
    case RoutineId::Trinv1Unb:
    case RoutineId::Trinv2Unb:
    case RoutineId::Trinv3Unb:
    case RoutineId::Trinv4Unb:
    case RoutineId::SylvUnb:
    case RoutineId::Chol1Unb:
    case RoutineId::Chol2Unb:
    case RoutineId::Chol3Unb:
      speed = 8.0;
      break;
    default:
      break;
  }
  return 4000.0 + flops * shape_penalty * speed * 0.25;
}

// Ground truth: total cost of a trace on the virtual machine.
double vm_trace_cost(const CallTrace& t) {
  double total = 0.0;
  for (const KernelCall& c : t) {
    bool empty = false;
    for (index_t s : c.sizes) empty = empty || (s == 0);
    if (!empty) total += vm_cost(c);
  }
  return total;
}

// MeasureFn for one call family: plugs the parameter point into the
// template call and returns the analytic cost as all statistics.
MeasureFn vm_measure(const ModelingRequest& req) {
  return [req](const std::vector<index_t>& point) {
    const KernelCall call = make_call(req, point);
    SampleStats s;
    const double v = vm_cost(call);
    s.min = s.median = s.mean = s.max = v;
    s.count = 1;
    return s;
  };
}

ModelingRequest request_for(RoutineId routine, std::vector<char> flags,
                            Region domain) {
  ModelingRequest req;
  req.routine = routine;
  req.flags = std::move(flags);
  req.domain = std::move(domain);
  req.fixed_ld = 2500;
  return req;
}

// Generates a refinement model for a request against the virtual machine.
RoutineModel vm_model(const ModelingRequest& req) {
  RefinementConfig cfg;
  cfg.base.error_bound = 0.05;
  cfg.base.degree = 3;
  cfg.min_region_size = 32;
  GenerationResult gen =
      generate_adaptive_refinement(req.domain, vm_measure(req), cfg);
  RoutineModel m;
  m.key = {routine_name(req.routine), "vm", Locality::InCache,
           std::string(req.flags.begin(), req.flags.end())};
  m.model = std::move(gen.model);
  m.unique_samples = gen.unique_samples;
  m.average_error = gen.average_error;
  m.strategy = "refinement";
  return m;
}

reference::Models vm_trinv_models(index_t hi) {
  const Region d1({8}, {hi});
  const Region d2({8, 8}, {hi, hi});
  const Region d3({8, 8, 8}, {hi, hi, hi});
  reference::Models set;
  set.add(vm_model(request_for(RoutineId::Trmm, {'R', 'L', 'N', 'N'}, d2)));
  set.add(vm_model(request_for(RoutineId::Trsm, {'L', 'L', 'N', 'N'}, d2)));
  set.add(vm_model(request_for(RoutineId::Trsm, {'R', 'L', 'N', 'N'}, d2)));
  set.add(vm_model(request_for(RoutineId::Gemm, {'N', 'N'}, d3)));
  set.add(vm_model(request_for(RoutineId::Trinv1Unb, {}, d1)));
  set.add(vm_model(request_for(RoutineId::Trinv2Unb, {}, d1)));
  set.add(vm_model(request_for(RoutineId::Trinv3Unb, {}, d1)));
  set.add(vm_model(request_for(RoutineId::Trinv4Unb, {}, d1)));
  return set;
}

TEST(IntegrationVM, TrinvRankingRecoveredExactly) {
  const index_t n = 480;
  const index_t b = 96;
  const reference::Models set = vm_trinv_models(512);

  std::vector<double> predicted, truth;
  for (int v = 1; v <= 4; ++v) {
    const CallTrace t = trace_trinv(v, n, b);
    predicted.push_back(reference::compiled_predict(t, set).ticks.median);
    truth.push_back(vm_trace_cost(t));
  }
  // The pipeline must (a) predict each variant's cost within a few
  // percent on a noise-free machine, and (b) rank all variants exactly.
  for (int v = 0; v < 4; ++v) {
    EXPECT_NEAR(predicted[v] / truth[v], 1.0, 0.08) << "variant " << v + 1;
  }
  EXPECT_EQ(rank_order(predicted), rank_order(truth));
  EXPECT_DOUBLE_EQ(kendall_tau(predicted, truth), 1.0);
}

TEST(IntegrationVM, TrinvBlocksizeOptimumRecovered) {
  const reference::Models set = vm_trinv_models(512);
  // Sweep block sizes for variant 3 at n = 384; predicted optimum must
  // match the ground-truth optimum.
  std::vector<double> predicted, truth;
  std::vector<index_t> bsizes;
  for (index_t b = 16; b <= 192; b += 16) {
    const CallTrace t = trace_trinv(3, 384, b);
    bsizes.push_back(b);
    predicted.push_back(reference::compiled_predict(t, set).ticks.median);
    truth.push_back(vm_trace_cost(t));
  }
  const auto popt = rank_order(predicted)[0];
  const auto topt = rank_order(truth)[0];
  EXPECT_EQ(bsizes[popt], bsizes[topt]);
}

TEST(IntegrationVM, SylvGroupsSeparatedAndTopVariantsRanked) {
  // Models for gemm and the unblocked Sylvester solve.
  reference::Models set;
  set.add(vm_model(request_for(RoutineId::Gemm, {'N', 'N'},
                               Region({8, 8, 8}, {512, 512, 512}))));
  set.add(vm_model(
      request_for(RoutineId::SylvUnb, {}, Region({8, 8}, {256, 256}))));

  std::vector<double> predicted, truth;
  for (int v = 1; v <= kSylvVariantCount; ++v) {
    const CallTrace t = trace_sylv(v, 384, 384, 96);
    predicted.push_back(reference::compiled_predict(t, set).ticks.median);
    truth.push_back(vm_trace_cost(t));
  }
  // On the virtual machine the pull/pull schedules (k-rich gemms) are the
  // fastest. Traversal order does not change a schedule's call multiset
  // and m == n makes the two mixed policies symmetric, so the 16 variants
  // collapse into 3 exactly-tied cost groups (Kendall tau-a is then capped
  // at 2/3 by construction); assert per-variant accuracy and group
  // structure instead.
  for (int v = 0; v < kSylvVariantCount; ++v) {
    EXPECT_NEAR(predicted[v] / truth[v], 1.0, 0.02) << "variant " << v + 1;
  }
  EXPECT_DOUBLE_EQ(topk_overlap(predicted, truth, 4), 1.0);
  // The four pull/pull variants are v in {1, 5, 9, 13} (low bits zero).
  const auto top_truth = rank_order(truth);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_EQ(top_truth[i] % 4, 0) << "truth top-4 not pull/pull";
  }
  // Fast group strictly separated from the rest, in truth and prediction.
  const auto sep = [](const std::vector<double>& vals) {
    auto order = rank_order(vals);
    return vals[order[4]] / vals[order[3]];
  };
  EXPECT_GT(sep(truth), 1.005);
  EXPECT_GT(sep(predicted), 1.005);
}

TEST(IntegrationVM, CholRankingRecoveredExactly) {
  // Same end-to-end pipeline as the trinv test, for the third operation
  // family: models for every kernel the three Cholesky variants invoke,
  // fitted against the virtual machine; the predicted ranking must match
  // the ground-truth ranking of the traces' analytic costs.
  const index_t n = 480;
  const index_t b = 96;
  const Region d1({8}, {512});
  const Region d2({8, 8}, {512, 512});
  const Region d3({8, 8, 8}, {512, 512, 512});
  reference::Models set;
  set.add(vm_model(request_for(RoutineId::Trsm, {'R', 'L', 'T', 'N'}, d2)));
  set.add(vm_model(request_for(RoutineId::Syrk, {'L', 'N'}, d2)));
  set.add(vm_model(request_for(RoutineId::Gemm, {'N', 'T'}, d3)));
  set.add(vm_model(request_for(RoutineId::Chol1Unb, {}, d1)));
  set.add(vm_model(request_for(RoutineId::Chol2Unb, {}, d1)));
  set.add(vm_model(request_for(RoutineId::Chol3Unb, {}, d1)));

  std::vector<double> predicted, truth;
  for (int v = 1; v <= kCholVariantCount; ++v) {
    const CallTrace t = trace_chol(v, n, b);
    predicted.push_back(reference::compiled_predict(t, set).ticks.median);
    truth.push_back(vm_trace_cost(t));
  }
  for (int v = 0; v < kCholVariantCount; ++v) {
    EXPECT_NEAR(predicted[v] / truth[v], 1.0, 0.08) << "variant " << v + 1;
  }
  EXPECT_EQ(rank_order(predicted), rank_order(truth));
}

// --------------------------------------------------- real-sampler smoke

TEST(IntegrationReal, ModelPredictStoreReloadRoundTrip) {
  ModelingRequest req;
  req.routine = RoutineId::Trsm;
  req.flags = {'L', 'L', 'N', 'N'};
  req.domain = Region({8, 8}, {96, 96});
  req.fixed_ld = 128;
  // 3 reps: the median of 2 noisy timings occasionally lets a cubic fit
  // dip below zero off-lattice under parallel-ctest load.
  req.sampler.reps = 3;
  req.sampler.locality = Locality::InCache;

  RefinementConfig cfg;
  cfg.base.error_bound = 0.50;  // loose: this is a smoke test
  cfg.base.degree = 3;
  cfg.min_region_size = 32;
  GenerationResult gen = generate_adaptive_refinement(
      req.domain, make_measure_fn(backend_instance("naive"), req), cfg);
  RoutineModel model;
  model.key = model_key_for(req, "naive");
  model.model = std::move(gen.model);
  model.unique_samples = gen.unique_samples;
  model.average_error = gen.average_error;
  model.strategy = "refinement";
  EXPECT_GT(model.unique_samples, 0);
  EXPECT_EQ(model.key.routine, "dtrsm");
  EXPECT_EQ(model.key.backend, "naive");

  // Bigger problems must predict more ticks.
  const double small = model.model.evaluate(std::vector<index_t>{16, 16}).median;
  const double large = model.model.evaluate(std::vector<index_t>{96, 96}).median;
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);

  // Round-trip through the repository preserves predictions bit-exactly.
  const auto dir = std::filesystem::temp_directory_path() /
                   "dlaperf_integration_repo";
  std::filesystem::remove_all(dir);
  ModelRepository repo(dir);
  repo.store(model);
  const RoutineModel back = repo.load(model.key);
  for (index_t x = 8; x <= 96; x += 8) {
    const std::vector<index_t> p{x, x};
    EXPECT_DOUBLE_EQ(back.model.evaluate(p).median,
                     model.model.evaluate(p).median);
  }
  std::filesystem::remove_all(dir);
}

TEST(IntegrationReal, ServiceGenerateAllReturnsModelsInJobOrder) {
  const auto dir =
      std::filesystem::temp_directory_path() / "dlaperf_integration_batch";
  std::filesystem::remove_all(dir);
  ServiceConfig cfg;
  cfg.repository_dir = dir;
  cfg.workers = 2;
  cfg.persist_samples = false;
  cfg.refinement.base.error_bound = 0.50;  // loose: this is a smoke test
  cfg.refinement.min_region_size = 32;

  ModelJob trsm;
  trsm.backend = "naive";
  trsm.request.routine = RoutineId::Trsm;
  trsm.request.flags = {'L', 'L', 'N', 'N'};
  trsm.request.domain = Region({8, 8}, {48, 48});
  trsm.request.fixed_ld = 64;
  trsm.request.sampler.reps = 2;
  ModelJob trmm = trsm;
  trmm.request.routine = RoutineId::Trmm;
  trmm.request.flags = {'R', 'L', 'N', 'N'};

  std::vector<std::shared_ptr<const RoutineModel>> models;
  {
    ModelService service(cfg);
    models = service.generate_all({trsm, trmm});
  }
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0]->key.routine, "dtrsm");
  EXPECT_EQ(models[1]->key.routine, "dtrmm");
  for (const auto& m : models) {
    EXPECT_EQ(m->key.backend, "naive");
    EXPECT_EQ(m->strategy, "refinement");
    EXPECT_GT(m->unique_samples, 0);
    EXPECT_GT(m->model.evaluate(std::vector<index_t>{32, 32}).median, 0.0);
  }
  std::filesystem::remove_all(dir);
}

// Best-of-reps ticks of really executing chol variant `variant` on
// `backend` (fresh SPD operand per repetition, one untimed warm-up).
// Minimum, not median: the measured side must rank variants that sit
// within ~10-25% of each other on machines where concurrent test
// processes preempt runs, and the min is the statistic least distorted
// by preemption outliers.
double measure_chol_ticks(Level3Backend& backend, int variant, index_t n,
                          index_t b, index_t reps) {
  ExecContext ctx(backend);
  Rng rng(91 + variant);
  Matrix a0(n, n);
  fill_spd(a0.view(), rng);
  Matrix work(n, n);
  copy_matrix(a0.view(), work.view());
  chol_blocked(ctx, variant, n, work.data(), n, b);  // warm-up
  double best = 0.0;
  for (index_t r = 0; r < reps; ++r) {
    copy_matrix(a0.view(), work.view());
    const std::uint64_t t0 = read_ticks();
    chol_blocked(ctx, variant, n, work.data(), n, b);
    const std::uint64_t t1 = read_ticks();
    const double t = static_cast<double>(t1 - t0);
    if (r == 0 || t < best) best = t;
  }
  return best;
}

TEST(IntegrationReal, CholPredictedBestMatchesMeasuredBestUsually) {
  // The PR 3 acceptance gate: RankQuery over the three Cholesky variants,
  // with models generated from real measurements, must name the variant
  // that real execution finds fastest at >= 2 of 3 problem sizes (exact
  // agreement at every size would over-promise: within-noise ties between
  // close variants are legitimate).
  const auto dir =
      std::filesystem::temp_directory_path() / "dlaperf_integration_chol";
  std::filesystem::remove_all(dir);
  EngineConfig cfg;
  cfg.service.repository_dir = dir;
  // Sequential generation + extra repetitions: generation-time
  // measurement noise (contended cores, outliers) directly blurs the
  // fitted models, and the three variants are within ~10% of each other.
  cfg.service.workers = 1;
  cfg.planning.reps = 7;
  Engine engine(cfg);
  Level3Backend& backend = backend_instance(cfg.system.backend);

  const index_t b = 32;
  const std::vector<index_t> sizes = {128, 192, 256};

  // One protocol attempt: generate models, rank each size, count how
  // often the predicted-best variant is the measured-best.
  const auto attempt = [&](Engine& eng) {
    EXPECT_TRUE(
        eng.prepare(RankQuery::chol_variants(sizes.back(), b).candidates)
            .ok());
    int matches = 0;
    for (const index_t n : sizes) {
      const Result<Ranking> ranked = eng.rank(RankQuery::chol_variants(n, b));
      EXPECT_TRUE(ranked.ok()) << ranked.status().to_string();
      if (!ranked.ok()) return 0;
      std::vector<double> measured;
      for (int v = 1; v <= kCholVariantCount; ++v) {
        measured.push_back(measure_chol_ticks(backend, v, n, b, 5));
      }
      matches += ranked->best() == rank_order(measured)[0];
    }
    return matches;
  };

  int matches = attempt(engine);
  for (int retry = 0; retry < 2 && matches < 2; ++retry) {
    // A loaded machine (concurrent tests, CI neighbors) can blur one
    // generation pass end to end; a fresh-model repeat separates "the
    // pipeline mispredicts" from "this run's timings were garbage".
    std::filesystem::remove_all(dir);
    Engine retry_engine(cfg);
    matches = attempt(retry_engine);
  }
  EXPECT_GE(matches, 2) << "predicted-best matched measured-best at only "
                        << matches << " of " << sizes.size() << " sizes";
  std::filesystem::remove_all(dir);
}

TEST(IntegrationReal, ExpansionStrategyOnRealMeasurements) {
  ModelingRequest req;
  req.routine = RoutineId::Gemm;
  req.flags = {'N', 'N'};
  req.domain = Region({8, 8, 8}, {64, 64, 64});
  req.fixed_ld = 64;
  req.sampler.reps = 2;

  ExpansionConfig cfg;
  cfg.base.error_bound = 0.50;
  cfg.base.degree = 3;
  cfg.initial_size = 32;
  cfg.direction = ExpansionConfig::Direction::TowardOrigin;
  const GenerationResult model = generate_model_expansion(
      req.domain, make_measure_fn(backend_instance("naive"), req), cfg);
  EXPECT_GT(model.unique_samples, 0);
  EXPECT_GT(model.model.evaluate(std::vector<index_t>{64, 64, 64}).median,
            0.0);
}

}  // namespace
}  // namespace dlap
