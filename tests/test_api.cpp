// Tests for the Engine facade: Result semantics, typed queries, spec ->
// job planning, the compiled prediction path (bit-identity with the
// string-keyed path), and the non-throwing error statuses.
//
// All model generation uses ServiceConfig::measure_factory with a
// deterministic synthetic cost surface, so the tests run in milliseconds
// and predictions are exactly reproducible.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "api/engine.hpp"
#include "api/plan.hpp"
#include "ops/registry.hpp"
#include "predict/ranking.hpp"
#include "predict/trace.hpp"
#include "reference_plan.hpp"
#include "reference_predict.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;

// Deterministic cost surface: cheap, smooth, key-dependent.
MeasureFn synthetic_measure(double offset) {
  return [offset](const std::vector<index_t>& point) {
    double cost = 100.0 + offset;
    for (index_t x : point) {
      const double v = static_cast<double>(x);
      cost += 2.0 * v + 0.05 * v * v;
    }
    SampleStats s;
    s.min = cost * 0.9;
    s.median = cost;
    s.mean = cost * 1.02;
    s.max = cost * 1.2;
    s.stddev = cost * 0.03;
    s.count = 5;
    return s;
  };
}

EngineConfig test_config(const std::string& name) {
  EngineConfig cfg;
  cfg.service.repository_dir = fs::temp_directory_path() / name;
  cfg.service.workers = 2;
  cfg.service.measure_factory = [](const ModelJob& job) {
    double h = 0.0;
    for (char c : ModelService::key_for(job).to_string()) {
      h = 0.9 * h + static_cast<double>(c);
    }
    return synthetic_measure(h);
  };
  return cfg;
}

struct TempEngine {
  explicit TempEngine(const std::string& name, EngineConfig cfg)
      : dir(fs::temp_directory_path() / name),
        cleanup{dir},
        engine((fs::remove_all(dir), std::move(cfg))) {}
  explicit TempEngine(const std::string& name)
      : TempEngine(name, test_config(name)) {}
  fs::path dir;
  // Declared before `engine` so the directory is removed strictly AFTER
  // ~Engine has drained outstanding (possibly dropped) queries -- deleting
  // the repository under a live engine is a different test than cleanup.
  struct Cleanup {
    fs::path dir;
    ~Cleanup() { fs::remove_all(dir); }
  } cleanup;
  Engine engine;
};

void expect_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.ticks.min, b.ticks.min);
  EXPECT_EQ(a.ticks.median, b.ticks.median);
  EXPECT_EQ(a.ticks.mean, b.ticks.mean);
  EXPECT_EQ(a.ticks.max, b.ticks.max);
  EXPECT_EQ(a.ticks.stddev, b.ticks.stddev);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.missing, b.missing);
}

std::vector<CallTrace> traces_of(const std::vector<OperationSpec>& specs) {
  std::vector<CallTrace> traces;
  traces.reserve(specs.size());
  for (const OperationSpec& spec : specs) traces.push_back(spec.trace());
  return traces;
}

/// The oracle's jobs over recorded traces (tests/support/reference_plan.hpp).
std::vector<ModelJob> oracle_jobs(const std::vector<CallTrace>& traces,
                                  const SystemSpec& system,
                                  const PlanningPolicy& policy) {
  std::vector<const CallTrace*> ptrs;
  ptrs.reserve(traces.size());
  for (const CallTrace& trace : traces) ptrs.push_back(&trace);
  return reference::plan_jobs(ptrs, system, policy);
}

/// `got` holds one job per key of `want`, each with the same routine,
/// flags, backend, locality, domain, repetitions and leading dimension;
/// job order may differ.
void expect_same_jobs(const std::vector<ModelJob>& got,
                      const std::vector<ModelJob>& want) {
  std::map<ModelKey, const ModelJob*> wanted;
  for (const ModelJob& job : want) {
    wanted.emplace(ModelService::key_for(job), &job);
  }
  ASSERT_EQ(wanted.size(), want.size());
  ASSERT_EQ(got.size(), want.size());
  for (const ModelJob& job : got) {
    const ModelKey key = ModelService::key_for(job);
    const auto it = wanted.find(key);
    ASSERT_NE(it, wanted.end()) << key.to_string();
    const ModelJob& w = *it->second;
    EXPECT_EQ(job.request.routine, w.request.routine) << key.to_string();
    EXPECT_EQ(job.request.flags, w.request.flags) << key.to_string();
    EXPECT_EQ(job.backend, w.backend) << key.to_string();
    EXPECT_EQ(job.request.sampler.locality, w.request.sampler.locality)
        << key.to_string();
    EXPECT_EQ(job.request.domain, w.request.domain)
        << key.to_string() << ": " << job.request.domain.to_string()
        << " vs " << w.request.domain.to_string();
    EXPECT_EQ(job.request.sampler.reps, w.request.sampler.reps)
        << key.to_string();
    EXPECT_EQ(job.request.fixed_ld, w.request.fixed_ld) << key.to_string();
  }
}

/// Every key the oracle plans for `traces` has a stored model over
/// exactly the oracle's domain.
void expect_generated_as_planned(Engine& engine,
                                 const std::vector<CallTrace>& traces) {
  const auto jobs = oracle_jobs(traces, engine.config().system,
                                engine.config().planning);
  ASSERT_FALSE(jobs.empty());
  for (const ModelJob& job : jobs) {
    const ModelKey key = ModelService::key_for(job);
    const auto model = engine.service().find(key);
    ASSERT_NE(model, nullptr) << key.to_string();
    EXPECT_EQ(model->model.domain(), job.request.domain)
        << key.to_string() << ": " << model->model.domain().to_string()
        << " vs " << job.request.domain.to_string();
  }
}

// ----------------------------------------------------------------- Result

TEST(Result, ValueAndErrorSemantics) {
  const Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);
  EXPECT_TRUE(ok.status().ok());

  const Result<int> bad(Status::error(StatusCode::MissingModel, "no dgemm"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code, StatusCode::MissingModel);
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_EQ(bad.status().to_string(), "MISSING_MODEL: no dgemm");
  EXPECT_THROW((void)bad.value(), invalid_argument_error);
}

TEST(Result, OkStatusCannotCarryNoValue) {
  EXPECT_THROW(Result<int>(Status{}), invalid_argument_error);
}

// ------------------------------------------------------------------ query

TEST(Query, SpecValidation) {
  EXPECT_TRUE(OperationSpec::trinv(1, 128, 32).validate().ok());
  EXPECT_EQ(OperationSpec::trinv(5, 128, 32).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::trinv(1, 0, 32).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::trinv(1, 128, 0).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_TRUE(OperationSpec::sylv(16, 64, 64, 16).validate().ok());
  EXPECT_EQ(OperationSpec::sylv(17, 64, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::sylv(1, 0, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_TRUE(OperationSpec::chol(2, 128, 32).validate().ok());
  EXPECT_EQ(OperationSpec::chol(4, 128, 32).validate().code,
            StatusCode::InvalidQuery);
  // Family names are registry lookups: unknown ones are a parse problem,
  // not a crash (see test_ops.cpp for the registry-level cases).
  EXPECT_EQ(OperationSpec::of("lu", 1, 0, 128, 32).validate().code,
            StatusCode::ParseError);
}

TEST(Query, SpecTraceMatchesFreeFunctions) {
  const CallTrace a = OperationSpec::trinv(2, 250, 100).trace();
  const CallTrace b = trace_trinv(2, 250, 100);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(format_call(a[i]), format_call(b[i]));
  }
  EXPECT_EQ(OperationSpec::sylv(3, 96, 64, 32).trace().size(),
            trace_sylv(3, 96, 64, 32).size());
}

TEST(Query, FamilyFactories) {
  EXPECT_EQ(RankQuery::trinv_variants(128, 32).candidates.size(), 4u);
  EXPECT_EQ(RankQuery::sylv_variants(64, 64, 16).candidates.size(), 16u);
  EXPECT_EQ(RankQuery::chol_variants(128, 32).candidates.size(), 3u);
  EXPECT_EQ(RankQuery::all_variants(OperationSpec::chol(2, 96, 16))
                .candidates.size(),
            3u);
}

// --------------------------------------------------------------- planning

TEST(Plan, DerivesOneJobPerDistinctKeyWithCoveringDomain) {
  const CallTrace trace = trace_trinv(1, 250, 100);
  const SystemSpec system{"blocked", Locality::InCache};
  PlanningPolicy policy;
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  const auto jobs = plan_jobs({&compiled}, system, policy);
  // Variant 1: dtrmm(RLNN), dtrsm(LLNN), trinv1_unb.
  ASSERT_EQ(jobs.size(), 3u);
  for (const ModelJob& job : jobs) {
    EXPECT_EQ(job.backend, "blocked");
    EXPECT_EQ(job.request.fixed_ld, policy.fixed_ld);
    EXPECT_EQ(job.request.sampler.locality, Locality::InCache);
    // Every non-degenerate call of the trace must fall inside the domain
    // of its routine's job.
    for (const KernelCall& call : trace) {
      if (std::string(routine_name(call.routine)) !=
              routine_name(job.request.routine) ||
          call.flag_key() != std::string(job.request.flags.begin(),
                                         job.request.flags.end())) {
        continue;
      }
      bool zero = false;
      for (index_t s : call.sizes) zero = zero || s == 0;
      if (!zero) EXPECT_TRUE(job.request.domain.contains(call.sizes));
    }
  }
}

TEST(Plan, OutOfCacheAddsRepetitions) {
  const CallTrace trace = trace_trinv(1, 128, 32);
  PlanningPolicy policy;
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  const auto in_jobs =
      plan_jobs({&compiled}, {"blocked", Locality::InCache}, policy);
  const auto out_jobs =
      plan_jobs({&compiled}, {"blocked", Locality::OutOfCache}, policy);
  ASSERT_FALSE(in_jobs.empty());
  EXPECT_EQ(in_jobs[0].request.sampler.reps, policy.reps);
  EXPECT_EQ(out_jobs[0].request.sampler.reps,
            policy.reps + policy.out_of_cache_extra_reps);
}

TEST(Plan, RegionUnionIsBoundingBox) {
  const Region u =
      region_union(Region({8, 16}, {64, 32}), Region({4, 24}, {32, 96}));
  EXPECT_EQ(u, Region({4, 16}, {64, 96}));
}

TEST(Plan, CompiledPlanMatchesTraceOracle) {
  // Every built-in family and variant, with sizes and blocksizes that
  // leave remainder blocks below the policy's domain_lo of 8 (e.g. 257 =
  // 8 * 32 + 1), and two-axis families with m != n.
  const index_t sizes[] = {8, 100, 257, 384};
  const index_t blocks[] = {8, 32, 100, 300};
  const OperationRegistry& registry = OperationRegistry::instance();
  std::map<std::string, std::vector<OperationSpec>> families;
  for (const char* name : {"trinv", "sylv", "chol"}) {
    const OperationDescriptor& family = registry.require(name);
    for (int v = 1; v <= family.variant_count; ++v) {
      for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const index_t m =
            family.size_axes == 2 ? sizes[(i + 1) % std::size(sizes)] : 0;
        for (const index_t b : blocks) {
          families[name].push_back(OperationSpec::of(name, v, m, sizes[i], b));
          ASSERT_TRUE(families[name].back().validate().ok())
              << families[name].back().to_string();
        }
      }
    }
  }

  const PlanningPolicy policy;
  for (const Locality locality : {Locality::InCache, Locality::OutOfCache}) {
    const SystemSpec system{"blocked", locality};
    const auto check = [&](const std::vector<OperationSpec>& specs,
                           const std::string& what) {
      SCOPED_TRACE(what + " (" + locality_name(locality) + ")");
      expect_same_jobs(plan_jobs_for_specs(specs, system, policy),
                       oracle_jobs(traces_of(specs), system, policy));
    };
    std::vector<OperationSpec> all;
    for (const auto& [name, specs] : families) {
      for (const OperationSpec& spec : specs) check({spec}, spec.to_string());
      // Blocksize sweeps (one variant and size) and variant sweeps (one
      // size and blocksize), as tune and rank ask for them.
      std::map<std::string, std::vector<OperationSpec>> tunes, ranks;
      for (const OperationSpec& spec : specs) {
        OperationSpec key = spec;
        key.blocksize = 0;
        tunes[key.to_string()].push_back(spec);
        key = spec;
        key.variant = 0;
        ranks[key.to_string()].push_back(spec);
      }
      for (const auto& [what, sweep] : tunes) check(sweep, "tune " + what);
      for (const auto& [what, sweep] : ranks) check(sweep, "rank " + what);
      check(specs, "every " + name + " spec");
      all.insert(all.end(), specs.begin(), specs.end());
    }
    // Mixed families at one (n, b): trinv's and sylv's dgemm NN calls
    // fold into one key; chol shares no key with either.
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      for (const index_t b : blocks) {
        std::vector<OperationSpec> mixed;
        for (int v = 1; v <= kTrinvVariantCount; ++v) {
          mixed.push_back(OperationSpec::trinv(v, sizes[i], b));
        }
        for (int v = 1; v <= kCholVariantCount; ++v) {
          mixed.push_back(OperationSpec::chol(v, sizes[i], b));
        }
        for (int v = 1; v <= kSylvVariantCount; ++v) {
          mixed.push_back(OperationSpec::sylv(
              v, sizes[(i + 1) % std::size(sizes)], sizes[i], b));
        }
        check(mixed, "trinv + chol + sylv n=" + std::to_string(sizes[i]) +
                         " b=" + std::to_string(b));
      }
    }
    check(all, "every spec");
  }
}

// ---------------------------------------------------------------- engine

TEST(Engine, PredictsSpecAndGeneratesModelsOnDemand) {
  TempEngine t("dlap_test_api_predict");
  const auto result =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(3, 160, 32)));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->ticks.median, 0.0);
  EXPECT_GT(result->calls, 0);
  EXPECT_EQ(result->missing, 0);
  // Models landed in the repository.
  EXPECT_GT(t.engine.service().repository().list().size(), 0u);
}

TEST(Engine, CompiledPathBitIdenticalToStringKeyedPath) {
  TempEngine t("dlap_test_api_bitident");
  const OperationSpec spec = OperationSpec::trinv(3, 160, 32);
  const auto via_engine = t.engine.predict(PredictQuery::of(spec));
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().to_string();

  // Reference path: assemble the models by hand from the repository and
  // predict through the string-keyed per-call loop.
  const CallTrace trace = spec.trace();
  reference::Models set;
  for (const ModelJob& job :
       reference::plan_jobs({&trace}, t.engine.config().system,
                            t.engine.config().planning)) {
    auto model = t.engine.service().find(ModelService::key_for(job));
    ASSERT_NE(model, nullptr);
    set.add(model);
  }
  const Prediction reference = reference::predict(trace, set);
  expect_identical(*via_engine, reference);
}

TEST(Engine, ColdQueriesGenerateOverThePlannedDomains) {
  {
    TempEngine t("dlap_test_api_plan_rank");
    const RankQuery query = RankQuery::sylv_variants(100, 257, 32);
    const auto ranked = t.engine.rank(query);
    ASSERT_TRUE(ranked.ok()) << ranked.status().to_string();
    expect_generated_as_planned(t.engine, traces_of(query.candidates));
  }
  {
    TempEngine t("dlap_test_api_plan_tune");
    TuneQuery query;
    query.spec = OperationSpec::chol(2, 257, 32);
    query.lo = 8;
    query.hi = 100;
    query.step = 23;
    const auto tuned = t.engine.tune(query);
    ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
    std::vector<OperationSpec> sweep;
    for (const index_t b : tuned->values) {
      sweep.push_back(query.spec);
      sweep.back().blocksize = b;
    }
    ASSERT_EQ(sweep.size(), 5u);
    expect_generated_as_planned(t.engine, traces_of(sweep));
  }
  {
    TempEngine t("dlap_test_api_plan_prepare");
    const std::vector<OperationSpec> specs = {
        OperationSpec::trinv(3, 257, 32), OperationSpec::chol(3, 384, 100),
        OperationSpec::sylv(5, 100, 257, 32)};
    ASSERT_TRUE(t.engine.prepare(specs).ok());
    expect_generated_as_planned(t.engine, traces_of(specs));
  }
  {
    TempEngine t("dlap_test_api_plan_raw");
    CallTrace trace = OperationSpec::trinv(2, 100, 32).trace();
    for (KernelCall& call : OperationSpec::chol(1, 257, 100).trace()) {
      trace.push_back(std::move(call));
    }
    const auto predicted = t.engine.predict(PredictQuery::of(trace));
    ASSERT_TRUE(predicted.ok()) << predicted.status().to_string();
    expect_generated_as_planned(t.engine, {trace});
  }
}

TEST(Engine, WidenedKeyRegeneratesOverPlanUnionStoredDomain) {
  TempEngine t("dlap_test_api_plan_widen");
  const SystemSpec& system = t.engine.config().system;
  const PlanningPolicy& policy = t.engine.config().planning;
  // b needs larger sizes than a under every key a uses.
  const OperationSpec a = OperationSpec::trinv(1, 96, 16);
  const OperationSpec b = OperationSpec::trinv(1, 256, 100);
  ASSERT_TRUE(t.engine.prepare({a}).ok());
  std::map<ModelKey, Region> stored;
  for (const ModelJob& job : oracle_jobs(traces_of({a}), system, policy)) {
    const ModelKey key = ModelService::key_for(job);
    const auto model = t.engine.service().find(key);
    ASSERT_NE(model, nullptr) << key.to_string();
    stored.emplace(key, model->model.domain());
  }

  const auto ranked = t.engine.rank(RankQuery{{a, b}, std::nullopt});
  ASSERT_TRUE(ranked.ok()) << ranked.status().to_string();
  const auto jobs = oracle_jobs(traces_of({a, b}), system, policy);
  ASSERT_EQ(jobs.size(), stored.size());
  for (const ModelJob& job : jobs) {
    const ModelKey key = ModelService::key_for(job);
    const auto it = stored.find(key);
    ASSERT_NE(it, stored.end()) << key.to_string();
    const auto model = t.engine.service().find(key);
    ASSERT_NE(model, nullptr) << key.to_string();
    EXPECT_NE(model->model.domain(), it->second)
        << key.to_string() << " was not regenerated";
    EXPECT_EQ(model->model.domain(),
              region_union(job.request.domain, it->second))
        << key.to_string();
  }
}

TEST(Engine, RankOrdersByMedianTicks) {
  TempEngine t("dlap_test_api_rank");
  const auto result = t.engine.rank(RankQuery::trinv_variants(160, 32));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Ranking& ranked = *result;
  ASSERT_EQ(ranked.predictions.size(), 4u);
  ASSERT_EQ(ranked.order.size(), 4u);
  EXPECT_EQ(ranked.order, rank_order(ranked.median_ticks()));
  EXPECT_EQ(ranked.best(), ranked.order[0]);
  // Each candidate's prediction matches an individual query bit for bit.
  for (std::size_t i = 0; i < ranked.candidates.size(); ++i) {
    const auto single =
        t.engine.predict(PredictQuery::of(ranked.candidates[i]));
    ASSERT_TRUE(single.ok());
    expect_identical(ranked.predictions[i], *single);
  }
}

TEST(Engine, TunePicksArgminOfSweep) {
  TempEngine t("dlap_test_api_tune");
  TuneQuery q;
  q.spec = OperationSpec::trinv(2, 160, 16);
  q.lo = 16;
  q.hi = 80;
  q.step = 16;
  const auto result = t.engine.tune(q);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const TuneResult& tuned = *result;
  EXPECT_EQ(tuned.values,
            (std::vector<index_t>{16, 32, 48, 64, 80}));
  ASSERT_EQ(tuned.predictions.size(), tuned.values.size());
  const auto medians = tuned.median_ticks();
  for (double m : medians) {
    EXPECT_GE(m, medians[static_cast<std::size_t>(tuned.best_index)]);
  }
  EXPECT_EQ(tuned.best_value(),
            tuned.values[static_cast<std::size_t>(tuned.best_index)]);
}

TEST(Engine, TuneBoundsTheSweepBeforeTracingAnyPoint) {
  TempEngine t("dlap_test_api_tune_bound");
  TuneQuery q;
  q.spec = OperationSpec::trinv(1, 64, 16);
  q.lo = 1;
  q.hi = 400000;
  q.step = 1;
  const auto huge = t.engine.tune(q);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code, StatusCode::InvalidQuery);
  EXPECT_NE(huge.status().message.find("lo=1, hi=400000, step=1"),
            std::string::npos)
      << huge.status().message;

  // One point over the limit is refused; a sweep of exactly the limit
  // passes the count and fails on its first point's own validation.
  q.hi = TuneQuery::kMaxPoints + 1;
  EXPECT_EQ(t.engine.tune(q).status().code, StatusCode::InvalidQuery);
  q.spec = OperationSpec::of("nosuchop", 1, 0, 64, 16);
  q.hi = TuneQuery::kMaxPoints;
  EXPECT_EQ(t.engine.tune(q).status().code, StatusCode::ParseError);
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 0u);

  // The last point is the largest index_t, where stepping the blocksize
  // itself past it would overflow.
  q.spec = OperationSpec::trinv(1, 64, 16);
  q.lo = 64;
  q.hi = std::numeric_limits<index_t>::max();
  q.step = q.hi - q.lo;
  const auto edge = t.engine.tune(q);
  ASSERT_TRUE(edge.ok()) << edge.status().to_string();
  EXPECT_EQ(edge->values, (std::vector<index_t>{64, q.hi}));
  // Any blocksize >= n traces the same single-block calls.
  expect_identical(edge->predictions[0], edge->predictions[1]);
}

TEST(Engine, PredictCallParsesAndPredictsText) {
  TempEngine t("dlap_test_api_text");
  const auto good =
      t.engine.predict_call("dtrsm(L,L,N,N,96,64,1,A,512,B,512)");
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_GT(good->median, 0.0);

  const auto garbage = t.engine.predict_call("dtrsm(L,L");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code, StatusCode::ParseError);

  const auto invalid =
      t.engine.predict_call("dtrsm(L,L,N,N,-4,64,1,A,512,B,512)");
  ASSERT_FALSE(invalid.ok());
  EXPECT_TRUE(invalid.status().code == StatusCode::ParseError ||
              invalid.status().code == StatusCode::InvalidQuery);

  const auto unknown = t.engine.predict_call("dfoo(N,N,8,8,8,1,A,8,B,8,0,C,8)");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code, StatusCode::ParseError)
      << unknown.status().to_string();
}

TEST(Engine, RanksCholVariantsThroughTheRegistry) {
  // The third operation family flows through the same registry-driven
  // pipeline: rank all three Cholesky variants, check per-candidate
  // bit-identity with single predictions.
  TempEngine t("dlap_test_api_chol");
  const auto result = t.engine.rank(RankQuery::chol_variants(160, 32));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Ranking& ranked = *result;
  ASSERT_EQ(ranked.predictions.size(), 3u);
  EXPECT_EQ(ranked.order, rank_order(ranked.median_ticks()));
  for (std::size_t i = 0; i < ranked.candidates.size(); ++i) {
    const auto single =
        t.engine.predict(PredictQuery::of(ranked.candidates[i]));
    ASSERT_TRUE(single.ok()) << single.status().to_string();
    expect_identical(ranked.predictions[i], *single);
  }
}

TEST(Engine, UnknownOperationFamilyReportsParseError) {
  TempEngine t("dlap_test_api_unknown_op");
  const auto pred = t.engine.predict(
      PredictQuery::of(OperationSpec::of("nosuchop", 1, 0, 128, 32)));
  ASSERT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code, StatusCode::ParseError);

  const auto rank = t.engine.rank(
      RankQuery::all_variants(OperationSpec::of("nosuchop", 1, 0, 128, 32)));
  ASSERT_FALSE(rank.ok());
  EXPECT_EQ(rank.status().code, StatusCode::ParseError);

  TuneQuery tq;
  tq.spec = OperationSpec::of("nosuchop", 1, 0, 128, 32);
  const auto tune = t.engine.tune(tq);
  ASSERT_FALSE(tune.ok());
  EXPECT_EQ(tune.status().code, StatusCode::ParseError);
}

TEST(Engine, InvalidSpecsReportInvalidQuery) {
  TempEngine t("dlap_test_api_invalid");
  const auto bad_variant =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(9, 128, 32)));
  ASSERT_FALSE(bad_variant.ok());
  EXPECT_EQ(bad_variant.status().code, StatusCode::InvalidQuery);

  RankQuery empty;
  const auto bad_rank = t.engine.rank(empty);
  ASSERT_FALSE(bad_rank.ok());
  EXPECT_EQ(bad_rank.status().code, StatusCode::InvalidQuery);

  TuneQuery bad_sweep;
  bad_sweep.spec = OperationSpec::trinv(1, 128, 16);
  bad_sweep.lo = 64;
  bad_sweep.hi = 16;
  const auto bad_tune = t.engine.tune(bad_sweep);
  ASSERT_FALSE(bad_tune.ok());
  EXPECT_EQ(bad_tune.status().code, StatusCode::InvalidQuery);
}

TEST(Engine, RawTraceCallsMustMatchTheirSignature) {
  // Both calls share one (routine, flags) key but not its arity; the
  // engine must refuse the trace before it compiles or resolves it.
  EngineConfig cfg = test_config("dlap_test_api_raw_arity");
  cfg.generate_missing = false;
  TempEngine t("dlap_test_api_raw_arity", std::move(cfg));
  KernelCall three_sizes = parse_call("dtrsm(L,L,N,N,64,64,1,A,64,B,64)");
  three_sizes.sizes.push_back(64);
  const KernelCall two_sizes =
      parse_call("dtrsm(L,L,N,N,32,32,1,A,64,B,64)");
  const auto arity =
      t.engine.predict(PredictQuery::of(CallTrace{three_sizes, two_sizes}));
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code, StatusCode::InvalidQuery);
  EXPECT_NE(arity.status().message.find("call 0"), std::string::npos)
      << arity.status().message;

  KernelCall three_flags = two_sizes;
  three_flags.flags.pop_back();
  const auto flags =
      t.engine.predict(PredictQuery::of(CallTrace{two_sizes, three_flags}));
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code, StatusCode::InvalidQuery);
  EXPECT_NE(flags.status().message.find("call 1"), std::string::npos)
      << flags.status().message;
}

TEST(Engine, ZeroSizeOnlyTraceSkipsEveryCall) {
  // The only call is zero-size: it performs no flops, so the query is a
  // valid no-op that needs no model.
  TempEngine t("dlap_test_api_degen_skip");
  const CallTrace trace{parse_call("dgemm(N,N,0,64,64,1,A,64,B,64,0,C,64)")};
  const auto skipped = t.engine.predict(PredictQuery::of(trace));
  ASSERT_TRUE(skipped.ok()) << skipped.status().to_string();
  EXPECT_EQ(skipped->skipped, 1);
  EXPECT_EQ(skipped->calls, 0);
}

TEST(Engine, MissingModelWhenGenerationDisabled) {
  EngineConfig cfg = test_config("dlap_test_api_missing");
  cfg.generate_missing = false;
  const SystemSpec system = cfg.system;
  TempEngine t("dlap_test_api_missing", std::move(cfg));
  const OperationSpec spec = OperationSpec::trinv(1, 128, 32);
  const auto result = t.engine.predict(PredictQuery::of(spec));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, StatusCode::MissingModel);
  // The status names the missing key.
  const CompiledTrace compiled = CompiledTrace::compile(spec.trace());
  bool names_a_key = false;
  for (const CompiledKey& key : compiled.keys()) {
    const ModelKey missing{routine_name(key.routine), system.backend,
                           system.locality, key.flags};
    names_a_key = names_a_key || result.status().message.find(
                                     missing.to_string()) != std::string::npos;
  }
  EXPECT_TRUE(names_a_key) << result.status().message;
}

TEST(Engine, FailedGenerationAnswersGenerationFailedUntilSourceWorks) {
  std::atomic<bool> broken{true};
  EngineConfig cfg = test_config("dlap_test_api_generation_failed");
  cfg.service.measure_factory = [&broken,
                                 working = cfg.service.measure_factory](
                                    const ModelJob& job) {
    return MeasureFn([&broken, measure = working(job)](
                         const std::vector<index_t>& point) {
      if (broken.load()) throw std::runtime_error("sensor offline");
      return measure(point);
    });
  };
  TempEngine t("dlap_test_api_generation_failed", std::move(cfg));
  const RankQuery query = RankQuery::trinv_variants(160, 32);

  const auto failed = t.engine.rank(query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code, StatusCode::GenerationFailed);
  EXPECT_NE(failed.status().message.find("sensor offline"),
            std::string::npos)
      << failed.status().message;

  broken.store(false);
  const auto ranked = t.engine.rank(query);
  ASSERT_TRUE(ranked.ok()) << ranked.status().to_string();
  EXPECT_EQ(ranked->predictions.size(), query.candidates.size());
}

TEST(Engine, OverBoundSpecsAreRejectedBeforeTracing) {
  EngineConfig cfg = test_config("dlap_test_api_spec_bound");
  cfg.generate_missing = false;
  TempEngine t("dlap_test_api_spec_bound", std::move(cfg));
  constexpr index_t kMax = OperationSpec::kMaxSize;
  // Two-axis families reach the block bound first: 128 * 128 blocks.
  static_assert(128 * 128 == OperationSpec::kMaxBlocks);

  // Each over-bound spec is refused, naming its field, before a trace.
  const std::pair<OperationSpec, std::string> over[] = {
      {OperationSpec::trinv(1, kMax + 1, kMax + 1), ": n must be <= 8192"},
      {OperationSpec::chol(1, kMax + 1, 64), ": n must be <= 8192"},
      {OperationSpec::sylv(1, kMax + 1, 64, 64), ": m must be <= 8192"},
      {OperationSpec::sylv(1, 129, 128, 1), "into 16512 blocks"},
  };
  for (const auto& [spec, names] : over) {
    const auto result = t.engine.predict(PredictQuery::of(spec));
    ASSERT_FALSE(result.ok()) << spec.to_string();
    EXPECT_EQ(result.status().code, StatusCode::InvalidQuery);
    EXPECT_NE(result.status().message.find(names), std::string::npos)
        << result.status().message;
  }
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 0u);

  // Specs exactly at a bound pass validation and are traced; with
  // generation disabled they then fail on their missing models.
  const OperationSpec at_bound[] = {
      OperationSpec::trinv(1, kMax, kMax),
      OperationSpec::sylv(1, kMax, kMax, kMax / 128),
      OperationSpec::sylv(1, 128, 128, 1),
  };
  for (const OperationSpec& spec : at_bound) {
    EXPECT_TRUE(spec.validate().ok()) << spec.validate().to_string();
    const auto result = t.engine.predict(PredictQuery::of(spec));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code, StatusCode::MissingModel)
        << result.status().to_string();
  }
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 3u);
}

TEST(Engine, UncoveredDomainWhenGenerationDisabled) {
  const std::string name = "dlap_test_api_uncovered";
  EngineConfig cfg = test_config(name);
  cfg.generate_missing = false;
  TempEngine t(name, std::move(cfg));
  // Seed the repository with models for a small operation...
  {
    EngineConfig gen_cfg = test_config(name);
    Engine generator(gen_cfg);
    const auto small = generator.predict(
        PredictQuery::of(OperationSpec::trinv(1, 96, 32)));
    ASSERT_TRUE(small.ok()) << small.status().to_string();
  }
  // ... the small queries now work without generation ...
  const auto small =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 96, 32)));
  ASSERT_TRUE(small.ok()) << small.status().to_string();
  // ... but a larger operation falls outside the stored domains.
  const auto large =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 512, 64)));
  ASSERT_FALSE(large.ok());
  EXPECT_EQ(large.status().code, StatusCode::UncoveredDomain);
}

TEST(Engine, GrowsStoredDomainInsteadOfPingPonging) {
  TempEngine t("dlap_test_api_grow");
  // Two queries with disjoint parameter ranges for the same keys.
  const auto small =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 96, 16)));
  ASSERT_TRUE(small.ok());
  const auto large =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 256, 64)));
  ASSERT_TRUE(large.ok());
  // The regenerated model's domain must still cover the small query: a
  // repeat of it resolves from cache/repository without regeneration and
  // stays bit-identical.
  const auto small_again =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 96, 16)));
  ASSERT_TRUE(small_again.ok());
  // (Values differ from `small` only if the model was regenerated over a
  // wider domain -- which region_union makes a superset, so the repeat
  // must evaluate inside a covering domain either way.)
  EXPECT_EQ(small_again->calls, small->calls);
  EXPECT_EQ(small_again->missing, 0);
}

TEST(Engine, PrepareWarmsSoQueriesNeedNoGeneration) {
  const std::string name = "dlap_test_api_prepare";
  TempEngine t(name);
  const auto specs = RankQuery::trinv_variants(192, 48).candidates;
  ASSERT_TRUE(t.engine.prepare(specs).ok());
  const std::size_t stored = t.engine.service().repository().list().size();
  EXPECT_GT(stored, 0u);
  // A read-only engine over the same repository can now answer.
  EngineConfig ro = test_config(name + "_ro");
  ro.service.repository_dir = t.dir;
  ro.generate_missing = false;
  Engine reader(ro);
  for (const OperationSpec& spec : specs) {
    const auto r = reader.predict(PredictQuery::of(spec));
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  }
}

TEST(Engine, PrepareReportsGenerationThenReuse) {
  TempEngine t("dlap_test_api_prepare_report");
  const auto specs = RankQuery::trinv_variants(192, 48).candidates;

  // Cold prepare: every key generated, every point freshly measured.
  PrepareReport cold;
  ASSERT_TRUE(t.engine.prepare(specs, {}, &cold).ok());
  ASSERT_FALSE(cold.keys.empty());
  EXPECT_EQ(cold.keys_generated(),
            static_cast<index_t>(cold.keys.size()));
  EXPECT_GT(cold.points_measured(), 0);
  EXPECT_EQ(cold.points_from_disk(), 0);
  for (const PrepareReport::Key& key : cold.keys) {
    EXPECT_TRUE(key.generated) << key.key.to_string();
    EXPECT_GT(key.unique_samples, 0);
  }

  // Second prepare: nothing to do, nothing measured.
  PrepareReport again;
  ASSERT_TRUE(t.engine.prepare(specs, {}, &again).ok());
  EXPECT_EQ(again.keys.size(), cold.keys.size());
  EXPECT_EQ(again.keys_generated(), 0);
  EXPECT_EQ(again.keys_reused(), static_cast<index_t>(again.keys.size()));
  EXPECT_EQ(again.points_measured(), 0);
}

TEST(Engine, FreshEngineWarmStartsFromSampleRepository) {
  const std::string name = "dlap_test_api_warmstart";
  namespace fs = std::filesystem;
  const fs::path sample_dir =
      fs::temp_directory_path() / (name + "_samples");
  fs::remove_all(sample_dir);
  const auto specs = RankQuery::trinv_variants(160, 32).candidates;

  PrepareReport cold;
  {
    EngineConfig cfg = test_config(name + "_cold");
    cfg.service.sample_dir = sample_dir;
    TempEngine t(name + "_cold", std::move(cfg));
    ASSERT_TRUE(t.engine.prepare(specs, {}, &cold).ok());
    EXPECT_GT(cold.points_measured(), 0);
  }

  // A fresh engine with an EMPTY model repository but the existing
  // sample repository regenerates every model with zero measurements.
  EngineConfig cfg = test_config(name + "_warm");
  cfg.service.sample_dir = sample_dir;
  TempEngine warm(name + "_warm", std::move(cfg));
  PrepareReport report;
  ASSERT_TRUE(warm.engine.prepare(specs, {}, &report).ok());
  EXPECT_EQ(report.keys_generated(),
            static_cast<index_t>(report.keys.size()));
  EXPECT_EQ(report.points_measured(), 0);
  EXPECT_GT(report.points_from_disk(), 0);
  EXPECT_EQ(report.points_from_disk(), cold.points_measured());
  fs::remove_all(sample_dir);
}

}  // namespace
}  // namespace dlap
