// Tests for the compiled-prediction subsystem: CompiledTrace dedupe +
// bit-identity with the reference per-call loop, the PiecewiseModel region
// index vs the reference linear scan, the sharded trace LRU, the
// engine's two cache layers (system-free compiled traces under per-system
// sweep points), and its snapshot invalidation-on-regeneration
// semantics against the repository's version, including the prediction
// and wire text each snapshot stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <latch>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/chol.hpp"
#include "algorithms/trinv.hpp"
#include "api/engine.hpp"
#include "api/trace_cache.hpp"
#include "common/lru.hpp"
#include "ops/registry.hpp"
#include "predict/compiled_trace.hpp"
#include "predict/trace.hpp"
#include "reference_polynomial.hpp"
#include "reference_predict.hpp"
#include "storage/container.hpp"
#include "storage/pack.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;

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

void expect_identical(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.stddev, b.stddev);
}

/// Multi-piece model over [1, hi]^dims with hash-derived, non-trivial
/// polynomial coefficients (sums of these round, so any accumulation
/// reordering would show up bit for bit). The domain splits at `hi`/2 into
/// overlapping pieces with distinct fit errors, exercising the
/// most-accurate-wins rule during prediction.
RoutineModel fitted_model(const std::string& routine,
                          const std::string& flags, int dims,
                          index_t hi = 4096, double salt = 0.0) {
  double h = 7.0 + salt;
  for (char c : routine + "/" + flags) h = 0.83 * h + 0.11 * c;

  const auto piece_for = [&](index_t lo_v, index_t hi_v, double fit_error,
                             double salt) {
    Normalization norm;
    norm.shift.assign(static_cast<std::size_t>(dims), 16.0);
    norm.scale.assign(static_cast<std::size_t>(dims), 100.0);
    const index_t nmono = monomial_count(dims, 2);
    std::vector<std::vector<double>> coeffs(
        kStatCount, std::vector<double>(static_cast<std::size_t>(nmono)));
    for (int s = 0; s < kStatCount; ++s) {
      for (index_t m = 0; m < nmono; ++m) {
        coeffs[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
            100.0 + h + 0.37 * s + salt +
            1.0 / (3.0 + static_cast<double>(m));  // non-representable
      }
    }
    RegionModel piece;
    piece.region = Region(std::vector<index_t>(dims, lo_v),
                          std::vector<index_t>(dims, hi_v));
    piece.poly = VecPolynomial(dims, 2, norm, coeffs);
    piece.fit_error = fit_error;
    piece.mean_error = fit_error / 2;
    piece.samples_used = 9;
    return piece;
  };

  RoutineModel m;
  m.key = {routine, "synthetic", Locality::InCache, flags};
  const Region domain(std::vector<index_t>(dims, 1),
                      std::vector<index_t>(dims, hi));
  // Overlapping pieces: a coarse full-domain fit plus a more accurate
  // lower-half refinement -- points in the overlap must pick the latter.
  m.model = PiecewiseModel(
      domain, {piece_for(1, hi, 0.20, 0.0), piece_for(1, hi / 2, 0.05, 0.5)});
  return m;
}

/// One model per distinct (routine, flags) of the trace.
reference::Models models_for(const CallTrace& trace) {
  reference::Models set;
  for (const KernelCall& call : trace) {
    const std::string routine = routine_name(call.routine);
    if (set.find(routine, call.flag_key()) == nullptr) {
      set.add(fitted_model(routine, call.flag_key(),
                           static_cast<int>(call.sizes.size())));
    }
  }
  return set;
}

// ----------------------------------------------------------- CompiledTrace

TEST(CompiledTrace, DedupesSylvTraceToUniqueShapes) {
  const CallTrace trace = trace_sylv(1, 192, 160, 32);
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  EXPECT_EQ(compiled.source_calls(), static_cast<index_t>(trace.size()));
  // O((m/b)(n/b)) calls collapse to O(m/b + n/b) unique shapes.
  EXPECT_LT(compiled.unique_calls(), compiled.source_calls() / 4);
  index_t occurrences = 0;
  for (const CompiledCall& entry : compiled.entries()) {
    EXPECT_GT(entry.multiplicity, 0);
    for (index_t size : entry.sizes) EXPECT_GT(size, 0);  // zero-size dropped
    occurrences += entry.multiplicity;
  }
  EXPECT_EQ(occurrences + compiled.skipped(), compiled.source_calls());
  // Every entry names a key, and every key has an entry.
  std::vector<index_t> per_key(compiled.keys().size(), 0);
  for (const CompiledCall& entry : compiled.entries()) {
    ASSERT_GE(entry.key, 0);
    ASSERT_LT(static_cast<std::size_t>(entry.key), per_key.size());
    ++per_key[static_cast<std::size_t>(entry.key)];
  }
  for (index_t n : per_key) EXPECT_GT(n, 0);
}

TEST(CompiledTrace, BitIdenticalToReferenceAcrossFamilies) {
  std::vector<CallTrace> traces;
  for (int v = 1; v <= kTrinvVariantCount; ++v) {
    traces.push_back(trace_trinv(v, 250, 100));
  }
  for (int v : {1, 6, 11, 16}) {
    traces.push_back(trace_sylv(v, 192, 160, 48));
  }
  for (int v = 1; v <= kCholVariantCount; ++v) {
    traces.push_back(trace_chol(v, 224, 64));
  }
  for (const CallTrace& trace : traces) {
    const reference::Models set = models_for(trace);
    const Prediction reference = reference::predict(trace, set);
    const CompiledTrace compiled = CompiledTrace::compile(trace);
    const Prediction via_compiled = compiled.predict(set.by_key(compiled));
    expect_identical(via_compiled, reference);
  }
}

// ------------------------------------------------------- CompilingContext

/// One model per distinct (routine, flags) of the trace, each with a
/// random coefficient salt.
reference::Models random_models_for(const CallTrace& trace,
                                    std::mt19937_64& rng) {
  std::uniform_real_distribution<double> salt(0.0, 1000.0);
  reference::Models set;
  for (const KernelCall& call : trace) {
    const std::string routine = routine_name(call.routine);
    if (set.find(routine, call.flag_key()) == nullptr) {
      set.add(fitted_model(routine, call.flag_key(),
                           static_cast<int>(call.sizes.size()), 4096,
                           salt(rng)));
    }
  }
  return set;
}

void expect_same_compiled(const CompiledTrace& a, const CompiledTrace& b) {
  ASSERT_EQ(a.keys().size(), b.keys().size());
  for (std::size_t k = 0; k < a.keys().size(); ++k) {
    EXPECT_EQ(a.keys()[k].routine, b.keys()[k].routine);
    EXPECT_EQ(a.keys()[k].flags, b.keys()[k].flags);
  }
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (std::size_t e = 0; e < a.entries().size(); ++e) {
    const CompiledCall& x = a.entries()[e];
    const CompiledCall& y = b.entries()[e];
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.sizes, y.sizes);
    EXPECT_EQ(x.point, y.point);
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.multiplicity, y.multiplicity);
  }
  EXPECT_EQ(a.source_calls(), b.source_calls());
  EXPECT_EQ(a.skipped(), b.skipped());
  EXPECT_EQ(a.source_order(), b.source_order());
}

TEST(CompilingContext, CompiledFormDoesNotDependOnTheFeed) {
  // Every built-in family and variant, compiled as its algorithm runs and
  // from its recorded trace. The grid has blocksizes at and above n, n
  // that are not multiples of the blocksize, and sylv with m != n.
  struct Shape {
    index_t m, n;
  };
  const std::vector<Shape> one_axis = {{0, 1}, {0, 5}, {0, 64}, {0, 100},
                                       {0, 257}};
  const std::vector<Shape> two_axes = {{1, 7}, {64, 64}, {96, 40}, {33, 130}};
  const std::vector<index_t> blocksizes = {7, 16, 48, 64, 300};
  std::mt19937_64 rng(1706);
  index_t specs = 0;
  for (const char* op : {"trinv", "sylv", "chol"}) {
    const OperationDescriptor& family =
        OperationRegistry::instance().require(op);
    for (int v = 1; v <= family.variant_count; ++v) {
      for (const Shape& shape : family.size_axes == 2 ? two_axes : one_axis) {
        for (const index_t b : blocksizes) {
          const OperationSpec spec =
              OperationSpec::of(op, v, shape.m, shape.n, b);
          SCOPED_TRACE(spec.to_string());
          ASSERT_TRUE(spec.validate().ok());
          const CallTrace trace = spec.trace();
          const CompiledTrace direct = spec.compile();
          const CompiledTrace recorded = CompiledTrace::compile(trace);
          ASSERT_NO_FATAL_FAILURE(expect_same_compiled(direct, recorded));

          const reference::Models set = random_models_for(trace, rng);
          const Prediction expected = reference::predict(trace, set);
          expect_identical(direct.predict(set.by_key(direct)), expected);
          expect_identical(recorded.predict(set.by_key(recorded)), expected);
          ++specs;
        }
      }
    }
  }
  EXPECT_EQ(specs, (4 + 3) * 5 * 5 + 16 * 4 * 5);
}

TEST(CompilingContext, BuilderRejectsCallsWiderThanItsProbe) {
  CompiledTrace::Builder builder;
  const index_t four_sizes[] = {1, 2, 3, 4};
  EXPECT_THROW(builder.add(RoutineId::Gemm, {}, four_sizes),
               invalid_argument_error);
  const char five_flags[] = {'L', 'L', 'N', 'N', 'N'};
  const index_t two_sizes[] = {8, 8};
  EXPECT_THROW(builder.add(RoutineId::Trsm, five_flags, two_sizes),
               invalid_argument_error);
}

TEST(CompiledTrace, BitIdenticalWithMissingModels) {
  const CallTrace trace = trace_trinv(1, 250, 100);
  reference::Models partial;  // dtrmm present, dtrsm and trinv1_unb missing
  partial.add(fitted_model("dtrmm", "RLNN", 2));
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  const Prediction via_compiled = compiled.predict(partial.by_key(compiled));
  EXPECT_GT(via_compiled.missing, 0);
  expect_identical(via_compiled, reference::predict(trace, partial));

  // No models at all: nothing contributes, and every call that is not
  // zero-size counts as missing.
  const reference::Models none;
  const Prediction empty = compiled.predict(none.by_key(compiled));
  EXPECT_EQ(empty.calls, 0);
  EXPECT_EQ(empty.missing,
            static_cast<index_t>(std::count_if(
                trace.begin(), trace.end(),
                [](const KernelCall& c) { return !call_is_degenerate(c); })));
  expect_identical(empty, reference::predict(trace, none));
}

TEST(CompiledTrace, DegenerateOnlyTraceSkipsEverything) {
  const CallTrace trace{parse_call("dgemm(N,N,0,64,64,1,A,64,B,64,0,C,64)")};
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  EXPECT_EQ(compiled.unique_calls(), 0);
  EXPECT_EQ(compiled.skipped(), 1);
  const Prediction p = compiled.predict({});
  EXPECT_EQ(p.skipped, 1);
  EXPECT_EQ(p.calls, 0);
  expect_identical(p, reference::predict(trace, {}));
}

TEST(CompiledTrace, PredictRequiresOneSlotPerKey) {
  const CompiledTrace compiled =
      CompiledTrace::compile(trace_trinv(1, 128, 64));
  EXPECT_THROW((void)compiled.predict({}), invalid_argument_error);
}

TEST(ResolvedSlots, RacingFirstReadersShareOneFormattedText) {
  const CompiledTrace compiled =
      CompiledTrace::compile(trace_sylv(6, 192, 160, 48));
  ResolvedSlots slots;
  slots.assign(compiled.keys().size(), 1);
  for (std::size_t k = 0; k < compiled.keys().size(); ++k) {
    const CompiledKey& key = compiled.keys()[k];
    const auto first = std::find_if(
        compiled.entries().begin(), compiled.entries().end(),
        [k](const CompiledCall& e) { return e.key == static_cast<int>(k); });
    ASSERT_NE(first, compiled.entries().end());
    const auto dims = static_cast<int>(first->sizes.size());
    slots.set(k, std::make_shared<const RoutineModel>(fitted_model(
                     routine_name(key.routine), key.flags, dims)));
  }
  std::string expected;
  write_prediction(compiled.predict(slots.models), &expected);

  // Eight threads race on the snapshot's first read. The text is
  // appended, so a second formatting would show as doubled bytes (and
  // as a race under TSan); every thread must see the one stored string.
  constexpr int kThreads = 8;
  std::vector<const std::string*> seen(kThreads, nullptr);
  std::vector<std::string> copies(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const std::string& text = slots.prediction_json(compiled);
      seen[static_cast<std::size_t>(i)] = &text;
      copies[static_cast<std::size_t>(i)] = text;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
    EXPECT_EQ(copies[static_cast<std::size_t>(i)], expected);
  }
  // The stored prediction is the one the text was formatted from.
  std::string again;
  write_prediction(slots.prediction(compiled), &again);
  EXPECT_EQ(again, expected);
}

// ------------------------------------------------------------ region index

/// The pre-index reference semantics, verbatim: linear most-accurate
/// containing scan, then nearest-region projection, with each piece's
/// polynomial evaluated by the two-pass reference, not the kernel.
SampleStats reference_evaluate(const PiecewiseModel& model,
                               const std::vector<double>& point) {
  const RegionModel* best = nullptr;
  for (const RegionModel& p : model.pieces()) {
    if (!p.region.contains(point)) continue;
    if (best == nullptr || p.fit_error < best->fit_error) best = &p;
  }
  if (best != nullptr) return reference::evaluate_polynomial(best->poly, point);
  double best_dist = std::numeric_limits<double>::infinity();
  for (const RegionModel& p : model.pieces()) {
    const double d = p.region.distance(point);
    if (d < best_dist) {
      best_dist = d;
      best = &p;
    }
  }
  std::vector<double> clamped = point;
  for (int d = 0; d < model.dims(); ++d) {
    clamped[d] =
        std::clamp(clamped[d], static_cast<double>(best->region.lo(d)),
                   static_cast<double>(best->region.hi(d)));
  }
  return reference::evaluate_polynomial(best->poly, clamped);
}

TEST(RegionIndex, MatchesLinearScanOnRandomizedModels) {
  std::mt19937_64 rng(20260730);
  for (int model_i = 0; model_i < 40; ++model_i) {
    const int dims = 1 + static_cast<int>(rng() % 3);
    const int npieces = 1 + static_cast<int>(rng() % 7);
    std::vector<RegionModel> pieces;
    for (int p = 0; p < npieces; ++p) {
      std::vector<index_t> lo(dims), hi(dims);
      for (int d = 0; d < dims; ++d) {
        lo[d] = static_cast<index_t>(rng() % 48);
        hi[d] = lo[d] + static_cast<index_t>(rng() % 32);
      }
      Normalization norm;
      norm.shift.assign(dims, 8.0);
      norm.scale.assign(dims, 10.0);
      std::vector<std::vector<double>> coeffs(
          kStatCount, std::vector<double>(
                          static_cast<std::size_t>(monomial_count(dims, 1))));
      for (auto& row : coeffs) {
        for (double& c : row) {
          c = std::uniform_real_distribution<double>(-3.0, 7.0)(rng);
        }
      }
      RegionModel piece;
      piece.region = Region(lo, hi);
      piece.poly = VecPolynomial(dims, 1, norm, coeffs);
      // Duplicate fit errors on purpose: ties must resolve to the same
      // piece (first wins) in both implementations.
      piece.fit_error = static_cast<double>(rng() % 4) / 10.0;
      pieces.push_back(std::move(piece));
    }
    Region domain(std::vector<index_t>(dims, 0),
                  std::vector<index_t>(dims, 96));
    const PiecewiseModel model(domain, pieces);

    std::vector<std::vector<double>> points;
    for (int q = 0; q < 200; ++q) {
      std::vector<double> pt(dims);
      for (int d = 0; d < dims; ++d) {
        pt[d] = static_cast<double>(static_cast<int>(rng() % 120) - 10);
        if (q % 5 == 0) pt[d] += 0.5;  // non-lattice: linear fallback path
      }
      points.push_back(std::move(pt));
    }
    for (const std::vector<double>& pt : points) {
      expect_identical(model.evaluate(pt), reference_evaluate(model, pt));
    }
  }
}

TEST(RegionIndex, SurvivesCopyAndMove) {
  const CallTrace trace = trace_trinv(2, 160, 32);
  RoutineModel m = fitted_model("trinv2_unb", "", 1);
  const std::vector<double> pt{32.0};
  const SampleStats before = m.model.evaluate(pt);  // index built
  PiecewiseModel copy = m.model;                    // index reset, rebuilt
  expect_identical(copy.evaluate(pt), before);
  PiecewiseModel moved = std::move(copy);           // index carried over
  expect_identical(moved.evaluate(pt), before);
  copy = m.model;  // assignment into moved-from state
  expect_identical(copy.evaluate(pt), before);
}

// ------------------------------------------------------------- sharded LRU

TEST(ShardedLru, HitMissEvictAndClear) {
  // One shard makes the eviction order deterministic for the test.
  ShardedLru<int, int> cache(/*capacity=*/2, /*shards=*/1);
  cache.insert(1, std::make_shared<int>(10));
  cache.insert(2, std::make_shared<int>(20));
  ASSERT_NE(cache.find(1), nullptr);  // promotes 1 over 2
  cache.insert(3, std::make_shared<int>(30));  // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(3), 30);
  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.find(1), nullptr);

  ShardedLru<int, int> disabled(/*capacity=*/0);
  disabled.insert(1, std::make_shared<int>(10));
  EXPECT_EQ(disabled.find(1), nullptr);
}

TEST(ShardedLru, ReinsertReplacesAndPromotes) {
  ShardedLru<int, int> cache(2, 1);
  cache.insert(1, std::make_shared<int>(10));
  cache.insert(2, std::make_shared<int>(20));
  cache.insert(1, std::make_shared<int>(11));  // replace + promote
  cache.insert(3, std::make_shared<int>(30));  // evicts 2
  EXPECT_EQ(*cache.find(1), 11);
  EXPECT_EQ(cache.find(2), nullptr);
}

// ------------------------------------------------------------ TraceContext

TEST(TraceContext, TakeLeavesCleanReusableState) {
  TraceContext ctx;
  ctx.gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, nullptr, 8, nullptr,
           8, 0.0, nullptr, 8);
  const CallTrace first = ctx.take();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(ctx.trace().empty());  // reset, not moved-from garbage
  ctx.trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 4, 4, 1.0,
           nullptr, 4, nullptr, 4);
  const CallTrace second = ctx.take();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].routine, RoutineId::Trsm);
}

TEST(TraceContext, GeneratorsStayWithinReserveEstimates) {
  EXPECT_LE(trace_trinv(4, 250, 100).size(),
            static_cast<std::size_t>(trace_trinv_calls(250, 100)));
  for (int v : {1, 8, 16}) {
    EXPECT_LE(trace_sylv(v, 192, 160, 48).size(),
              static_cast<std::size_t>(trace_sylv_calls(192, 160, 48)));
  }
  EXPECT_LE(trace_chol(3, 224, 64).size(),
            static_cast<std::size_t>(trace_chol_calls(224, 64)));
}

// ------------------------------------------------- engine-level semantics

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
  struct Cleanup {
    fs::path dir;
    ~Cleanup() { fs::remove_all(dir); }
  } cleanup;
  Engine engine;
};

/// The reference per-call prediction over the engine's CURRENT
/// repository models (what an uncached engine would answer).
Prediction repository_reference(Engine& engine, const OperationSpec& spec) {
  const CallTrace trace = spec.trace();
  reference::Models set;
  for (const KernelCall& call : trace) {
    const std::string routine = routine_name(call.routine);
    if (set.find(routine, call.flag_key()) != nullptr) continue;
    auto model = engine.service().find(
        ModelKey{routine, engine.config().system.backend,
                 engine.config().system.locality, call.flag_key()});
    if (model != nullptr) set.add(std::move(model));
  }
  return reference::predict(trace, set);
}

TEST(EngineCompiled, RepeatedSweepHitsTraceCache) {
  TempEngine t("dlap_test_compiled_cachehit");
  const RankQuery query = RankQuery::trinv_variants(160, 32);
  const auto first = t.engine.rank(query);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const LruStats after_first = t.engine.trace_cache_stats();
  EXPECT_EQ(after_first.size, 4u);
  const LruStats traces_first = t.engine.compiled_trace_stats();
  EXPECT_EQ(traces_first.misses, 4u);
  EXPECT_EQ(traces_first.size, 4u);
  const auto second = t.engine.rank(query);
  ASSERT_TRUE(second.ok());
  const LruStats after_second = t.engine.trace_cache_stats();
  EXPECT_EQ(after_second.hits, after_first.hits + 4);
  EXPECT_EQ(after_second.misses, after_first.misses);  // no recompilation
  // A sweep-point hit never reaches the compiled-trace layer.
  const LruStats traces_second = t.engine.compiled_trace_stats();
  EXPECT_EQ(traces_second.hits, traces_first.hits);
  EXPECT_EQ(traces_second.misses, traces_first.misses);
  for (std::size_t i = 0; i < first->predictions.size(); ++i) {
    expect_identical(first->predictions[i], second->predictions[i]);
  }
  // Once the snapshots settle, a repeat shares their stored text: the
  // same strings, not new ones formatted again.
  const auto warm = t.engine.rank(query);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->prediction_json.size(), second->prediction_json.size());
  for (std::size_t i = 0; i < warm->prediction_json.size(); ++i) {
    EXPECT_EQ(warm->prediction_json[i].get(),
              second->prediction_json[i].get());
  }
  t.engine.clear_trace_cache();
  const LruStats points_cleared = t.engine.trace_cache_stats();
  const LruStats traces_cleared = t.engine.compiled_trace_stats();
  EXPECT_EQ(points_cleared.size, 0u);
  EXPECT_EQ(traces_cleared.size, 0u);
  const auto third = t.engine.rank(query);  // recompiles, same answers
  ASSERT_TRUE(third.ok());
  for (std::size_t i = 0; i < first->predictions.size(); ++i) {
    expect_identical(first->predictions[i], third->predictions[i]);
  }
  // Cleared means cold in both layers: every point misses and compiles.
  EXPECT_EQ(t.engine.trace_cache_stats().misses, points_cleared.misses + 4);
  EXPECT_EQ(t.engine.compiled_trace_stats().misses,
            traces_cleared.misses + 4);
  EXPECT_EQ(t.engine.compiled_trace_stats().hits, traces_cleared.hits);
}

TEST(EngineCompiled, TinyCacheEvictsButStaysCorrect) {
  EngineConfig cfg = test_config("dlap_test_compiled_evict");
  cfg.trace_cache_capacity = 4;  // far below the 16-variant sweep
  TempEngine t("dlap_test_compiled_evict", std::move(cfg));
  const RankQuery query = RankQuery::sylv_variants(96, 96, 32);
  const auto first = t.engine.rank(query);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const auto second = t.engine.rank(query);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(t.engine.trace_cache_stats().evictions, 0u);
  for (std::size_t i = 0; i < first->predictions.size(); ++i) {
    expect_identical(first->predictions[i], second->predictions[i]);
  }
}

TEST(EngineCompiled, CachedSweepInvalidatedOnModelRegeneration) {
  TempEngine t("dlap_test_compiled_regen");
  const OperationSpec small = OperationSpec::trinv(1, 96, 16);
  const auto before = t.engine.predict(PredictQuery::of(small));
  ASSERT_TRUE(before.ok()) << before.status().to_string();

  // Same model keys over a wider parameter range: the engine regenerates
  // the models with region-unioned domains.
  const auto wide =
      t.engine.predict(PredictQuery::of(OperationSpec::trinv(1, 256, 64)));
  ASSERT_TRUE(wide.ok()) << wide.status().to_string();

  // The small query's compiled sweep point is still cached, but its slot
  // snapshot must be invalidated: the answer has to match the CURRENT
  // repository models (what a fresh engine computes), not the stale
  // pre-regeneration ones.
  const auto after = t.engine.predict(PredictQuery::of(small));
  ASSERT_TRUE(after.ok());
  expect_identical(*after, repository_reference(t.engine, small));
}

/// The engine hands out one stored text per prediction, and each is that
/// prediction's write_prediction text.
void expect_stored_text(const Ranking& r) {
  ASSERT_EQ(r.prediction_json.size(), r.predictions.size());
  for (std::size_t i = 0; i < r.predictions.size(); ++i) {
    ASSERT_NE(r.prediction_json[i], nullptr);
    std::string text;
    write_prediction(r.predictions[i], &text);
    EXPECT_EQ(*r.prediction_json[i], text);
  }
}

void expect_identical(const Ranking& a, const Ranking& b) {
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    expect_identical(a.predictions[i], b.predictions[i]);
  }
  EXPECT_EQ(a.order, b.order);
  expect_stored_text(a);
  expect_stored_text(b);
}

void expect_identical(const TuneResult& a, const TuneResult& b) {
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  ASSERT_EQ(a.prediction_json.size(), b.prediction_json.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    expect_identical(a.predictions[i], b.predictions[i]);
    EXPECT_EQ(*a.prediction_json[i], *b.prediction_json[i]);
  }
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.best_index, b.best_index);
}

/// Two systems that differ in locality alone, as the paper's Fig IV.1
/// asks each spec under in-cache and out-of-cache models.
const SystemSpec kSystemX{"blocked", Locality::InCache};
const SystemSpec kSystemY{"blocked", Locality::OutOfCache};

/// `query` asked under `system`.
template <class Query>
Query under(Query query, const SystemSpec& system) {
  query.system = system;
  return query;
}

TEST(EngineCompiled, ConcurrentFirstRankMatchesSequentialEngine) {
  // Put the models of both systems on disk first, so every engine below
  // reads the same model bytes.
  const RankQuery query = RankQuery::sylv_variants(96, 96, 32);
  TempEngine gen("dlap_test_compiled_concurrent");
  for (const SystemSpec& system : {kSystemX, kSystemY}) {
    ASSERT_TRUE(gen.engine.prepare(query.candidates, system).ok());
  }
  EngineConfig cfg = test_config("dlap_test_compiled_concurrent");
  cfg.generate_missing = false;

  // One sequential engine per system, each serving only that system.
  std::vector<Ranking> references;
  for (const SystemSpec& system : {kSystemX, kSystemY}) {
    Engine sequential(cfg);
    const auto reference = sequential.rank(under(query, system));
    ASSERT_TRUE(reference.ok()) << reference.status().to_string();
    references.push_back(*reference);
  }

  // The rank is new to this engine: eight threads, split across the two
  // systems, race through compile (both systems on the same traces),
  // resolve and the first read of every snapshot's stored prediction.
  Engine shared(cfg);
  constexpr int kThreads = 8;
  std::vector<Result<Ranking>> answers(
      kThreads, Status::error(StatusCode::InternalError, "not run"));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const RankQuery mine = under(query, i % 2 == 0 ? kSystemX : kSystemY);
      start.arrive_and_wait();
      answers[static_cast<std::size_t>(i)] = shared.rank(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(answers[i].ok()) << answers[i].status().to_string();
    expect_identical(*answers[i], references[i % 2]);
  }
}

TEST(EngineCompiled, ConcurrentColdQueriesShareGeneration) {
  // Eight threads race one cold engine: four ask one trinv rank, four ask
  // a blocksize tune of one trinv variant each at a larger n. The queries
  // share keys over overlapping sizes, so every caller thread generates,
  // joins or grows the same models at once, each fanning its batch out
  // over the service pool.
  const RankQuery rank = RankQuery::trinv_variants(160, 32);
  std::vector<TuneQuery> tunes;
  for (int v = 1; v <= kTrinvVariantCount; ++v) {
    TuneQuery tune;
    tune.spec = OperationSpec::trinv(v, 192, 32);
    tune.lo = 16;
    tune.hi = 64;
    tune.step = 16;
    tunes.push_back(tune);
  }
  TempEngine t("dlap_test_compiled_cold_race");
  constexpr int kThreads = 8;
  std::vector<Status> answers(
      kThreads, Status::error(StatusCode::InternalError, "not run"));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      answers[static_cast<std::size_t>(i)] =
          i % 2 == 0 ? t.engine.rank(rank).status()
                     : t.engine.tune(tunes[static_cast<std::size_t>(i / 2)])
                           .status();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_TRUE(answers[i].ok()) << i << ": " << answers[i].to_string();
  }

  // The stored domains grew to cover every query: an engine that may not
  // generate answers each of them from the repository alone.
  EngineConfig cfg = test_config("dlap_test_compiled_cold_race");
  cfg.generate_missing = false;
  Engine stored(cfg);
  const auto ranked = stored.rank(rank);
  EXPECT_TRUE(ranked.ok()) << ranked.status().to_string();
  for (const TuneQuery& tune : tunes) {
    const auto tuned = stored.tune(tune);
    EXPECT_TRUE(tuned.ok()) << tuned.status().to_string();
  }
}

TEST(EngineCompiled, SystemsShareCompiledTraces) {
  // A 16-schedule sylv rank and an 8-point trinv tune, asked under X and
  // then under Y. Models for both systems go on disk first, so every
  // engine below reads the same model bytes.
  const RankQuery rank = RankQuery::sylv_variants(96, 64, 32);
  TuneQuery tune;
  tune.spec = OperationSpec::trinv(3, 192, 64);
  tune.lo = 16;
  tune.hi = 128;
  tune.step = 16;
  std::vector<OperationSpec> specs = rank.candidates;
  for (index_t b = tune.lo; b <= tune.hi; b += tune.step) {
    specs.push_back(OperationSpec::trinv(3, 192, b));
  }
  constexpr std::size_t kPoints = 16 + 8;
  TempEngine gen("dlap_test_compiled_systems");
  for (const SystemSpec& system : {kSystemX, kSystemY}) {
    ASSERT_TRUE(gen.engine.prepare(specs, system).ok());
  }
  EngineConfig cfg = test_config("dlap_test_compiled_systems");
  cfg.generate_missing = false;

  // The default capacity holds everything; 8 makes both layers evict.
  for (const index_t capacity : {index_t{4096}, index_t{8}}) {
    SCOPED_TRACE(capacity);
    cfg.trace_cache_capacity = capacity;
    Engine only_y(cfg);
    const auto rank_ref = only_y.rank(under(rank, kSystemY));
    const auto tune_ref = only_y.tune(under(tune, kSystemY));
    ASSERT_TRUE(rank_ref.ok()) << rank_ref.status().to_string();
    ASSERT_TRUE(tune_ref.ok()) << tune_ref.status().to_string();

    Engine engine(cfg);
    const auto rank_x = engine.rank(under(rank, kSystemX));
    const auto tune_x = engine.tune(under(tune, kSystemX));
    ASSERT_TRUE(rank_x.ok()) << rank_x.status().to_string();
    ASSERT_TRUE(tune_x.ok()) << tune_x.status().to_string();
    const LruStats points_x = engine.trace_cache_stats();
    const LruStats traces_x = engine.compiled_trace_stats();

    const auto rank_y = engine.rank(under(rank, kSystemY));
    const auto tune_y = engine.tune(under(tune, kSystemY));
    ASSERT_TRUE(rank_y.ok()) << rank_y.status().to_string();
    ASSERT_TRUE(tune_y.ok()) << tune_y.status().to_string();
    const LruStats points_y = engine.trace_cache_stats();
    const LruStats traces_y = engine.compiled_trace_stats();

    expect_identical(*rank_y, *rank_ref);
    expect_identical(*tune_y, *tune_ref);
    // Y's models differ from X's, so Y did not answer from X's points.
    EXPECT_NE(rank_y->predictions[0].ticks.median,
              rank_x->predictions[0].ticks.median);
    EXPECT_NE(tune_y->predictions[0].ticks.median,
              tune_x->predictions[0].ticks.median);

    EXPECT_EQ(points_y.misses - points_x.misses, kPoints);
    if (capacity == 4096) {
      // Y builds points of its own on X's compiled traces.
      EXPECT_EQ(traces_x.misses, kPoints);
      EXPECT_EQ(traces_y.misses, traces_x.misses);
      EXPECT_EQ(traces_y.hits - traces_x.hits, kPoints);
      EXPECT_EQ(traces_y.size, kPoints);
      EXPECT_EQ(points_y.size, 2 * kPoints);
    } else {
      EXPECT_GT(points_y.evictions, 0u);
      EXPECT_GT(traces_y.evictions, 0u);
    }
  }
}

TEST(EngineCompiled, KnownSpecUnderAnotherSystemRunsNoAlgorithm) {
  // A trinv clone that counts the runs of its algorithm into a compiling
  // context, which is what a compile is (planning traces it too).
  static std::atomic<int> compiles{0};
  OperationDescriptor counted;
  counted.name = "test_counted_trinv";
  counted.variant_count = 1;
  counted.run = [](const OperationSpec& s, KernelContext& ctx) {
    if (dynamic_cast<CompilingContext*>(&ctx) != nullptr) ++compiles;
    record_trinv(ctx, 1, s.n, s.blocksize);
  };
  counted.nominal_flops = [](const OperationSpec& s) {
    return trinv_flops(s.n);
  };
  (void)OperationRegistry::instance().register_family(std::move(counted));

  TempEngine t("dlap_test_compiled_counted");
  const PredictQuery query =
      PredictQuery::of(OperationSpec::of("test_counted_trinv", 1, 0, 96, 32));
  const int before = compiles.load();
  for (const SystemSpec& system : {kSystemX, kSystemY, kSystemX}) {
    const auto answer = t.engine.predict(under(query, system));
    ASSERT_TRUE(answer.ok()) << answer.status().to_string();
  }
  EXPECT_EQ(compiles.load() - before, 1);
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 2u);
}

/// Generates the models `specs` need into `dir` from measurements offset
/// by `offset`, then compacts them into the directory's container, so
/// the repository holds no text file that could shadow it.
void write_container_repository(const fs::path& dir, double offset,
                                const std::vector<OperationSpec>& specs) {
  fs::remove_all(dir);
  {
    EngineConfig cfg = test_config(dir.filename().string());
    cfg.service.measure_factory = [offset](const ModelJob&) {
      return synthetic_measure(offset);
    };
    Engine engine(std::move(cfg));
    ASSERT_TRUE(engine.prepare(specs).ok());
  }
  (void)storage::compact_repository(dir);
}

TEST(EngineCompiled, ReloadedContainerReplacesStoredPredictions) {
  const RankQuery query = RankQuery::trinv_variants(160, 32);
  const fs::path old_repo =
      fs::temp_directory_path() / "dlap_test_compiled_swap_old";
  const fs::path new_repo =
      fs::temp_directory_path() / "dlap_test_compiled_swap_new";
  const TempEngine::Cleanup old_cleanup{old_repo};
  const TempEngine::Cleanup new_cleanup{new_repo};
  ASSERT_NO_FATAL_FAILURE(
      write_container_repository(old_repo, 0.0, query.candidates));
  ASSERT_NO_FATAL_FAILURE(
      write_container_repository(new_repo, 5000.0, query.candidates));

  EngineConfig cfg = test_config("dlap_test_compiled_swap");
  cfg.generate_missing = false;
  TempEngine t("dlap_test_compiled_swap", cfg);
  fs::create_directories(t.dir);
  const fs::path live = t.dir / storage::kContainerFilename;
  fs::copy_file(old_repo / storage::kContainerFilename, live);
  ASSERT_TRUE(t.engine.reload().ok());
  const auto before = t.engine.rank(query);
  ASSERT_TRUE(before.ok()) << before.status().to_string();
  const auto warm = t.engine.rank(query);  // stored predictions answer
  ASSERT_TRUE(warm.ok());
  expect_identical(*warm, *before);

  // Replace the container the way compaction does (write beside, rename
  // over) with one holding different models, and reload.
  const fs::path next = t.dir / "next.dlapc";
  fs::copy_file(new_repo / storage::kContainerFilename, next);
  fs::rename(next, live);
  ASSERT_TRUE(t.engine.reload().ok());
  const auto after = t.engine.rank(query);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  // Only the first rank compiled: this one ran on warm sweep points.
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 4u);

  Engine fresh(cfg);
  const auto expected = fresh.rank(query);
  ASSERT_TRUE(expected.ok()) << expected.status().to_string();
  expect_identical(*after, *expected);
  EXPECT_NE(after->predictions[0].ticks.median,
            before->predictions[0].ticks.median);  // the models differ
  EXPECT_NE(*after->prediction_json[0], *before->prediction_json[0]);
}

TEST(EngineCompiled, ReloadReleasesTheSnapshotsOfCachedPoints) {
  const RankQuery query = RankQuery::trinv_variants(160, 32);
  const fs::path repo =
      fs::temp_directory_path() / "dlap_test_compiled_release_repo";
  const TempEngine::Cleanup repo_cleanup{repo};
  ASSERT_NO_FATAL_FAILURE(
      write_container_repository(repo, 0.0, query.candidates));

  EngineConfig cfg = test_config("dlap_test_compiled_release");
  cfg.generate_missing = false;
  TempEngine t("dlap_test_compiled_release", cfg);
  fs::create_directories(t.dir);
  fs::copy_file(repo / storage::kContainerFilename,
                t.dir / storage::kContainerFilename);
  ASSERT_TRUE(t.engine.reload().ok());

  // A model the rank resolved, watched while the rank is answered.
  const ModelKey key{"trinv1_unb", cfg.system.backend, cfg.system.locality,
                     ""};
  std::weak_ptr<const RoutineModel> watched;
  {
    const auto answer = t.engine.rank(query);
    ASSERT_TRUE(answer.ok()) << answer.status().to_string();
    const std::shared_ptr<const RoutineModel> model =
        t.engine.service().find(key);
    ASSERT_NE(model, nullptr);
    watched = model;
  }
  EXPECT_FALSE(watched.expired());  // the cached snapshots pin it
  ASSERT_TRUE(t.engine.reload().ok());
  EXPECT_TRUE(watched.expired());
  // Both layers stay cached.
  EXPECT_EQ(t.engine.trace_cache_stats().size, 4u);
  EXPECT_EQ(t.engine.compiled_trace_stats().size, 4u);

  // A ranking held across a reload keeps its own snapshots and bytes.
  const auto held = t.engine.rank(query);
  ASSERT_TRUE(held.ok()) << held.status().to_string();
  std::vector<std::string> texts;
  for (const auto& text : held->prediction_json) texts.push_back(*text);
  ASSERT_TRUE(t.engine.reload().ok());
  ASSERT_EQ(held->prediction_json.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(*held->prediction_json[i], texts[i]);
  }
  expect_stored_text(*held);
  const auto again = t.engine.rank(query);  // re-resolved, same models
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  expect_identical(*again, *held);
  // Neither reload made a later rank recompile or rebuild a point.
  EXPECT_EQ(t.engine.trace_cache_stats().misses, 4u);
  EXPECT_EQ(t.engine.compiled_trace_stats().misses, 4u);
}

TEST(EngineCompiled, RepositoryModelsKeepSnapshotsCurrentUntilAStore) {
  // Stored models for two families, and an engine that only reads them.
  const RankQuery trinv = RankQuery::trinv_variants(160, 32);
  const RankQuery chol = RankQuery::chol_variants(160, 32);
  std::vector<OperationSpec> specs = trinv.candidates;
  specs.insert(specs.end(), chol.candidates.begin(), chol.candidates.end());
  TempEngine gen("dlap_test_compiled_stable");
  ASSERT_TRUE(gen.engine.prepare(specs).ok());
  EngineConfig cfg = test_config("dlap_test_compiled_stable");
  cfg.generate_missing = false;
  Engine engine(cfg);

  // Loading other keys into the repository's cache stores nothing, so
  // the trinv snapshots stay current: the repeat hands out their stored
  // texts.
  const auto first = engine.rank(trinv);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const auto other = engine.rank(chol);
  ASSERT_TRUE(other.ok()) << other.status().to_string();
  const auto again = engine.rank(trinv);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  expect_identical(*again, *first);
  for (std::size_t i = 0; i < first->prediction_json.size(); ++i) {
    EXPECT_EQ(again->prediction_json[i].get(),
              first->prediction_json[i].get());
  }

  // A store moves the repository's version: the next rank resolves
  // again and builds new snapshots, here over the same model bytes.
  const ModelKey key{"trinv1_unb", cfg.system.backend, cfg.system.locality,
                     ""};
  const std::shared_ptr<const RoutineModel> model = engine.service().find(key);
  ASSERT_NE(model, nullptr);
  engine.service().repository().store(*model);
  const auto stored = engine.rank(trinv);
  ASSERT_TRUE(stored.ok()) << stored.status().to_string();
  expect_identical(*stored, *first);
  for (std::size_t i = 0; i < first->prediction_json.size(); ++i) {
    EXPECT_NE(stored->prediction_json[i].get(),
              first->prediction_json[i].get());
  }
}

TEST(EngineCompiled, OneRankNeverMixesModelsOfAKey) {
  TempEngine t("dlap_test_compiled_one_model");
  const OperationSpec small = OperationSpec::trinv(1, 96, 16);
  const RankQuery alone{{small}, std::nullopt};
  ASSERT_TRUE(t.engine.rank(alone).ok());
  const auto current = t.engine.rank(alone);  // its snapshot is current
  ASSERT_TRUE(current.ok()) << current.status().to_string();

  // The new candidate widens the keys both share, so the rank
  // regenerates them: the small point, current until now, must move to
  // the new models too, or the two candidates would be compared on
  // different models of one key.
  const OperationSpec large = OperationSpec::trinv(1, 256, 100);
  const auto both = t.engine.rank(RankQuery{{small, large}, std::nullopt});
  ASSERT_TRUE(both.ok()) << both.status().to_string();
  expect_identical(both->predictions[0], repository_reference(t.engine, small));
  expect_identical(both->predictions[1], repository_reference(t.engine, large));
}

TEST(EngineCompiled, OneAxisSpecsShareOnePointAcrossM) {
  TempEngine t("dlap_test_compiled_one_axis");
  for (const OperationSpec& base : {OperationSpec::trinv(2, 160, 32),
                                    OperationSpec::chol(3, 128, 48)}) {
    SCOPED_TRACE(base.to_string());
    t.engine.clear_trace_cache();
    const LruStats before = t.engine.trace_cache_stats();
    OperationSpec other = base;
    other.m = 77;  // one-axis families ignore m
    const auto first = t.engine.predict(PredictQuery::of(base));
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    const auto second = t.engine.predict(PredictQuery::of(other));
    ASSERT_TRUE(second.ok()) << second.status().to_string();
    const LruStats after = t.engine.trace_cache_stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.size, 1u);
    EXPECT_EQ(t.engine.compiled_trace_stats().size, 1u);
    expect_identical(*first, *second);

    // A ranking echoes each candidate as given.
    const auto ranked = t.engine.rank(RankQuery{{other}, std::nullopt});
    ASSERT_TRUE(ranked.ok()) << ranked.status().to_string();
    EXPECT_EQ(ranked->candidates[0].m, 77);
    expect_identical(ranked->predictions[0], *first);
  }
}

TEST(EngineCompiled, SpecAndEquivalentRawTraceAgree) {
  TempEngine t("dlap_test_compiled_rawtrace");
  const OperationSpec spec = OperationSpec::chol(2, 160, 32);
  const auto via_spec = t.engine.predict(PredictQuery::of(spec));
  ASSERT_TRUE(via_spec.ok()) << via_spec.status().to_string();
  // The raw-trace path compiles ephemerally (no cache key), but must
  // predict identically from the same models.
  const auto via_trace = t.engine.predict(PredictQuery::of(spec.trace()));
  ASSERT_TRUE(via_trace.ok()) << via_trace.status().to_string();
  expect_identical(*via_spec, *via_trace);
  EXPECT_EQ(t.engine.trace_cache_stats().size, 1u);  // only the spec query
  EXPECT_EQ(t.engine.compiled_trace_stats().size, 1u);
}

}  // namespace
}  // namespace dlap
