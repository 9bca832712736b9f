// Tests for the OperationRegistry: built-in family registration, the
// registry-driven OperationSpec/RankQuery surface, edge cases (unknown
// family names, out-of-range variants, registration idempotence) and
// end-to-end registration of a custom family, planned from the calls its
// algorithm issues.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "api/plan.hpp"
#include "ops/registry.hpp"
#include "predict/compiled_trace.hpp"
#include "predict/trace.hpp"

namespace dlap {
namespace {

TEST(OperationRegistry, BuiltinFamiliesAreRegistered) {
  OperationRegistry& reg = OperationRegistry::instance();
  const std::vector<std::string> names = reg.names();
  for (const char* expected : {"chol", "sylv", "trinv"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(reg.require("trinv").variant_count, kTrinvVariantCount);
  EXPECT_EQ(reg.require("sylv").variant_count, kSylvVariantCount);
  EXPECT_EQ(reg.require("chol").variant_count, kCholVariantCount);
  EXPECT_EQ(reg.require("trinv").size_axes, 1);
  EXPECT_EQ(reg.require("sylv").size_axes, 2);
  EXPECT_EQ(reg.require("chol").size_axes, 1);
}

TEST(OperationRegistry, UnknownFamilyIsParseErrorNotACrash) {
  EXPECT_EQ(OperationRegistry::instance().find("nosuchop"), nullptr);
  EXPECT_THROW((void)OperationRegistry::instance().require("nosuchop"),
               lookup_error);

  const Status s =
      OperationSpec::of("nosuchop", 1, 0, 64, 16).validate();
  EXPECT_EQ(s.code, StatusCode::ParseError);
  EXPECT_NE(s.message.find("nosuchop"), std::string::npos);

  // A default-constructed spec names no family.
  EXPECT_EQ(OperationSpec{}.validate().code, StatusCode::ParseError);

  // all_variants over an unknown family degrades to a single candidate
  // whose validation carries the ParseError.
  const RankQuery q =
      RankQuery::all_variants(OperationSpec::of("nosuchop", 1, 0, 64, 16));
  ASSERT_EQ(q.candidates.size(), 1u);
  EXPECT_EQ(q.candidates[0].validate().code, StatusCode::ParseError);
}

TEST(OperationRegistry, VariantOutOfRangeIsInvalidQuery) {
  EXPECT_EQ(OperationSpec::chol(0, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::chol(4, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::trinv(5, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_EQ(OperationSpec::sylv(17, 64, 64, 16).validate().code,
            StatusCode::InvalidQuery);
  EXPECT_TRUE(OperationSpec::chol(3, 64, 16).validate().ok());
}

TEST(OperationRegistry, RegistrationIsIdempotent) {
  OperationRegistry& reg = OperationRegistry::instance();

  // Re-registering a built-in name is ignored (and reports so).
  OperationDescriptor clone;
  clone.name = "trinv";
  clone.variant_count = 99;
  clone.run = [](const OperationSpec&, KernelContext&) {};
  clone.nominal_flops = [](const OperationSpec&) { return 0.0; };
  EXPECT_FALSE(reg.register_family(std::move(clone)));
  EXPECT_EQ(reg.require("trinv").variant_count, kTrinvVariantCount);

  // A fresh name registers exactly once.
  OperationDescriptor once;
  once.name = "test_idempotence_op";
  once.variant_count = 2;
  once.run = [](const OperationSpec& s, KernelContext& ctx) {
    record_trinv(ctx, 1, s.n, s.blocksize);
  };
  once.nominal_flops = [](const OperationSpec& s) { return trinv_flops(s.n); };
  OperationDescriptor again = once;
  EXPECT_TRUE(reg.register_family(std::move(once)));
  EXPECT_FALSE(reg.register_family(std::move(again)));
  EXPECT_EQ(reg.require("test_idempotence_op").variant_count, 2);
}

TEST(OperationRegistry, RejectsMalformedDescriptors) {
  OperationRegistry& reg = OperationRegistry::instance();
  OperationDescriptor good;
  good.name = "test_malformed_op";
  good.variant_count = 1;
  good.run = [](const OperationSpec&, KernelContext&) {};
  good.nominal_flops = [](const OperationSpec&) { return 0.0; };

  OperationDescriptor nameless = good;
  nameless.name.clear();
  EXPECT_THROW(reg.register_family(std::move(nameless)),
               invalid_argument_error);

  OperationDescriptor variantless = good;
  variantless.variant_count = 0;
  EXPECT_THROW(reg.register_family(std::move(variantless)),
               invalid_argument_error);

  OperationDescriptor runless = good;
  runless.run = nullptr;
  EXPECT_THROW(reg.register_family(std::move(runless)),
               invalid_argument_error);

  OperationDescriptor flopless = good;
  flopless.nominal_flops = nullptr;
  EXPECT_THROW(reg.register_family(std::move(flopless)),
               invalid_argument_error);

  OperationDescriptor bad_axes = good;
  bad_axes.size_axes = 3;
  EXPECT_THROW(reg.register_family(std::move(bad_axes)),
               invalid_argument_error);

  // None of the rejected descriptors landed in the registry.
  EXPECT_EQ(reg.find("test_malformed_op"), nullptr);
}

TEST(OperationRegistry, CholFamilyDrivesSpecsTracesAndFlops) {
  const OperationSpec spec = OperationSpec::chol(3, 96, 32);
  ASSERT_TRUE(spec.validate().ok());
  EXPECT_EQ(spec.op, "chol");
  EXPECT_DOUBLE_EQ(spec.nominal_flops(), chol_flops(96));
  EXPECT_EQ(spec.to_string(), "chol v3 n=96 b=32");

  // The spec's trace equals the free-function trace, and contains the
  // expected kernel mix: one unblocked factorization per diagonal block,
  // plus trsm/syrk updates.
  const CallTrace via_spec = spec.trace();
  const CallTrace direct = trace_chol(3, 96, 32);
  ASSERT_EQ(via_spec.size(), direct.size());
  index_t unb = 0, trsm = 0, syrk = 0;
  for (std::size_t i = 0; i < via_spec.size(); ++i) {
    EXPECT_EQ(format_call(via_spec[i]), format_call(direct[i]));
    unb += via_spec[i].routine == RoutineId::Chol3Unb;
    trsm += via_spec[i].routine == RoutineId::Trsm;
    syrk += via_spec[i].routine == RoutineId::Syrk;
  }
  EXPECT_EQ(unb, 3);  // ceil(96 / 32) diagonal blocks
  EXPECT_EQ(trsm, 3);
  EXPECT_EQ(syrk, 3);

  EXPECT_EQ(RankQuery::chol_variants(96, 32).candidates.size(), 3u);
}

TEST(OperationRegistry, CustomFamilyEndToEnd) {
  // A square-gemm family: variant 1 issues one dgemm(N,N) of order n.
  OperationDescriptor op;
  op.name = "test_square_gemm";
  op.variant_count = 1;
  op.size_axes = 1;
  op.run = [](const OperationSpec& s, KernelContext& ctx) {
    ctx.gemm(Trans::NoTrans, Trans::NoTrans, s.n, s.n, s.n, 1.0, nullptr,
             s.n, nullptr, s.n, 0.0, nullptr, s.n);
  };
  op.nominal_flops = [](const OperationSpec& s) {
    const double n = static_cast<double>(s.n);
    return 2.0 * n * n * n;
  };
  (void)OperationRegistry::instance().register_family(std::move(op));

  const OperationSpec spec =
      OperationSpec::of("test_square_gemm", 1, 0, 100, 16);
  ASSERT_TRUE(spec.validate().ok()) << spec.validate().to_string();
  const CallTrace trace = spec.trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(format_call(trace[0]),
            "dgemm(N,N,100,100,100,1,A,100,B,100,0,C,100)");

  // The same run, compiled as it issues its call.
  const CompiledTrace compiled = spec.compile();
  const CompiledTrace recorded = CompiledTrace::compile(trace);
  ASSERT_EQ(compiled.keys().size(), 1u);
  EXPECT_EQ(compiled.keys()[0].routine, RoutineId::Gemm);
  EXPECT_EQ(compiled.keys()[0].flags, recorded.keys()[0].flags);
  ASSERT_EQ(compiled.entries().size(), 1u);
  EXPECT_EQ(compiled.entries()[0].sizes,
            (std::vector<index_t>{100, 100, 100}));
  EXPECT_EQ(compiled.entries()[0].flops, recorded.entries()[0].flops);
  EXPECT_EQ(compiled.entries()[0].flops, spec.nominal_flops());
  EXPECT_EQ(compiled.source_order(), recorded.source_order());

  const SystemSpec system{"blocked", Locality::InCache};
  const auto jobs = plan_jobs_for_specs({spec}, system, PlanningPolicy{});
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].request.domain, Region({8, 8, 8}, {100, 100, 100}));
}

TEST(OperationRegistry, PlanJobsForSpecsMergesAcrossFamilies) {
  // trinv and chol both need lower-triangular right-side trsm models but
  // under different flags; the merged plan holds one job per distinct
  // (routine, flags) key, with domains covering each family's calls.
  const std::vector<OperationSpec> specs = {OperationSpec::trinv(3, 160, 32),
                                            OperationSpec::chol(3, 224, 32)};
  const SystemSpec system{"blocked", Locality::InCache};
  const auto jobs = plan_jobs_for_specs(specs, system, PlanningPolicy{});

  std::set<std::string> keys;
  for (const ModelJob& job : jobs) {
    EXPECT_TRUE(keys.insert(ModelService::key_for(job).to_string()).second)
        << "duplicate key in merged plan";
  }

  // Every non-degenerate call of both traces is covered by some job.
  for (const OperationSpec& spec : specs) {
    for (const KernelCall& call : spec.trace()) {
      if (call_is_degenerate(call)) continue;
      const auto it = std::find_if(
          jobs.begin(), jobs.end(), [&](const ModelJob& job) {
            return job.request.routine == call.routine &&
                   std::string(job.request.flags.begin(),
                               job.request.flags.end()) == call.flag_key();
          });
      ASSERT_NE(it, jobs.end()) << format_call(call);
      EXPECT_TRUE(it->request.domain.contains(call.sizes))
          << format_call(call);
    }
  }
}

}  // namespace
}  // namespace dlap
