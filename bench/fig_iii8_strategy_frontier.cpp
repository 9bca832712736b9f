// Fig III.8 -- Model Expansion vs Adaptive Refinement: number of samples
// needed to reach a given average model error (the samples/accuracy
// frontier over the eight configurations of Figs III.6 and III.7).
//
// Expected shape (paper): expansion is more sample-efficient at low
// budgets; refinement reaches the lowest errors when samples are
// plentiful.

#include <map>
#include <memory>

#include "support/bench_util.hpp"

namespace {

dlap::MeasureFn memoize(dlap::MeasureFn fn) {
  auto cache = std::make_shared<
      std::map<std::vector<dlap::index_t>, dlap::SampleStats>>();
  return [cache, fn = std::move(fn)](const std::vector<dlap::index_t>& p) {
    auto it = cache->find(p);
    if (it == cache->end()) it = cache->emplace(p, fn(p)).first;
    return it->second;
  };
}

}  // namespace

int main() {
  using namespace dlap;
  using namespace dlap::bench;
  const Scales sc = current_scales();
  const index_t hi = sc.model_max_2d;

  ModelingRequest req;
  req.routine = RoutineId::Trsm;
  req.flags = {'L', 'L', 'N', 'N'};
  req.domain = Region({8, 8}, {hi, hi});
  req.fixed_ld = 2500;
  req.sampler.reps = sc.reps;

  const MeasureFn measure =
      memoize(make_measure_fn(backend_instance(system_a()), req));

  print_comment("Fig III.8: samples vs average error frontier "
                "(dtrsm(L,L,N,N), in-cache, backend " + system_a() + ")");
  print_header({"strategy", "config", "samples", "avg_error_pct",
                "regions"});

  struct Point {
    std::string strategy;
    std::string label;
    GenerationResult gen;
  };
  std::vector<Point> points;

  const struct { const char* label; double eps;
                 ExpansionConfig::Direction dir; index_t sini; } exp_cfgs[] = {
      {"a", 0.10, ExpansionConfig::Direction::AwayFromOrigin, 64},
      {"b", 0.10, ExpansionConfig::Direction::TowardOrigin, 64},
      {"c", 0.05, ExpansionConfig::Direction::TowardOrigin, 64},
      {"d", 0.05, ExpansionConfig::Direction::TowardOrigin, 32}};
  for (const auto& c : exp_cfgs) {
    ExpansionConfig cfg;
    cfg.base.error_bound = c.eps;
    cfg.base.degree = 3;
    cfg.direction = c.dir;
    cfg.initial_size = c.sini;
    points.push_back(
        {"expansion", c.label,
         generate_model_expansion(req.domain, measure, cfg)});
  }

  const struct { const char* label; double eps; index_t smin; } ref_cfgs[] =
      {{"a", 0.10, 64}, {"b", 0.05, 64}, {"c", 0.10, 32}, {"d", 0.05, 32}};
  for (const auto& c : ref_cfgs) {
    RefinementConfig cfg;
    cfg.base.error_bound = c.eps;
    cfg.base.degree = 3;
    cfg.min_region_size = c.smin;
    points.push_back(
        {"refinement", c.label,
         generate_adaptive_refinement(req.domain, measure, cfg)});
  }

  for (const Point& p : points) {
    std::printf("  %14s %14s", p.strategy.c_str(), p.label.c_str());
    print_row({static_cast<double>(p.gen.unique_samples),
               100.0 * p.gen.average_error,
               static_cast<double>(p.gen.model.pieces().size())});
  }
  return 0;
}
