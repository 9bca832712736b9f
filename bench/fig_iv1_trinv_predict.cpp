// Fig IV.1 -- trinv: performance predictions vs observations as the
// matrix size varies (blocksize 96), for the four variants.
//   (a) out-of-cache models underestimate efficiency,
//   (b) in-cache models overestimate it and rank all variants correctly,
//   (c) statistical prediction: median/mean/min/max ranges.
//
// All predictions flow through the shared Engine: one prepare() per
// system generates the sweep's models as a concurrent batch, then each
// size predicts every (variant, system) combination.
//
// Output: per n, measured efficiency of each variant, then the in-cache
// and out-of-cache median predictions and the in-cache min/mean/max for
// variant-level range checks; finally the per-n ranking agreement.

#include "predict/ranking.hpp"
#include "support/bench_util.hpp"

int main() {
  using namespace dlap;
  using namespace dlap::bench;
  const Scales sc = current_scales();
  const std::string backend = system_a();

  Engine& engine = shared_engine();
  const SystemSpec in_sys{backend, Locality::InCache};
  const SystemSpec out_sys{backend, Locality::OutOfCache};
  // Models derived from the largest sweep size cover every smaller one.
  const auto specs =
      RankQuery::trinv_variants(sc.sweep_max, sc.blocksize).candidates;
  require_ok(engine.prepare(specs, in_sys));
  require_ok(engine.prepare(specs, out_sys));

  print_comment("Fig IV.1: trinv predictions vs observations, backend " +
                backend + ", blocksize " + std::to_string(sc.blocksize));
  print_header({"n", "meas_v1", "meas_v2", "meas_v3", "meas_v4",
                "in_v1", "in_v2", "in_v3", "in_v4",
                "out_v1", "out_v2", "out_v3", "out_v4"});

  const index_t step = sc.paper ? 64 : 32;
  index_t ranked_correctly = 0;
  index_t points = 0;
  std::vector<double> top1_hits;
  for (index_t n = 96; n <= sc.sweep_max; n += step) {
    std::vector<double> meas_eff, in_eff, out_eff;
    std::vector<double> meas_ticks, in_ticks;
    for (int v = 1; v <= kTrinvVariantCount; ++v) {
      const double mt =
          measure_trinv_ticks(backend, v, n, sc.blocksize, sc.reps);
      PredictQuery q =
          PredictQuery::of(OperationSpec::trinv(v, n, sc.blocksize));
      q.system = in_sys;
      const double it = require_ok(engine.predict(q)).ticks.median;
      q.system = out_sys;
      const double ot = require_ok(engine.predict(q)).ticks.median;
      meas_ticks.push_back(mt);
      in_ticks.push_back(it);
      meas_eff.push_back(trinv_efficiency(n, mt));
      in_eff.push_back(trinv_efficiency(n, it));
      out_eff.push_back(trinv_efficiency(n, ot));
    }
    std::vector<double> row = meas_eff;
    row.insert(row.end(), in_eff.begin(), in_eff.end());
    row.insert(row.end(), out_eff.begin(), out_eff.end());
    print_row(static_cast<double>(n), row);

    ++points;
    if (rank_order(in_ticks) == rank_order(meas_ticks)) ++ranked_correctly;
    top1_hits.push_back(same_winner(in_ticks, meas_ticks) ? 1.0 : 0.0);
  }

  print_comment("in-cache median models: exact full ranking at " +
                std::to_string(ranked_correctly) + "/" +
                std::to_string(points) + " sizes");
  double hits = 0;
  for (double h : top1_hits) hits += h;
  print_comment("best-variant identified at " +
                std::to_string(static_cast<index_t>(hits)) + "/" +
                std::to_string(points) + " sizes");

  // Part (c): statistical prediction for the largest size.
  const index_t n = sc.sweep_max;
  print_comment("statistical prediction at n = " + std::to_string(n) +
                " (efficiency from min/median/mean/max ticks):");
  print_header({"variant", "eff_from_max", "eff_median", "eff_mean",
                "eff_from_min", "measured"});
  for (int v = 1; v <= kTrinvVariantCount; ++v) {
    PredictQuery q =
        PredictQuery::of(OperationSpec::trinv(v, n, sc.blocksize));
    q.system = in_sys;
    const Prediction p = require_ok(engine.predict(q));
    const double mt =
        measure_trinv_ticks(backend, v, n, sc.blocksize, sc.reps);
    print_row(static_cast<double>(v),
              {trinv_efficiency(n, p.ticks.max),
               trinv_efficiency(n, p.ticks.median),
               trinv_efficiency(n, p.ticks.mean),
               trinv_efficiency(n, p.ticks.min),
               trinv_efficiency(n, mt)});
  }
  return 0;
}
