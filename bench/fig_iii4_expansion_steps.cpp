// Fig III.4 -- sequence of steps in the construction of a piecewise model
// through Model Expansion (the paper shows this as a schematic; we emit
// the actual construction event log of a real dtrsm model, which plots to
// the same kind of picture).
//
// The event stream comes from the incremental step-machine interface
// (make_expansion_stepper): the machine emits each batch of required
// sample points, the bench fulfills it through the real Sampler, and
// events are printed as soon as the machine produces them -- the same
// code path the ModelService's batched generation drives.

#include "support/bench_util.hpp"

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

  ExpansionConfig cfg;
  cfg.base.error_bound = 0.10;
  cfg.base.degree = 3;
  cfg.direction = ExpansionConfig::Direction::TowardOrigin;
  cfg.initial_size = 64;

  const MeasureFn measure =
      make_measure_fn(backend_instance(system_a()), req);
  auto stepper = make_expansion_stepper(req.domain, cfg);

  print_comment("Fig III.4: Model Expansion construction sequence for "
                "dtrsm(L,L,N,N) on [8," + std::to_string(hi) + "]^2");
  print_header({"step", "event", "m_lo", "m_hi", "n_lo", "n_hi",
                "error", "samples"});

  std::size_t printed = 0;
  index_t step = 0;
  while (!stepper->done()) {
    print_generation_events(*stepper, &printed, &step);
    // Fulfill the machine's next batch (a region's sample grid) through
    // the real Sampler and advance.
    std::vector<SampleStats> stats;
    stats.reserve(stepper->required().size());
    for (const auto& point : stepper->required()) {
      stats.push_back(measure(point));
    }
    stepper->supply(stats);
  }
  print_generation_events(*stepper, &printed, &step);

  const GenerationResult gen = stepper->take_result();
  print_comment("final model: " + std::to_string(gen.model.pieces().size()) +
                " regions, " + std::to_string(gen.unique_samples) +
                " samples, avg error " +
                std::to_string(100.0 * gen.average_error) + " %");
  return 0;
}
