// Fig III.5 -- sequence of steps in the construction of a piecewise model
// through Adaptive Refinement (real construction event log of a dtrsm
// model: whole-domain region first, then recursive splits of inaccurate
// regions, minimum-size regions accepted regardless).
//
// Driven through the incremental step-machine interface
// (make_refinement_stepper): each batch of required points is fulfilled
// through the real Sampler and events stream out as the machine produces
// them -- the same code path the ModelService's batched generation
// drives.

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

  const RefinementConfig cfg = paper_refinement_config();

  const MeasureFn measure =
      make_measure_fn(backend_instance(system_a()), req);
  auto stepper = make_refinement_stepper(req.domain, cfg);

  print_comment("Fig III.5: Adaptive Refinement construction sequence for "
                "dtrsm(L,L,N,N) on [8," + std::to_string(hi) + "]^2");
  print_header({"step", "event", "m_lo", "m_hi", "n_lo", "n_hi",
                "error", "samples"});

  std::size_t printed = 0;
  index_t step = 0;
  while (!stepper->done()) {
    print_generation_events(*stepper, &printed, &step);
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
