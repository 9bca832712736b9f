#pragma once
// The reference prediction loop, kept as the oracle the compiled path is
// checked against (paper Section IV: "Each invocation corresponds to the
// evaluation of the corresponding performance model; the results are then
// accumulated, thus generating a performance prediction").
//
// reference::predict walks a CallTrace in source order: one model lookup
// and one model evaluation per call, summed as it goes.
// CompiledTrace::predict evaluates each unique call once but accumulates
// in the same order with the same arithmetic, so the two agree bit for
// bit.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "predict/compiled_trace.hpp"

namespace dlap::reference {

/// Transparent order over (routine, flags) pairs, so lookups probe with
/// string_views straight off the trace: no allocation per call.
struct RoutineFlagsLess {
  using is_transparent = void;

  template <class A1, class A2, class B1, class B2>
  [[nodiscard]] bool operator()(const std::pair<A1, A2>& a,
                                const std::pair<B1, B2>& b) const noexcept {
    const std::string_view ar(a.first), br(b.first);
    if (ar != br) return ar < br;
    return std::string_view(a.second) < std::string_view(b.second);
  }
};

/// Models keyed by (routine name, flag values); every model is assumed to
/// belong to one system (backend + locality).
class Models {
 public:
  void add(std::shared_ptr<const RoutineModel> model) {
    auto key = std::make_pair(model->key.routine, model->key.flags);
    models_.insert_or_assign(std::move(key), std::move(model));
  }
  void add(RoutineModel model) {
    add(std::make_shared<const RoutineModel>(std::move(model)));
  }

  /// nullptr when no model covers (routine, flags).
  [[nodiscard]] const RoutineModel* find(std::string_view routine,
                                         std::string_view flags) const {
    const auto it = models_.find(std::make_pair(routine, flags));
    return it == models_.end() ? nullptr : it->second.get();
  }

  /// The models_by_key table CompiledTrace::predict takes.
  [[nodiscard]] std::vector<const RoutineModel*> by_key(
      const CompiledTrace& compiled) const {
    std::vector<const RoutineModel*> table;
    table.reserve(compiled.keys().size());
    for (const CompiledKey& key : compiled.keys()) {
      table.push_back(find(routine_name(key.routine), key.flags));
    }
    return table;
  }

 private:
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<const RoutineModel>, RoutineFlagsLess>
      models_;
};

/// The per-call loop: zero-size calls are skipped, calls without a model
/// are counted missing, every other call's model is evaluated at its sizes
/// and accumulated in trace order.
[[nodiscard]] inline Prediction predict(const CallTrace& trace,
                                        const Models& models) {
  Prediction out;
  double var_sum = 0.0;
  for (const KernelCall& call : trace) {
    if (call_is_degenerate(call)) {
      ++out.skipped;
      continue;
    }
    const RoutineModel* m =
        models.find(routine_name(call.routine), call.flag_view());
    if (m == nullptr) {
      ++out.missing;
      continue;
    }
    const SampleStats est = m->model.evaluate(call.sizes);
    out.ticks.min += est.min;
    out.ticks.median += est.median;
    out.ticks.mean += est.mean;
    out.ticks.max += est.max;
    var_sum += est.stddev * est.stddev;
    out.flops += call_flops(call);
    ++out.calls;
  }
  out.ticks.stddev = std::sqrt(var_sum);
  out.ticks.count = out.calls;
  return out;
}

/// The production path over the same models: compile, then predict.
[[nodiscard]] inline Prediction compiled_predict(const CallTrace& trace,
                                                 const Models& models) {
  const CompiledTrace compiled = CompiledTrace::compile(trace);
  return compiled.predict(models.by_key(compiled));
}

}  // namespace dlap::reference
