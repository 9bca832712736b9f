#include "modeler/modeler.hpp"

#include <algorithm>
#include <memory>

namespace dlap {

std::string ModelKey::to_string() const {
  return routine + "/" + backend + "/" + locality_name(locality) + "/" +
         (flags.empty() ? "noflags" : flags);
}

bool ModelKey::operator<(const ModelKey& o) const {
  return ModelKeyLess::less(ModelKeyRef::of(*this), ModelKeyRef::of(o));
}

ModelKey model_key_for(const ModelingRequest& request,
                       const std::string& backend_name) {
  ModelKey key;
  key.routine = routine_name(request.routine);
  key.backend = backend_name;
  key.locality = request.sampler.locality;
  key.flags.assign(request.flags.begin(), request.flags.end());
  return key;
}

KernelCall make_call(const ModelingRequest& request,
                     const std::vector<index_t>& point) {
  KernelCall call;
  call.routine = request.routine;
  call.flags = request.flags;
  call.sizes = point;

  const auto& sig = routine_signature(request.routine);
  const auto nscalars = std::count(sig.begin(), sig.end(), ArgKind::Scalar);
  if (!request.scalars.empty()) {
    call.scalars = request.scalars;
  } else {
    call.scalars.assign(static_cast<std::size_t>(nscalars), 1.0);
  }
  const auto nleads = std::count(sig.begin(), sig.end(), ArgKind::Lead);
  call.leads.assign(static_cast<std::size_t>(nleads), request.fixed_ld);

  // Raise any leading dimension that is smaller than its operand (keeps
  // the fixed-ld convention valid on domains larger than fixed_ld).
  const auto shapes = operand_shapes(call);
  DLAP_REQUIRE(shapes.size() == call.leads.size(),
               "signature lead/data count mismatch");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    call.leads[i] = std::max<index_t>(call.leads[i],
                                      std::max<index_t>(1, shapes[i].rows));
  }
  validate_call(call);
  return call;
}

MeasureFn make_measure_fn(Level3Backend& backend,
                          const ModelingRequest& request) {
  // The sampler is shared across all measurements of one generation run.
  auto sampler = std::make_shared<Sampler>(backend, request.sampler);
  const ModelingRequest req = request;
  return [sampler, req](const std::vector<index_t>& point) {
    return sampler->measure(make_call(req, point));
  };
}

}  // namespace dlap
