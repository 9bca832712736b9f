#pragma once
// What the Modeler (paper Section III) builds, and from what: a model's
// repository identity (ModelKey), a generated model with its provenance
// (RoutineModel), and a modeling request -- the call family plus the
// parameter domain to sample. Each model is specific to a (routine, flag
// combination, implementation/backend, memory locality) tuple -- the
// "fixed implementation, system, and memory locality situation" of
// Section III-B. make_measure_fn turns a request into the Sampler-backed
// measurement source that the generation strategies (strategies.hpp)
// consume.

#include <string>
#include <string_view>
#include <vector>

#include "blas/backend.hpp"
#include "modeler/model.hpp"
#include "modeler/strategies.hpp"
#include "sampler/calls.hpp"
#include "sampler/sampler.hpp"

namespace dlap {

/// Identity of a model in the repository.
struct ModelKey {
  std::string routine;  ///< e.g. "dtrsm"
  std::string backend;  ///< e.g. "blocked" or "packed@8"
  Locality locality = Locality::InCache;
  std::string flags;    ///< flag values joined, e.g. "LLNN" ("" if none)

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool operator==(const ModelKey&) const = default;
  [[nodiscard]] bool operator<(const ModelKey& o) const;
};

/// A borrowed view of a ModelKey; the referenced storage must outlive the
/// call it is passed to. Container lookups (storage/container.hpp) probe
/// with refs, so no temporary strings are constructed.
struct ModelKeyRef {
  std::string_view routine;
  std::string_view backend;
  Locality locality = Locality::InCache;
  std::string_view flags;

  [[nodiscard]] static ModelKeyRef of(const ModelKey& key) noexcept {
    return {key.routine, key.backend, key.locality, key.flags};
  }
};

/// Transparent strict-weak-order over ModelKey / ModelKeyRef mixes. This
/// is THE ModelKey ordering: ModelKey::operator< delegates here, so the
/// heterogeneous and native comparisons can never drift apart.
struct ModelKeyLess {
  using is_transparent = void;

  [[nodiscard]] static bool less(const ModelKeyRef& a,
                                 const ModelKeyRef& b) noexcept {
    if (a.routine != b.routine) return a.routine < b.routine;
    if (a.backend != b.backend) return a.backend < b.backend;
    if (a.locality != b.locality) {
      return static_cast<int>(a.locality) < static_cast<int>(b.locality);
    }
    return a.flags < b.flags;
  }

  template <class A, class B>
  [[nodiscard]] bool operator()(const A& a, const B& b) const noexcept {
    return less(ref(a), ref(b));
  }

 private:
  [[nodiscard]] static ModelKeyRef ref(const ModelKey& k) noexcept {
    return ModelKeyRef::of(k);
  }
  [[nodiscard]] static ModelKeyRef ref(const ModelKeyRef& k) noexcept {
    return k;
  }
};

/// Where a RoutineModel came from (provenance surfaced through the
/// service's GenerationStats and the engine's PrepareReport).
enum class ModelSource {
  Generated,  ///< generated in this process
  TextFile,   ///< deserialized from a per-model text file
  Container,  ///< loaded from a .dlapc binary container
};

[[nodiscard]] constexpr const char* to_string(ModelSource s) noexcept {
  switch (s) {
    case ModelSource::Generated: return "generated";
    case ModelSource::TextFile: return "text";
    case ModelSource::Container: return "container";
  }
  return "?";
}

/// A generated model plus provenance.
struct RoutineModel {
  ModelKey key;
  PiecewiseModel model;
  index_t unique_samples = 0;
  double average_error = 0.0;
  std::string strategy;  ///< "expansion" or "refinement"
  ModelSource source = ModelSource::Generated;
};

/// What to model: the call family (routine + fixed flags/scalars/leading
/// dimensions) and the integer-parameter domain spanned by the size
/// arguments.
struct ModelingRequest {
  RoutineId routine = RoutineId::Trsm;
  std::vector<char> flags;      ///< one value per flag argument
  std::vector<double> scalars;  ///< empty = defaults (alpha=1, beta=1)
  /// All leading dimensions are fixed to this (raised per-operand when an
  /// operand is taller); the paper fixes 2500 throughout generation.
  index_t fixed_ld = 2500;
  Region domain;                ///< over the size arguments, in order
  SamplerConfig sampler;        ///< locality, reps, seed
};

/// The repository key a request's model will carry when generated on the
/// named backend (registry spec and backend name coincide for all
/// built-in backends).
[[nodiscard]] ModelKey model_key_for(const ModelingRequest& request,
                                     const std::string& backend_name);

/// Builds the KernelCall for a parameter point of the request.
[[nodiscard]] KernelCall make_call(const ModelingRequest& request,
                                   const std::vector<index_t>& point);

/// Measurement source for the request on `backend`: each call times the
/// kernel call of one parameter point through a Sampler shared by every
/// call of the source. Engine-wide measurement reuse (the sample store
/// and its on-disk journals) is layered over it by the model service.
[[nodiscard]] MeasureFn make_measure_fn(Level3Backend& backend,
                                        const ModelingRequest& request);

}  // namespace dlap
