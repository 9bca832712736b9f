#pragma once
// dlap::Engine -- the user-facing facade of the library: a long-lived
// prediction engine answering typed queries (predict / rank / tune), the
// way Peise's dissertation frames the model repository as a service
// consulted by many decision runs.
//
// What the facade adds over wiring the pipeline by hand:
//   - typed queries: callers say *what they want decided* (an operation
//     spec, a candidate set, a swept parameter); specs are validated and
//     compiled through the OperationRegistry (src/ops/registry.hpp), the
//     engine plans the modeling jobs from the same compiled traces it
//     predicts with (api/plan.hpp) and generates missing models on demand
//     through its ModelService;
//   - non-throwing answers: every entry point returns Result<T>
//     (api/result.hpp) -- a failed query reports a status instead of
//     unwinding the caller;
//   - thread safety: every entry point may be called from many threads
//     at once; callers that want queries to run concurrently bring their
//     own threads (dlapd runs the engine from its worker pool);
//   - the compiled sweep path: every query point is compiled to a
//     CompiledTrace (deduped calls, predict/compiled_trace.hpp) and its
//     models are held in a slot snapshot stamped with the model
//     repository's version. A spec compiles as its blocked algorithm runs
//     (OperationSpec::compile), with no CallTrace built. Two sharded LRUs
//     cache the work (api/trace_cache.hpp): compiled traces keyed by
//     (family, variant, sizes, blocksize) alone, shared by every system,
//     and sweep points keyed by that plus the system (backend, locality).
//     A repeated or overlapping sweep skips compilation and model
//     resolution; a known spec under a new system skips compilation. A
//     slot snapshot also keeps the prediction its models imply, computed
//     on first read by evaluating each model once per unique call, so a
//     repeated point evaluates no model at all;
//   - one model cache: models resolve through the repository's cache
//     (modeler/repository.hpp), then its text files and container, then
//     on-demand generation. The engine keeps no model table of its own.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/plan.hpp"
#include "api/query.hpp"
#include "api/result.hpp"
#include "api/trace_cache.hpp"
#include "service/model_service.hpp"

namespace dlap {

struct EngineConfig {
  /// The owned ModelService (repository directory, generation workers,
  /// refinement strategy, measurement hook).
  ServiceConfig service;
  /// Default system for queries that do not name one.
  SystemSpec system;
  /// How modeling jobs are derived from a query's compiled traces
  /// (api/plan.hpp).
  PlanningPolicy planning;
  /// Generate models a query needs but the repository lacks (or only
  /// covers too small a domain for). When false such queries fail with
  /// MissingModel / UncoveredDomain instead.
  bool generate_missing = true;
  /// Entries kept in each layer of the trace cache: compiled traces, and
  /// sweep points (a trace under one system). 0 disables both layers;
  /// every spec query then recompiles its trace.
  index_t trace_cache_capacity = 4096;
};

/// What Engine::prepare did for the models a spec batch needs
/// (generation observability, mirroring the trace-cache stats of the
/// prediction path): which keys were generated versus reused, and where
/// their sample points came from -- newly measured, the in-memory store,
/// or the on-disk sample repository. Attribution is best-effort when
/// other threads generate concurrently: work another caller performs on
/// a shared key while this prepare runs may appear in this report.
struct PrepareReport {
  struct Key {
    ModelKey key;
    /// True when this prepare call (re)generated the model; false when a
    /// repository/cache model already covered the needed domain.
    bool generated = false;
    /// Provenance of the model now serving this key: Generated,
    /// TextFile, or Container (loaded zero-copy from a .dlapc file).
    ModelSource source = ModelSource::Generated;
    /// Convenience: source == ModelSource::Container.
    [[nodiscard]] bool from_container() const noexcept {
      return source == ModelSource::Container;
    }
    index_t unique_samples = 0;
    index_t points_measured = 0;
    index_t points_from_memory = 0;
    index_t points_from_disk = 0;
    double wall_ms = 0.0;
  };
  std::vector<Key> keys;

  [[nodiscard]] index_t keys_generated() const noexcept;
  [[nodiscard]] index_t keys_reused() const noexcept;
  /// Keys whose serving model came out of a binary container.
  [[nodiscard]] index_t keys_from_container() const noexcept;
  [[nodiscard]] index_t points_measured() const noexcept;
  [[nodiscard]] index_t points_from_memory() const noexcept;
  [[nodiscard]] index_t points_from_disk() const noexcept;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }
  /// The underlying pipeline, for callers that need the low-level surface.
  [[nodiscard]] ModelService& service() noexcept { return service_; }

  // ------------------------------------------------ synchronous queries

  /// Predicted runtime of one operation (or raw trace).
  [[nodiscard]] Result<Prediction> predict(const PredictQuery& query) noexcept;

  /// Candidate operations ordered by predicted runtime, with the full
  /// per-candidate predictions.
  [[nodiscard]] Result<Ranking> rank(const RankQuery& query) noexcept;

  /// Block-size sweep of one operation; picks the predicted-fastest value.
  [[nodiscard]] Result<TuneResult> tune(const TuneQuery& query) noexcept;

  /// Prediction for a single call given in the paper's textual tuple form,
  /// e.g. "dtrsm(L,L,N,N,144,112,1,A,256,B,256)". Malformed text yields
  /// ParseError / InvalidQuery statuses, never exceptions.
  [[nodiscard]] Result<SampleStats> predict_call(
      const std::string& call_text,
      std::optional<SystemSpec> system = {}) noexcept;

  // ----------------------------------------------------------- warm-up

  /// Generates every model the specs need (union of their traces) as one
  /// concurrent batch and warms the repository's model cache AND the
  /// compiled-trace cache -- call before a query sweep so no query pays
  /// generation or compilation latency. When `report` is non-null it is
  /// filled with per-key generation accounting: what was generated vs.
  /// reused, and how many points were measured vs. warm-started from the
  /// in-memory store or the on-disk sample repository.
  [[nodiscard]] Status prepare(const std::vector<OperationSpec>& specs,
                               std::optional<SystemSpec> system = {},
                               PrepareReport* report = nullptr) noexcept;

  // ------------------------------------------------------------ reload

  /// Hot model reload, the dlapd admin path: re-attaches the service's
  /// binary container (picking up a repository.dlapc replaced on disk)
  /// and drops the repository's model cache, which moves its version and
  /// so expires every sweep point's slot snapshot; then it releases the
  /// snapshots the cached sweep points hold, so the previous models (and
  /// the container mapping they borrow from) are freed once no in-flight
  /// answer holds them; both cache layers (compiled traces, sweep points)
  /// stay. Then -- when `specs` is non-empty -- it regenerates/loads the
  /// models those specs need (Engine::prepare).
  /// Concurrent queries are never stalled: in-flight predictions finish
  /// on the model snapshots they pinned, later queries re-resolve from
  /// the reloaded repository. A snapshot a query racing the reload
  /// stores is stamped with the version before the reload, so the next
  /// query of its point resolves it again.
  [[nodiscard]] Status reload(const std::vector<OperationSpec>& specs = {},
                              std::optional<SystemSpec> system = {},
                              PrepareReport* report = nullptr) noexcept;

  // ----------------------------------------------------- observability

  /// Sweep-point cache counters (hits/misses/evictions/size): one probe
  /// per spec a rank, tune, spec predict or prepare asks for.
  [[nodiscard]] LruStats trace_cache_stats() const {
    return sweep_points_.stats();
  }

  /// System-free compiled-trace cache counters: one probe per sweep-point
  /// miss, so a miss here is a spec.compile().
  [[nodiscard]] LruStats compiled_trace_stats() const {
    return compiled_traces_.stats();
  }

  /// Drops every cached sweep point and compiled trace (the repository's
  /// model cache is unaffected). Mainly for benchmarks that measure the
  /// cold path.
  void clear_trace_cache() {
    sweep_points_.clear();
    compiled_traces_.clear();
  }

 private:
  [[nodiscard]] SystemSpec effective_system(
      const std::optional<SystemSpec>& override_spec) const {
    return override_spec.value_or(config_.system);
  }

  /// Cached compilation of a spec validated against `family`: sweep-point
  /// lookup; on a miss, the compiled-trace lookup (spec.compile() + insert
  /// when that misses too), then the insert of a new point. A one-axis
  /// family's spec is keyed with m = 0, since its algorithm ignores m.
  [[nodiscard]] std::shared_ptr<CompiledSweepPoint> compile_spec(
      const OperationSpec& spec, const OperationDescriptor& family,
      const SystemSpec& system);

  /// Produces one slot snapshot per sweep point. While every point's
  /// snapshot is current at the repository's version they are returned
  /// as-is. Otherwise every point resolves against one model per key
  /// (repository -> on-demand generation), verified to cover the unique
  /// calls of all the points; a point whose current snapshot pins exactly
  /// those models keeps it, the others get a version-stamped rebuild. A
  /// key that has to be generated is planned (plan_jobs) over the
  /// compiled traces of all the points.
  [[nodiscard]] Status resolve(
      const std::vector<const CompiledSweepPoint*>& points,
      const SystemSpec& system,
      std::vector<std::shared_ptr<const ResolvedSlots>>* slots) noexcept;

  EngineConfig config_;

  // Compiled traces (system-free) and the sweep points built on them,
  // shared across all queries of this engine.
  mutable CompiledTraceCache compiled_traces_;
  mutable SweepPointCache sweep_points_;

  // Runs generation (its ThreadPool fans model jobs and measurement
  // batches out); queries run on the callers' threads.
  ModelService service_;
};

}  // namespace dlap
