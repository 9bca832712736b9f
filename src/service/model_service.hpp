#pragma once
// ModelService: the sampler -> modeler -> repository pipeline as one
// long-lived engine (the dissertation's view of the paper's workflow: a
// model repository consulted as a service by many prediction runs).
//
// The service owns
//   - a thread-safe ModelRepository (on-disk text files + the in-memory
//     cache every query resolves through),
//   - an engine-wide SampleStore, by default *persistent*: an on-disk
//     sample repository beside the model repository (append-only journal
//     per engine key), so a second run, a widened-domain regeneration, or
//     a crash-resume warm-starts from every measurement already paid for,
//   - the ThreadPool, which fans a batch of modeling jobs out
//     concurrently, one task per job, each generation sampling on its OWN
//     backend instance so measurements never interfere; deterministic
//     measure_factory sources also spread each sample batch over it.
//
// Each key generates under a per-key claim (get_or_generate), the one
// dedupe on the generation path: a concurrent request for the key waits
// for the generation under way instead of starting its own, and each
// batch the key's step machine emits is fulfilled by fulfill_batch
// (service/measurement_scheduler.hpp) -- store first, then measuring.
//
// Callers hand it ModelJobs and get repository-cached models back; the
// Engine (api/engine.hpp) closes the loop by resolving the models a query
// needs through it -- generating missing ones on demand -- before
// prediction.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/threadpool.hpp"
#include "modeler/modeler.hpp"
#include "modeler/repository.hpp"
#include "sampler/sample_store.hpp"

namespace dlap {

/// One unit of service work: generate (or reuse) the model of `request`
/// on the backend named by the registry spec `backend`.
struct ModelJob {
  ModelingRequest request;
  std::string backend = "blocked";
};

/// Per-key generation accounting (observability: Engine::prepare reports
/// these; ServiceConfig::on_progress streams them while a generation is
/// under way).
struct GenerationStats {
  /// True when the model was (re)generated; false when an existing
  /// repository model was served.
  bool generated = false;
  /// Where the served model came from: Generated for a fresh build,
  /// TextFile / Container for a reused repository model.
  ModelSource source = ModelSource::Generated;
  /// Distinct points the strategy consumed (the paper's per-run sample
  /// accounting, independent of where the points came from).
  index_t unique_samples = 0;
  index_t points_measured = 0;     ///< newly measured for this generation
  index_t points_from_memory = 0;  ///< reused from the in-memory store
  index_t points_from_disk = 0;    ///< reused from the on-disk journals
  /// Always 0: each key generates under its claim, so no generation
  /// shares a point with another one in flight. Kept for readers that
  /// still report it.
  index_t points_joined = 0;
  index_t batches = 0;             ///< step-machine batches fulfilled
  double wall_ms = 0.0;
  /// Monotonic stamp: higher = recorded later (lets callers tell what a
  /// specific call did from what an earlier one already recorded).
  std::uint64_t epoch = 0;
};

struct ServiceConfig {
  /// Repository directory (created if absent).
  std::filesystem::path repository_dir = "dlaperf_models";
  /// Persist measurements in an on-disk sample repository so later runs
  /// warm-start from them; false keeps the sample store memory-only.
  bool persist_samples = true;
  /// Sample repository directory; empty means "<repository_dir>/samples".
  std::filesystem::path sample_dir;
  /// Binary model+sample container (.dlapc) to attach beneath the
  /// repository and the sample store: models and measurements load from
  /// it (zero-copy via mmap) unless a newer text file shadows them.
  /// Empty auto-detects "<repository_dir>/repository.dlapc" (the file
  /// compaction and `dlap_pack pack` produce).
  std::filesystem::path container_path;
  /// Generation workers; 0 means std::thread::hardware_concurrency().
  index_t workers = 0;
  /// Strategy for every generated model (the paper selects Adaptive
  /// Refinement with epsilon = 10%, s_min = 32 in III-D3 -- the defaults).
  RefinementConfig refinement;
  /// Progress lines on stderr.
  bool verbose = false;
  /// Test/bench hook: when set, replaces the real Sampler as the
  /// measurement source of every job (deterministic fits, latency-bound
  /// scheduling benchmarks). Production leaves it empty. Factory-made
  /// sources must tolerate concurrent calls: their batches are fanned
  /// out across the pool (real sampling stays serialized per backend).
  std::function<MeasureFn(const ModelJob&)> measure_factory;
  /// Observability hook: invoked after every fulfilled measurement batch
  /// of a generation, with the key and the counters so far. Called from
  /// generation worker threads; must be thread-safe and cheap.
  std::function<void(const ModelKey&, const GenerationStats&)> on_progress;
};

class ModelService {
 public:
  explicit ModelService(ServiceConfig config = {});

  ModelService(const ModelService&) = delete;
  ModelService& operator=(const ModelService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ModelRepository& repository() noexcept { return repo_; }
  [[nodiscard]] const ModelRepository& repository() const noexcept {
    return repo_;
  }
  [[nodiscard]] SampleStore& samples() noexcept { return samples_; }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

  /// The repository key a job resolves to.
  [[nodiscard]] static ModelKey key_for(const ModelJob& job);

  /// Hot-reloads the binary container layer: re-opens the configured
  /// .dlapc path (or the repository's auto-detected repository.dlapc),
  /// attaches it beneath the repository and the sample store, and drops
  /// the repository's in-memory model cache (moving its version) so
  /// subsequent lookups see the new file. A missing file detaches the
  /// layer. Returns true when a container is attached after the call.
  /// Throws (container_error) when the file exists but is corrupt -- the
  /// previously attached container stays in place, so a failed reload
  /// never degrades serving.
  bool reload_container();

  /// get_or_generate for every job, fanned out across the pool with one
  /// task per job; results come back in job order. Duplicate keys share
  /// one generation through the key's claim. The first error in job
  /// order is rethrown after every task has settled.
  [[nodiscard]] std::vector<std::shared_ptr<const RoutineModel>> generate_all(
      const std::vector<ModelJob>& jobs);

  /// Reference path: the same per-job pipeline, run strictly sequentially
  /// on the calling thread (measurement batches included -- no pool
  /// fan-out at all). With a deterministic measurement source this
  /// produces bit-identical repository files to generate_all.
  [[nodiscard]] std::vector<std::shared_ptr<const RoutineModel>>
  generate_all_sequential(const std::vector<ModelJob>& jobs);

  /// Returns the stored model for the job's key when it covers the
  /// requested domain; generates (and stores) it otherwise, growing a
  /// stored domain to the bounding box of itself and the job's. The call
  /// holds the key's claim while it checks and generates, so concurrent
  /// calls for one key share a single generation; a caller whose domain
  /// the shared model does not cover claims the key next.
  [[nodiscard]] std::shared_ptr<const RoutineModel> get_or_generate(
      const ModelJob& job);

  /// Repository lookup only; nullptr when the key has never been modeled.
  /// Unlike ModelRepository::find, a stored file that fails to parse is
  /// treated as missing (with a warning) rather than fatal, so a corrupt
  /// entry gets regenerated instead of wedging the service.
  [[nodiscard]] std::shared_ptr<const RoutineModel> find(
      const ModelKey& key) const;

  /// Accounting of the most recent generate/reuse of `key` by this
  /// service (nullopt when the key was never handled). See
  /// GenerationStats::epoch for ordering against stats_epoch().
  [[nodiscard]] std::optional<GenerationStats> generation_stats(
      const ModelKey& key) const;

  /// The epoch stamped on the most recent record (0 before any); compare
  /// a record's epoch against a snapshot of this to attribute it.
  [[nodiscard]] std::uint64_t stats_epoch() const;

 private:
  using ModelFuture = std::shared_future<std::shared_ptr<const RoutineModel>>;
  using ModelPromise = std::promise<std::shared_ptr<const RoutineModel>>;

  /// Stored model when its domain covers the job's, else nullptr.
  [[nodiscard]] std::shared_ptr<const RoutineModel> reusable(
      const ModelJob& job, const ModelKey& key) const;

  /// Runs the full generation pipeline for one job, over its domain grown
  /// by the stored model's, and stores the result. The caller holds the
  /// key's in-flight claim. `sequential` measures on the calling thread
  /// even for factory sources (the bit-identity reference path).
  [[nodiscard]] std::shared_ptr<const RoutineModel> generate_one(
      const ModelJob& job, const ModelKey& key, bool sequential);

  /// get_or_generate with the sequential-measurement flag plumbed.
  [[nodiscard]] std::shared_ptr<const RoutineModel> get_or_generate_impl(
      const ModelJob& job, bool sequential);

  /// Stamps and stores a stats record for `key`.
  void record_stats(const ModelKey& key, GenerationStats stats);

  /// Records that an existing repository model (of provenance `source`)
  /// satisfied `key`.
  void record_reuse(const ModelKey& key, ModelSource source);

  [[nodiscard]] static std::filesystem::path sample_dir_for(
      const ServiceConfig& config);

  ServiceConfig config_;
  ModelRepository repo_;
  SampleStore samples_;

  // Keys currently being generated; late arrivals wait on the future
  // instead of duplicating the work.
  std::mutex inflight_mutex_;
  std::map<ModelKey, ModelFuture> inflight_;

  // Per-key generation accounting (observability).
  mutable std::mutex stats_mutex_;
  std::map<ModelKey, GenerationStats> stats_;
  std::uint64_t stats_epoch_ = 0;

  // Declared last, so it is destroyed FIRST: the pool drains still-queued
  // tasks during destruction, and those tasks may touch every member
  // above.
  ThreadPool pool_;
};

}  // namespace dlap
