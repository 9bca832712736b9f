#include "service/model_service.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "blas/registry.hpp"
#include "service/measurement_scheduler.hpp"
#include "storage/container.hpp"

namespace dlap {

std::filesystem::path ModelService::sample_dir_for(
    const ServiceConfig& config) {
  if (!config.persist_samples) return {};
  if (!config.sample_dir.empty()) return config.sample_dir;
  return config.repository_dir / "samples";
}

ModelService::ModelService(ServiceConfig config)
    : config_(std::move(config)),
      repo_(config_.repository_dir),
      samples_(sample_dir_for(config_)),
      pool_(config_.workers) {
  // Attach the binary container (explicit path, or the repository's
  // auto-detected repository.dlapc) to BOTH stores: one mmap serves
  // models and replayable measurements alike.
  if (!config_.container_path.empty()) {
    const std::shared_ptr<const storage::ContainerReader> reader =
        storage::ContainerReader::open(config_.container_path);
    repo_.attach_container(reader);
    samples_.attach_container(reader);
  } else {
    samples_.attach_container(repo_.container());
  }
}

bool ModelService::reload_container() {
  const std::filesystem::path path =
      config_.container_path.empty()
          ? config_.repository_dir / storage::kContainerFilename
          : config_.container_path;
  std::shared_ptr<const storage::ContainerReader> reader;
  if (std::filesystem::exists(path)) {
    // Opens (and validates) BEFORE detaching anything: a corrupt file
    // throws here and the previous attachment keeps serving.
    reader = storage::ContainerReader::open(path);
  }
  repo_.attach_container(reader);
  samples_.attach_container(reader);
  repo_.invalidate_cache();
  return reader != nullptr;
}

ModelKey ModelService::key_for(const ModelJob& job) {
  // Registry specs and backend names coincide for every built-in backend
  // ("blocked", "packed@8", ...), so the spec doubles as the key's
  // backend component without instantiating the backend.
  return model_key_for(job.request, job.backend);
}

std::shared_ptr<const RoutineModel> ModelService::find(
    const ModelKey& key) const {
  try {
    return repo_.find(key);
  } catch (const parse_error& e) {
    std::fprintf(stderr,
                 "[dlaperf] warning: corrupt model file for %s (%s); "
                 "treating as missing\n",
                 key.to_string().c_str(), e.what());
    return nullptr;
  }
}

std::shared_ptr<const RoutineModel> ModelService::reusable(
    const ModelJob& job, const ModelKey& key) const {
  std::shared_ptr<const RoutineModel> stored = find(key);
  if (stored != nullptr &&
      stored->model.domain().covers(job.request.domain)) {
    return stored;
  }
  return nullptr;
}

void ModelService::record_stats(const ModelKey& key, GenerationStats stats) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats.epoch = ++stats_epoch_;
  stats_[key] = std::move(stats);
}

void ModelService::record_reuse(const ModelKey& key, ModelSource source) {
  GenerationStats stats;  // generated = false, all zeros
  stats.source = source;
  record_stats(key, std::move(stats));
}

std::optional<GenerationStats> ModelService::generation_stats(
    const ModelKey& key) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  const auto it = stats_.find(key);
  if (it == stats_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t ModelService::stats_epoch() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_epoch_;
}

std::shared_ptr<const RoutineModel> ModelService::generate_one(
    const ModelJob& requested, const ModelKey& key, bool sequential) {
  // Grow the stored model's domain instead of replacing it, so queries
  // with different parameter ranges do not regenerate back and forth.
  // The caller holds the key's in-flight claim, so nothing else stores
  // the key meanwhile: each stored domain covers the one before it, and
  // concurrent generations of one key end on the bounding box of all
  // their domains, in whatever order they ran.
  ModelJob job = requested;
  if (const auto stored = find(key);
      stored != nullptr &&
      stored->model.domain().dims() == job.request.domain.dims()) {
    job.request.domain =
        region_union(job.request.domain, stored->model.domain());
  }
  if (config_.verbose) {
    std::fprintf(stderr, "[dlaperf] generating model %s ...\n",
                 key.to_string().c_str());
  }
  const std::string engine_key = key.to_string();

  // Choose the measurement source and where its batches are measured.
  // Factory sources are deterministic test/bench hooks and spread over
  // the pool; real sampling instantiates its own backend so concurrent
  // workers never share kernel-internal state (thread pools, packing
  // buffers), and its batches stay on this thread -- the
  // per-backend-instance exclusivity real timing requires.
  MeasureFn measure;
  std::unique_ptr<Level3Backend> backend;
  ThreadPool* spread = nullptr;
  if (config_.measure_factory) {
    measure = config_.measure_factory(job);
    DLAP_REQUIRE(measure != nullptr,
                 "ServiceConfig::measure_factory returned an empty function");
    if (!sequential) spread = &pool_;
  } else {
    backend = make_backend(job.backend);
    measure = make_measure_fn(*backend, job.request);
  }

  // The strategy declares what it needs, batch by batch; fulfill_batch
  // serves each batch from the sample store (memory, then the on-disk
  // journals) and measures the rest.
  auto stepper =
      make_refinement_stepper(job.request.domain, config_.refinement);
  GenerationStats stats;
  stats.generated = true;
  const auto t0 = std::chrono::steady_clock::now();
  while (!stepper->done()) {
    FulfillStats batch;
    const std::vector<SampleStats> fulfilled = fulfill_batch(
        samples_, engine_key, stepper->required(), measure, spread, &batch);
    stats.points_measured += batch.measured;
    stats.points_from_memory += batch.from_memory;
    stats.points_from_disk += batch.from_disk;
    ++stats.batches;
    stepper->supply(fulfilled);
    if (config_.on_progress) config_.on_progress(key, stats);
  }
  GenerationResult gen = stepper->take_result();
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  RoutineModel model;
  model.key = key;
  model.model = std::move(gen.model);
  model.unique_samples = gen.unique_samples;
  model.average_error = gen.average_error;
  model.strategy = "refinement";
  stats.unique_samples = model.unique_samples;
  repo_.store(model);
  record_stats(key, std::move(stats));

  if (config_.verbose) {
    std::fprintf(stderr,
                 "[dlaperf]   %zu regions, %lld samples, avg err %.2f%%\n",
                 model.model.pieces().size(),
                 static_cast<long long>(model.unique_samples),
                 100.0 * model.average_error);
  }
  return repo_.load_shared(key);
}

std::vector<std::shared_ptr<const RoutineModel>> ModelService::generate_all(
    const std::vector<ModelJob>& jobs) {
  // One dynamically scheduled task per job; generation cost varies wildly
  // between keys (domain size, routine dimensionality), so
  // self-scheduling beats static chunking here. A duplicate key's task
  // waits on the claim of the task generating it, which runs already.
  std::vector<std::shared_ptr<const RoutineModel>> out(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  pool_.parallel_for_each(static_cast<index_t>(jobs.size()), [&](index_t t) {
    const auto i = static_cast<std::size_t>(t);
    try {
      out[i] = get_or_generate(jobs[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return out;
}

std::vector<std::shared_ptr<const RoutineModel>>
ModelService::generate_all_sequential(const std::vector<ModelJob>& jobs) {
  std::vector<std::shared_ptr<const RoutineModel>> out;
  out.reserve(jobs.size());
  for (const ModelJob& job : jobs) {
    out.push_back(get_or_generate_impl(job, /*sequential=*/true));
  }
  return out;
}

std::shared_ptr<const RoutineModel> ModelService::get_or_generate(
    const ModelJob& job) {
  return get_or_generate_impl(job, /*sequential=*/false);
}

std::shared_ptr<const RoutineModel> ModelService::get_or_generate_impl(
    const ModelJob& job, bool sequential) {
  const ModelKey key = key_for(job);
  for (;;) {
    ModelFuture waitee;
    std::shared_ptr<ModelPromise> claim;
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      const auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        waitee = it->second;
      } else {
        claim = std::make_shared<ModelPromise>();
        inflight_.emplace(key, claim->get_future().share());
      }
    }

    if (claim == nullptr) {
      std::shared_ptr<const RoutineModel> joined = waitee.get();
      // The joined call may have served a smaller domain than this job
      // asks for; accept it only when it covers ours, else go around and
      // claim the key with the full requested domain.
      if (joined->model.domain().covers(job.request.domain)) return joined;
      continue;
    }

    // The claim is held from the repository check through the store, so
    // no other call stores the key meanwhile: it is generated once.
    const auto release = [&] {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    };
    std::shared_ptr<const RoutineModel> model;
    try {
      model = reusable(job, key);
      if (model != nullptr) {
        record_reuse(key, model->source);
      } else {
        model = generate_one(job, key, sequential);
      }
      claim->set_value(model);
    } catch (...) {
      claim->set_exception(std::current_exception());
      release();
      throw;
    }
    release();
    return model;
  }
}

}  // namespace dlap
