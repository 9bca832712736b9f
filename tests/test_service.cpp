// Tests for the ModelService pipeline: concurrent batch generation
// (deterministic and bit-identical to the sequential path) and the
// thread-safe repository under concurrent writers and reloads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "api/plan.hpp"
#include "api/query.hpp"
#include "common/threadpool.hpp"
#include "ops/registry.hpp"
#include "predict/trace.hpp"
#include "service/model_service.hpp"
#include "storage/container.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

// Deterministic synthetic measurement source: a smooth positive
// polynomial cost (cheap for refinement to model) offset per engine key,
// so different keys provably yield different models. No clocks, no
// global state -- identical inputs always produce identical stats.
MeasureFn synthetic_measure(double key_offset) {
  return [key_offset](const std::vector<index_t>& point) {
    double cost = 100.0 + key_offset;
    double prod = 1.0;
    for (index_t x : point) {
      const double v = static_cast<double>(x);
      cost += 2.0 * v + 0.03 * v * v;
      prod *= v;
    }
    cost += 1e-4 * prod;
    SampleStats s;
    s.min = cost * 0.95;
    s.median = cost;
    s.mean = cost * 1.01;
    s.max = cost * 1.10;
    s.stddev = cost * 0.02;
    s.count = 5;
    return s;
  };
}

// A distinct deterministic offset per job so every key gets its own cost
// surface.
double offset_for(const ModelJob& job) {
  const std::string key = ModelService::key_for(job).to_string();
  double h = 0.0;
  for (char c : key) h = 0.9 * h + static_cast<double>(c);
  return h;
}

ServiceConfig synthetic_config(const fs::path& repo_dir, index_t workers) {
  ServiceConfig cfg;
  cfg.repository_dir = repo_dir;
  cfg.workers = workers;
  cfg.measure_factory = [](const ModelJob& job) {
    return synthetic_measure(offset_for(job));
  };
  return cfg;
}

ModelJob job_for(RoutineId routine, std::vector<char> flags,
                 Region domain) {
  ModelJob job;
  job.backend = "blocked";
  job.request.routine = routine;
  job.request.flags = std::move(flags);
  job.request.domain = std::move(domain);
  return job;
}

std::vector<ModelJob> four_jobs(index_t hi = 128) {
  const Region d2({8, 8}, {hi, hi});
  return {job_for(RoutineId::Trsm, {'L', 'L', 'N', 'N'}, d2),
          job_for(RoutineId::Trsm, {'R', 'L', 'N', 'N'}, d2),
          job_for(RoutineId::Trmm, {'R', 'L', 'N', 'N'}, d2),
          job_for(RoutineId::Gemm, {'N', 'N'},
                  Region({8, 8, 8}, {64, 64, 64}))};
}

std::map<std::string, std::string> repository_files(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;  // skip samples/
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

// ----------------------------------------------- concurrent generation

TEST(ModelService, GenerateAllIsBitIdenticalToSequential) {
  const fs::path dir_seq = fresh_dir("dlap_svc_seq");
  const std::vector<ModelJob> jobs = four_jobs();
  ModelService sequential(synthetic_config(dir_seq, 1));
  const auto seq_models = sequential.generate_all_sequential(jobs);
  ASSERT_EQ(seq_models.size(), jobs.size());
  const auto seq_files = repository_files(dir_seq);
  ASSERT_EQ(seq_files.size(), jobs.size());

  for (const index_t workers : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const fs::path dir_par = fresh_dir("dlap_svc_par");
    ModelService parallel(synthetic_config(dir_par, workers));
    const auto par_models = parallel.generate_all(jobs);
    ASSERT_EQ(par_models.size(), jobs.size());

    // Same models in memory...
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(ModelRepository::serialize(*par_models[i]),
                ModelRepository::serialize(*seq_models[i]));
    }
    // ... and bit-identical repository files.
    EXPECT_EQ(repository_files(dir_par), seq_files);
    fs::remove_all(dir_par);
  }
  fs::remove_all(dir_seq);
}

TEST(ModelService, GenerateAllDedupesKeysAndReusesStoredModels) {
  const fs::path dir = fresh_dir("dlap_svc_dedupe");
  std::atomic<int> generations{0};
  ServiceConfig cfg;
  cfg.repository_dir = dir;
  cfg.workers = 4;
  cfg.measure_factory = [&generations](const ModelJob& job) {
    ++generations;
    return synthetic_measure(offset_for(job));
  };
  ModelService service(cfg);

  // Duplicate keys within a batch generate once.
  std::vector<ModelJob> jobs = four_jobs();
  jobs.push_back(jobs.front());
  const auto models = service.generate_all(jobs);
  EXPECT_EQ(generations.load(), 4);
  EXPECT_EQ(ModelRepository::serialize(*models.front()),
            ModelRepository::serialize(*models.back()));

  // A second batch over the same keys is served from the repository.
  (void)service.generate_all(four_jobs());
  EXPECT_EQ(generations.load(), 4);
  // A wider domain cannot reuse the stored models.
  (void)service.generate_all(four_jobs(160));
  EXPECT_GT(generations.load(), 4);
  fs::remove_all(dir);
}

TEST(ModelService, ConcurrentGetOrGenerateSharesOneGeneration) {
  const fs::path dir = fresh_dir("dlap_svc_inflight");
  std::atomic<int> generations{0};
  ServiceConfig cfg;
  cfg.repository_dir = dir;
  cfg.workers = 1;
  cfg.measure_factory = [&generations](const ModelJob& job) {
    ++generations;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return synthetic_measure(offset_for(job));
  };
  ModelService service(cfg);

  const ModelJob job = four_jobs().front();
  std::vector<std::shared_ptr<const RoutineModel>> results(8);
  ThreadPool callers(8);
  callers.parallel_for_each(8, [&](index_t i) {
    results[static_cast<std::size_t>(i)] = service.get_or_generate(job);
  });
  EXPECT_EQ(generations.load(), 1);
  for (const auto& m : results) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(ModelRepository::serialize(*m),
              ModelRepository::serialize(*results.front()));
  }
  fs::remove_all(dir);
}

// Two keys' sources fail with different errors. generate_all rethrows
// the error of the lower job index and still stores the other keys, and
// it leaves no claim behind: a later call with a working source
// generates the failed keys.
TEST(ModelService, GenerateAllRethrowsTheFirstErrorInJobOrder) {
  const fs::path dir = fresh_dir("dlap_svc_errors");
  const std::vector<ModelJob> jobs = four_jobs();
  const ModelKey bad1 = ModelService::key_for(jobs[1]);
  const ModelKey bad3 = ModelService::key_for(jobs[3]);
  const auto message = [](const ModelKey& key) {
    return "source of " + key.to_string() + " failed";
  };
  std::atomic<bool> broken{true};
  ServiceConfig cfg = synthetic_config(dir, 4);
  cfg.measure_factory = [&](const ModelJob& job) {
    const ModelKey key = ModelService::key_for(job);
    const MeasureFn works = synthetic_measure(offset_for(job));
    if (key != bad1 && key != bad3) return works;
    return MeasureFn([&broken, works, what = message(key)](
                         const std::vector<index_t>& point) {
      if (broken.load()) throw std::runtime_error(what);
      return works(point);
    });
  };
  ModelService service(cfg);

  try {
    (void)service.generate_all(jobs);
    ADD_FAILURE() << "generate_all did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), message(bad1));
  }
  EXPECT_NE(service.find(ModelService::key_for(jobs[0])), nullptr);
  EXPECT_NE(service.find(ModelService::key_for(jobs[2])), nullptr);
  EXPECT_EQ(service.find(bad1), nullptr);
  EXPECT_EQ(service.find(bad3), nullptr);

  broken.store(false);
  const std::uint64_t epoch0 = service.stats_epoch();
  const auto models = service.generate_all(jobs);
  ASSERT_EQ(models.size(), jobs.size());
  for (const ModelKey& key : {bad1, bad3}) {
    const auto stats = service.generation_stats(key);
    ASSERT_TRUE(stats.has_value()) << key.to_string();
    EXPECT_TRUE(stats->generated) << key.to_string();
    EXPECT_GT(stats->epoch, epoch0) << key.to_string();
    EXPECT_NE(service.find(key), nullptr) << key.to_string();
  }
  fs::remove_all(dir);
}

// The engine-wide sample store makes a regeneration over a wider domain
// reuse every point already measured for the same key.
TEST(ModelService, SampleStoreReusesMeasurementsAcrossGenerations)
{
  const fs::path dir = fresh_dir("dlap_svc_samples");
  ModelService service(synthetic_config(dir, 2));
  const ModelKey key = ModelService::key_for(four_jobs().front());
  (void)service.generate_all({four_jobs(96).front()});
  const auto first = service.generation_stats(key);
  ASSERT_TRUE(first.has_value());
  EXPECT_GT(first->points_measured, 0);
  EXPECT_EQ(first->points_from_memory, 0);

  (void)service.generate_all({four_jobs(192).front()});
  const auto second = service.generation_stats(key);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->points_from_memory, 0);  // shared boundary points
  fs::remove_all(dir);
}

// The on-disk sample repository makes a *different service instance*
// (a second process run, or a crash-resume) regenerate a key with zero
// new measurements: everything comes back from the journals.
TEST(ModelService, WarmStartFromSampleRepositoryMeasuresNothing) {
  const fs::path dir1 = fresh_dir("dlap_svc_warm1");
  const fs::path dir2 = fresh_dir("dlap_svc_warm2");
  const fs::path sample_dir = fresh_dir("dlap_svc_warm_samples");
  auto counting = std::make_shared<std::atomic<int>>(0);
  const auto factory = [counting](const ModelJob& job) {
    const double offset = offset_for(job);
    return MeasureFn([counting, offset](const std::vector<index_t>& point) {
      ++*counting;
      return synthetic_measure(offset)(point);
    });
  };
  const std::vector<ModelJob> jobs = four_jobs();

  std::map<std::string, std::string> cold_files;
  {
    ServiceConfig cfg;
    cfg.repository_dir = dir1;
    cfg.sample_dir = sample_dir;
    cfg.workers = 2;
    cfg.measure_factory = factory;
    ModelService cold(cfg);
    (void)cold.generate_all(jobs);
    cold_files = repository_files(dir1);
  }
  const int cold_calls = counting->load();
  EXPECT_GT(cold_calls, 0);

  // Fresh service, EMPTY model repository, same sample repository: the
  // models are regenerated bit-identically without a single measurement.
  ServiceConfig cfg;
  cfg.repository_dir = dir2;
  cfg.sample_dir = sample_dir;
  cfg.workers = 2;
  cfg.measure_factory = factory;
  ModelService warm(cfg);
  (void)warm.generate_all(jobs);
  EXPECT_EQ(counting->load(), cold_calls);
  EXPECT_EQ(repository_files(dir2), cold_files);
  for (const ModelJob& job : jobs) {
    const auto stats = warm.generation_stats(ModelService::key_for(job));
    ASSERT_TRUE(stats.has_value());
    EXPECT_TRUE(stats->generated);
    EXPECT_EQ(stats->points_measured, 0);
    EXPECT_GT(stats->points_from_disk, 0);
    EXPECT_EQ(stats->unique_samples,
              stats->points_from_disk + stats->points_from_memory +
                  stats->points_joined);
  }
  fs::remove_all(dir1);
  fs::remove_all(dir2);
  fs::remove_all(sample_dir);
}

TEST(ModelService, PersistenceCanBeDisabled) {
  const fs::path dir = fresh_dir("dlap_svc_nopersist");
  ServiceConfig cfg = synthetic_config(dir, 1);
  cfg.persist_samples = false;
  ModelService service(cfg);
  (void)service.generate_all({four_jobs().front()});
  EXPECT_FALSE(service.samples().persistent());
  EXPECT_FALSE(fs::exists(dir / "samples"));
  fs::remove_all(dir);
}

TEST(ModelService, GenerationStatsDistinguishGenerateAndReuse) {
  const fs::path dir = fresh_dir("dlap_svc_stats");
  ModelService service(synthetic_config(dir, 2));
  const ModelJob job = four_jobs().front();
  const ModelKey key = ModelService::key_for(job);

  EXPECT_FALSE(service.generation_stats(key).has_value());
  const std::uint64_t epoch0 = service.stats_epoch();
  (void)service.get_or_generate(job);
  auto first = service.generation_stats(key);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->generated);
  EXPECT_GT(first->points_measured, 0);
  EXPECT_GT(first->batches, 0);
  EXPECT_GT(first->epoch, epoch0);

  // Second request: served from the repository, recorded as a reuse.
  (void)service.get_or_generate(job);
  auto second = service.generation_stats(key);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->generated);
  EXPECT_GT(second->epoch, first->epoch);
  fs::remove_all(dir);
}

TEST(ModelService, ProgressCallbackStreamsPerKeyBatches) {
  const fs::path dir = fresh_dir("dlap_svc_progress");
  ServiceConfig cfg = synthetic_config(dir, 2);
  std::mutex mutex;
  std::map<std::string, index_t> last_batches;
  cfg.on_progress = [&](const ModelKey& key, const GenerationStats& s) {
    std::lock_guard<std::mutex> lock(mutex);
    index_t& batches = last_batches[key.to_string()];
    EXPECT_EQ(s.batches, batches + 1);  // monotone, per key
    batches = s.batches;
  };
  ModelService service(cfg);
  (void)service.generate_all(four_jobs());
  EXPECT_EQ(last_batches.size(), 4u);
  for (const auto& [key, batches] : last_batches) EXPECT_GE(batches, 1);
  fs::remove_all(dir);
}

TEST(ModelService, DuplicateKeyWithWiderDomainStillGetsCoveringModel) {
  const fs::path dir = fresh_dir("dlap_svc_widen");
  ModelService service(synthetic_config(dir, 4));

  ModelJob narrow = four_jobs(64).front();
  ModelJob wide = four_jobs(512).front();  // same key, wider domain
  const auto models = service.generate_all({narrow, wide});
  ASSERT_EQ(models.size(), 2u);
  EXPECT_TRUE(
      models[0]->model.domain().covers(narrow.request.domain));
  // The wide job must not be served the narrow in-flight model.
  EXPECT_TRUE(models[1]->model.domain().covers(wide.request.domain));
  fs::remove_all(dir);
}

TEST(ModelService, CorruptRepositoryFileIsRegenerated) {
  const fs::path dir = fresh_dir("dlap_svc_corrupt");
  ModelService service(synthetic_config(dir, 2));
  const ModelJob job = four_jobs().front();
  const auto original = service.get_or_generate(job);

  const fs::path file =
      dir / ModelRepository::filename(ModelService::key_for(job));
  service.repository().invalidate_cache();
  std::ofstream(file) << "garbage, not a model";

  EXPECT_EQ(service.find(ModelService::key_for(job)), nullptr);
  const auto regenerated = service.get_or_generate(job);
  ASSERT_NE(regenerated, nullptr);
  EXPECT_EQ(ModelRepository::serialize(*regenerated),
            ModelRepository::serialize(*original));
  fs::remove_all(dir);
}

// Randomized batched-vs-sequential bit-identity across the registered
// operation families: jobs planned from real trinv/sylv/chol traces (the
// same planning path Engine queries use), generated concurrently on one
// service and strictly sequentially on another, must produce bit-identical
// repository files -- whatever batch shapes the random sizes produce.
TEST(ModelService, RandomizedBatchedGenerationIsBitIdenticalAcrossFamilies) {
  std::mt19937 rng(20260730u);
  std::uniform_int_distribution<index_t> size(96, 224);
  std::uniform_int_distribution<index_t> blocks(16, 48);
  std::uniform_int_distribution<int> trinv_variant(1, 4);
  std::uniform_int_distribution<int> chol_variant(1, 3);

  for (int round = 0; round < 3; ++round) {
    std::vector<OperationSpec> specs;
    specs.push_back(OperationSpec::trinv(trinv_variant(rng), size(rng),
                                         8 * (blocks(rng) / 8)));
    specs.push_back(
        OperationSpec::sylv(1 + round, size(rng), size(rng), 32));
    specs.push_back(OperationSpec::chol(chol_variant(rng), size(rng),
                                        8 * (blocks(rng) / 8)));
    for (const OperationSpec& spec : specs) {
      ASSERT_TRUE(spec.validate().ok()) << spec.op;
    }
    const std::vector<ModelJob> jobs =
        plan_jobs_for_specs(specs, SystemSpec{}, PlanningPolicy{});
    ASSERT_GT(jobs.size(), 3u);

    const fs::path dir_par =
        fresh_dir("dlap_svc_rand_par" + std::to_string(round));
    const fs::path dir_seq =
        fresh_dir("dlap_svc_rand_seq" + std::to_string(round));
    ModelService parallel(synthetic_config(dir_par, 4));
    ModelService sequential(synthetic_config(dir_seq, 1));
    (void)parallel.generate_all(jobs);
    (void)sequential.generate_all_sequential(jobs);

    const auto par_files = repository_files(dir_par);
    const auto seq_files = repository_files(dir_seq);
    EXPECT_EQ(par_files.size(), jobs.size()) << "round " << round;
    EXPECT_EQ(par_files, seq_files) << "round " << round;
    fs::remove_all(dir_par);
    fs::remove_all(dir_seq);
  }
}

// ------------------------------------------------- concurrent repository

TEST(ModelRepository, StoreLoadRoundTripUnderConcurrentWriters) {
  const fs::path dir = fresh_dir("dlap_repo_concurrent");

  // Pre-build 16 distinct models (cheap synthetic fits).
  ModelService builder(synthetic_config(fresh_dir("dlap_repo_build"), 2));
  std::vector<RoutineModel> models;
  for (index_t i = 0; i < 16; ++i) {
    ModelJob job = four_jobs().front();
    job.request.flags = {static_cast<char>('A' + i), 'L', 'N', 'N'};
    job.request.domain = Region({8, 8}, {64 + 8 * i, 64 + 8 * i});
    models.push_back(*builder.get_or_generate(job));
  }

  ModelRepository repo(dir);
  ThreadPool pool(8);
  // Every model stored from a racing thread; one hot key rewritten by
  // every thread to exercise same-key contention.
  pool.parallel_for_each(static_cast<index_t>(models.size()),
                         [&](index_t i) {
                           repo.store(models[static_cast<std::size_t>(i)]);
                           repo.store(models.front());
                         });

  for (const RoutineModel& m : models) {
    ASSERT_TRUE(repo.contains(m.key)) << m.key.to_string();
    EXPECT_EQ(ModelRepository::serialize(repo.load(m.key)),
              ModelRepository::serialize(m));
  }
  EXPECT_EQ(repo.list().size(), models.size());

  // A fresh repository over the same directory reads everything back.
  ModelRepository reopened(dir);
  EXPECT_EQ(reopened.cache_size(), 0u);
  for (const RoutineModel& m : models) {
    EXPECT_EQ(ModelRepository::serialize(reopened.load(m.key)),
              ModelRepository::serialize(m));
  }
  EXPECT_EQ(reopened.cache_size(), models.size());
  fs::remove_all(dir);
}

// A model of `key` with many pieces, so that loading it from a container
// takes long enough to overlap a reload; `unique_samples` tells models
// apart.
RoutineModel many_piece_model(const ModelKey& key, index_t unique_samples) {
  constexpr index_t kPieces = 400;
  Normalization norm;
  norm.shift = {0.0, 0.0};
  norm.scale = {1.0, 1.0};
  const std::vector<std::vector<double>> coeffs(
      kStatCount,
      std::vector<double>(static_cast<std::size_t>(monomial_count(2, 2)),
                          1.0));
  std::vector<RegionModel> pieces;
  for (index_t p = 0; p < kPieces; ++p) {
    RegionModel piece;
    piece.region = Region({8 * p + 1, 1}, {8 * p + 8, 64});
    piece.poly = VecPolynomial(2, 2, norm, coeffs);
    pieces.push_back(std::move(piece));
  }
  RoutineModel model;
  model.key = key;
  model.model = PiecewiseModel(Region({1, 1}, {8 * kPieces, 64}),
                               std::move(pieces));
  model.unique_samples = unique_samples;
  return model;
}

// A find that loads from the container a reload replaces must not put
// the replaced container's model back into the cache after the reload
// dropped it: from then on every lookup would serve the replaced model.
TEST(ModelRepository, FindNeverCachesAModelOfAReplacedContainer) {
  const fs::path dir = fresh_dir("dlap_repo_reload_race");
  const ModelKey key{"dtrsm", "blocked", Locality::InCache, "LLNN"};
  std::vector<std::shared_ptr<const storage::ContainerReader>> containers;
  for (index_t samples : {1, 2}) {
    storage::ContainerWriter writer;
    writer.add_model(many_piece_model(key, samples));
    const fs::path path = dir / ("c" + std::to_string(samples) + ".dlapc");
    fs::create_directories(dir);
    writer.write(path);
    containers.push_back(storage::ContainerReader::open(path));
  }

  ModelRepository repo(dir);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) (void)repo.find(key);
  });
  // Swap the containers the way ModelService::reload_container does,
  // and look the key up after each swap.
  constexpr int kRounds = 2000;
  int replaced = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t next = static_cast<std::size_t>(round % 2);
    repo.attach_container(containers[next]);
    repo.invalidate_cache();
    const std::shared_ptr<const RoutineModel> model = repo.find(key);
    if (model == nullptr ||
        model->unique_samples != static_cast<index_t>(next + 1)) {
      ++replaced;
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(replaced, 0) << "of " << kRounds << " swaps";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dlap
