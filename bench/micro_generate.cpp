// micro_generate -- cold vs. warm model generation through batched
// measurement.
//
// Generation wall clock is dominated by *measurement latency*: the
// sampler waits on repeated timed kernel executions for every sampled
// point. The step machines emit a region's whole sample grid as one
// batch, and fulfill_batch spreads each batch over the ThreadPool
// (deterministic sources only -- real timing stays serialized per
// backend instance), so generation overlaps measurement latency both
// *within* one key's batches and *across* concurrently generated keys.
// The measurement source is a deterministic cost surface with a fixed
// per-point latency (ServiceConfig::measure_factory), so the speedup
// reported is the scheduling overlap, independent of host core count and
// timing noise.
//
// Also exercised: the persistent sample repository. A "warm" run points
// a fresh service (empty model repository) at the sample directory a
// cold run populated -- it must regenerate every model with ZERO new
// measurements, entirely from the journals, and produce bit-identical
// model files.
//
// Gates (nonzero exit on failure):
//   - cold generation at 4 workers >= 2x faster than the 1-worker
//     sequential reference path (generate_all_sequential: one thread,
//     every point measured serially),
//   - warm regeneration measures 0 points (all from disk),
//   - every run produces bit-identical model repository files.
//
// The concurrent 1-worker row is informational: parallel_for_each's
// calling thread participates, so even "1 worker" overlaps two
// measurements and the 4-vs-1-concurrent ratio is capped at 5/2.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "service/model_service.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace dlap;
namespace fs = std::filesystem;

constexpr auto kPointLatency = std::chrono::microseconds(700);

MeasureFn latency_bound_measure(double offset) {
  return [offset](const std::vector<index_t>& point) {
    std::this_thread::sleep_for(kPointLatency);  // the "sampling" cost
    double cost = 100.0 + offset;
    for (index_t x : point) {
      const double v = static_cast<double>(x);
      cost += 2.0 * v + 0.03 * v * v;
    }
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

std::vector<ModelJob> benchmark_jobs() {
  std::vector<ModelJob> jobs;
  const Region d2({8, 8}, {192, 192});
  const char flag_sets[6][4] = {{'L', 'L', 'N', 'N'}, {'L', 'L', 'T', 'N'},
                                {'L', 'U', 'N', 'N'}, {'R', 'L', 'N', 'N'},
                                {'R', 'L', 'T', 'N'}, {'R', 'U', 'N', 'N'}};
  for (const auto& f : flag_sets) {
    ModelJob job;
    job.backend = "blocked";
    job.request.routine = RoutineId::Trsm;
    job.request.flags.assign(f, f + 4);
    job.request.domain = d2;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ServiceConfig config_for(const fs::path& repo_dir, const fs::path& sample_dir,
                         index_t workers) {
  ServiceConfig cfg;
  cfg.repository_dir = repo_dir;
  cfg.sample_dir = sample_dir;
  cfg.workers = workers;
  // Larger grids = larger per-region batches, so the in-batch fan-out
  // (not just the cross-key one) carries weight in the measurement.
  cfg.refinement.base.grid_points_per_dim = 8;
  cfg.measure_factory = [](const ModelJob& job) {
    double h = 0.0;
    for (char c : ModelService::key_for(job).to_string()) {
      h = 0.9 * h + static_cast<double>(c);
    }
    return latency_bound_measure(h);
  };
  return cfg;
}

std::map<std::string, std::string> model_files(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

struct RunResult {
  double wall_ms = 0.0;
  index_t measured = 0;
  index_t from_disk = 0;
  std::map<std::string, std::string> files;
};

// One generation run: fresh model repository; the sample directory is
// preserved between cold and warm runs of one `tag`.
RunResult run(const std::string& tag, index_t workers, bool concurrent,
              bool keep_samples) {
  const fs::path base =
      fs::temp_directory_path() / ("dlap_micro_generate_" + tag);
  const fs::path repo_dir = base / "models";
  const fs::path sample_dir = base / "samples";
  fs::remove_all(repo_dir);
  if (!keep_samples) fs::remove_all(sample_dir);

  ModelService service(config_for(repo_dir, sample_dir, workers));
  const std::vector<ModelJob> jobs = benchmark_jobs();

  const auto t0 = std::chrono::steady_clock::now();
  const auto models = concurrent ? service.generate_all(jobs)
                                 : service.generate_all_sequential(jobs);
  const auto t1 = std::chrono::steady_clock::now();
  if (models.size() != jobs.size()) std::abort();

  RunResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const ModelJob& job : jobs) {
    const auto stats = service.generation_stats(ModelService::key_for(job));
    if (!stats.has_value()) std::abort();
    result.measured += stats->points_measured;
    result.from_disk += stats->points_from_disk;
  }
  result.files = model_files(repo_dir);
  return result;
}

}  // namespace

int main() {
  using namespace dlap::bench;

  print_comment("micro_generate: batched generation of 6 model keys, "
                "latency-bound synthetic sampling (" +
                std::to_string(kPointLatency.count()) +
                "us/point), persistent sample repository");
  print_header({"workers", "wall_ms", "speedup", "measured", "from_disk"});

  // 1-worker sequential reference: one thread, every point serial. This
  // is the bit-identity baseline AND the speedup denominator.
  const RunResult seq = run("seq", 1, /*concurrent=*/false,
                            /*keep_samples=*/false);
  print_row(0, {seq.wall_ms, 1.0, static_cast<double>(seq.measured),
                static_cast<double>(seq.from_disk)});

  // Cold, 1 worker, concurrent path (informational: the caller
  // participates, so even this overlaps two measurements).
  const RunResult cold1 = run("w1", 1, /*concurrent=*/true,
                              /*keep_samples=*/false);
  print_row(1, {cold1.wall_ms, seq.wall_ms / cold1.wall_ms,
                static_cast<double>(cold1.measured),
                static_cast<double>(cold1.from_disk)});

  // Cold, 4 workers: cross-key and in-batch overlap.
  const RunResult cold4 = run("w4", 4, /*concurrent=*/true,
                              /*keep_samples=*/false);
  const double speedup = seq.wall_ms / cold4.wall_ms;
  print_row(4, {cold4.wall_ms, speedup, static_cast<double>(cold4.measured),
                static_cast<double>(cold4.from_disk)});

  // Warm, 4 workers: fresh model repository, reusing w4's sample
  // journals -- zero measurements allowed.
  const RunResult warm = run("w4", 4, /*concurrent=*/true,
                             /*keep_samples=*/true);
  print_row(44, {warm.wall_ms, seq.wall_ms / warm.wall_ms,
                 static_cast<double>(warm.measured),
                 static_cast<double>(warm.from_disk)});

  const bool identical = cold1.files == cold4.files &&
                         cold1.files == seq.files &&
                         cold1.files == warm.files &&
                         !cold1.files.empty();
  const bool warm_ok = warm.measured == 0 && warm.from_disk > 0;
  const bool speedup_ok = speedup >= 2.0;

  print_comment(std::string("model files bit-identical across runs: ") +
                (identical ? "yes" : "NO"));
  print_comment("warm regeneration measured " +
                std::to_string(warm.measured) + " points (" +
                std::to_string(warm.from_disk) + " from disk)" +
                (warm_ok ? " (PASS)" : " (FAIL, need 0 measured)"));
  print_comment("cold speedup, 4 workers vs 1-worker sequential: " +
                std::to_string(speedup) +
                (speedup_ok ? " (PASS, >= 2x)" : " (FAIL, need >= 2x)"));

  const bool pass = identical && warm_ok && speedup_ok;
  BenchJson json;
  json.set("bench", std::string("micro_generate"));
  json.set("cold_sequential_1_worker_ms", seq.wall_ms);
  json.set("cold_1_worker_concurrent_ms", cold1.wall_ms);
  json.set("cold_4_workers_ms", cold4.wall_ms);
  json.set("cold_speedup_4_workers_vs_sequential", speedup);
  json.set("warm_4_workers_ms", warm.wall_ms);
  json.set("warm_points_measured", warm.measured);
  json.set("warm_points_from_disk", warm.from_disk);
  json.set("deterministic", identical);
  json.set("pass", pass);
  json.write("BENCH_generate.json");

  // Leave no state behind.
  for (const char* tag : {"w1", "w4", "seq"}) {
    fs::remove_all(fs::temp_directory_path() /
                   (std::string("dlap_micro_generate_") + tag));
  }
  return pass ? 0 : 1;
}
