// micro_load -- text vs. binary-container model loading.
//
// The repository's text format pays a full parse per model: stream
// extraction of every coefficient at every open. The .dlapc container
// (src/storage/) is one mmap'ed file whose coefficient tables are served
// zero-copy, so opening a repository of hundreds of keys costs O(1)
// parse work per key (header + index decode) instead of O(coefficients).
// This bench measures that end to end -- repository open through the
// first prediction of every key -- and pins down the format's loss-free
// guarantees.
//
// Gates (nonzero exit on failure):
//   - open-to-first-predict over ~100 keys from the container is >= 10x
//     faster than from text files,
//   - text evaluations and container evaluations are bit-identical for
//     every key (zero-copy must not change a single bit),
//   - pack -> unpack round-trips every .model file and sample journal
//     byte-identically,
//   - an engine on a COMPACTED repository (text folded into
//     repository.dlapc, text files deleted) answers trinv, sylv and
//     chol queries bit-identically to the engine that generated the
//     models, with every key served from the container.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "modeler/repository.hpp"
#include "sampler/sample_store.hpp"
#include "storage/pack.hpp"
#include "support/bench_util.hpp"

namespace {

using namespace dlap;
namespace fs = std::filesystem;

constexpr int kKeys = 100;

// ------------------------------------------------- synthetic repository

/// Deterministic coefficient soup: arbitrary but reproducible doubles
/// (every double round-trips the 17-digit text format exactly, so the
/// values need no special structure).
double coef(int key, int piece, int stat, int k) {
  const double x = 1.0 + 0.017 * key + 0.13 * piece + 0.7 * stat + 1.9 * k;
  return std::sin(x) * 1e3 + 1e-3 * x;
}

RoutineModel synth_model(int i) {
  RoutineModel m;
  m.key.routine = "synth" + std::to_string(i);
  m.key.backend = "blocked";
  m.key.locality = (i % 2 == 0) ? Locality::InCache : Locality::OutOfCache;
  m.key.flags = "LLNN";
  m.strategy = "refinement";
  m.unique_samples = 100 + i;
  m.average_error = 0.01 + 1e-4 * i;

  constexpr int kDims = 2;
  constexpr int kDegree = 3;
  const index_t ncoef = monomial_count(kDims, kDegree);
  std::vector<RegionModel> pieces;
  int piece_id = 0;
  const index_t edges[2][2] = {{8, 256}, {264, 512}};
  for (const auto& e0 : edges) {
    for (const auto& e1 : edges) {
      RegionModel p;
      p.region = Region({e0[0], e1[0]}, {e0[1], e1[1]});
      p.fit_error = 0.04 + 0.001 * piece_id;
      p.mean_error = 0.02 + 0.001 * piece_id;
      p.samples_used = 25;
      Normalization norm;
      norm.shift = {260.0, 260.0};
      norm.scale = {252.0, 252.0};
      std::vector<std::vector<double>> coeffs(kStatCount);
      for (int s = 0; s < kStatCount; ++s) {
        for (index_t k = 0; k < ncoef; ++k) {
          coeffs[s].push_back(coef(i, piece_id, s, static_cast<int>(k)));
        }
      }
      p.poly = VecPolynomial(kDims, kDegree, std::move(norm),
                             std::move(coeffs));
      pieces.push_back(std::move(p));
      ++piece_id;
    }
  }
  m.model = PiecewiseModel(Region({8, 8}, {512, 512}), std::move(pieces));
  return m;
}

std::vector<ModelKey> populate_text_repository(const fs::path& dir) {
  ModelRepository repo(dir);
  std::vector<ModelKey> keys;
  for (int i = 0; i < kKeys; ++i) {
    RoutineModel m = synth_model(i);
    keys.push_back(m.key);
    repo.store(m);
  }
  // Sample journals for a fifth of the keys (journal order must survive
  // the pack -> unpack round trip).
  SampleStore store(dir / "samples");
  for (int i = 0; i < kKeys; i += 5) {
    const std::string ekey = keys[static_cast<std::size_t>(i)].to_string();
    for (index_t x = 8; x <= 128; x += 24) {
      SampleStats s;
      s.min = coef(i, 0, 0, static_cast<int>(x));
      s.median = s.min * 1.05;
      s.mean = s.min * 1.06;
      s.max = s.min * 1.2;
      s.stddev = std::abs(s.min) * 0.02;
      s.count = 5;
      store.insert(ekey, {x, x + 8}, s);
    }
  }
  return keys;
}

// ------------------------------------------------------ open-to-predict

struct OpenPredict {
  double ms = 0.0;
  std::vector<SampleStats> predictions;  ///< one per key, key order
};

/// Constructs a fresh repository over `dir` and evaluates every key's
/// model once: the cold open-to-first-predict path the engine pays when
/// a prediction run starts.
OpenPredict open_and_predict(const fs::path& dir,
                             const std::vector<ModelKey>& keys) {
  const auto t0 = std::chrono::steady_clock::now();
  ModelRepository repo(dir);
  OpenPredict out;
  out.predictions.reserve(keys.size());
  const std::vector<double> probe = {200.0, 300.0};
  for (const ModelKey& key : keys) {
    const std::shared_ptr<const RoutineModel> m = repo.find(key);
    if (m == nullptr) {
      std::fprintf(stderr, "missing model %s in %s\n",
                   key.to_string().c_str(), dir.string().c_str());
      std::exit(1);
    }
    out.predictions.push_back(m->model.evaluate(probe));
  }
  out.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  return out;
}

bool stats_identical(const SampleStats& a, const SampleStats& b) {
  return a.min == b.min && a.median == b.median && a.mean == b.mean &&
         a.max == b.max && a.stddev == b.stddev && a.count == b.count;
}

// --------------------------------------------------------- file compare

std::map<std::string, std::string> text_files(const fs::path& dir) {
  std::map<std::string, std::string> files;
  if (!fs::is_directory(dir)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".model" && ext != ".samples") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files[fs::relative(entry.path(), dir).string()] = buf.str();
  }
  return files;
}

// ------------------------------------------------------- engine queries

std::vector<OperationSpec> engine_specs() {
  std::vector<OperationSpec> specs;
  for (index_t n : {64, 96}) {
    specs.push_back(OperationSpec::trinv(1, n, 32));
    specs.push_back(OperationSpec::chol(1, n, 32));
  }
  specs.push_back(OperationSpec::sylv(1, 64, 64, 16));
  return specs;
}

EngineConfig engine_config(const fs::path& repo_dir) {
  EngineConfig cfg;
  cfg.service.repository_dir = repo_dir;
  cfg.service.workers = 2;
  // Deterministic, instant measurement source: the bench compares model
  // loading, not sampling.
  cfg.service.measure_factory = [](const ModelJob& job) {
    double h = 0.0;
    for (char c : ModelService::key_for(job).to_string()) {
      h = 0.9 * h + static_cast<double>(c);
    }
    return [h](const std::vector<index_t>& point) {
      double cost = 100.0 + h;
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
  };
  return cfg;
}

std::vector<SampleStats> predict_all(Engine& engine,
                                     const std::vector<OperationSpec>& specs) {
  std::vector<SampleStats> out;
  out.reserve(specs.size());
  for (const OperationSpec& spec : specs) {
    out.push_back(
        bench::require_ok(engine.predict(PredictQuery::of(spec))).ticks);
  }
  return out;
}

}  // namespace

int main() {
  const fs::path root =
      fs::temp_directory_path() /
      ("dlaperf_micro_load_" +
       std::to_string(static_cast<long long>(::getpid())));
  fs::remove_all(root);
  const fs::path text_dir = root / "text";
  const fs::path packed_dir = root / "packed";
  const fs::path unpacked_dir = root / "unpacked";
  const fs::path engine_dir = root / "engine";

  // ---- synthetic repository, packed twin ------------------------------
  const std::vector<ModelKey> keys = populate_text_repository(text_dir);
  fs::create_directories(packed_dir);
  const storage::PackStats packed = storage::pack_repository(
      text_dir, packed_dir / storage::kContainerFilename);
  std::printf("# packed %d models -> %zu bytes\n", kKeys, packed.bytes);

  // ---- open-to-first-predict timing -----------------------------------
  // Warm-up (page cache, allocator), then best-of-5 for each side.
  (void)open_and_predict(text_dir, keys);
  (void)open_and_predict(packed_dir, keys);
  double text_ms = 1e300;
  double binary_ms = 1e300;
  OpenPredict text_run, binary_run;
  for (int rep = 0; rep < 5; ++rep) {
    OpenPredict t = open_and_predict(text_dir, keys);
    OpenPredict b = open_and_predict(packed_dir, keys);
    text_ms = std::min(text_ms, t.ms);
    binary_ms = std::min(binary_ms, b.ms);
    text_run = std::move(t);
    binary_run = std::move(b);
  }
  const double speedup = text_ms / binary_ms;
  std::printf("# open-to-first-predict, %d keys: text %.3f ms, "
              "container %.3f ms, speedup %.1fx\n",
              kKeys, text_ms, binary_ms, speedup);

  bool eval_identical = true;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!stats_identical(text_run.predictions[i],
                         binary_run.predictions[i])) {
      eval_identical = false;
      std::fprintf(stderr, "evaluation mismatch for %s\n",
                   keys[i].to_string().c_str());
    }
  }

  // ---- pack -> unpack byte identity -----------------------------------
  (void)storage::unpack_container(packed_dir / storage::kContainerFilename,
                                  unpacked_dir);
  const auto original = text_files(text_dir);
  const auto roundtrip = text_files(unpacked_dir);
  const bool roundtrip_identical = original == roundtrip;
  std::printf("# pack->unpack round-trip: %zu files, %s\n", original.size(),
              roundtrip_identical ? "byte-identical" : "MISMATCH");

  // ---- engine equivalence: text vs. compacted container ---------------
  const std::vector<OperationSpec> specs = engine_specs();
  std::vector<SampleStats> from_text;
  {
    Engine engine(engine_config(engine_dir));
    bench::require_ok(engine.prepare(specs, std::nullopt, nullptr));
    from_text = predict_all(engine, specs);
  }
  const storage::PackStats compacted =
      storage::compact_repository(engine_dir);
  std::printf("# compacted engine repository: %zu models, %zu sample "
              "sections, %zu bytes\n",
              compacted.models, compacted.sample_keys, compacted.bytes);

  bool engine_identical = true;
  index_t keys_from_container = 0;
  index_t keys_regenerated = 0;
  {
    Engine engine(engine_config(engine_dir));
    PrepareReport report;
    bench::require_ok(engine.prepare(specs, std::nullopt, &report));
    keys_from_container = report.keys_from_container();
    keys_regenerated = report.keys_generated();
    const std::vector<SampleStats> from_container =
        predict_all(engine, specs);
    for (std::size_t i = 0; i < from_text.size(); ++i) {
      if (!stats_identical(from_text[i], from_container[i])) {
        engine_identical = false;
        std::fprintf(stderr, "prediction mismatch for spec %zu\n", i);
      }
    }
  }
  std::printf("# engine on compacted repository: %lld/%zu keys from "
              "container, %lld regenerated, predictions %s\n",
              static_cast<long long>(keys_from_container),
              static_cast<std::size_t>(
                  keys_from_container + keys_regenerated),
              static_cast<long long>(keys_regenerated),
              engine_identical ? "bit-identical" : "MISMATCH");

  // ---- gates ----------------------------------------------------------
  const bool gate_speedup = speedup >= 10.0;
  const bool gate_container_served =
      keys_from_container > 0 && keys_regenerated == 0;
  const bool pass = gate_speedup && eval_identical && roundtrip_identical &&
                    engine_identical && gate_container_served;

  bench::BenchJson json;
  json.set("bench", std::string("micro_load"));
  json.set("keys", static_cast<index_t>(kKeys));
  json.set("text_open_predict_ms", text_ms);
  json.set("binary_open_predict_ms", binary_ms);
  json.set("speedup", speedup);
  json.set("container_bytes", static_cast<index_t>(packed.bytes));
  json.set("gate_speedup_10x", gate_speedup);
  json.set("eval_identical", eval_identical);
  json.set("roundtrip_identical", roundtrip_identical);
  json.set("engine_identical", engine_identical);
  json.set("keys_from_container", keys_from_container);
  json.set("pass", pass);
  json.write("BENCH_load.json");

  fs::remove_all(root);
  if (!pass) {
    std::fprintf(stderr, "micro_load: GATE FAILURE\n");
    return 1;
  }
  std::printf("# micro_load: all gates passed\n");
  return 0;
}
