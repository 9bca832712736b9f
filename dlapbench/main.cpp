// dlapbench -- the repository benchmark: a real dlapd child process
// serving a compacted repository generated from the synthetic machine
// (machine.hpp), driven over loopback HTTP.
//
//   dlapbench --workload serve_hot|generate --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// A run is kRounds rounds, so the timed samples spread over the whole run
// instead of one stretch of a drifting host: per round, (serve_hot) one
// fixture build, then a dlapd spawn that answers the warm-up set, then
// the round's share of closed-loop traffic over two keep-alive
// connections -- seeded draws from the hot set on serve_hot, generate
// cycles on generate (cold-generate system B, compact it into the live
// repository, reload dlapd, answer the B set). After the traffic, every
// answer is checked byte for byte against an in-process Engine opened on
// the same repository with generation off.
//
// End-to-end metrics are medians over the kKeptRounds rounds in which the
// host stole the least CPU time (or over their builds and cycles):
//   setup_s        dlapd spawn to the last warm-up answer
//   qps, p50_ms, p90_ms, cpu_us_per_req
//                  the timed answers: seeded traffic on serve_hot, the B
//                  answers after each reload on generate; CPU is dlapd's
//   rss_mb         dlapd VmHWM
//   gen_s          serve_hot: fixture build (prepare + compact); generate:
//                  B prepare to the first B answer after the reload
//   gen_points     points that generation measured
//   pred_err_p50, pred_err_p90, rank_hit, tune_cost_ratio
//                  the workload's whole query set (hot set or B set)
//                  scored against the machine's truth
// With --trace 1 the run also replays the workload in process with spans
// around each layer's public functions, and prints per-layer metrics
// instead. The last stdout line is the JSON result.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/engine.hpp"
#include "common/rng.hpp"
#include "daemon.hpp"
#include "machine.hpp"
#include "modeler/repository.hpp"
#include "modeler/strategies.hpp"
#include "ops/registry.hpp"
#include "predict/compiled_trace.hpp"
#include "queries.hpp"
#include "sampler/sample_store.hpp"
#include "sampler/stats.hpp"
#include "server/client.hpp"
#include "server/handlers.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "spans.hpp"
#include "storage/container.hpp"
#include "storage/pack.hpp"

namespace {

using namespace dlapbench;
using dlap::index_t;
using dlap::server::Json;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 12;
// Metrics come from the rounds in which the hypervisor stole the least
// CPU time (/proc/stat): the host's interference, which the program
// cannot cause or avoid, decides which rounds count.
constexpr int kKeptRounds = 6;
constexpr int kConnections = 2;
constexpr int kGenerationWorkers = 2;
constexpr int kCheckThreads = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return dlap::quantile(std::move(v), 0.5); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir;
};

/// Operations attempted and failed, with the first few failures named.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void ok() { ++attempted; }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

// ------------------------------------------------------------ generation

dlap::EngineConfig generation_config(const fs::path& repo,
                                     const dlap::SystemSpec& system,
                                     const Machine& machine) {
  dlap::EngineConfig cfg;
  cfg.service.repository_dir = repo;
  cfg.service.workers = kGenerationWorkers;
  cfg.service.measure_factory = measure_factory(machine);
  cfg.system = system;
  return cfg;
}

dlap::EngineConfig serving_config(const fs::path& repo,
                                  const dlap::SystemSpec& system) {
  dlap::EngineConfig cfg;
  cfg.service.repository_dir = repo;
  cfg.service.workers = 1;
  cfg.system = system;
  cfg.generate_missing = false;
  return cfg;
}

struct Build {
  double seconds = 0.0;
  index_t points = 0;
  std::string error;
};

/// Cold-generates every model `specs` need into `repo` and compacts it:
/// Engine::prepare, then storage::compact_repository once the engine
/// (and its journal streams) is gone.
Build build_repository(const fs::path& repo,
                       const std::vector<dlap::OperationSpec>& specs,
                       const dlap::SystemSpec& system, const Machine& machine) {
  Build out;
  const auto t0 = Clock::now();
  try {
    {
      dlap::Engine engine(generation_config(repo, system, machine));
      dlap::PrepareReport report;
      const dlap::Status s = engine.prepare(specs, system, &report);
      if (!s.ok()) {
        out.error = "prepare: " + s.to_string();
        return out;
      }
      out.points = report.points_measured();
    }
    (void)dlap::storage::compact_repository(repo);
  } catch (const std::exception& e) {
    out.error = std::string("build: ") + e.what();
  }
  out.seconds = seconds_since(t0);
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A container's content with each sample section's records sorted:
/// models byte for byte (their serialized text), samples as record sets.
/// Parallel measurement appends journal records in completion order, so
/// two identical generations can store the same records in a different
/// order; what they serve must not differ.
std::string canonical_content(const fs::path& file) {
  const auto reader = dlap::storage::ContainerReader::open(file);
  std::string out;
  for (std::size_t i = 0; i < reader->model_count(); ++i) {
    out += dlap::ModelRepository::serialize(*reader->model(i).load());
  }
  for (std::size_t i = 0; i < reader->sample_key_count(); ++i) {
    std::vector<std::string> lines;
    reader->for_each_sample(i, [&](const std::vector<index_t>& point,
                                   const dlap::SampleStats& stats) {
      lines.push_back(dlap::SampleStore::format_journal_line(point, stats));
    });
    std::sort(lines.begin(), lines.end());
    out += std::string(reader->sample_key(i)) + '\n';
    for (const std::string& line : lines) out += line;
  }
  return out;
}

/// Atomically installs `from` as `to` (dlapd may be mapping the old one).
void install_copy(const fs::path& from, const fs::path& to) {
  const fs::path tmp = to.string() + ".tmp";
  fs::copy_file(from, tmp, fs::copy_options::overwrite_existing);
  fs::rename(tmp, to);
}

// --------------------------------------------------------------- traffic

/// One connection's answers: latencies, plus the first body seen per
/// query; every later answer to that query must repeat it byte for byte,
/// and the first bodies are checked against the reference afterwards.
struct Book {
  std::vector<std::string> first;
  std::vector<char> seen;
  std::vector<double> latency_us;
  std::uint64_t answered = 0;

  explicit Book(std::size_t queries) : first(queries), seen(queries, 0) {}

  void record(std::size_t query, const std::optional<dlap::server::ClientResponse>& r,
              double us, Tally& tally) {
    latency_us.push_back(us);
    if (!r.has_value()) {
      tally.fail("query " + std::to_string(query) + ": connection error");
      return;
    }
    if (r->status != 200) {
      tally.fail("query " + std::to_string(query) + ": HTTP " +
                 std::to_string(r->status) + " " + r->body.substr(0, 200));
      return;
    }
    ++answered;
    if (!seen[query]) {
      seen[query] = 1;
      first[query] = r->body;
      tally.ok();
    } else if (r->body != first[query]) {
      tally.fail("query " + std::to_string(query) + ": answer changed");
    } else {
      tally.ok();
    }
  }
};

std::optional<dlap::server::ClientResponse> ask(dlap::server::HttpClient& client,
                                                const Query& q) {
  return client.request("POST", q.path, q.body);
}

double json_path(const Json& root, std::initializer_list<const char*> path) {
  const Json* node = &root;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_number() : 0.0;
}

/// Answers `order` over one keep-alive connection, one request at a time.
void answer_in_order(dlap::server::HttpClient& client,
                     const std::vector<Query>& queries,
                     const std::vector<std::size_t>& order, Book& book,
                     Tally& tally) {
  for (const std::size_t i : order) {
    const auto s = Clock::now();
    const auto r = ask(client, queries[i]);
    book.record(i, r, std::chrono::duration<double, std::micro>(Clock::now() - s).count(),
                tally);
  }
}

/// POST /v1/admin/reload, then polls /v1/stats until dlapd reports one
/// more completed reload than `completed`. The connection closes on
/// return: dlapd has only two connection workers, and an idle keep-alive
/// connection would hold one of them.
bool reload_daemon(int port, double completed) {
  dlap::server::HttpClient admin("127.0.0.1", port);
  const auto r = admin.request("POST", "/v1/admin/reload", "{}");
  if (!r.has_value() || r->status != 202) return false;
  for (int poll = 0; poll < 100000; ++poll) {
    const auto st = admin.request("GET", "/v1/stats");
    if (!st.has_value() || st->status != 200) return false;
    try {
      const Json j = Json::parse(st->body);
      if (json_path(j, {"reload", "failed"}) > 0) return false;
      if (json_path(j, {"reload", "completed"}) > completed) return true;
    } catch (const std::exception&) {
      return false;
    }
  }
  return false;
}

/// The seed of one connection's request sequence in one round.
std::uint64_t connection_seed(std::uint64_t seed, int round, int connection) {
  return seed * 0x9e3779b97f4a7c15ULL +
         static_cast<std::uint64_t>(round * kConnections + connection + 1);
}

struct Window {
  double seconds = 0.0;
  double cpu_us = 0.0;
};

/// Closed loop: kConnections keep-alive clients, each drawing its own
/// seeded sequence from `queries` and sending the next request only
/// after the previous answer, until `seconds` elapse.
Window closed_loop(Daemon& daemon, const std::vector<Query>& queries,
                   std::uint64_t seed, int round, double seconds,
                   std::vector<Book>& books, std::vector<Tally>& tallies) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  Clock::time_point deadline;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      dlap::server::HttpClient client("127.0.0.1", daemon.port());
      dlap::Rng rng(connection_seed(seed, round, t));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Book& book = books[static_cast<std::size_t>(t)];
      while (Clock::now() < deadline) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<index_t>(queries.size()) - 1));
        const auto s = Clock::now();
        const auto r = ask(client, queries[i]);
        book.record(i, r, std::chrono::duration<double, std::micro>(Clock::now() - s).count(),
                    tallies[static_cast<std::size_t>(t)]);
      }
    });
  }
  Window w;
  const double cpu0 = daemon.cpu_us();
  const auto t0 = Clock::now();
  deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  w.seconds = seconds_since(t0);
  w.cpu_us = daemon.cpu_us() - cpu0;
  return w;
}

std::optional<Json> get_stats(int port) {
  dlap::server::HttpClient client("127.0.0.1", port);
  const auto r = client.request("GET", "/v1/stats");
  if (!r.has_value() || r->status != 200) return std::nullopt;
  try {
    return Json::parse(r->body);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------- checks

/// What an in-process Engine, opened on the same compacted repository
/// with generation off, answers: the expected HTTP body (a warm render,
/// the second evaluation) and the predicted medians per candidate.
struct Reference {
  std::vector<std::string> body;
  std::vector<std::vector<double>> median;
  std::vector<index_t> best;
  std::vector<std::vector<double>> truth;
};

Reference reference(const fs::path& repo, const dlap::SystemSpec& system,
                    const std::vector<Query>& queries, const Machine& machine,
                    Tally& tally) {
  Reference ref;
  const std::size_t n = queries.size();
  ref.body.resize(n);
  ref.median.resize(n);
  ref.best.assign(n, -1);
  ref.truth.resize(n);
  dlap::Engine engine(serving_config(repo, system));
  std::vector<std::string> errors(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        const Query& q = queries[i];
        for (const dlap::OperationSpec& spec : q.specs()) {
          ref.truth[i].push_back(trace_cost(machine, spec.trace()));
        }
        for (int pass = 0; pass < 2; ++pass) {
          if (q.is_rank) {
            const auto r = engine.rank(q.rank);
            if (!r.ok()) {
              errors[i] = r.status().to_string();
              break;
            }
            ref.body[i] = dlap::server::render_ranking(*r).dump();
            ref.median[i] = r->median_ticks();
            ref.best[i] = r->best();
          } else {
            const auto r = engine.tune(q.tune);
            if (!r.ok()) {
              errors[i] = r.status().to_string();
              break;
            }
            ref.body[i] = dlap::server::render_tune(*r).dump();
            ref.median[i] = r->median_ticks();
            ref.best[i] = r->best_index;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) tally.fail("reference " + std::to_string(i) + ": " + errors[i]);
  }
  return ref;
}

/// Every first answer a connection recorded must equal the reference.
void check_books(const std::vector<Book>& books, const Reference& ref,
                 Tally& tally) {
  for (const Book& book : books) {
    for (std::size_t i = 0; i < book.first.size(); ++i) {
      if (!book.seen[i]) continue;
      if (book.first[i] != ref.body[i]) {
        tally.fail("query " + std::to_string(i) +
                   ": body differs from the in-process render");
      } else {
        tally.ok();
      }
    }
  }
}

struct Accuracy {
  double err_p50 = 0.0;
  double err_p90 = 0.0;
  double rank_hit = 0.0;
  double tune_cost_ratio = 0.0;
  std::size_t candidates = 0, ranks = 0, tunes = 0;
};

/// Scores the reference answers (bit-identical to dlapd's, checked)
/// against the machine's truth, over every query of the set.
Accuracy score(const std::vector<Query>& queries, const Reference& ref) {
  Accuracy a;
  std::vector<double> errors;
  std::set<std::tuple<std::string, int, index_t, index_t, index_t>> seen;
  double hits = 0.0, ratio_sum = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::vector<double>& truth = ref.truth[i];
    const std::vector<double>& pred = ref.median[i];
    if (ref.best[i] < 0 || pred.size() != truth.size() || truth.empty()) continue;
    const std::vector<dlap::OperationSpec> specs = queries[i].specs();
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const auto& s = specs[k];
      if (seen.insert({s.op, s.variant, s.m, s.n, s.blocksize}).second) {
        errors.push_back(std::abs(pred[k] - truth[k]) / truth[k]);
      }
    }
    const double best_truth = *std::min_element(truth.begin(), truth.end());
    const double picked = truth[static_cast<std::size_t>(ref.best[i])];
    if (queries[i].is_rank) {
      ++a.ranks;
      // Ties (equal true cost up to summation order) count as hits.
      if (picked <= best_truth * (1.0 + 1e-12)) hits += 1.0;
    } else {
      ++a.tunes;
      ratio_sum += picked / best_truth;
    }
  }
  a.candidates = errors.size();
  if (!errors.empty()) {
    a.err_p50 = dlap::quantile(errors, 0.5);
    a.err_p90 = dlap::quantile(errors, 0.9);
  }
  if (a.ranks > 0) a.rank_hit = hits / static_cast<double>(a.ranks);
  if (a.tunes > 0) a.tune_cost_ratio = ratio_sum / static_cast<double>(a.tunes);
  return a;
}

// ---------------------------------------------------------- traced run

using Metrics = std::vector<std::tuple<std::string, std::string, double>>;

/// The HTTP request a client sends for `q`, byte for byte.
std::string wire(const Query& q) {
  return "POST " + q.path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(q.body.size()) + "\r\n\r\n" + q.body;
}

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(Spans* spans, const char* name, std::uint64_t id) {
    if (spans != nullptr) scope_.emplace(*spans, name, id);
  }

 private:
  std::optional<Spans::Scope> scope_;
};

/// One request through the server codec, handler binding, Engine and
/// render, as dlapd's worker runs it; spans only when `spans` is set.
std::string serve_in_process(dlap::Engine& engine, const Query& q,
                             const std::string& raw, Spans* spans,
                             std::uint64_t id) {
  MaybeSpan root(spans, "request", id);
  dlap::server::HttpParser parser;
  {
    MaybeSpan s(spans, "server.http_parse", id);
    (void)parser.feed(raw);
  }
  if (!parser.complete()) return {};
  Json body;
  {
    MaybeSpan s(spans, "server.json_parse", id);
    body = Json::parse(parser.request().body);
  }
  Json rendered;
  if (q.is_rank) {
    dlap::RankQuery bound;
    {
      MaybeSpan s(spans, "server.bind", id);
      if (!dlap::server::bind_rank(body, &bound).ok()) return {};
    }
    std::optional<dlap::Result<dlap::Ranking>> r;
    {
      MaybeSpan s(spans, "api.query", id);
      r.emplace(engine.rank(bound));
    }
    if (!r->ok()) return {};
    MaybeSpan s(spans, "server.render", id);
    rendered = dlap::server::render_ranking(**r);
  } else {
    dlap::TuneQuery bound;
    {
      MaybeSpan s(spans, "server.bind", id);
      if (!dlap::server::bind_tune(body, &bound).ok()) return {};
    }
    std::optional<dlap::Result<dlap::TuneResult>> r;
    {
      MaybeSpan s(spans, "api.query", id);
      r.emplace(engine.tune(bound));
    }
    if (!r->ok()) return {};
    MaybeSpan s(spans, "server.render", id);
    rendered = dlap::server::render_tune(**r);
  }
  MaybeSpan s(spans, "server.serialize", id);
  return rendered.dump();
}

struct TraceInputs {
  const Machine* machine = nullptr;
  dlap::SystemSpec system;
  std::vector<dlap::OperationSpec> gen_specs;
  fs::path base_container;  ///< copied in before generating, when set
  const std::vector<Query>* queries = nullptr;
  std::vector<std::size_t> replay;  ///< query indices in request order
  const Reference* ref = nullptr;
  bool warm_replay = true;          ///< first third only warms the cache
  double served_mean_us = 0.0;      ///< mean dlapd latency, untraced
  double queue_peak = 0.0;
};

Metrics traced_layers(const TraceInputs& in, const fs::path& dir,
                      const fs::path& span_file, Tally& tally) {
  Spans spans;
  Metrics m;
  const Machine& machine = *in.machine;
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (!in.base_container.empty()) {
    fs::copy_file(in.base_container, dir / "repository.dlapc");
  }

  // --- generation: plan -> prepare -> resume -> fit replay -> compact ---
  std::vector<dlap::ModelJob> jobs;
  {
    Spans::Scope s(spans, "ops.plan");
    jobs = dlap::plan_jobs_for_specs(in.gen_specs, in.system, dlap::PlanningPolicy{});
  }
  double joined = 0.0, batches = 0.0, from_memory = 0.0;
  {
    Spans::Scope s(spans, "service.prepare");
    dlap::Engine engine(generation_config(dir, in.system, machine));
    dlap::PrepareReport report;
    const dlap::Status st = engine.prepare(in.gen_specs, in.system, &report);
    if (!st.ok()) tally.fail("traced prepare: " + st.to_string());
    from_memory += static_cast<double>(report.points_from_memory());
    for (const auto& key : report.keys) {
      if (const auto g = engine.service().generation_stats(key.key)) {
        joined += static_cast<double>(g->points_joined);
        batches += static_cast<double>(g->batches);
      }
    }
  }
  // A restart that lost its model files but kept the sample journals
  // refits every model from disk without measuring.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".model") fs::remove(entry.path());
  }
  double from_disk = 0.0;
  {
    Spans::Scope s(spans, "service.resume");
    dlap::Engine engine(generation_config(dir, in.system, machine));
    dlap::PrepareReport report;
    const dlap::Status st = engine.prepare(in.gen_specs, in.system, &report);
    if (!st.ok()) tally.fail("traced resume: " + st.to_string());
    from_disk = static_cast<double>(report.points_from_disk());
    from_memory += static_cast<double>(report.points_from_memory());
    if (report.points_measured() != 0) tally.fail("traced resume measured points");
  }
  // Sequential replay of the planned steppers: times the fits alone.
  double measure_calls = 0.0;
  {
    const fs::path scratch = dir / "replay";
    dlap::ModelRepository repo(scratch);
    dlap::SampleStore journal(scratch / "samples");
    Spans::Scope s(spans, "modeler.replay");
    for (const dlap::ModelJob& job : jobs) {
      const dlap::ModelKey key = dlap::ModelService::key_for(job);
      const std::string engine_key = key.to_string();
      auto stepper = dlap::make_refinement_stepper(job.request.domain,
                                                   dlap::RefinementConfig{});
      while (!stepper->done()) {
        std::vector<dlap::SampleStats> stats;
        {
          Spans::Scope ms(spans, "sampler.measure");
          for (const auto& point : stepper->required()) {
            stats.push_back(measure(machine, job.request, point));
          }
        }
        measure_calls += static_cast<double>(stats.size());
        for (std::size_t p = 0; p < stats.size(); ++p) {
          Spans::Scope js(spans, "sampler.journal_append");
          journal.insert(engine_key, stepper->required()[p], stats[p]);
        }
        Spans::Scope fs_(spans, "modeler.fit");
        stepper->supply(stats);
      }
      dlap::GenerationResult gen = stepper->take_result();
      dlap::RoutineModel model;
      model.key = key;
      model.model = std::move(gen.model);
      model.unique_samples = gen.unique_samples;
      model.average_error = gen.average_error;
      model.strategy = "refinement";
      Spans::Scope rs(spans, "modeler.repo_store");
      repo.store(model);
    }
  }
  fs::remove_all(dir / "replay");
  double container_bytes = 0.0;
  {
    Spans::Scope s(spans, "storage.compact");
    container_bytes = static_cast<double>(dlap::storage::compact_repository(dir).bytes);
  }
  double models = 0.0, pieces = 0.0;
  {
    std::shared_ptr<const dlap::storage::ContainerReader> reader;
    for (int i = 0; i < 20; ++i) {
      Spans::Scope s(spans, "storage.open");
      reader = dlap::storage::ContainerReader::open(dir / "repository.dlapc");
    }
    for (std::size_t i = 0; i < reader->model_count(); ++i) {
      std::shared_ptr<const dlap::RoutineModel> model;
      {
        Spans::Scope s(spans, "storage.model_load");
        model = reader->model(i).load();
      }
      models += 1.0;
      pieces += static_cast<double>(model->model.pieces().size());
    }
  }
  {
    dlap::Engine engine(serving_config(dir, in.system));
    for (int i = 0; i < 10; ++i) {
      Spans::Scope s(spans, "api.reload");
      if (!engine.reload().ok()) tally.fail("traced reload failed");
    }
  }

  // --- requests: a warm-up third, then untraced and traced requests ---
  // interleaved on one engine, so both see the same cache state and
  // their difference is the tracing overhead.
  const std::vector<Query>& queries = *in.queries;
  std::vector<std::string> raw;
  for (const std::size_t i : in.replay) raw.push_back(wire(queries[i]));
  const std::size_t warm = in.warm_replay ? in.replay.size() / 3 : 0;
  double hit_ratio = 0.0, source_calls = 0.0, unique_calls = 0.0, probes = 0.0;
  double untraced_us = 0.0, untraced_n = 0.0;
  {
    dlap::Engine engine(serving_config(dir, in.system));
    dlap::LruStats cache0;
    for (std::size_t k = 0; k < in.replay.size(); ++k) {
      if (k == warm) cache0 = engine.trace_cache_stats();
      const std::size_t q = in.replay[k];
      const bool traced = k >= warm && (k - warm) % 2 == 1;
      const auto t0 = Clock::now();
      const std::string body = serve_in_process(
          engine, queries[q], raw[k], traced ? &spans : nullptr, k + 1);
      if (k >= warm && !traced) {
        untraced_us += seconds_since(t0) * 1e6;
        untraced_n += 1.0;
      }
      if (in.ref != nullptr && body != in.ref->body[q]) {
        tally.fail("traced replay: query " + std::to_string(q) + " differs");
      } else {
        tally.ok();
      }
    }
    untraced_us /= std::max(1.0, untraced_n);
    const dlap::LruStats cache = engine.trace_cache_stats();
    const double hits = static_cast<double>(cache.hits - cache0.hits);
    const double misses = static_cast<double>(cache.misses - cache0.misses);
    hit_ratio = hits / std::max(1.0, hits + misses);

    // Layer probes over the replayed sweep points: trace, compile, and
    // evaluate against the models the engine resolved.
    std::set<std::tuple<std::string, int, index_t, index_t, index_t>> seen;
    for (const std::size_t q : in.replay) {
      for (const dlap::OperationSpec& spec : queries[q].specs()) {
        if (!seen.insert({spec.op, spec.variant, spec.m, spec.n, spec.blocksize}).second) {
          continue;
        }
        dlap::CallTrace trace;
        {
          Spans::Scope s(spans, "algorithms.trace");
          trace = spec.trace();
        }
        dlap::CompiledTrace compiled;
        {
          Spans::Scope s(spans, "predict.compile");
          compiled = dlap::CompiledTrace::compile(trace);
        }
        std::vector<std::shared_ptr<const dlap::RoutineModel>> pins;
        std::vector<const dlap::RoutineModel*> models_by_key;
        for (const dlap::CompiledKey& key : compiled.keys()) {
          pins.push_back(engine.service().find(dlap::ModelKey{
              dlap::routine_name(key.routine), in.system.backend,
              in.system.locality, key.flags}));
          models_by_key.push_back(pins.back().get());
        }
        {
          Spans::Scope s(spans, "predict.evaluate");
          (void)compiled.predict(models_by_key);
        }
        source_calls += static_cast<double>(compiled.source_calls());
        unique_calls += static_cast<double>(compiled.unique_calls());
        probes += 1.0;
      }
    }
  }
  spans.write(span_file);

  const auto t = spans.totals();
  const auto self = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.mean_self_us();
  };
  const auto total_ms = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_us / 1000.0;
  };
  const double stages = self("server.http_parse") + self("server.json_parse") +
                        self("server.bind") + self("api.query") +
                        self("server.render") + self("server.serialize");
  const auto request_it = t.find("request");
  const double traced_us = request_it == t.end()
                               ? 0.0
                               : request_it->second.total_us /
                                     static_cast<double>(request_it->second.count);
  std::printf("# traced: %zu spans over %zu requests and %.0f sweep points -> %s\n",
              spans.size(), in.replay.size(), probes, span_file.string().c_str());
  std::printf("# traced: stages %.1f us + transport %.1f us = served mean %.1f us\n",
              stages, in.served_mean_us - stages, in.served_mean_us);

  m.emplace_back("server.http_parse_us", "us", self("server.http_parse"));
  m.emplace_back("server.json_parse_us", "us", self("server.json_parse"));
  m.emplace_back("server.bind_us", "us", self("server.bind"));
  m.emplace_back("server.render_us", "us", self("server.render"));
  m.emplace_back("server.serialize_us", "us", self("server.serialize"));
  m.emplace_back("server.transport_us", "us", in.served_mean_us - stages);
  m.emplace_back("server.queue_peak", "count", in.queue_peak);
  m.emplace_back("api.query_us", "us", self("api.query"));
  m.emplace_back("api.trace_cache_hit_ratio", "ratio", hit_ratio);
  m.emplace_back("api.reload_ms", "ms", self("api.reload") / 1000.0);
  m.emplace_back("ops.plan_ms", "ms", total_ms("ops.plan"));
  m.emplace_back("ops.jobs", "count", static_cast<double>(jobs.size()));
  m.emplace_back("algorithms.trace_us", "us", self("algorithms.trace"));
  m.emplace_back("predict.compile_us", "us", self("predict.compile"));
  m.emplace_back("predict.source_calls", "count", source_calls / std::max(1.0, probes));
  m.emplace_back("predict.unique_calls", "count", unique_calls / std::max(1.0, probes));
  m.emplace_back("predict.evaluate_us", "us", self("predict.evaluate"));
  m.emplace_back("modeler.fit_ms", "ms", total_ms("modeler.fit"));
  m.emplace_back("modeler.repo_store_ms", "ms", total_ms("modeler.repo_store"));
  m.emplace_back("modeler.models", "count", models);
  m.emplace_back("modeler.pieces", "count", pieces);
  m.emplace_back("sampler.measure_calls", "count", measure_calls);
  m.emplace_back("sampler.journal_append_us", "us", self("sampler.journal_append"));
  m.emplace_back("service.prepare_s", "s", total_ms("service.prepare") / 1000.0);
  m.emplace_back("service.points_from_memory", "count", from_memory);
  m.emplace_back("service.points_from_disk", "count", from_disk);
  m.emplace_back("service.points_joined", "count", joined);
  m.emplace_back("service.batches", "count", batches);
  m.emplace_back("storage.compact_ms", "ms", total_ms("storage.compact"));
  m.emplace_back("storage.container_bytes", "bytes", container_bytes);
  m.emplace_back("storage.open_us", "us", self("storage.open"));
  m.emplace_back("storage.model_load_us", "us", self("storage.model_load"));
  m.emplace_back("trace.overhead_us", "us", traced_us - untraced_us);
  return m;
}

/// Log-spaced latency histogram, with the buckets holding p50 and p90
/// marked, so a percentile falling between two modes shows.
void print_histogram(const char* label, std::vector<double> us) {
  if (us.empty()) return;
  std::sort(us.begin(), us.end());
  const double p50 = dlap::quantile(us, 0.5), p90 = dlap::quantile(us, 0.9);
  const double lo = std::max(1.0, us.front()), hi = std::max(lo * 1.01, us.back());
  constexpr int kBuckets = 24;
  std::vector<std::size_t> count(kBuckets, 0);
  const double step = std::log(hi / lo) / kBuckets;
  const auto bucket = [&](double v) {
    const int b = static_cast<int>(std::log(std::max(v, lo) / lo) / step);
    return std::clamp(b, 0, kBuckets - 1);
  };
  for (const double v : us) ++count[static_cast<std::size_t>(bucket(v))];
  const std::size_t peak = *std::max_element(count.begin(), count.end());
  std::printf("# %s latency histogram (%zu requests, us)\n", label, us.size());
  for (int b = 0; b < kBuckets; ++b) {
    const double from = lo * std::exp(step * b);
    const int bar = static_cast<int>(50.0 * static_cast<double>(count[static_cast<std::size_t>(b)]) /
                                     static_cast<double>(peak));
    std::printf("#   %9.1f %7zu %-50s%s%s\n", from, count[static_cast<std::size_t>(b)],
                std::string(static_cast<std::size_t>(bar), '#').c_str(),
                bucket(p50) == b ? " <p50" : "", bucket(p90) == b ? " <p90" : "");
  }
}

// ------------------------------------------------------------------ run

/// The fixture builds of a run: the first is served, every later one
/// must generate the same points and models (the self-check).
struct Fixture {
  std::vector<dlap::OperationSpec> specs;
  std::vector<double> seconds;
  index_t points = 0;
  std::size_t bytes = 0;
  std::string raw, content;
  int rebuilds = 0, raw_differs = 0;

  void build(const fs::path& dir, Tally& tally) {
    const Build b = build_repository(dir, specs, system_a(), machine_a());
    if (!b.error.empty()) {
      tally.fail("fixture: " + b.error);
      return;
    }
    seconds.push_back(b.seconds);
    const fs::path file = dir / "repository.dlapc";
    std::string now_raw = read_file(file);
    std::string now_content = canonical_content(file);
    if (seconds.size() == 1) {
      points = b.points;
      bytes = now_raw.size();
      raw = std::move(now_raw);
      content = std::move(now_content);
      tally.ok();
      return;
    }
    ++rebuilds;
    raw_differs += now_raw != raw ? 1 : 0;
    if (b.points != points || now_content != content) {
      tally.fail("fixture self-check: a rebuild differs (gen_points " +
                 std::to_string(b.points) + " vs " + std::to_string(points) + ")");
    } else {
      tally.ok();
    }
  }
};

/// What one round measured: a dlapd spawn answering the warm-up set,
/// then the round's share of the timed traffic.
struct Round {
  double steal = 0.0;      ///< host steal share over the round
  double fixture_s = 0.0;  ///< serve_*: the round's fixture build
  double setup_s = 0.0;
  double seconds = 0.0;  ///< timed traffic
  double cpu_us = 0.0;   ///< dlapd CPU over the timed traffic
  double rss_mib = 0.0;
  std::uint64_t answered = 0;
  std::vector<double> latency_us;

  [[nodiscard]] double qps() const { return seconds > 0 ? answered / seconds : 0.0; }
  [[nodiscard]] double cpu_per_req() const { return answered ? cpu_us / answered : 0.0; }
  [[nodiscard]] double quantile_ms(double q) const {
    return latency_us.empty() ? 0.0 : dlap::quantile(latency_us, q) / 1000.0;
  }
};

/// Moves the answers the books gathered since the last call into `round`.
void collect(std::vector<Book>& books, Round& round) {
  for (Book& b : books) {
    round.latency_us.insert(round.latency_us.end(), b.latency_us.begin(),
                            b.latency_us.end());
    round.answered += b.answered;
    b.latency_us.clear();
    b.answered = 0;
  }
}

/// Spawns dlapd on `live` and answers the warm-up set once over one
/// connection; the time from spawn to the last answer is set-up time.
std::unique_ptr<Daemon> spawn(const fs::path& live,
                              const std::vector<Query>& hot, Book& book,
                              Tally& tally, double* setup_s) {
  std::vector<std::size_t> order(hot.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(DLAPBENCH_DLAPD, live);
  {
    dlap::server::HttpClient client("127.0.0.1", daemon->port());
    answer_in_order(client, hot, order, book, tally);
  }
  *setup_s = seconds_since(t0);
  return daemon;
}

int run(const Options& opt) {
  const HostCpu host0 = HostCpu::now();
  // Wall time per phase of the run, printed with the report.
  std::string phases;
  auto last_mark = Clock::now();
  const auto mark = [&](const char* phase) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.2f s", phase, seconds_since(last_mark));
    phases += buf;
    last_mark = Clock::now();
  };
  const bool generate = opt.workload == "generate";
  Tally tally;
  fs::remove_all(opt.workdir);
  fs::create_directories(opt.workdir);

  const dlap::SystemSpec sys_a = system_a();
  const std::vector<Query> hot = hot_set(sys_a);
  const std::vector<Query>& traffic = hot;
  Fixture fixture;
  fixture.specs = specs_of(hot);
  const fs::path pristine = opt.workdir / "fixture-0" / "repository.dlapc";
  const fs::path live = opt.workdir / "live";
  const fs::path b_ref = opt.workdir / "b-ref";
  const double round_s = opt.seconds / kRounds;

  // Per round: (serve_*) a fixture build, timed as gen_s and checked
  // against the first; a dlapd spawn answering the warm-up set, timed as
  // set-up; then the round's share of the timed traffic.
  std::vector<Round> rounds(kRounds);
  std::vector<Book> warm_books;
  std::vector<Book> books(kConnections, Book(generate ? 0 : traffic.size()));
  std::vector<Tally> tallies(kConnections);
  double queue_peak = 0.0, cache_hits = 0.0, cache_misses = 0.0;
  std::vector<double> cycle_gen_s;
  std::vector<int> cycle_round;
  index_t b_points = -1;
  std::vector<Query> b_queries;  // cycle 0's accuracy set
  dlap::Rng order_rng(opt.seed);
  int cycle = 0;
  for (int r = 0; r < kRounds; ++r) {
    Round& round = rounds[static_cast<std::size_t>(r)];
    const HostCpu round_cpu0 = HostCpu::now();
    // --- fixture: every round for serve_*, twice up front for generate --
    if (r == 0 || !generate) {
      const fs::path dir = opt.workdir / ("fixture-" + std::to_string(r));
      fixture.build(dir, tally);
      if (!fixture.seconds.empty()) round.fixture_s = fixture.seconds.back();
      if (r == 0 && generate) fixture.build(opt.workdir / "fixture-check", tally);
      if (fixture.seconds.empty()) {
        std::fprintf(stderr, "dlapbench: no fixture could be built\n");
        return 1;
      }
      if (r == 0) {
        fs::create_directories(live);
        install_copy(pristine, live / "repository.dlapc");
      } else {
        fs::remove_all(dir);
      }
      fs::remove_all(opt.workdir / "fixture-check");
    }
    // --- set-up -----------------------------------------------------------
    warm_books.emplace_back(hot.size());
    auto daemon = spawn(live, hot, warm_books.back(), tally, &round.setup_s);
    const auto stats0 = get_stats(daemon->port());
    // --- timed traffic ----------------------------------------------------
    if (!generate) {
      const Window w = closed_loop(*daemon, traffic, opt.seed, r, round_s, books, tallies);
      round.seconds = w.seconds;
      round.cpu_us = w.cpu_us;
    } else {
      double completed = stats0 ? json_path(*stats0, {"reload", "completed"}) : 0.0;
      double used = 0.0;
      while (used < round_s && cycle < 1000) {
        install_copy(pristine, live / "repository.dlapc");
        const dlap::SystemSpec sys_b = system_b(cycle);
        const std::vector<Query> qs = accuracy_set(sys_b);
        if (cycle == 0) {
          b_queries = qs;
          books.assign(kConnections, Book(qs.size()));
        }
        std::vector<std::size_t> order(qs.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[static_cast<std::size_t>(order_rng.uniform_int(
                                      0, static_cast<index_t>(i) - 1))]);
        }
        const auto t0 = Clock::now();
        const Build build = build_repository(live, specs_of(qs), sys_b, machine_b());
        if (!build.error.empty()) {
          tally.fail("cycle " + std::to_string(cycle) + ": " + build.error);
          break;
        }
        if (!reload_daemon(daemon->port(), completed)) {
          tally.fail("cycle " + std::to_string(cycle) + ": reload failed");
          break;
        }
        completed += 1.0;
        tally.ok();
        // The first B answer ends gen_s; the rest of the set is answered
        // over both connections.
        const double cpu0 = daemon->cpu_us();
        const auto q0 = Clock::now();
        std::vector<std::unique_ptr<dlap::server::HttpClient>> clients;
        for (int c = 0; c < kConnections; ++c) {
          clients.push_back(
              std::make_unique<dlap::server::HttpClient>("127.0.0.1", daemon->port()));
        }
        answer_in_order(*clients[0], qs, {order[0]}, books[0], tally);
        cycle_gen_s.push_back(seconds_since(t0));
        cycle_round.push_back(r);
        std::vector<std::vector<std::size_t>> split(kConnections);
        for (std::size_t i = 1; i < order.size(); ++i) {
          split[(i - 1) % kConnections].push_back(order[i]);
        }
        std::vector<std::thread> threads;
        for (int c = 0; c < kConnections; ++c) {
          threads.emplace_back([&, c] {
            const auto u = static_cast<std::size_t>(c);
            answer_in_order(*clients[u], qs, split[u], books[u], tallies[u]);
          });
        }
        for (std::thread& t : threads) t.join();
        round.seconds += seconds_since(q0);
        round.cpu_us += daemon->cpu_us() - cpu0;
        used += seconds_since(t0);
        if (cycle == 0) {
          b_points = build.points;
          fs::create_directories(b_ref);
          fs::copy_file(live / "repository.dlapc", b_ref / "repository.dlapc");
        } else if (build.points != b_points) {
          tally.fail("cycle " + std::to_string(cycle) + ": gen_points changed");
        }
        ++cycle;
      }
    }
    collect(books, round);
    if (const auto stats1 = get_stats(daemon->port())) {
      queue_peak = std::max(queue_peak, json_path(*stats1, {"queue", "peak"}));
      if (stats0) {
        cache_hits += json_path(*stats1, {"engine", "trace_cache", "hits"}) -
                      json_path(*stats0, {"engine", "trace_cache", "hits"});
        cache_misses += json_path(*stats1, {"engine", "trace_cache", "misses"}) -
                        json_path(*stats0, {"engine", "trace_cache", "misses"});
      }
    }
    round.rss_mib = daemon->peak_rss_mib();
    if (!daemon->stop()) tally.fail("dlapd did not exit cleanly");
    round.steal = HostCpu::now().steal_share_since(round_cpu0);
  }
  for (const Tally& t : tallies) {
    tally.attempted += t.attempted;
    tally.failed += t.failed;
    for (const std::string& n : t.notes) {
      if (tally.notes.size() < 8) tally.notes.push_back(n);
    }
  }
  mark("rounds");

  // --- checks, after the timed traffic -----------------------------------
  const Reference hot_ref = reference(live, sys_a, hot, machine_a(), tally);
  check_books(warm_books, hot_ref, tally);
  Reference ref;
  const std::vector<Query>& scored = generate ? b_queries : traffic;
  if (generate) {
    if (!b_queries.empty()) ref = reference(b_ref, system_b(0), b_queries, machine_b(), tally);
  } else {
    ref = hot_ref;
  }
  if (!scored.empty()) check_books(books, ref, tally);
  const Accuracy acc = scored.empty() ? Accuracy{} : score(scored, ref);
  mark("checks");

  // --- report -------------------------------------------------------------
  std::vector<std::size_t> kept(kRounds);
  std::iota(kept.begin(), kept.end(), std::size_t{0});
  std::stable_sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
    return rounds[a].steal < rounds[b].steal;
  });
  kept.resize(kKeptRounds);
  std::sort(kept.begin(), kept.end());
  const auto over_rounds = [&](auto fn) {
    std::vector<double> v;
    for (const std::size_t i : kept) v.push_back(fn(rounds[i]));
    return v;
  };
  const auto list = [](const std::vector<double>& v, double scale) {
    std::string out;
    char buf[32];
    for (const double x : v) {
      std::snprintf(buf, sizeof buf, " %.4g", x * scale);
      out += buf;
    }
    return out;
  };
  std::vector<double> latency_us;
  std::uint64_t answered = 0;
  double window_s = 0.0;
  for (const std::size_t i : kept) {
    const Round& round = rounds[i];
    latency_us.insert(latency_us.end(), round.latency_us.begin(), round.latency_us.end());
    answered += round.answered;
    window_s += round.seconds;
  }
  if (latency_us.empty()) latency_us.push_back(0.0);
  const double mean_us = std::accumulate(latency_us.begin(), latency_us.end(), 0.0) /
                         static_cast<double>(latency_us.size());
  const std::vector<double> setup_s = over_rounds([](const Round& x) { return x.setup_s; });
  const std::vector<double> qps = over_rounds([](const Round& x) { return x.qps(); });
  const std::vector<double> p50 = over_rounds([](const Round& x) { return x.quantile_ms(0.5); });
  const std::vector<double> p90 = over_rounds([](const Round& x) { return x.quantile_ms(0.9); });
  const std::vector<double> cpu = over_rounds([](const Round& x) { return x.cpu_per_req(); });
  const std::vector<double> rss = over_rounds([](const Round& x) { return x.rss_mib; });
  std::vector<double> gen_s;
  if (generate) {
    for (std::size_t c = 0; c < cycle_gen_s.size(); ++c) {
      const auto r = static_cast<std::size_t>(cycle_round[c]);
      if (std::binary_search(kept.begin(), kept.end(), r)) gen_s.push_back(cycle_gen_s[c]);
    }
  } else {
    gen_s = over_rounds([&](const Round& x) { return x.fixture_s; });
  }
  const double points = generate ? static_cast<double>(b_points) : static_cast<double>(fixture.points);

  std::printf("# fixture: %zu specs, %lld points, %zu bytes\n", fixture.specs.size(),
              static_cast<long long>(fixture.points), fixture.bytes);
  std::printf("# fixture self-check: equal gen_points and models in %d rebuilds; "
              "repository.dlapc bytes %s%s\n",
              fixture.rebuilds, fixture.raw_differs == 0 ? "identical" : "differ in ",
              fixture.raw_differs == 0
                  ? ""
                  : (std::to_string(fixture.raw_differs) +
                     " (same sample records, stored in another order)").c_str());
  if (generate) std::printf("# generate: %d cycles of %lld points each\n", cycle,
                            static_cast<long long>(b_points));
  std::printf("# %s seed %llu: %llu answers in %.3f s over %d kept rounds; pooled p50 %.4f ms, "
              "p90 %.4f ms, p99 %.4f ms (%zu samples), mean %.1f us\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(answered), window_s, kKeptRounds,
              dlap::quantile(latency_us, 0.5) / 1000.0, dlap::quantile(latency_us, 0.9) / 1000.0,
              dlap::quantile(latency_us, 0.99) / 1000.0, latency_us.size(), mean_us);
  std::printf("# kept rounds (least host steal):%s\n", [&] {
    std::string out;
    for (const std::size_t i : kept) out += " " + std::to_string(i);
    return out;
  }().c_str());
  std::printf("# per kept round: steal %%%s\n",
              list(over_rounds([](const Round& x) { return x.steal; }), 100.0).c_str());
  std::printf("# per kept round: set-up s%s\n", list(setup_s, 1.0).c_str());
  std::printf("# per kept round: qps%s\n", list(qps, 1.0).c_str());
  std::printf("# per kept round: p50 ms%s\n", list(p50, 1.0).c_str());
  std::printf("# per kept round: p90 ms%s\n", list(p90, 1.0).c_str());
  std::printf("# per kept round: cpu us/req%s\n", list(cpu, 1.0).c_str());
  std::printf("# gen_s samples: %zu, min %.4f median %.4f max %.4f s\n", gen_s.size(),
              gen_s.empty() ? 0.0 : *std::min_element(gen_s.begin(), gen_s.end()),
              gen_s.empty() ? 0.0 : median(gen_s),
              gen_s.empty() ? 0.0 : *std::max_element(gen_s.begin(), gen_s.end()));
  std::printf("# dlapd trace cache over the traffic: %.0f hits, %.0f misses; queue peak %.0f\n",
              cache_hits, cache_misses, queue_peak);
  std::printf("# accuracy over %zu candidates, %zu ranks, %zu tunes\n", acc.candidates,
              acc.ranks, acc.tunes);
  std::printf("# fail_ratio %.6g (%llu of %llu)\n",
              tally.attempted ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) : 0.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const std::string& n : tally.notes) std::printf("# FAIL %s\n", n.c_str());

  Metrics metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"qps", "req/s", median(qps)},
        {"p50_ms", "ms", median(p50)},
        {"p90_ms", "ms", median(p90)},
        {"cpu_us_per_req", "us", median(cpu)},
        {"rss_mb", "MiB", median(rss)},
        {"gen_s", "s", gen_s.empty() ? 0.0 : median(gen_s)},
        {"gen_points", "count", points},
        {"pred_err_p50", "ratio", acc.err_p50},
        {"pred_err_p90", "ratio", acc.err_p90},
        {"rank_hit", "ratio", acc.rank_hit},
        {"tune_cost_ratio", "ratio", acc.tune_cost_ratio},
    };
  } else {
    print_histogram(opt.workload.c_str(), latency_us);
    TraceInputs in;
    in.queries = &scored;
    in.ref = &ref;
    in.served_mean_us = mean_us;
    in.queue_peak = queue_peak;
    if (generate) {
      in.machine = &machine_b();
      in.system = system_b(0);
      in.gen_specs = specs_of(b_queries);
      in.base_container = pristine;
      in.warm_replay = false;  // dlapd answers every B query cold
      dlap::Rng rng(opt.seed);
      for (std::size_t i = 0; i < b_queries.size(); ++i) in.replay.push_back(i);
      for (std::size_t i = in.replay.size(); i > 1; --i) {
        std::swap(in.replay[i - 1], in.replay[static_cast<std::size_t>(
                                        rng.uniform_int(0, static_cast<index_t>(i) - 1))]);
      }
    } else {
      in.machine = &machine_a();
      in.system = sys_a;
      in.gen_specs = fixture.specs;
      // Round 0's connection sequences, interleaved as they arrived.
      std::vector<dlap::Rng> rngs;
      for (int t = 0; t < kConnections; ++t) rngs.emplace_back(connection_seed(opt.seed, 0, t));
      const std::size_t n = 6000;
      for (std::size_t k = 0; k < n; ++k) {
        in.replay.push_back(static_cast<std::size_t>(
            rngs[k % kConnections].uniform_int(0, static_cast<index_t>(traffic.size()) - 1)));
      }
    }
    const fs::path span_file =
        opt.workdir.parent_path() / ("spans-" + opt.workload + ".tsv");
    metrics = traced_layers(in, opt.workdir / "traced", span_file, tally);
    mark("traced");
  }
  std::printf("# timing:%s\n", phases.c_str());

  std::printf("# host steal %.2f%% over the run\n",
              100.0 * HostCpu::now().steal_share_since(host0));

  Json out_metrics = Json::object();
  for (const auto& [name, unit, value] : metrics) {
    out_metrics.set(name, Json::object()
                              .set("value", Json::number(value))
                              .set("unit", Json::string(unit)));
  }
  const Json result = Json::object()
                          .set("correct", Json::boolean(tally.failed == 0))
                          .set("attempted", Json::number(static_cast<index_t>(tally.attempted)))
                          .set("failed", Json::number(static_cast<index_t>(tally.failed)))
                          .set("metrics", std::move(out_metrics));
  fs::remove_all(opt.workdir);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: dlapbench --workload serve_hot|generate "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workdir.empty() ||
      (opt.workload != "serve_hot" && opt.workload != "generate")) {
    return usage();
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dlapbench: %s\n", e.what());
    return 1;
  }
}
