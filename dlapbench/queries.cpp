#include "queries.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "server/handlers.hpp"
#include "server/json.hpp"

namespace dlapbench {

using dlap::index_t;
using dlap::OperationSpec;
using dlap::server::Json;

namespace {

/// The space one query set is drawn from.
struct QuerySpace {
  index_t n_lo, n_hi;            ///< trinv/chol sizes
  index_t mn_lo, mn_hi;          ///< sylv m and n
  index_t block_lo, block_hi;    ///< rank block sizes
  index_t tune_min, tune_max;    ///< points per tune sweep
  index_t sylv_min_candidates;   ///< schedules per sylv rank
  std::uint64_t seed;
  std::size_t count;
};

index_t draw8(dlap::Rng& rng, index_t lo, index_t hi) {
  return 8 * rng.uniform_int(lo / 8, hi / 8);
}

Json system_json(const dlap::SystemSpec& system) {
  return Json::object()
      .set("backend", Json::string(system.backend))
      .set("locality", Json::string(dlap::locality_name(system.locality)));
}

Query make_rank(std::vector<OperationSpec> candidates,
                const dlap::SystemSpec& system) {
  Query q;
  q.is_rank = true;
  Json list = Json::array();
  for (const OperationSpec& spec : candidates) {
    list.push_back(dlap::server::render_spec(spec));
  }
  q.rank.candidates = std::move(candidates);
  q.rank.system = system;
  q.path = "/v1/rank";
  q.body = Json::object()
               .set("candidates", std::move(list))
               .set("system", system_json(system))
               .dump();
  return q;
}

Query make_tune(OperationSpec spec, index_t lo, index_t hi, index_t step,
                const dlap::SystemSpec& system) {
  Query q;
  q.is_rank = false;
  Json body = dlap::server::render_spec(spec);
  body.set("lo", Json::number(lo))
      .set("hi", Json::number(hi))
      .set("step", Json::number(step))
      .set("system", system_json(system));
  q.tune.spec = std::move(spec);
  q.tune.lo = lo;
  q.tune.hi = hi;
  q.tune.step = step;
  q.tune.system = system;
  q.path = "/v1/tune";
  q.body = body.dump();
  return q;
}

/// Draws `space.count` distinct queries: rank or tune, and trinv, chol or
/// sylv, with equal odds. Sylv candidate lists and tune sweep lengths
/// vary, so per-request work spreads over a continuum instead of a few
/// separated modes.
std::vector<Query> draw(const QuerySpace& space,
                        const dlap::SystemSpec& system) {
  dlap::Rng rng(space.seed);
  std::vector<Query> out;
  std::set<std::string> seen;
  while (out.size() < space.count) {
    const bool rank = rng.uniform_int(0, 1) == 0;
    const int family = static_cast<int>(rng.uniform_int(0, 2));  // trinv, chol, sylv
    const index_t n = family == 2 ? draw8(rng, space.mn_lo, space.mn_hi)
                                  : draw8(rng, space.n_lo, space.n_hi);
    const index_t m = family == 2 ? draw8(rng, space.mn_lo, space.mn_hi) : 0;
    const char* op = family == 0 ? "trinv" : family == 1 ? "chol" : "sylv";
    const int variants = family == 0 ? 4 : family == 1 ? 3 : 16;
    Query q;
    if (rank) {
      const index_t b = std::min(draw8(rng, space.block_lo, space.block_hi),
                                 8 * (std::min(m == 0 ? n : m, n) / 16));
      std::vector<int> chosen;
      if (family == 2) {
        const index_t k = rng.uniform_int(space.sylv_min_candidates, 16);
        std::vector<int> all(16);
        for (int v = 0; v < 16; ++v) all[static_cast<std::size_t>(v)] = v + 1;
        for (index_t i = 0; i < k; ++i) {
          const index_t j = rng.uniform_int(i, 15);
          std::swap(all[static_cast<std::size_t>(i)],
                    all[static_cast<std::size_t>(j)]);
        }
        chosen.assign(all.begin(), all.begin() + k);
        std::sort(chosen.begin(), chosen.end());
      } else {
        for (int v = 1; v <= variants; ++v) chosen.push_back(v);
      }
      std::vector<OperationSpec> candidates;
      for (const int v : chosen) {
        candidates.push_back(OperationSpec::of(op, v, m, n, std::max<index_t>(8, b)));
      }
      q = make_rank(std::move(candidates), system);
    } else {
      const int variant = static_cast<int>(rng.uniform_int(1, variants));
      const index_t points = rng.uniform_int(space.tune_min, space.tune_max);
      const index_t step = 8;
      const index_t lo = 16;
      const index_t cap = std::min(m == 0 ? n : m, n) / 2;
      const index_t hi = std::min(lo + step * (points - 1), std::max(lo, 8 * (cap / 8)));
      q = make_tune(OperationSpec::of(op, variant, m, n, 64), lo, hi, step,
                    system);
    }
    if (seen.insert(q.body).second) out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

std::vector<OperationSpec> Query::specs() const {
  if (is_rank) return rank.candidates;
  std::vector<OperationSpec> out;
  for (index_t b = tune.lo; b <= tune.hi; b += tune.step) {
    OperationSpec spec = tune.spec;
    spec.blocksize = b;
    out.push_back(std::move(spec));
  }
  return out;
}

dlap::SystemSpec system_a() {
  return dlap::SystemSpec{"vma", dlap::Locality::InCache};
}

dlap::SystemSpec system_b(int cycle) {
  return dlap::SystemSpec{"vmb" + std::to_string(cycle),
                          dlap::Locality::OutOfCache};
}

std::vector<Query> hot_set(const dlap::SystemSpec& system) {
  return draw({96, 256, 64, 160, 16, 64, 4, 14, 4, 0x407u, 320}, system);
}

std::vector<Query> accuracy_set(const dlap::SystemSpec& system) {
  return draw({64, 384, 48, 256, 16, 96, 4, 12, 4, 0xacc0u, 120}, system);
}

std::vector<OperationSpec> specs_of(const std::vector<Query>& queries) {
  std::vector<OperationSpec> out;
  std::set<std::tuple<std::string, int, index_t, index_t, index_t>> seen;
  for (const Query& q : queries) {
    for (OperationSpec& spec : q.specs()) {
      if (seen.insert({spec.op, spec.variant, spec.m, spec.n, spec.blocksize})
              .second) {
        out.push_back(std::move(spec));
      }
    }
  }
  return out;
}

}  // namespace dlapbench
