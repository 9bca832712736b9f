#include "api/engine.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "ops/registry.hpp"
#include "predict/ranking.hpp"

namespace dlap {

namespace {

/// True when `model` exists and its domain covers `needed`.
bool covers_needed(const RoutineModel* model, const Region& needed) {
  return model != nullptr && model->model.domain().dims() == needed.dims() &&
         model->model.domain().covers(needed);
}

Status internal_error(const char* where, const std::exception& e) {
  return Status::error(StatusCode::InternalError,
                       std::string(where) + ": " + e.what());
}

/// Reads each point's stored prediction and hands out its stored text,
/// aliased onto the snapshot pointer moved out of `slots`: the result
/// keeps the snapshot alive at no extra refcount cost.
void take_predictions(
    const std::vector<std::shared_ptr<CompiledSweepPoint>>& points,
    std::vector<std::shared_ptr<const ResolvedSlots>>* slots,
    std::vector<Prediction>* predictions,
    std::vector<std::shared_ptr<const std::string>>* texts) {
  predictions->reserve(points.size());
  texts->reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::shared_ptr<const ResolvedSlots>& snap = (*slots)[i];
    const CompiledTrace& trace = points[i]->trace();
    predictions->push_back(snap->prediction(trace));
    const std::string* text = &snap->prediction_json(trace);
    texts->emplace_back(std::move(snap), text);
  }
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      compiled_traces_(static_cast<std::size_t>(
          std::max<index_t>(0, config_.trace_cache_capacity))),
      sweep_points_(compiled_traces_.capacity()),
      service_(config_.service) {}

// ------------------------------------------------------------ compilation

std::shared_ptr<CompiledSweepPoint> Engine::compile_spec(
    const OperationSpec& spec, const OperationDescriptor& family,
    const SystemSpec& system) {
  const index_t m = family.size_axes >= 2 ? spec.m : 0;
  const SweepPointKey key{{&family, spec.variant, m, spec.n, spec.blocksize},
                          system.backend,
                          system.locality};
  if (auto hit = sweep_points_.find(key)) return hit;
  std::shared_ptr<const CompiledTrace> trace = compiled_traces_.find(key.trace);
  if (trace == nullptr) {
    trace = std::make_shared<const CompiledTrace>(spec.compile());
    compiled_traces_.insert(key.trace, trace);
  }
  auto point = std::make_shared<CompiledSweepPoint>(std::move(trace));
  sweep_points_.insert(key, point);
  return point;
}

// ------------------------------------------------------------- resolution

Status Engine::resolve(
    const std::vector<const CompiledSweepPoint*>& points,
    const SystemSpec& system,
    std::vector<std::shared_ptr<const ResolvedSlots>>* slots) noexcept {
  try {
    slots->assign(points.size(), nullptr);
    const std::uint64_t version = service_.repository().version();

    // --- Fast path: every snapshot is still current at `version`. ------
    bool all_current = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      (*slots)[i] = points[i]->slots(version);
      if ((*slots)[i] == nullptr) all_current = false;
    }
    if (all_current) return {};

    // --- One Need per model key over EVERY point, so one query never ---
    // mixes models of a key: the bounding box of the key's unique calls.
    // Compilation drops zero-size calls, so every key has an entry. Needs
    // keep first-seen order, which is the order their jobs generate in.
    // need_of[i][k] is the Need of compiled key k of point i.
    struct Need {
      ModelKey key;
      Region needed;
      std::vector<index_t> lo, hi;
      std::shared_ptr<const RoutineModel> model;
    };
    std::vector<Need> needs;
    std::map<ModelKey, std::size_t> need_index;
    std::vector<std::vector<std::size_t>> need_of(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CompiledTrace& trace = points[i]->trace();
      for (const CompiledKey& ck : trace.keys()) {
        const auto [it, added] = need_index.emplace(
            ModelKey{routine_name(ck.routine), system.backend,
                     system.locality, ck.flags},
            needs.size());
        if (added) needs.push_back({it->first, {}, {}, {}, nullptr});
        need_of[i].push_back(it->second);
      }
      for (const CompiledCall& call : trace.entries()) {
        Need& need = needs[need_of[i][static_cast<std::size_t>(call.key)]];
        if (need.lo.empty()) {
          need.lo = call.sizes;
          need.hi = call.sizes;
        } else {
          for (std::size_t d = 0; d < need.lo.size(); ++d) {
            need.lo[d] = std::min(need.lo[d], call.sizes[d]);
            need.hi[d] = std::max(need.hi[d], call.sizes[d]);
          }
        }
      }
    }
    for (Need& need : needs) need.needed = Region(need.lo, need.hi);

    // --- Take each model from the repository, else plan its job. -------
    std::vector<Need*> to_generate;  // the Needs the jobs generate
    std::vector<ModelJob> jobs;
    std::vector<ModelJob> planned;  // planned on the first key to generate
    for (Need& need : needs) {
      const ModelKey& key = need.key;
      need.model = service_.find(key);
      if (covers_needed(need.model.get(), need.needed)) continue;
      if (!config_.generate_missing) {
        if (need.model == nullptr) {
          return Status::error(StatusCode::MissingModel,
                               "no model for " + key.to_string() +
                                   " and on-demand generation is disabled");
        }
        return Status::error(
            StatusCode::UncoveredDomain,
            "stored model " + key.to_string() + " covers " +
                need.model->model.domain().to_string() +
                " but the query needs " + need.needed.to_string() +
                " and on-demand generation is disabled");
      }
      if (planned.empty()) {
        std::vector<const CompiledTrace*> traces;
        traces.reserve(points.size());
        for (const CompiledSweepPoint* point : points) {
          traces.push_back(&point->trace());
        }
        planned = plan_jobs(traces, system, config_.planning);
      }
      const auto it = std::find_if(
          planned.begin(), planned.end(), [&key = key](const ModelJob& j) {
            return ModelService::key_for(j) == key;
          });
      if (it == planned.end()) {
        return Status::error(StatusCode::InternalError,
                             "planner produced no job for " +
                                 key.to_string());
      }
      // The service grows a stored domain rather than replacing it.
      to_generate.push_back(&need);
      jobs.push_back(*it);
    }

    // --- Generate what is missing, as one concurrent batch. ------------
    if (!jobs.empty()) {
      try {
        const auto models = service_.generate_all(jobs);
        for (std::size_t j = 0; j < to_generate.size(); ++j) {
          to_generate[j]->model = models[j];
        }
      } catch (const std::exception& e) {
        return Status::error(StatusCode::GenerationFailed, e.what());
      }
    }
    for (const Need& need : needs) {
      if (!covers_needed(need.model.get(), need.needed)) {
        return Status::error(
            StatusCode::UncoveredDomain,
            "model " + need.key.to_string() + " covers " +
                need.model->model.domain().to_string() +
                " but the query needs " + need.needed.to_string());
      }
    }

    // --- Give every point a snapshot of those models. A point whose ----
    // current snapshot pins exactly them keeps it, with its stored
    // prediction and text. New snapshots are stamped with the version
    // read BEFORE resolving: when a store or a reload moved it meanwhile
    // (this resolve's generation included), the next query resolves them
    // again. Stamping a later version could mark a snapshot current that
    // a concurrent store already made stale.
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::vector<std::size_t>& of = need_of[i];
      const ResolvedSlots* held = (*slots)[i].get();
      bool same = held != nullptr;
      for (std::size_t k = 0; same && k < of.size(); ++k) {
        same = held->pins[k] == needs[of[k]].model;
      }
      if (same) continue;
      auto snap = std::make_shared<ResolvedSlots>();
      snap->assign(of.size(), version);
      for (std::size_t k = 0; k < of.size(); ++k) {
        snap->set(k, needs[of[k]].model);
      }
      points[i]->store_slots(snap);
      (*slots)[i] = std::move(snap);
    }
    return {};
  } catch (const std::exception& e) {
    return internal_error("Engine::resolve", e);
  }
}

// ---------------------------------------------------------------- queries

Result<Prediction> Engine::predict(const PredictQuery& query) noexcept {
  try {
    const SystemSpec system = effective_system(query.system);
    std::shared_ptr<CompiledSweepPoint> point;
    if (query.spec.has_value()) {
      const OperationDescriptor* family = nullptr;
      if (Status s = query.spec->validate(&family); !s.ok()) return s;
      point = compile_spec(*query.spec, *family, system);
    } else {
      // Each call must match its routine's signature before compiling:
      // resolution and planning read every entry of a key at one arity.
      for (std::size_t i = 0; i < query.trace.size(); ++i) {
        try {
          validate_call(query.trace[i]);
        } catch (const invalid_argument_error& e) {
          return Status::error(StatusCode::InvalidQuery,
                               "trace call " + std::to_string(i) + ": " +
                                   e.what());
        }
      }
      point = std::make_shared<CompiledSweepPoint>(
          std::make_shared<const CompiledTrace>(
              CompiledTrace::compile(query.trace)));
    }
    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    if (Status s = resolve({point.get()}, system, &slots); !s.ok()) {
      return s;
    }
    return slots[0]->prediction(point->trace());
  } catch (const std::exception& e) {
    return internal_error("Engine::predict", e);
  }
}

Result<Ranking> Engine::rank(const RankQuery& query) noexcept {
  try {
    if (query.candidates.empty()) {
      return Status::error(StatusCode::InvalidQuery,
                           "rank: empty candidate set");
    }
    const SystemSpec system = effective_system(query.system);
    std::vector<std::shared_ptr<CompiledSweepPoint>> points;
    points.reserve(query.candidates.size());
    for (const OperationSpec& spec : query.candidates) {
      const OperationDescriptor* family = nullptr;
      if (Status s = spec.validate(&family); !s.ok()) return s;
      points.push_back(compile_spec(spec, *family, system));
    }
    std::vector<const CompiledSweepPoint*> ptrs;
    ptrs.reserve(points.size());
    for (const auto& p : points) ptrs.push_back(p.get());

    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    if (Status s = resolve(ptrs, system, &slots); !s.ok()) {
      return s;
    }

    Ranking out;
    out.candidates = query.candidates;
    take_predictions(points, &slots, &out.predictions, &out.prediction_json);
    out.order = rank_order(out.median_ticks());
    return out;
  } catch (const std::exception& e) {
    return internal_error("Engine::rank", e);
  }
}

Result<TuneResult> Engine::tune(const TuneQuery& query) noexcept {
  try {
    if (query.lo < 1 || query.step < 1 || query.hi < query.lo) {
      return Status::error(StatusCode::InvalidQuery,
                           "tune: sweep must satisfy 1 <= lo <= hi, "
                           "step >= 1");
    }
    // The bounds may come straight from a request body: count the points
    // before tracing any, and step by index so no blocksize overflows.
    const index_t count = (query.hi - query.lo) / query.step + 1;
    if (count > TuneQuery::kMaxPoints) {
      return Status::error(
          StatusCode::InvalidQuery,
          "tune: sweep lo=" + std::to_string(query.lo) +
              ", hi=" + std::to_string(query.hi) +
              ", step=" + std::to_string(query.step) + " has " +
              std::to_string(count) + " points, more than the " +
              std::to_string(TuneQuery::kMaxPoints) + " allowed");
    }
    const SystemSpec system = effective_system(query.system);
    TuneResult out;
    std::vector<std::shared_ptr<CompiledSweepPoint>> points;
    for (index_t i = 0; i < count; ++i) {
      OperationSpec spec = query.spec;
      spec.blocksize = query.lo + i * query.step;
      const OperationDescriptor* family = nullptr;
      if (Status s = spec.validate(&family); !s.ok()) return s;
      out.values.push_back(spec.blocksize);
      points.push_back(compile_spec(spec, *family, system));
    }
    std::vector<const CompiledSweepPoint*> ptrs;
    ptrs.reserve(points.size());
    for (const auto& p : points) ptrs.push_back(p.get());

    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    if (Status s = resolve(ptrs, system, &slots); !s.ok()) {
      return s;
    }

    take_predictions(points, &slots, &out.predictions, &out.prediction_json);
    out.best_index = static_cast<index_t>(rank_order(out.median_ticks())[0]);
    return out;
  } catch (const std::exception& e) {
    return internal_error("Engine::tune", e);
  }
}

Result<SampleStats> Engine::predict_call(
    const std::string& call_text, std::optional<SystemSpec> system) noexcept {
  try {
    KernelCall call;
    try {
      call = parse_call(call_text);
    } catch (const parse_error& e) {
      return Status::error(StatusCode::ParseError, e.what());
    } catch (const lookup_error& e) {
      // An unknown routine name is malformed text, as in bind_predict.
      return Status::error(StatusCode::ParseError, e.what());
    } catch (const invalid_argument_error& e) {
      return Status::error(StatusCode::InvalidQuery, e.what());
    }
    PredictQuery query;
    query.trace = CallTrace{std::move(call)};
    query.system = system;
    Result<Prediction> p = predict(query);
    if (!p.ok()) return p.status();
    return p->ticks;
  } catch (const std::exception& e) {
    return internal_error("Engine::predict_call", e);
  }
}

Status Engine::prepare(const std::vector<OperationSpec>& specs,
                       std::optional<SystemSpec> system,
                       PrepareReport* report) noexcept {
  try {
    const SystemSpec sys = effective_system(system);
    // Stats recorded after this stamp were caused by this call (the
    // service stamps every generate/reuse record with a fresh epoch).
    // The attribution is best-effort under concurrent engine use: a
    // record another thread stamps while this prepare runs (overlapping
    // prepare, or on-demand generation of a shared key) is claimed by
    // whichever report reads it -- acceptable for a warm-up diagnostic.
    const std::uint64_t epoch0 = service_.stats_epoch();
    std::vector<std::shared_ptr<CompiledSweepPoint>> points;
    points.reserve(specs.size());
    for (const OperationSpec& spec : specs) {
      const OperationDescriptor* family = nullptr;
      if (Status s = spec.validate(&family); !s.ok()) return s;
      points.push_back(compile_spec(spec, *family, sys));
    }
    std::vector<const CompiledSweepPoint*> ptrs;
    ptrs.reserve(points.size());
    for (const auto& p : points) ptrs.push_back(p.get());

    std::vector<std::shared_ptr<const ResolvedSlots>> slots;
    Status status = resolve(ptrs, sys, &slots);
    if (!status.ok() || report == nullptr) return status;

    // Per-key accounting: every key the points use, in first-seen order,
    // attributed to this call when its stats record is newer than epoch0
    // (otherwise the repository already held the key).
    report->keys.clear();
    std::set<ModelKey> seen;
    for (const CompiledSweepPoint* point : ptrs) {
      for (const CompiledKey& ck : point->trace().keys()) {
        PrepareReport::Key entry;
        entry.key = ModelKey{routine_name(ck.routine), sys.backend,
                             sys.locality, ck.flags};
        if (!seen.insert(entry.key).second) continue;
        if (const auto stats = service_.generation_stats(entry.key);
            stats.has_value() && stats->epoch > epoch0 && stats->generated) {
          entry.generated = true;
          entry.unique_samples = stats->unique_samples;
          entry.points_measured = stats->points_measured;
          entry.points_from_memory = stats->points_from_memory;
          entry.points_from_disk = stats->points_from_disk;
          entry.wall_ms = stats->wall_ms;
        }
        // Provenance of whatever model now serves the key (reused keys
        // included): text file, binary container, or this-process build.
        if (const auto model = service_.find(entry.key)) {
          entry.source = model->source;
        }
        report->keys.push_back(std::move(entry));
      }
    }
    return status;
  } catch (const std::exception& e) {
    return internal_error("Engine::prepare", e);
  }
}

Status Engine::reload(const std::vector<OperationSpec>& specs,
                      std::optional<SystemSpec> system,
                      PrepareReport* report) noexcept {
  try {
    service_.reload_container();
  } catch (const std::exception& e) {
    // Corrupt/unreadable container file: serving continues on the
    // previous attachment, but the operator must know the swap failed.
    return Status::error(StatusCode::InternalError,
                         std::string("Engine::reload: ") + e.what());
  }
  try {
    // reload_container dropped the repository's model cache, which moved
    // its version: every snapshot stamped before expired, so the next
    // query per sweep point re-resolves against the reloaded repository.
    // The expired snapshots would still pin the previous models until
    // their point is queried again or evicted. Take them out of the
    // cached points, and free them after the shard and point locks are
    // dropped.
    std::vector<std::shared_ptr<const ResolvedSlots>> expired;
    sweep_points_.for_each([&expired](const CompiledSweepPoint& point) {
      if (auto slots = point.take_slots()) expired.push_back(std::move(slots));
    });
    expired.clear();
    if (!specs.empty()) return prepare(specs, system, report);
    return {};
  } catch (const std::exception& e) {
    return internal_error("Engine::reload", e);
  }
}

index_t PrepareReport::keys_generated() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.generated ? 1 : 0;
  return n;
}

index_t PrepareReport::keys_reused() const noexcept {
  return static_cast<index_t>(keys.size()) - keys_generated();
}

index_t PrepareReport::keys_from_container() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.from_container() ? 1 : 0;
  return n;
}

index_t PrepareReport::points_measured() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.points_measured;
  return n;
}

index_t PrepareReport::points_from_memory() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.points_from_memory;
  return n;
}

index_t PrepareReport::points_from_disk() const noexcept {
  index_t n = 0;
  for (const Key& k : keys) n += k.points_from_disk;
  return n;
}

}  // namespace dlap
