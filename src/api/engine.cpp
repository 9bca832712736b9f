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

std::shared_ptr<CompiledSweepPoint> Engine::make_point(
    std::shared_ptr<const CompiledTrace> compiled, const SystemSpec& system) {
  std::vector<int> ids;
  ids.reserve(compiled->keys().size());
  for (const CompiledKey& key : compiled->keys()) {
    // One interner probe per DISTINCT key of the trace, not per call --
    // and a heterogeneous one: no temporary ModelKey strings.
    ids.push_back(interner_.intern(ModelKeyRef{routine_name(key.routine),
                                               system.backend,
                                               system.locality, key.flags}));
  }
  return std::make_shared<CompiledSweepPoint>(std::move(compiled),
                                              std::move(ids));
}

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
  auto point = make_point(std::move(trace), system);
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
    const std::uint64_t version = model_version_.load(std::memory_order_acquire);

    // --- Fast path: reuse every snapshot still current at `version`. ---
    std::vector<std::size_t> stale;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (auto snap = points[i]->slots(version)) {
        (*slots)[i] = std::move(snap);
      } else {
        stale.push_back(i);
      }
    }
    if (stale.empty()) return {};

    // --- Gather the per-key parameter ranges the stale points need, ----
    // one Need per interned id, bounding boxes over UNIQUE entries only.
    // Compilation drops zero-size calls, so every key has an entry.
    struct Need {
      ModelKey key;
      Region needed;  // bounding box of the key's unique calls
      std::vector<index_t> lo, hi;
    };
    std::map<int, Need> needs;
    for (const std::size_t i : stale) {
      const CompiledTrace& trace = points[i]->trace();
      const std::vector<int>& ids = points[i]->ids();
      for (std::size_t k = 0; k < trace.keys().size(); ++k) {
        Need& need = needs[ids[k]];
        if (need.key.routine.empty()) {
          const CompiledKey& ck = trace.keys()[k];
          need.key = ModelKey{routine_name(ck.routine), system.backend,
                              system.locality, ck.flags};
        }
      }
      for (const CompiledCall& call : trace.entries()) {
        Need& need = needs[ids[static_cast<std::size_t>(call.key)]];
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
    for (auto& [id, need] : needs) need.needed = Region(need.lo, need.hi);

    // --- Phase A: satisfy from the engine cache, then the repository. ---
    std::map<int, std::shared_ptr<const RoutineModel>> resolved;
    {
      std::shared_lock<std::shared_mutex> lock(cache_mutex_);
      for (const auto& [id, need] : needs) {
        if (static_cast<std::size_t>(id) < cache_.size() &&
            covers_needed(cache_[static_cast<std::size_t>(id)].get(),
                          need.needed)) {
          resolved[id] = cache_[static_cast<std::size_t>(id)];
        }
      }
    }
    // Keys to generate: their ids, and the jobs that generate them.
    std::vector<int> to_generate;
    std::vector<ModelJob> jobs;
    std::vector<ModelJob> planned;  // planned on the first key to generate
    for (const auto& [id, need] : needs) {
      if (resolved.count(id) != 0) continue;
      std::shared_ptr<const RoutineModel> stored = service_.find(need.key);
      if (covers_needed(stored.get(), need.needed)) {
        resolved[id] = std::move(stored);
        continue;
      }
      if (!config_.generate_missing) {
        if (stored == nullptr) {
          return Status::error(StatusCode::MissingModel,
                               "no model for " + need.key.to_string() +
                                   " and on-demand generation is disabled");
        }
        return Status::error(
            StatusCode::UncoveredDomain,
            "stored model " + need.key.to_string() + " covers " +
                stored->model.domain().to_string() + " but the query needs " +
                need.needed.to_string() +
                " and on-demand generation is disabled");
      }
      if (planned.empty()) {
        // Over every point of the query, not only the stale ones, so a
        // regenerated domain covers the whole query.
        std::vector<const CompiledTrace*> traces;
        traces.reserve(points.size());
        for (const CompiledSweepPoint* point : points) {
          traces.push_back(&point->trace());
        }
        planned = plan_jobs(traces, system, config_.planning);
      }
      const auto it = std::find_if(
          planned.begin(), planned.end(), [&need = need](const ModelJob& j) {
            return ModelService::key_for(j) == need.key;
          });
      if (it == planned.end()) {
        return Status::error(StatusCode::InternalError,
                             "planner produced no job for " +
                                 need.key.to_string());
      }
      // The service grows a stored domain rather than replacing it.
      to_generate.push_back(id);
      jobs.push_back(*it);
    }

    // --- Phase B: generate what is missing, as one concurrent batch. --
    if (!jobs.empty()) {
      try {
        const auto models = service_.generate_all(jobs);
        for (std::size_t i = 0; i < to_generate.size(); ++i) {
          resolved[to_generate[i]] = models[i];
        }
      } catch (const std::exception& e) {
        return Status::error(StatusCode::GenerationFailed, e.what());
      }
    }

    // --- Phase C: verify coverage, warm the model cache, stamp slots. --
    // Every needed key is resolved by now; a key Phases A/B left out is a
    // broken invariant, which at() turns into an InternalError status.
    for (const auto& [id, need] : needs) {
      const RoutineModel* model = resolved.at(id).get();
      if (!covers_needed(model, need.needed)) {
        return Status::error(
            StatusCode::UncoveredDomain,
            "model " + need.key.to_string() + " covers " +
                model->model.domain().to_string() +
                " but the query needs " + need.needed.to_string());
      }
    }
    bool changed = false;
    {
      std::unique_lock<std::shared_mutex> lock(cache_mutex_);
      if (cache_.size() < interner_.size()) cache_.resize(interner_.size());
      for (const auto& [id, model] : resolved) {
        auto& slot = cache_[static_cast<std::size_t>(id)];
        if (slot == model) continue;  // same pointer: nothing to invalidate
        // Entries only ever widen: a concurrent resolve that satisfied a
        // narrower query from the repository must not shrink a wider
        // cached model.
        if (slot == nullptr ||
            (model->model.domain().dims() == slot->model.domain().dims() &&
             model->model.domain().covers(slot->model.domain()))) {
          slot = model;
          changed = true;
        }
      }
      // The bump happens under the SAME lock as the writes: any reader
      // that observes a changed entry through the lock also observes the
      // moved version, so its freshness re-check below cannot miss it.
      if (changed) model_version_.fetch_add(1, std::memory_order_acq_rel);
    }

    // --- Build the snapshots from the verified Phase A/B models. -------
    // Snapshots are stamped with the PRE-resolution version: when this
    // resolve (or a concurrent one) changed models, they self-expire and
    // the next query performs one cheap all-Phase-A refresh, then
    // stabilizes. Stamping the post-change version instead could mask a
    // concurrent generation's update forever.
    const bool version_moved =
        changed ||
        model_version_.load(std::memory_order_acquire) != version;
    for (const std::size_t i : stale) {
      const std::vector<int>& ids = points[i]->ids();
      auto snap = std::make_shared<ResolvedSlots>();
      snap->assign(ids.size(), version);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        snap->set(k, resolved.at(ids[k]));
      }
      // With a moved version this snapshot is only the base for the
      // upgrade pass below, which builds (and stores) the final one.
      if (!version_moved) points[i]->store_slots(snap);
      (*slots)[i] = std::move(snap);
    }

    // When some model changed (here or on a concurrent thread) while this
    // resolve was reading, the per-point results could mix model
    // generations within ONE query (e.g. a ranking comparing candidates
    // resolved before and after a regeneration). Upgrade every point's
    // slots in a single locked pass over the cache: a slot moves to the
    // cached model ONLY when that model covers the verified one's domain
    // (hence the point's needs) -- a concurrently generated model for a
    // disjoint range must not displace the model the point was verified
    // against.
    if (version_moved) {
      std::shared_lock<std::shared_mutex> lock(cache_mutex_);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::vector<int>& ids = points[i]->ids();
        const ResolvedSlots& base = *(*slots)[i];
        auto snap = std::make_shared<ResolvedSlots>();
        snap->assign(ids.size(), version);
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const auto id = static_cast<std::size_t>(ids[k]);
          std::shared_ptr<const RoutineModel> use = base.pins[k];
          if (id < cache_.size() && cache_[id] != nullptr &&
              cache_[id] != use &&
              cache_[id]->model.domain().dims() ==
                  use->model.domain().dims() &&
              cache_[id]->model.domain().covers(use->model.domain())) {
            use = cache_[id];
          }
          snap->set(k, std::move(use));
        }
        points[i]->store_slots(snap);
        (*slots)[i] = std::move(snap);
      }
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
      point = make_point(std::make_shared<const CompiledTrace>(
                             CompiledTrace::compile(query.trace)),
                         system);
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
    // (otherwise the key was satisfied from the engine cache / an
    // earlier run).
    report->keys.clear();
    std::set<int> seen;
    for (const CompiledSweepPoint* point : ptrs) {
      const std::vector<CompiledKey>& keys = point->trace().keys();
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (!seen.insert(point->ids()[k]).second) continue;
        PrepareReport::Key entry;
        entry.key = ModelKey{routine_name(keys[k].routine), sys.backend,
                             sys.locality, keys[k].flags};
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
    {
      std::unique_lock<std::shared_mutex> lock(cache_mutex_);
      for (auto& slot : cache_) slot.reset();
      // Same-lock bump as resolve(): every ResolvedSlots snapshot
      // stamped before this expires, so the next query per sweep point
      // re-resolves against the reloaded repository.
      model_version_.fetch_add(1, std::memory_order_acq_rel);
    }
    // The expired snapshots would pin the previous models until their
    // point is queried again or evicted. Take them out of the cached
    // points, and free them after the shard and point locks are dropped.
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
