#include "server/handlers.hpp"

#include <functional>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <utility>

#include "common/number_text.hpp"
#include "sampler/calls.hpp"

namespace dlap::server {

namespace {

Status field_error(const std::string& where, const std::string& field,
                   const std::string& what) {
  return Status::error(StatusCode::ParseError,
                       where + ": field '" + field + "': " + what);
}

/// Optional integer field with a default; errors name the field.
Status bind_int(const Json& object, const std::string& where,
                const std::string& field, index_t fallback, index_t* out,
                const std::string& field_prefix = "") {
  const Json* value = object.find(field);
  if (value == nullptr) {
    *out = fallback;
    return {};
  }
  if (!value->is_integer()) {
    return field_error(where, field_prefix + field, "expected an integer");
  }
  *out = value->as_integer();
  return {};
}

/// Rejects members outside `allowed` so a typo ("blocksise") fails loudly
/// naming the unknown field instead of silently applying a default.
Status reject_unknown_fields(const Json& object, const std::string& where,
                             std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object.members()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) return field_error(where, key, "unknown field");
  }
  return {};
}

Json render_median_order(const std::vector<index_t>& order) {
  Json out = Json::array();
  for (const index_t i : order) out.push_back(Json::number(i));
  return out;
}

/// Appends `key`, which carries the punctuation before it, and the text
/// of `v` as a JSON number: integers print as the double they convert
/// to, as Json::number(index_t) stores them.
void write_field(std::string_view key, double v, std::string* out) {
  out->append(key);
  append_number(v, out);
}

void write_indices(const std::vector<index_t>& values, std::string* out) {
  out->push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out->push_back(',');
    append_number(static_cast<double>(values[i]), out);
  }
  out->push_back(']');
}

/// The predictions array: stored text where the result carries it.
void write_predictions(
    const std::vector<Prediction>& predictions,
    const std::vector<std::shared_ptr<const std::string>>& stored,
    std::string* out) {
  out->push_back('[');
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (i != 0) out->push_back(',');
    if (i < stored.size() && stored[i] != nullptr) {
      out->append(*stored[i]);
    } else {
      write_prediction(predictions[i], out);
    }
  }
  out->push_back(']');
}

HttpResponse run_bound(const Status& bound,
                       const std::function<HttpResponse()>& run) {
  if (!bound.ok()) return Router::status_response(bound);
  return run();
}

/// Parses the request body as a JSON object ({} for an empty body when
/// `allow_empty`); a ParseError Status carries the json:<offset> message.
Status parse_body(const HttpRequest& request, bool allow_empty, Json* out) {
  if (request.body.empty()) {
    if (allow_empty) {
      *out = Json::object();
      return {};
    }
    return Status::error(StatusCode::ParseError,
                         "empty request body; expected a JSON object");
  }
  try {
    *out = Json::parse(request.body);
  } catch (const parse_error& e) {
    return Status::error(StatusCode::ParseError, e.what());
  }
  if (!out->is_object()) {
    return Status::error(StatusCode::ParseError,
                         "request body must be a JSON object");
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------- binding

Status bind_spec(const Json& json, const std::string& where,
                 const std::string& field_prefix, OperationSpec* out) {
  if (!json.is_object()) {
    return field_error(where, field_prefix.empty() ? "op" : field_prefix,
                       "expected an operation object");
  }
  for (const auto& [key, value] : json.members()) {
    if (key != "op" && key != "variant" && key != "m" && key != "n" &&
        key != "blocksize") {
      return field_error(where, field_prefix + key, "unknown field");
    }
  }
  const Json* op = json.find("op");
  if (op == nullptr) return field_error(where, field_prefix + "op", "required");
  if (!op->is_string()) {
    return field_error(where, field_prefix + "op", "expected a string");
  }
  index_t variant = 0, m = 0, n = 0, blocksize = 0;
  if (Status s = bind_int(json, where, "variant", 1, &variant, field_prefix);
      !s.ok()) {
    return s;
  }
  if (Status s = bind_int(json, where, "m", 0, &m, field_prefix); !s.ok()) {
    return s;
  }
  if (Status s = bind_int(json, where, "n", 0, &n, field_prefix); !s.ok()) {
    return s;
  }
  if (Status s =
          bind_int(json, where, "blocksize", 64, &blocksize, field_prefix);
      !s.ok()) {
    return s;
  }
  if (variant < std::numeric_limits<int>::min() ||
      variant > std::numeric_limits<int>::max()) {
    return field_error(where, field_prefix + "variant",
                       "integer out of range");
  }
  *out = OperationSpec::of(op->as_string(), static_cast<int>(variant), m, n,
                           blocksize);
  return {};
}

Status bind_system(const Json* json, const std::string& where,
                   std::optional<SystemSpec>* out) {
  if (json == nullptr || json->is_null()) {
    out->reset();
    return {};
  }
  if (!json->is_object()) {
    return field_error(where, "system", "expected an object");
  }
  if (Status s =
          reject_unknown_fields(*json, where, {"backend", "locality"});
      !s.ok()) {
    return s;
  }
  SystemSpec system;
  if (const Json* backend = json->find("backend"); backend != nullptr) {
    if (!backend->is_string()) {
      return field_error(where, "system.backend", "expected a string");
    }
    system.backend = backend->as_string();
  }
  if (const Json* locality = json->find("locality"); locality != nullptr) {
    if (!locality->is_string()) {
      return field_error(where, "system.locality",
                         "expected 'in_cache' or 'out_of_cache'");
    }
    try {
      system.locality = locality_from_name(locality->as_string());
    } catch (const parse_error&) {
      return field_error(where, "system.locality",
                         "'" + locality->as_string() +
                             "' is not 'in_cache' or 'out_of_cache'");
    }
  }
  *out = std::move(system);
  return {};
}

Status bind_predict(const Json& body, PredictQuery* out) {
  const std::string where = "predict";
  if (Status s = reject_unknown_fields(
          body, where,
          {"op", "variant", "m", "n", "blocksize", "calls", "system"});
      !s.ok()) {
    return s;
  }
  if (Status s = bind_system(body.find("system"), where, &out->system);
      !s.ok()) {
    return s;
  }
  const Json* calls = body.find("calls");
  const bool has_spec = body.find("op") != nullptr;
  if (calls != nullptr && has_spec) {
    return field_error(where, "calls",
                       "give either an inline operation or 'calls', not both");
  }
  if (calls != nullptr) {
    if (!calls->is_array() || calls->size() == 0) {
      return field_error(where, "calls",
                         "expected a non-empty array of call strings");
    }
    CallTrace trace;
    for (std::size_t i = 0; i < calls->size(); ++i) {
      const std::string element = "calls[" + std::to_string(i) + "]";
      if (!calls->at(i).is_string()) {
        return field_error(where, element, "expected a call string");
      }
      try {
        trace.push_back(parse_call(calls->at(i).as_string()));
      } catch (const parse_error& e) {
        return field_error(where, element, e.what());
      } catch (const lookup_error& e) {
        // Unknown routine names surface as lookup_error from the call
        // registry; they are the client's problem, not a 500.
        return field_error(where, element, e.what());
      } catch (const invalid_argument_error& e) {
        return field_error(where, element, e.what());
      }
    }
    out->spec.reset();
    out->trace = std::move(trace);
    return {};
  }
  OperationSpec spec;
  // Strip predict-only fields before spec binding so its unknown-field
  // check stays strict.
  Json spec_json = Json::object();
  for (const char* field : {"op", "variant", "m", "n", "blocksize"}) {
    if (const Json* value = body.find(field); value != nullptr) {
      spec_json.set(field, *value);
    }
  }
  if (Status s = bind_spec(spec_json, where, "", &spec); !s.ok()) return s;
  out->spec = std::move(spec);
  out->trace = {};
  return {};
}

Status bind_rank(const Json& body, RankQuery* out) {
  const std::string where = "rank";
  if (Status s = reject_unknown_fields(body, where, {"candidates", "system"});
      !s.ok()) {
    return s;
  }
  if (Status s = bind_system(body.find("system"), where, &out->system);
      !s.ok()) {
    return s;
  }
  const Json* candidates = body.find("candidates");
  if (candidates == nullptr) {
    return field_error(where, "candidates", "required");
  }
  if (!candidates->is_array() || candidates->size() == 0) {
    return field_error(where, "candidates",
                       "expected a non-empty array of operation objects");
  }
  out->candidates.clear();
  for (std::size_t i = 0; i < candidates->size(); ++i) {
    OperationSpec spec;
    if (Status s = bind_spec(candidates->at(i), where,
                             "candidates[" + std::to_string(i) + "].", &spec);
        !s.ok()) {
      return s;
    }
    out->candidates.push_back(std::move(spec));
  }
  return {};
}

Status bind_tune(const Json& body, TuneQuery* out) {
  const std::string where = "tune";
  if (Status s = reject_unknown_fields(body, where,
                                       {"op", "variant", "m", "n",
                                        "blocksize", "lo", "hi", "step",
                                        "system"});
      !s.ok()) {
    return s;
  }
  if (Status s = bind_system(body.find("system"), where, &out->system);
      !s.ok()) {
    return s;
  }
  Json spec_json = Json::object();
  for (const char* field : {"op", "variant", "m", "n", "blocksize"}) {
    if (const Json* value = body.find(field); value != nullptr) {
      spec_json.set(field, *value);
    }
  }
  if (Status s = bind_spec(spec_json, where, "", &out->spec); !s.ok()) {
    return s;
  }
  const TuneQuery defaults;
  if (Status s = bind_int(body, where, "lo", defaults.lo, &out->lo); !s.ok()) {
    return s;
  }
  if (Status s = bind_int(body, where, "hi", defaults.hi, &out->hi); !s.ok()) {
    return s;
  }
  if (Status s = bind_int(body, where, "step", defaults.step, &out->step);
      !s.ok()) {
    return s;
  }
  return {};
}

Status bind_reload(const Json& body, std::vector<OperationSpec>* specs,
                   std::optional<SystemSpec>* system) {
  const std::string where = "reload";
  if (Status s = reject_unknown_fields(body, where, {"specs", "system"});
      !s.ok()) {
    return s;
  }
  if (Status s = bind_system(body.find("system"), where, system); !s.ok()) {
    return s;
  }
  specs->clear();
  const Json* list = body.find("specs");
  if (list == nullptr) return {};
  if (!list->is_array()) {
    return field_error(where, "specs",
                       "expected an array of operation objects");
  }
  for (std::size_t i = 0; i < list->size(); ++i) {
    OperationSpec spec;
    if (Status s = bind_spec(list->at(i), where,
                             "specs[" + std::to_string(i) + "].", &spec);
        !s.ok()) {
      return s;
    }
    specs->push_back(std::move(spec));
  }
  return {};
}

// -------------------------------------------------------------- rendering

Json render_sample_stats(const SampleStats& stats) {
  return Json::object()
      .set("min", Json::number(stats.min))
      .set("median", Json::number(stats.median))
      .set("mean", Json::number(stats.mean))
      .set("max", Json::number(stats.max))
      .set("stddev", Json::number(stats.stddev))
      .set("count", Json::number(stats.count));
}

Json render_prediction(const Prediction& prediction) {
  return Json::object()
      .set("ticks", render_sample_stats(prediction.ticks))
      .set("flops", Json::number(prediction.flops))
      .set("calls", Json::number(prediction.calls))
      .set("skipped", Json::number(prediction.skipped))
      .set("missing", Json::number(prediction.missing));
}

Json render_spec(const OperationSpec& spec) {
  return Json::object()
      .set("op", Json::string(spec.op))
      .set("variant", Json::number(static_cast<index_t>(spec.variant)))
      .set("m", Json::number(spec.m))
      .set("n", Json::number(spec.n))
      .set("blocksize", Json::number(spec.blocksize));
}

Json render_ranking(const Ranking& ranking) {
  Json candidates = Json::array();
  for (const OperationSpec& spec : ranking.candidates) {
    candidates.push_back(render_spec(spec));
  }
  Json predictions = Json::array();
  for (const Prediction& p : ranking.predictions) {
    predictions.push_back(render_prediction(p));
  }
  return Json::object()
      .set("candidates", std::move(candidates))
      .set("predictions", std::move(predictions))
      .set("order", render_median_order(ranking.order))
      .set("best", Json::number(ranking.best()));
}

Json render_tune(const TuneResult& result) {
  Json values = Json::array();
  for (const index_t v : result.values) values.push_back(Json::number(v));
  Json predictions = Json::array();
  for (const Prediction& p : result.predictions) {
    predictions.push_back(render_prediction(p));
  }
  return Json::object()
      .set("values", std::move(values))
      .set("predictions", std::move(predictions))
      .set("best_index", Json::number(result.best_index))
      .set("best_value", Json::number(result.best_value()));
}

// ---------------------------------------------------------------- writing

void write_spec(const OperationSpec& spec, std::string* out) {
  out->append("{\"op\":");
  dump_string(spec.op, out);
  write_field(",\"variant\":", static_cast<double>(spec.variant), out);
  write_field(",\"m\":", static_cast<double>(spec.m), out);
  write_field(",\"n\":", static_cast<double>(spec.n), out);
  write_field(",\"blocksize\":", static_cast<double>(spec.blocksize), out);
  out->push_back('}');
}

void write_ranking(const Ranking& ranking, std::string* out) {
  out->append("{\"candidates\":[");
  for (std::size_t i = 0; i < ranking.candidates.size(); ++i) {
    if (i != 0) out->push_back(',');
    write_spec(ranking.candidates[i], out);
  }
  out->append("],\"predictions\":");
  write_predictions(ranking.predictions, ranking.prediction_json, out);
  out->append(",\"order\":");
  write_indices(ranking.order, out);
  write_field(",\"best\":", static_cast<double>(ranking.best()), out);
  out->push_back('}');
}

void write_tune(const TuneResult& result, std::string* out) {
  out->append("{\"values\":");
  write_indices(result.values, out);
  out->append(",\"predictions\":");
  write_predictions(result.predictions, result.prediction_json, out);
  write_field(",\"best_index\":", static_cast<double>(result.best_index),
              out);
  write_field(",\"best_value\":", static_cast<double>(result.best_value()),
              out);
  out->push_back('}');
}

// -------------------------------------------------------------- endpoints

HttpResponse handle_predict(Engine& engine, const HttpRequest& request) {
  Json body;
  if (Status s = parse_body(request, false, &body); !s.ok()) {
    return Router::status_response(s);
  }
  PredictQuery query;
  return run_bound(bind_predict(body, &query), [&] {
    const Result<Prediction> result = engine.predict(query);
    if (!result.ok()) return Router::status_response(result.status());
    std::string out;
    write_prediction(*result, &out);
    return Router::json_response(200, std::move(out));
  });
}

HttpResponse handle_rank(Engine& engine, const HttpRequest& request) {
  Json body;
  if (Status s = parse_body(request, false, &body); !s.ok()) {
    return Router::status_response(s);
  }
  RankQuery query;
  return run_bound(bind_rank(body, &query), [&] {
    const Result<Ranking> result = engine.rank(query);
    if (!result.ok()) return Router::status_response(result.status());
    std::string out;
    write_ranking(*result, &out);
    return Router::json_response(200, std::move(out));
  });
}

HttpResponse handle_tune(Engine& engine, const HttpRequest& request) {
  Json body;
  if (Status s = parse_body(request, false, &body); !s.ok()) {
    return Router::status_response(s);
  }
  TuneQuery query;
  return run_bound(bind_tune(body, &query), [&] {
    const Result<TuneResult> result = engine.tune(query);
    if (!result.ok()) return Router::status_response(result.status());
    std::string out;
    write_tune(*result, &out);
    return Router::json_response(200, std::move(out));
  });
}

}  // namespace dlap::server
