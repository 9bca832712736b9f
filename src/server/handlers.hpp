#pragma once
// JSON <-> typed-query binding for the dlapd endpoints.
//
// Request bodies map 1:1 onto the api layer's PredictQuery / RankQuery /
// TuneQuery; every binding error is a ParseError Status that names the
// offending field (e.g. "predict: field 'n': expected a positive
// integer"), and engine statuses map to HTTP through the api layer's
// kStatusHttpTable -- the server adds no status semantics of its own.
// The handle_* entry points are pure functions of (Engine, HttpRequest),
// so they are unit-testable without sockets or a running server.
//
// Answers are written straight into the response body by the write_*
// functions, with no Json tree, and rank/tune answers splice the
// prediction text their snapshots stored (api/trace_cache.hpp). The
// render_* functions build the same answers as Json trees; they are the
// reference the writers are checked against byte for byte, and what
// callers outside the daemon use to produce expected bodies.

#include <optional>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/router.hpp"

namespace dlap::server {

// --------------------------------------------------------------- binding

/// {"op","variant","m","n","blocksize"} -> OperationSpec. Field errors
/// read "<where>: field '<field_prefix><name>': ..." -- pass
/// field_prefix "candidates[2]." to name nested fields. A variant outside
/// the range of int is a field error, never narrowed.
[[nodiscard]] Status bind_spec(const Json& json, const std::string& where,
                               const std::string& field_prefix,
                               OperationSpec* out);

/// Optional {"backend","locality"} -> SystemSpec (json == nullptr leaves
/// `out` empty: the engine's default system applies).
[[nodiscard]] Status bind_system(const Json* json, const std::string& where,
                                 std::optional<SystemSpec>* out);

/// Body of POST /v1/predict: either an inline spec ({"op",...}) or a raw
/// trace ({"calls": ["dtrsm(L,L,N,N,144,112,...)", ...]}), plus an
/// optional "system".
[[nodiscard]] Status bind_predict(const Json& body, PredictQuery* out);

/// Body of POST /v1/rank: {"candidates":[spec,...]} plus optional
/// "system".
[[nodiscard]] Status bind_rank(const Json& body, RankQuery* out);

/// Body of POST /v1/tune: an inline spec plus optional "lo","hi","step"
/// and "system".
[[nodiscard]] Status bind_tune(const Json& body, TuneQuery* out);

/// Body of POST /v1/admin/reload: optionally {"specs":[spec,...]} to
/// prepare after the container re-attach, plus optional "system".
[[nodiscard]] Status bind_reload(const Json& body,
                                 std::vector<OperationSpec>* specs,
                                 std::optional<SystemSpec>* system);

// ------------------------------------------------------------- rendering

[[nodiscard]] Json render_sample_stats(const SampleStats& stats);
[[nodiscard]] Json render_prediction(const Prediction& prediction);
[[nodiscard]] Json render_spec(const OperationSpec& spec);
[[nodiscard]] Json render_ranking(const Ranking& ranking);
[[nodiscard]] Json render_tune(const TuneResult& result);

// --------------------------------------------------------------- writing
//
// Each appends exactly the bytes of the matching render_*(...).dump().
// write_prediction lives next to Prediction (predict/compiled_trace.hpp).
// write_ranking and write_tune splice `prediction_json` where the result
// carries it and format `predictions` otherwise.

void write_spec(const OperationSpec& spec, std::string* out);
void write_ranking(const Ranking& ranking, std::string* out);
void write_tune(const TuneResult& result, std::string* out);

// ------------------------------------------------------------- endpoints

/// POST /v1/predict: parse + bind + Engine::predict + write. All three
/// never throw: malformed JSON is a 400, binding errors carry the field
/// name, engine failures map through kStatusHttpTable.
[[nodiscard]] HttpResponse handle_predict(Engine& engine,
                                          const HttpRequest& request);

/// POST /v1/rank.
[[nodiscard]] HttpResponse handle_rank(Engine& engine,
                                       const HttpRequest& request);

/// POST /v1/tune.
[[nodiscard]] HttpResponse handle_tune(Engine& engine,
                                       const HttpRequest& request);

}  // namespace dlap::server
