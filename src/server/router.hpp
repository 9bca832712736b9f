#pragma once
// Exact-match (method, path) router for the dlapd endpoints, plus the
// daemon's canonical JSON response builders.
//
// A plain class with no sockets: dispatch() maps a parsed HttpRequest to
// the registered handler, an unknown path to 404 (code "NOT_FOUND") and
// a known path with the wrong method to 405 with an Allow header -- the
// unit tests drive it with hand-built requests.

#include <functional>
#include <map>
#include <string>

#include "api/result.hpp"
#include "server/http.hpp"
#include "server/json.hpp"

namespace dlap::server {

using Handler = std::function<HttpResponse(const HttpRequest&)>;

class Router {
 public:
  /// Registers a handler (later registration of the same route wins).
  void add(std::string method, std::string path, Handler handler);

  /// Runs the matching handler; 404/405 otherwise. A handler that throws
  /// is answered with 500 (code "INTERNAL_ERROR") -- a daemon never lets
  /// one request unwind a worker.
  [[nodiscard]] HttpResponse dispatch(const HttpRequest& request) const;

  /// {"error":{"code":code,"message":message}} with Content-Type set.
  [[nodiscard]] static HttpResponse error_response(int http_status,
                                                   const std::string& code,
                                                   const std::string& message);

  /// Error response for an engine Status via the api layer's
  /// kStatusHttpTable (code name and HTTP status both derived from it).
  [[nodiscard]] static HttpResponse status_response(const Status& status);

  /// JSON response with Content-Type set; `body` is the JSON text.
  [[nodiscard]] static HttpResponse json_response(int http_status,
                                                  std::string body);

  /// json_response over body.dump(), for the cold paths (errors, stats,
  /// reload) that build a Json tree.
  [[nodiscard]] static HttpResponse json_response(int http_status,
                                                  const Json& body);

 private:
  // path -> method -> handler (path-first so 405 can enumerate Allow).
  std::map<std::string, std::map<std::string, Handler>> routes_;
};

}  // namespace dlap::server
