#include "server/router.hpp"

#include <exception>
#include <utility>

namespace dlap::server {

void Router::add(std::string method, std::string path, Handler handler) {
  routes_[std::move(path)][std::move(method)] = std::move(handler);
}

HttpResponse Router::dispatch(const HttpRequest& request) const {
  const auto path_it = routes_.find(request.target);
  if (path_it == routes_.end()) {
    return error_response(404, "NOT_FOUND",
                          "unknown path '" + request.target + "'");
  }
  const auto method_it = path_it->second.find(request.method);
  if (method_it == path_it->second.end()) {
    std::string allow;
    for (const auto& [method, handler] : path_it->second) {
      if (!allow.empty()) allow += ", ";
      allow += method;
    }
    HttpResponse response = error_response(
        405, "METHOD_NOT_ALLOWED",
        request.method + " is not supported on '" + request.target + "'");
    response.set_header("Allow", std::move(allow));
    return response;
  }
  try {
    return method_it->second(request);
  } catch (const std::exception& e) {
    return error_response(500, "INTERNAL_ERROR", e.what());
  } catch (...) {
    return error_response(500, "INTERNAL_ERROR", "unknown handler failure");
  }
}

HttpResponse Router::error_response(int http_status, const std::string& code,
                                    const std::string& message) {
  Json body = Json::object();
  body.set("error", Json::object()
                        .set("code", Json::string(code))
                        .set("message", Json::string(message)));
  return json_response(http_status, body);
}

HttpResponse Router::status_response(const Status& status) {
  return error_response(http_status_for(status.code),
                        status_code_name(status.code), status.message);
}

HttpResponse Router::json_response(int http_status, std::string body) {
  HttpResponse response;
  response.status = http_status;
  response.set_header("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse Router::json_response(int http_status, const Json& body) {
  return json_response(http_status, body.dump());
}

}  // namespace dlap::server
