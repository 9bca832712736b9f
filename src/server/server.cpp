#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "server/handlers.hpp"

namespace dlap::server {

namespace {

/// Writes the whole buffer (short writes retried); false on I/O failure.
/// MSG_NOSIGNAL: a peer that closed mid-response costs an error return,
/// not a SIGPIPE.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void set_socket_timeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

ServerConfig with_defaults(ServerConfig config) {
  if (!config.clock) config.clock = steady_clock_fn();
  return config;
}

std::uint64_t micros_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Server::Server(Engine& engine, ServerConfig config)
    : engine_(engine),
      config_(with_defaults(std::move(config))),
      limiter_(config_.rate, config_.clock) {
  // Canned shed response, serialized once: the accept loop writes it
  // without allocating while the daemon is at its busiest.
  HttpResponse shed = Router::error_response(
      503, "OVERLOADED", "connection queue is full; retry shortly");
  shed.set_header("Retry-After", std::to_string(config_.shed_retry_after_s));
  shed.set_header("Connection", "close");
  shed_response_ = shed.serialize();

  router_.add("POST", "/v1/predict", [this](const HttpRequest& request) {
    return handle_predict(engine_, request);
  });
  router_.add("POST", "/v1/rank", [this](const HttpRequest& request) {
    return handle_rank(engine_, request);
  });
  router_.add("POST", "/v1/tune", [this](const HttpRequest& request) {
    return handle_tune(engine_, request);
  });
  router_.add("GET", "/v1/stats", [this](const HttpRequest& request) {
    return handle_stats(request);
  });
  router_.add("POST", "/v1/admin/reload", [this](const HttpRequest& request) {
    return handle_reload(request);
  });
}

Server::~Server() { stop(); }

Status Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::error(StatusCode::InvalidQuery,
                         "Server::start: already running");
  }
  if (config_.workers < 1) {
    return Status::error(StatusCode::InvalidQuery,
                         "Server::start: workers must be >= 1");
  }
  if (config_.queue_capacity < 1) {
    return Status::error(StatusCode::InvalidQuery,
                         "Server::start: queue_capacity must be >= 1");
  }
  if (config_.port < 0 || config_.port > 65535) {
    return Status::error(StatusCode::InvalidQuery,
                         "Server::start: port out of range");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  const std::string host =
      config_.host == "localhost" ? std::string("127.0.0.1") : config_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::error(StatusCode::InvalidQuery,
                         "Server::start: host '" + config_.host +
                             "' is not a numeric IPv4 address");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::error(StatusCode::InternalError,
                         std::string("Server::start: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::error(StatusCode::InternalError,
                         std::string("Server::start: bind: ") +
                             std::strerror(err));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(StatusCode::InternalError,
                         std::string("Server::start: listen: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::error(StatusCode::InternalError,
                         std::string("Server::start: getsockname: ") +
                             std::strerror(err));
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));

  conn_queue_ = std::make_unique<BoundedQueue<Conn>>(config_.queue_capacity);
  running_.store(true, std::memory_order_release);
  worker_pool_ = std::make_unique<ThreadPool>(config_.workers);
  for (index_t i = 0; i < config_.workers; ++i) {
    auto ignored = worker_pool_->submit([this] { worker_loop(); });
    static_cast<void>(ignored);
  }
  admin_pool_ = std::make_unique<ThreadPool>(1);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status{};
}

void Server::stop() {
  running_.store(false, std::memory_order_release);
  // shutdown() wakes the accept loop (accept returns EINVAL on Linux);
  // the fd itself is closed only after the join, so it cannot be reused
  // by a racing connection while the loop still references it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (conn_queue_) conn_queue_->close();
  {
    // Wake workers parked on idle keep-alive sockets: SHUT_RD delivers
    // EOF after any buffered request bytes, so in-flight/queued requests
    // still complete while idle connections release their worker now.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  // ThreadPool destructors join: workers drain the (closed) queue --
  // already-queued connections still get answered -- and the admin pool
  // finishes any in-flight reload.
  worker_pool_.reset();
  admin_pool_.reset();
}

void Server::register_conn(int fd) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  active_fds_.insert(fd);
  // A connection popped after stop() began gets its EOF right away too.
  if (!running_.load(std::memory_order_acquire)) ::shutdown(fd, SHUT_RD);
}

void Server::unregister_conn(int fd) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  active_fds_.erase(fd);
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<sockaddr*>(&peer_addr), &peer_len);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listening socket failed; stop() reports nothing further
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    set_socket_timeouts(fd, config_.io_timeout_ms);
    char ip[INET_ADDRSTRLEN] = "unknown";
    ::inet_ntop(AF_INET, &peer_addr.sin_addr, ip, sizeof(ip));
    if (!conn_queue_->try_push(Conn{fd, ip})) {
      // Graceful shed: the overloaded daemon answers immediately with a
      // canned 503 + Retry-After instead of letting the kernel backlog
      // time the client out.
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      responses_5xx_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, shed_response_);
      ::close(fd);
    }
  }
}

void Server::worker_loop() {
  while (auto conn = conn_queue_->pop()) {
    register_conn(conn->fd);
    handle_connection(conn->fd, conn->peer);
    // Unregister strictly BEFORE close: once closed, the fd number can
    // be recycled by accept(), and a concurrent stop() must never
    // shutdown() somebody else's descriptor.
    unregister_conn(conn->fd);
    ::close(conn->fd);
  }
}

void Server::handle_connection(int fd, const std::string& peer) {
  HttpParser parser(config_.http);
  std::string pending;  // received but not yet parsed (pipelining)
  char buf[16 * 1024];
  index_t served = 0;
  bool open = true;
  while (open) {
    parser.reset();
    bool eof = false;
    bool timed_out = false;
    while (parser.state() != HttpParser::State::Complete &&
           parser.state() != HttpParser::State::Error) {
      if (pending.empty()) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
          pending.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
          eof = true;
          break;
        } else if (errno == EINTR) {
          continue;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
          timed_out = true;
          break;
        } else {
          eof = true;
          break;
        }
      }
      const std::size_t used = parser.feed(pending);
      pending.erase(0, used);
    }
    if (eof) break;
    if (timed_out) {
      // Mid-request stall gets a 408 (never a silent hang); an idle
      // keep-alive connection is just closed.
      if (parser.bytes_consumed() > 0) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        HttpResponse response = Router::error_response(
            408, "REQUEST_TIMEOUT", "timed out reading the request");
        response.set_header("Connection", "close");
        send_all(fd, response.serialize());
        count_response(408);
      }
      break;
    }
    if (parser.failed()) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response = Router::error_response(
          parser.error_status(), "BAD_REQUEST", parser.error_message());
      response.set_header("Connection", "close");
      send_all(fd, response.serialize());
      count_response(response.status);
      break;
    }
    const HttpRequest& request = parser.request();
    requests_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response = route_request(request, peer);
    ++served;
    const bool keep = request.keep_alive() &&
                      served < config_.max_requests_per_connection &&
                      running_.load(std::memory_order_acquire) &&
                      response.header("Connection") == nullptr;
    response.set_header("Connection", keep ? "keep-alive" : "close");
    open = send_all(fd, response.serialize()) && keep;
    count_response(response.status);
  }
  // The caller (worker_loop) closes fd after unregistering it.
}

HttpResponse Server::route_request(const HttpRequest& request,
                                   const std::string& peer) {
  // Client identity: the X-Client-Id header when present (deterministic
  // tests, multi-tenant proxies), the peer address otherwise.
  const std::string* id = request.header("X-Client-Id");
  const std::string& client = id != nullptr ? *id : peer;
  const RateDecision decision = limiter_.admit(client);
  if (!decision.allowed) {
    rate_limited_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response = Router::error_response(
        429, "RATE_LIMITED",
        "client '" + client + "' exceeded its request rate");
    const double retry = std::max(1.0, std::ceil(decision.retry_after_seconds));
    response.set_header("Retry-After",
                        std::to_string(static_cast<long>(retry)));
    return response;
  }
  return router_.dispatch(request);
}

void Server::count_response(int status) {
  if (status < 300) {
    responses_2xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status < 500) {
    responses_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    responses_5xx_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.responses_2xx = responses_2xx_.load(std::memory_order_relaxed);
  out.responses_4xx = responses_4xx_.load(std::memory_order_relaxed);
  out.responses_5xx = responses_5xx_.load(std::memory_order_relaxed);
  out.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  out.rate_limited = rate_limited_.load(std::memory_order_relaxed);
  out.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  out.timeouts = timeouts_.load(std::memory_order_relaxed);
  out.reloads_started = reloads_started_.load(std::memory_order_relaxed);
  // Acquire pairs with the completion bump: a counted reload's swap time
  // is visible with it.
  out.reloads_completed = reloads_completed_.load(std::memory_order_acquire);
  out.reloads_failed = reloads_failed_.load(std::memory_order_relaxed);
  out.last_swap_us = last_swap_us_.load(std::memory_order_relaxed);
  out.last_release_us = last_release_us_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(reload_error_mutex_);
    out.last_reload_error = last_reload_error_;
  }
  if (conn_queue_) {
    const auto queue = conn_queue_->stats();
    out.queue_depth = queue.depth;
    out.queue_peak = queue.peak;
  }
  out.trace_cache = engine_.trace_cache_stats();
  out.compiled_traces = engine_.compiled_trace_stats();
  return out;
}

HttpResponse Server::handle_stats(const HttpRequest&) {
  const ServerStats s = stats();
  const auto limiter = limiter_.stats();
  Json responses = Json::object();
  responses.set("status_2xx", Json::number(static_cast<double>(s.responses_2xx)));
  responses.set("status_4xx", Json::number(static_cast<double>(s.responses_4xx)));
  responses.set("status_5xx", Json::number(static_cast<double>(s.responses_5xx)));

  Json server = Json::object();
  server.set("accepted", Json::number(static_cast<double>(s.accepted)));
  server.set("requests", Json::number(static_cast<double>(s.requests)));
  server.set("responses", std::move(responses));
  server.set("shed_queue_full",
             Json::number(static_cast<double>(s.shed_queue_full)));
  server.set("rate_limited", Json::number(static_cast<double>(s.rate_limited)));
  server.set("parse_errors", Json::number(static_cast<double>(s.parse_errors)));
  server.set("timeouts", Json::number(static_cast<double>(s.timeouts)));

  Json queue = Json::object();
  queue.set("depth", Json::number(static_cast<double>(s.queue_depth)));
  queue.set("peak", Json::number(static_cast<double>(s.queue_peak)));
  queue.set("capacity",
            Json::number(static_cast<double>(config_.queue_capacity)));

  Json limit = Json::object();
  limit.set("allowed", Json::number(static_cast<double>(limiter.allowed)));
  limit.set("limited", Json::number(static_cast<double>(limiter.limited)));
  limit.set("tracked_clients",
            Json::number(static_cast<double>(limiter.tracked_clients)));

  Json reload = Json::object();
  reload.set("started", Json::number(static_cast<double>(s.reloads_started)));
  reload.set("completed",
             Json::number(static_cast<double>(s.reloads_completed)));
  reload.set("failed", Json::number(static_cast<double>(s.reloads_failed)));
  reload.set("last_error", Json::string(s.last_reload_error));
  reload.set("last_swap_us", Json::number(static_cast<double>(s.last_swap_us)));
  reload.set("last_release_us",
             Json::number(static_cast<double>(s.last_release_us)));

  const auto lru = [](const LruStats& stats) {
    Json out = Json::object();
    out.set("hits", Json::number(static_cast<double>(stats.hits)));
    out.set("misses", Json::number(static_cast<double>(stats.misses)));
    out.set("evictions", Json::number(static_cast<double>(stats.evictions)));
    out.set("size", Json::number(static_cast<double>(stats.size)));
    return out;
  };

  Json engine = Json::object();
  engine.set("trace_cache", lru(s.trace_cache));
  engine.set("compiled_traces", lru(s.compiled_traces));

  Json body = Json::object();
  body.set("server", std::move(server));
  body.set("queue", std::move(queue));
  body.set("limiter", std::move(limit));
  body.set("reload", std::move(reload));
  body.set("engine", std::move(engine));
  return Router::json_response(200, body);
}

HttpResponse Server::handle_reload(const HttpRequest& request) {
  std::vector<OperationSpec> specs;
  std::optional<SystemSpec> system;
  if (!request.body.empty()) {
    Json body;
    try {
      body = Json::parse(request.body);
    } catch (const std::exception& e) {
      return Router::status_response(
          Status::error(StatusCode::ParseError,
                        std::string("reload: body is not valid JSON: ") +
                            e.what()));
    }
    const Status bound = bind_reload(body, &specs, &system);
    if (!bound.ok()) return Router::status_response(bound);
  }
  const std::uint64_t id =
      reloads_started_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t spec_count = specs.size();
  // The reload runs on the 1-worker admin pool: the HTTP response returns
  // immediately (202), reads are never stalled (Engine::reload swaps the
  // container and bumps the snapshot version; in-flight queries finish on
  // their pinned models), and concurrent reload requests serialize.
  auto ignored = admin_pool_->submit(
      [this, specs = std::move(specs), system = std::move(system)] {
        const auto start = std::chrono::steady_clock::now();
        // Holding the container attached now keeps Engine::reload from
        // unmapping it. Once compaction has renamed a new file over it,
        // dropping its last mapping makes the filesystem free the file's
        // blocks, which can take tens of milliseconds; the reference is
        // dropped only after completion is published.
        std::shared_ptr<const storage::ContainerReader> replaced =
            engine_.service().repository().container();
        const Status status = engine_.reload(specs, system);
        if (status.ok()) {
          last_swap_us_.store(micros_since(start), std::memory_order_relaxed);
          reloads_completed_.fetch_add(1, std::memory_order_release);
          const auto released = std::chrono::steady_clock::now();
          replaced.reset();
          last_release_us_.store(micros_since(released),
                                 std::memory_order_relaxed);
        } else {
          reloads_failed_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(reload_error_mutex_);
          last_reload_error_ = status.message;
        }
      });
  static_cast<void>(ignored);
  Json body = Json::object();
  body.set("status", Json::string("reloading"));
  body.set("reload_id", Json::number(static_cast<double>(id)));
  body.set("prepare_specs", Json::number(static_cast<double>(spec_count)));
  return Router::json_response(202, body);
}

}  // namespace dlap::server
