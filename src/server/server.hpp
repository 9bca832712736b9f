#pragma once
// dlapd::Server -- the HTTP query daemon in front of a dlap::Engine.
//
// Architecture (one instance = one listening socket):
//
//   accept thread ──try_push──▶ BoundedQueue<Conn> ──pop──▶ worker pool
//        │ (full: canned 503 +                        (ThreadPool; each
//        │  Retry-After, close)                        worker loops over
//        ▼                                             connections)
//   stats counters                                     │
//                                                      ▼
//                              per-request: HttpParser ▶ rate limiter
//                              (429 + Retry-After) ▶ Router ▶ handlers
//                              ▶ Engine (predict/rank/tune on versioned
//                                model snapshots -- reads never block
//                                generation or reload)
//
//   POST /v1/admin/reload ──▶ admin pool (1 worker): Engine::reload --
//   container re-attach + cache drop + optional background prepare;
//   in-flight queries finish on their pinned snapshots (zero torn reads).
//   Completion is published once the new container serves; only then
//   does the admin task drop the container it replaced, so the
//   filesystem's teardown of a file compaction renamed over runs after
//   the reload, not inside it.
//
// Overload policy: admission is bounded at two points -- the connection
// queue (full -> 503, the daemon answers instantly instead of letting
// the kernel backlog time out) and the per-client token bucket (empty ->
// 429). Both responses carry Retry-After; no path ever leaves a
// connection hanging (every socket wears SO_RCVTIMEO/SO_SNDTIMEO).
//
// The server is embeddable: construct with port 0, start(), and port()
// reports the ephemeral port -- integration tests and bench/micro_server
// drive a real loopback daemon in-process. stop() (also run by the
// destructor) is graceful: queued connections are answered, in-flight
// reloads finish.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "api/engine.hpp"
#include "common/threadpool.hpp"
#include "server/admission.hpp"
#include "server/http.hpp"
#include "server/router.hpp"

namespace dlap::server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (tests/benches); port() reports it.
  int port = 0;
  /// Connection workers (each handles one connection at a time).
  index_t workers = 4;
  /// Accepted connections waiting for a worker beyond those in service;
  /// the accept loop sheds (503) past this.
  std::size_t queue_capacity = 64;
  /// Per-client token bucket (client = X-Client-Id header, else peer
  /// address). requests_per_second 0 disables limiting.
  RateLimitConfig rate;
  HttpLimits http;
  /// Keep-alive requests served per connection before the server closes.
  index_t max_requests_per_connection = 1000;
  /// Socket read/write timeout; a stalled peer costs a worker at most
  /// this long (it is answered 408 / dropped, never waited on forever).
  int io_timeout_ms = 5000;
  /// Retry-After value (seconds) on queue-full 503 responses.
  int shed_retry_after_s = 1;
  /// Monotonic clock for the rate limiter (tests inject a fake).
  ClockFn clock;
};

/// Counter snapshot served by GET /v1/stats (all monotonic since start,
/// except the queue gauge and the last reload's stage times).
struct ServerStats {
  std::uint64_t accepted = 0;        ///< connections accepted
  std::uint64_t requests = 0;        ///< complete requests parsed
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;   ///< incl. 429 and parser rejects
  std::uint64_t responses_5xx = 0;   ///< incl. queue-full 503 sheds
  std::uint64_t shed_queue_full = 0; ///< connections answered 503 at accept
  std::uint64_t rate_limited = 0;    ///< requests answered 429
  std::uint64_t parse_errors = 0;    ///< malformed HTTP requests
  std::uint64_t timeouts = 0;        ///< connections dropped mid-request
  std::uint64_t reloads_started = 0;
  std::uint64_t reloads_completed = 0;
  std::uint64_t reloads_failed = 0;
  std::string last_reload_error;
  /// Last completed reload, admin task start to the completion bump.
  std::uint64_t last_swap_us = 0;
  /// Last completed reload, dropping the replaced container after the
  /// bump (the unmap, and with it the file's teardown when compaction
  /// replaced it).
  std::uint64_t last_release_us = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  LruStats trace_cache;              ///< engine sweep-point cache
  LruStats compiled_traces;          ///< engine compiled traces (no system)
};

class Server {
 public:
  /// The engine must outlive the server. The router comes pre-wired with
  /// the /v1 endpoints; add() more routes before start() if needed
  /// (benches register slow test endpoints this way).
  explicit Server(Engine& engine, ServerConfig config = {});

  /// stop()s.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept/worker threads. Returns
  /// InvalidQuery for a malformed host/config, InternalError when the
  /// socket layer refuses (port in use, permissions).
  [[nodiscard]] Status start();

  /// Graceful shutdown: stops accepting, drains queued connections,
  /// joins workers and in-flight admin reloads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The bound port (after start(); the ephemeral one when config.port
  /// was 0).
  [[nodiscard]] int port() const noexcept { return port_; }

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] ServerStats stats() const;

  /// The route table; extend before start().
  [[nodiscard]] Router& router() noexcept { return router_; }

 private:
  struct Conn {
    int fd = -1;
    std::string peer;
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(int fd, const std::string& peer);
  // Active-connection registry: stop() shuts the read side of every
  // in-service socket down, so workers parked in recv() on idle
  // keep-alive connections wake immediately (EOF) instead of riding out
  // io_timeout_ms. Buffered request bytes are still readable before the
  // EOF, so draining connections get answered.
  void register_conn(int fd);
  void unregister_conn(int fd);
  [[nodiscard]] HttpResponse route_request(const HttpRequest& request,
                                           const std::string& peer);
  void count_response(int status);

  [[nodiscard]] HttpResponse handle_stats(const HttpRequest& request);
  [[nodiscard]] HttpResponse handle_reload(const HttpRequest& request);

  Engine& engine_;
  ServerConfig config_;
  Router router_;
  TokenBucketLimiter limiter_;
  // Recreated by every start() -- a closed BoundedQueue stays closed, and
  // a Server may be start()/stop()ed repeatedly (the churn test does).
  std::unique_ptr<BoundedQueue<Conn>> conn_queue_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> worker_pool_;
  std::unique_ptr<ThreadPool> admin_pool_;
  std::string shed_response_;  // canned 503, precomputed
  std::mutex conns_mutex_;
  std::unordered_set<int> active_fds_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_2xx_{0};
  std::atomic<std::uint64_t> responses_4xx_{0};
  std::atomic<std::uint64_t> responses_5xx_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> rate_limited_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> reloads_started_{0};
  std::atomic<std::uint64_t> reloads_completed_{0};
  std::atomic<std::uint64_t> reloads_failed_{0};
  std::atomic<std::uint64_t> last_swap_us_{0};
  std::atomic<std::uint64_t> last_release_us_{0};
  mutable std::mutex reload_error_mutex_;
  std::string last_reload_error_;
};

}  // namespace dlap::server

/// The daemon's conventional short name: dlapd::Server, dlapd::ServerConfig.
namespace dlapd = dlap::server;
