/// \file http_server.hpp
/// Dependency-free embedded HTTP server: the socket/poll plumbing shared
/// by the telemetry endpoints (ObsServer) and the serving daemon's
/// ingest path (serve::PlanServer).
///
/// One event-loop thread over plain POSIX sockets, no TLS, no
/// third-party code. Speaks HTTP/1.1 with keep-alive and request
/// pipelining — a client may write many requests back-to-back on one
/// connection; the server parses every complete request out of each read
/// burst, dispatches them (batched, if a BatchHandler is installed),
/// and answers in order with correct Content-Length framing. HTTP/1.0
/// clients keep the old single-request contract: one request, one
/// response, `Connection: close` — existing scrapers and the curl-less
/// CI probes work unchanged.
///
/// Pipelining + batching is what makes a ≥100k req/s ingest rate
/// reachable on one core: the per-request cost collapses to parsing,
/// and the handler is invoked once per burst instead of once per
/// request (docs/serving.md, "Batched firing").
///
/// Binding port 0 (the default) asks the kernel for an ephemeral port;
/// `port()` reports the bound one. The server owns no data: it renders
/// through the installed handler(s), which must stay valid between
/// start() and stop(). Handlers run on the event-loop thread — they must
/// synchronize with any state they share with other threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace spi::obs {

/// One parsed request, body already assembled from Content-Length.
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string target;   ///< origin-form target, query string included
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  /// Content-Length bytes (empty without one), viewing into the
  /// connection's input: valid for the handler call only.
  std::string_view body;
  bool keep_alive = false;  ///< connection survives after the response
};

/// One rendered HTTP response (routing result, pre-serialization).
struct HttpResponse {
  int status = 200;
  /// A string with static storage (a literal): responses are made by the
  /// thousand, and a view costs nothing to make or copy.
  std::string_view content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  /// Per-request dispatch.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Per-burst dispatch: every complete pipelined request parsed from
  /// one read, in arrival order; the handler must append exactly one
  /// response per request, in the same order. When installed it takes
  /// precedence over Handler (and is also used for bursts of one).
  using BatchHandler =
      std::function<void(std::span<HttpRequest>, std::vector<HttpResponse>&)>;

  struct Options {
    int port = 0;  ///< 0 = kernel-assigned ephemeral port
    std::string bind_address = "127.0.0.1";
    Handler handler;
    BatchHandler batch_handler;
    /// Connections beyond this are accepted and immediately shed with
    /// 503 + close (the poll set stays bounded).
    std::size_t max_connections = 64;
  };

  explicit HttpServer(Options options);
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer();

  /// Binds, listens and spawns the event-loop thread. Throws
  /// std::runtime_error when the socket cannot be set up.
  void start();
  /// Stops accepting, closes every connection and joins the loop.
  void stop();

  [[nodiscard]] bool running() const { return listen_fd_ >= 0; }
  /// The bound TCP port (resolves port-0 requests), 0 before start().
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::int64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection parse state: bytes read but not yet consumed.
  struct Connection {
    int fd = -1;
    std::string inbox;
  };

  void serve();
  /// Parses every complete request out of conn.inbox, dispatches them,
  /// writes the serialized responses in one send, and then drops the
  /// consumed bytes from the inbox in one move. Returns false when the
  /// connection must be closed.
  bool process_input(Connection& conn);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> requests_{0};
  // The event loop's per-burst scratch, reused from burst to burst.
  std::vector<HttpRequest> burst_requests_;
  std::vector<HttpResponse> burst_responses_;
  std::string wire_;
};

}  // namespace spi::obs
