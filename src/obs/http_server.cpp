#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace spi::obs {

namespace {

// Bounds chosen for an embedded control-plane server: a request head
// larger than 8 KiB or a body larger than 8 MiB is a client bug (or an
// attack), not traffic we want to buffer.
constexpr std::size_t kMaxHeadBytes = 8 * 1024;
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

enum class ParseResult { kRequest, kNeedMore, kBad };

/// Parses one request off `input` (the unconsumed bytes of an inbox),
/// setting `consumed` to its length; the body views into `input`.
/// kNeedMore = the head or the declared body is incomplete.
ParseResult parse_request(std::string_view input, HttpRequest& out, std::size_t& consumed) {
  const std::size_t head_end = input.find("\r\n\r\n");
  if (head_end == std::string_view::npos)
    return input.size() > kMaxHeadBytes ? ParseResult::kBad : ParseResult::kNeedMore;
  if (head_end > kMaxHeadBytes) return ParseResult::kBad;

  const std::string_view head = input.substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  const std::size_t m_end = request_line.find(' ');
  const std::size_t t_end =
      m_end == std::string_view::npos ? std::string_view::npos : request_line.find(' ', m_end + 1);
  if (t_end == std::string_view::npos) return ParseResult::kBad;
  out.method = request_line.substr(0, m_end);
  out.target = request_line.substr(m_end + 1, t_end - m_end - 1);
  out.version = trimmed(request_line.substr(t_end + 1));
  if (out.method.empty() || out.target.empty() ||
      (out.version != "HTTP/1.0" && out.version != "HTTP/1.1"))
    return ParseResult::kBad;

  // Headers we act on: Content-Length frames the body, Connection
  // overrides the version's keep-alive default.
  std::size_t content_length = 0;
  bool have_connection = false;
  std::string_view connection;
  std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = trimmed(line.substr(0, colon));
    const std::string_view value = trimmed(line.substr(colon + 1));
    if (iequals(name, "content-length")) {
      content_length = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') return ParseResult::kBad;
        content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
        if (content_length > kMaxBodyBytes) return ParseResult::kBad;
      }
    } else if (iequals(name, "connection")) {
      have_connection = true;
      connection = value;
    } else if (iequals(name, "transfer-encoding")) {
      // Chunked bodies are out of scope for this embedded server.
      return ParseResult::kBad;
    }
  }

  const std::size_t total = head_end + 4 + content_length;
  if (input.size() < total) return ParseResult::kNeedMore;
  out.body = input.substr(head_end + 4, content_length);

  // Keep-alive: the HTTP/1.1 default, opt-out via "Connection: close".
  // HTTP/1.0 stays single-request even if the client asks — old clients
  // of the telemetry server read to EOF, and that contract is kept.
  out.keep_alive = out.version == "HTTP/1.1" &&
                   !(have_connection && iequals(connection, "close"));
  consumed = total;
  return ParseResult::kRequest;
}

void serialize_response(std::string& out, const HttpRequest& request,
                        const HttpResponse& response) {
  // The response echoes the request's protocol flavor so an HTTP/1.0
  // client never sees a version it may not understand.
  out += request.version;
  out += ' ';
  out += std::to_string(response.status);
  out += ' ';
  out += reason_phrase(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += request.keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                            : "\r\nConnection: close\r\n\r\n";
  out += response.body;
}

}  // namespace

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (listen_fd_ >= 0) return;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("HttpServer: socket() failed");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("HttpServer: invalid bind address '" + options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("HttpServer: cannot bind " + options_.bind_address + ":" +
                             std::to_string(options_.port) + " (" + std::strerror(err) + ")");
  }
  // Non-blocking listener: the event loop drains the whole accept
  // backlog per poll tick without risking a block on the last accept.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("HttpServer: listen() failed (") + std::strerror(err) +
                             ")");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = static_cast<int>(ntohs(bound.sin_port));

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve(); });
}

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  // Kick the event loop out of poll() by retiring the listener.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

bool HttpServer::process_input(Connection& conn) {
  // Drain every complete pipelined request out of the inbox, dispatch
  // them as one batch, and answer with one send. The burst size is the
  // client's pipeline depth — this is where the per-request cost
  // amortizes. Request bodies view the inbox, so the consumed bytes are
  // dropped only after the handler has run: one move per read, however
  // deep the pipeline.
  std::vector<HttpRequest>& requests = burst_requests_;
  requests.clear();
  std::size_t consumed = 0;
  bool bad = false;
  for (;;) {
    HttpRequest& request = requests.emplace_back();
    std::size_t length = 0;
    const ParseResult result =
        parse_request(std::string_view(conn.inbox).substr(consumed), request, length);
    if (result != ParseResult::kRequest) {
      requests.pop_back();
      bad = result == ParseResult::kBad;
      break;
    }
    consumed += length;
    if (!request.keep_alive) break;  // anything pipelined after "close" is ignored
  }

  std::vector<HttpResponse>& responses = burst_responses_;
  responses.clear();
  if (!requests.empty()) {
    responses.reserve(requests.size());
    if (options_.batch_handler) {
      options_.batch_handler({requests.data(), requests.size()}, responses);
      if (responses.size() != requests.size()) {
        responses.assign(requests.size(),
                         {500, "application/json", "{\"error\": \"batch handler miscount\"}\n"});
      }
    } else if (options_.handler) {
      for (const HttpRequest& request : requests) responses.push_back(options_.handler(request));
    } else {
      responses.assign(requests.size(),
                       {503, "application/json", "{\"error\": \"no handler installed\"}\n"});
    }
  }

  std::string& wire = wire_;
  wire.clear();
  for (std::size_t i = 0; i < requests.size(); ++i)
    serialize_response(wire, requests[i], responses[i]);
  if (bad) {
    static const HttpRequest kBadRequest{"GET", "/", "HTTP/1.0", "", false};
    serialize_response(wire, kBadRequest,
                       {400, "application/json", "{\"error\": \"malformed request\"}\n"});
  }
  const bool keep_open = !bad && (requests.empty() || requests.back().keep_alive);
  conn.inbox.erase(0, consumed);
  // Counted before the reply leaves: a client that has read a full
  // response can rely on requests_served() already covering it.
  requests_.fetch_add(static_cast<std::int64_t>(requests.size()) + (bad ? 1 : 0),
                      std::memory_order_relaxed);
  if (!wire.empty() && !send_all(conn.fd, wire)) return false;
  return keep_open;
}

void HttpServer::serve() {
  // pfds[0] is the listener and pfds[i + 1] the poll entry of
  // connections[i]: the two vectors change together, never rebuilt.
  std::vector<Connection> connections;
  std::vector<pollfd> pfds{{listen_fd_, POLLIN, 0}};
  char buf[64 * 1024];

  const auto close_connection = [&](std::size_t index) {
    ::close(connections[index].fd);
    connections.erase(connections.begin() + static_cast<std::ptrdiff_t>(index));
    pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), /*timeout_ms=*/200);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;

    // Walk backwards so closing a connection does not disturb the
    // pfds<->connections correspondence of entries not yet visited.
    // Connections accepted below are polled from the next wakeup on.
    for (std::size_t i = pfds.size(); i-- > 1;) {
      if (pfds[i].revents == 0) continue;
      Connection& conn = connections[i - 1];
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        close_connection(i - 1);
        continue;
      }
      conn.inbox.append(buf, static_cast<std::size_t>(n));
      if (!process_input(conn)) close_connection(i - 1);
    }

    if (pfds[0].revents != 0) {
      // Accept the whole backlog: at high connection-churn rates one
      // accept per poll tick would itself become the bottleneck.
      for (;;) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) break;
        if (connections.size() >= options_.max_connections) {
          static const HttpRequest kShed{"GET", "/", "HTTP/1.0", "", false};
          std::string wire;
          serialize_response(wire, kShed,
                             {503, "application/json", "{\"error\": \"connection limit reached\"}\n"});
          send_all(conn, wire);
          ::close(conn);
          continue;
        }
        timeval timeout{};
        timeout.tv_sec = 2;
        ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        connections.push_back({conn, {}});
        pfds.push_back({conn, POLLIN, 0});
      }
    }
  }

  for (const Connection& conn : connections) ::close(conn.fd);
  connections.clear();
}

}  // namespace spi::obs
