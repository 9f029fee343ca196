/// Tests of the reusable embedded HTTP server (obs/http_server.hpp):
/// HTTP/1.1 keep-alive with correct Content-Length framing, request
/// pipelining dispatched as one batch (2000 deep included), POST body
/// assembly, the preserved HTTP/1.0 one-request/close contract, the
/// bounded-poll 503 connection shed, and FuzzHttp — seeded hostile byte
/// streams against a live server on loopback.
#include "obs/http_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dsp/rng.hpp"

namespace spi::obs {
namespace {

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  return ::send(fd, data.data(), data.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(data.size());
}

struct ParsedResponse {
  int status = -1;
  std::string headers;  ///< raw header block, lowercased
  std::string body;
};

/// Reads exactly `count` Content-Length-framed responses off `fd`.
/// Returns fewer on EOF/error.
std::vector<ParsedResponse> read_responses(int fd, std::size_t count) {
  std::vector<ParsedResponse> out;
  std::string inbox;
  char buf[8192];
  while (out.size() < count) {
    const std::size_t head_end = inbox.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return out;
      inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    ParsedResponse response;
    response.headers = inbox.substr(0, head_end);
    for (char& c : response.headers) c = static_cast<char>(std::tolower(c));
    const std::size_t space = inbox.find(' ');
    response.status = std::atoi(inbox.c_str() + space + 1);
    const std::size_t lenpos = response.headers.find("content-length:");
    EXPECT_NE(lenpos, std::string::npos) << "response without Content-Length framing";
    const auto content_length = static_cast<std::size_t>(
        std::atoll(response.headers.c_str() + lenpos + std::strlen("content-length:")));
    while (inbox.size() < head_end + 4 + content_length) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return out;
      inbox.append(buf, static_cast<std::size_t>(n));
    }
    response.body = inbox.substr(head_end + 4, content_length);
    inbox.erase(0, head_end + 4 + content_length);
    out.push_back(std::move(response));
  }
  return out;
}

/// An echo server: the response body names the method, target and body,
/// so ordering and framing are observable from the client side.
HttpServer::Options echo_options() {
  HttpServer::Options options;
  options.handler = [](const HttpRequest& request) {
    HttpResponse response;
    response.body =
        request.method + " " + request.target + " [" + std::string(request.body) + "]";
    return response;
  };
  return options;
}

TEST(HttpServer, KeepAliveServesSequentialRequestsOnOneConnection) {
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(send_all(fd, "GET /ping" + std::to_string(i) + " HTTP/1.1\r\n\r\n"));
    const auto responses = read_responses(fd, 1);
    ASSERT_EQ(responses.size(), 1u) << "connection dropped after request " << i;
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[0].body, "GET /ping" + std::to_string(i) + " []");
    EXPECT_NE(responses[0].headers.find("connection: keep-alive"), std::string::npos);
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(HttpServer, PipelinedBurstAnsweredInOrderThroughOneBatchCall) {
  std::atomic<int> batch_calls{0};
  std::atomic<int> batched_requests{0};
  HttpServer::Options options;
  options.batch_handler = [&](std::span<HttpRequest> requests,
                              std::vector<HttpResponse>& responses) {
    ++batch_calls;
    batched_requests += static_cast<int>(requests.size());
    for (const HttpRequest& request : requests) {
      HttpResponse response;
      response.body = "echo " + request.target;
      responses.push_back(std::move(response));
    }
  };
  HttpServer server(std::move(options));
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  constexpr int kPipeline = 16;
  std::string wire;
  for (int i = 0; i < kPipeline; ++i)
    wire += "GET /r" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(send_all(fd, wire));

  const auto responses = read_responses(fd, kPipeline);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kPipeline));
  for (int i = 0; i < kPipeline; ++i)
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].body, "echo /r" + std::to_string(i));
  ::close(fd);
  server.stop();

  EXPECT_EQ(batched_requests.load(), kPipeline);
  // One send usually arrives as one read burst = one batch call; TCP may
  // split it, but never into one-request batches for all 16.
  EXPECT_LT(batch_calls.load(), kPipeline);
}

TEST(HttpServer, PostBodyAssembledFromContentLength) {
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  const std::string body = "{\"app\":\"speech\",\"seed\":7}";
  const std::string request = "POST /job HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  // Split the write mid-body: the server must wait for the full
  // Content-Length before dispatching.
  ASSERT_TRUE(send_all(fd, request.substr(0, request.size() - 5)));
  ASSERT_TRUE(send_all(fd, request.substr(request.size() - 5)));

  const auto responses = read_responses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "POST /job [" + body + "]");
  ::close(fd);
  server.stop();
}

TEST(HttpServer, Http10StaysSingleRequestAndCloses) {
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  // Even an explicit keep-alive request does not upgrade HTTP/1.0.
  ASSERT_TRUE(send_all(fd, "GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  const auto responses = read_responses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "GET /old []");
  EXPECT_NE(responses[0].headers.find("connection: close"), std::string::npos);

  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0) << "HTTP/1.0 connection must close";
  ::close(fd);
  server.stop();
}

TEST(HttpServer, ShedsConnectionsBeyondTheLimitWith503) {
  HttpServer::Options options = echo_options();
  options.max_connections = 1;
  HttpServer server(std::move(options));
  server.start();

  const int first = connect_to(server.port());
  ASSERT_GE(first, 0);
  // A round trip guarantees the poll loop has registered the connection.
  ASSERT_TRUE(send_all(first, "GET /a HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(read_responses(first, 1).size(), 1u);

  const int second = connect_to(server.port());
  ASSERT_GE(second, 0);
  const auto shed = read_responses(second, 1);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].status, 503);
  char buf[16];
  EXPECT_EQ(::recv(second, buf, sizeof buf, 0), 0) << "shed connection must close";

  // The first connection is unaffected.
  ASSERT_TRUE(send_all(first, "GET /b HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(read_responses(first, 1).size(), 1u);
  ::close(first);
  ::close(second);
  server.stop();
}

TEST(HttpServer, TwoThousandPipelinedRequestsAnsweredInOrder) {
  // A deep pipeline must cost linear time: the inbox is compacted once
  // per read, not once per request.
  HttpServer server(echo_options());
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);

  constexpr std::size_t kRequests = 2000;
  std::string wire;
  for (std::size_t i = 0; i < kRequests; ++i)
    wire += "POST /r" + std::to_string(i) + " HTTP/1.1\r\nContent-Length: 2\r\n\r\nab";
  // One write; a thread, because the replies flow back while it blocks.
  bool sent = false;
  std::thread writer([&] { sent = send_all(fd, wire); });
  const auto responses = read_responses(fd, kRequests);
  writer.join();
  EXPECT_TRUE(sent);
  ASSERT_EQ(responses.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(responses[i].status, 200);
    ASSERT_EQ(responses[i].body, "POST /r" + std::to_string(i) + " [ab]") << "reply " << i;
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.requests_served(), static_cast<std::int64_t>(kRequests));
}

// --- FuzzHttp: hostile byte streams against a live server ---------------------

/// How long the server may take to answer and close after the client
/// has sent everything and shut its side down.
constexpr int kCloseBoundSeconds = 5;

/// Clean requests the fuzz splices, pipelines and mutates.
const std::vector<std::string>& http_seeds() {
  static const std::vector<std::string> seeds = {
      "GET /ping HTTP/1.1\r\nHost: fuzz\r\n\r\n",
      "POST /job HTTP/1.1\r\nContent-Length: 16\r\n\r\n{\"app\":\"speech\"}",
      "POST /e HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 0\r\n\r\n",
      "GET /old HTTP/1.0\r\n\r\n",
  };
  return seeds;
}

/// One connection's byte stream: 1-4 pipelined seeds with one mutation.
std::string fuzz_stream(dsp::Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::string stream;
  for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i)
    stream += http_seeds()[pick(http_seeds().size())];
  switch (rng.uniform_int(0, 5)) {
    case 0:  // clean pipelining (split below)
      break;
    case 1: {  // a Content-Length lie, short or long
      const std::size_t at = stream.find("Content-Length: ");
      if (at == std::string::npos) break;
      const std::size_t end = stream.find("\r\n", at);
      static const char* const kLies[] = {"0", "1", "15", "17", "200", "8388608", "99999999999",
                                          "-1", "12x"};
      stream.replace(at + 16, end - at - 16, kLies[pick(9)]);
      break;
    }
    case 2:  // an oversized head
      stream.insert(stream.find("\r\n") + 2,
                    "X-Pad: " + std::string(static_cast<std::size_t>(rng.uniform_int(8100, 9000)),
                                            'a') + "\r\n");
      break;
    case 3:  // bare LF line ends
      for (std::size_t at = 0; (at = stream.find("\r\n", at)) != std::string::npos;)
        stream.erase(at, 1);
      break;
    case 4: {  // random bytes
      stream.assign(static_cast<std::size_t>(rng.uniform_int(1, 300)), '\0');
      for (char& c : stream) c = static_cast<char>(rng.uniform_int(0, 255));
      break;
    }
    default:  // byte flips
      for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i)
        stream[pick(stream.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
  }
  return stream;
}

/// Checks that `wire` is a run of complete, well-formed HTTP responses;
/// returns how many, or -1 with `error` set.
int complete_responses(std::string_view wire, std::string& error) {
  int count = 0;
  while (!wire.empty()) {
    const std::size_t head_end = wire.find("\r\n\r\n");
    if (head_end == std::string_view::npos) {
      error = "incomplete head";
      return -1;
    }
    const std::string_view head = wire.substr(0, head_end);
    if (head.substr(0, 7) != "HTTP/1." || head.size() < 12 ||
        (head[7] != '0' && head[7] != '1') || head[8] != ' ' ||
        head.substr(9, 3).find_first_not_of("0123456789") != std::string_view::npos) {
      error = "bad status line: " + std::string(head.substr(0, 40));
      return -1;
    }
    const std::size_t length_at = head.find("\r\nContent-Length: ");
    if (length_at == std::string_view::npos) {
      error = "no Content-Length";
      return -1;
    }
    const std::size_t length =
        std::strtoull(std::string(head.substr(length_at + 18, 12)).c_str(), nullptr, 10);
    if (wire.size() < head_end + 4 + length) {
      error = "truncated body";
      return -1;
    }
    wire.remove_prefix(head_end + 4 + length);
    ++count;
  }
  return count;
}

class FuzzHttp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzHttp, EveryReplyIsWellFormedOrACloseWithinTheBound) {
  HttpServer server(echo_options());
  server.start();
  dsp::Rng rng(GetParam());
  int replies = 0;
  for (int round = 0; round < 50; ++round) {
    const std::string stream = fuzz_stream(rng);
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = kCloseBoundSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    // Split and sent; a send may fail once the server has closed.
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t at = 0; at < stream.size();) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(stream.size() - at)));
      if (::send(fd, stream.data() + at, chunk, MSG_NOSIGNAL) < 0) break;
      at += chunk;
    }
    ::shutdown(fd, SHUT_WR);
    std::string wire;
    char buf[4096];
    bool reset = false;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        wire.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      ASSERT_FALSE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          << "no close within " << kCloseBoundSeconds << " s after: " << stream.substr(0, 200);
      reset = n < 0;
      break;
    }
    ::close(fd);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(kCloseBoundSeconds));
    std::string error;
    const int count = complete_responses(wire, error);
    // A reset may cut the last reply short; a clean close may not.
    if (count < 0 && !reset)
      ADD_FAILURE() << error << " in reply to " << stream.substr(0, 200) << " -> "
                    << wire.substr(0, 300);
    replies += count > 0 ? count : 0;
  }
  EXPECT_GT(replies, 0);

  // The server still serves a clean request.
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /after HTTP/1.1\r\n\r\n"));
  const auto responses = read_responses(fd, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "GET /after []");
  ::close(fd);
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzHttp, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace spi::obs
