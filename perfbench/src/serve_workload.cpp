/// \file serve_workload.cpp
/// serve_tenants: open-loop Poisson traffic against an
/// in-process serve::PlanServer behind the benchmark's own
/// obs::HttpServer, whose batch handler forwards to
/// PlanServer::handle_burst (and, when traced, times each call).
///
/// One client thread drives at most four pipelined keep-alive
/// connections. Each request is timed from when it was *due*, so a
/// stall is charged to every request queued behind it; how late the
/// generator itself ran is reported as client lag. Every /job response
/// is checked against a single-job reference computed before the timed
/// windows, and connection 0 scrapes GET /metrics once a second.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/http_server.hpp"
#include "serve/plan_server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spi;

constexpr int kConnections = 4;
constexpr std::int64_t kScrapeEveryNs = 1'000'000'000;
constexpr std::int64_t kDrainTimeoutNs = 3'000'000'000;
constexpr int kSetupRepeats = 11;

struct Profile {
  int tenants;
  std::size_t frame;
  std::size_t order;
  double particle_share;
  std::size_t particle_steps;
  double nominal_rps;  ///< the fixed offered rate latency is reported at
  /// Capacity: the highest offered rate whose p99 stays under this limit
  /// with no growing backlog and at most max_failed_ratio failed.
  double p99_limit_us;
  double max_failed_ratio;
};

/// serve_tenants: 4 tenants, 32-sample frames (order 4), 2% particle
/// jobs of 6 steps, 4000 req/s nominal. That keeps the server core about
/// a quarter busy: at 8000 req/s queueing amplified the host's speed
/// swings, and the p90 spread across runs neared 0.25.
constexpr Profile kProfile{4, 32, 4, 0.02, 6, 4000.0, 10000.0, 0.001};

// ------------------------------------------------------------------ inputs

/// One distinct job of the seeded pool, with its reference result.
struct PoolJob {
  bool particle = false;
  std::string body_fields;      ///< JSON members after "app"/"tenant"
  std::vector<double> frame;    ///< speech inputs (as the server parses them)
  std::vector<double> coeffs;
  apps::ParticleFilterApp::ParticleJobSpec spec;  ///< particle inputs
  std::vector<double> expected;  ///< errors (speech) / estimates (particle)
  double expected_rmse = 0.0;
};

/// Formats a value the way the request carries it and returns the double
/// the server will parse back, so the reference sees identical inputs.
double render_value(std::string& out, double v, const char* format) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, format, v);
  out.append(buf, static_cast<std::size_t>(n));
  return std::strtod(buf, nullptr);
}

void render_array(std::string& out, std::vector<double>& values, const char* format) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    values[i] = render_value(out, values[i], format);
  }
  out += ']';
}

/// The server's built-in models, rebuilt with the same default shapes:
/// single-job references and the apps/dsp replays run on these.
struct Models {
  serve::PlanServerOptions defaults;
  apps::SpeechCompressor compressor{defaults.speech_params};
  apps::ErrorGenApp speech{defaults.speech_pes, defaults.speech_params};
  apps::ParticleFilterApp particle{defaults.particle_pes, defaults.particle_params};
  core::JobInstance speech_instance{speech.system().plan()};
  core::JobInstance particle_instance{particle.system().plan()};
};

std::vector<PoolJob> make_pool(const Profile& profile, std::uint64_t seed, Models& models) {
  constexpr std::size_t kSpeechJobs = 256;
  constexpr std::size_t kParticleJobs = 32;
  std::vector<PoolJob> pool;
  Rng rng(sub_seed(seed, 1));
  for (std::size_t j = 0; j < kSpeechJobs; ++j) {
    PoolJob job;
    job.frame.resize(profile.frame);
    double phase = rng.uniform() * 6.283;
    const double step = 0.05 + 0.3 * rng.uniform();
    for (double& x : job.frame) {
      x = 0.6 * std::sin(phase) + 0.4 * (rng.uniform() - 0.5);
      phase += step;
    }
    job.coeffs.resize(profile.order);
    for (std::size_t k = 0; k < profile.order; ++k)
      job.coeffs[k] = (0.5 + 0.2 * (rng.uniform() - 0.5)) / static_cast<double>(k + 1);
    job.body_fields = ", \"frame\": ";
    render_array(job.body_fields, job.frame, "%.4f");
    job.body_fields += ", \"coeffs\": ";
    render_array(job.body_fields, job.coeffs, "%.5f");
    job.expected = models.compressor.frame_errors(job.frame, job.coeffs);
    pool.push_back(std::move(job));
  }
  const auto& model = models.defaults.particle_params.model;
  for (std::size_t j = 0; j < kParticleJobs; ++j) {
    PoolJob job;
    job.particle = true;
    job.spec.seed = 1 + rng.below(1u << 30);
    dsp::Rng trajectory_rng(rng.next());
    job.spec.trajectory = dsp::simulate_crack(model, profile.particle_steps, trajectory_rng);
    job.body_fields = ", \"seed\": " + std::to_string(job.spec.seed) + ", \"observations\": ";
    render_array(job.body_fields, job.spec.trajectory.observations, "%.17g");
    job.body_fields += ", \"truth\": ";
    render_array(job.body_fields, job.spec.trajectory.truth, "%.17g");
    // Reference: a batch of one with the job's seed.
    const auto results = models.particle.track_batch({&job.spec, 1}, models.particle_instance);
    job.expected = results.front().estimates;
    job.expected_rmse = results.front().rmse_vs_truth;
    pool.push_back(std::move(job));
  }
  return pool;
}

/// Full HTTP request bytes for every (pool job, tenant) pair.
std::vector<std::string> render_wire(const std::vector<PoolJob>& pool, int tenants) {
  std::vector<std::string> wire;
  wire.reserve(pool.size() * static_cast<std::size_t>(tenants));
  for (const PoolJob& job : pool) {
    for (int t = 0; t < tenants; ++t) {
      std::string body = job.particle ? "{\"app\": \"particle\"" : "{\"app\": \"speech\"";
      if (tenants > 1) body += ", \"tenant\": \"t" + std::to_string(t) + "\"";
      body += job.body_fields;
      body += "}";
      wire.push_back("POST /job HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n"
                     "Content-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body);
    }
  }
  return wire;
}

const std::string kScrapeWire = "GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n";

// ---------------------------------------------------------- output checks

/// Parses the number array following `"key": [` into `out`.
bool parse_array(std::string_view body, std::string_view key, std::vector<double>& out) {
  out.clear();
  const std::size_t at = body.find(key);
  if (at == std::string_view::npos) return false;
  std::size_t p = body.find('[', at + key.size());
  if (p == std::string_view::npos) return false;
  const char* cursor = body.data() + p + 1;
  const char* const end = body.data() + body.size();
  while (cursor < end) {
    while (cursor < end && (*cursor == ' ' || *cursor == ',')) ++cursor;
    if (cursor < end && *cursor == ']') return true;
    double v = 0.0;
    const auto [next, ec] = std::from_chars(cursor, end, v);
    if (ec != std::errc()) return false;
    out.push_back(v);
    cursor = next;
  }
  return false;
}

bool parse_number(std::string_view body, std::string_view key, double& v) {
  const std::size_t at = body.find(key);
  if (at == std::string_view::npos) return false;
  const char* cursor = body.data() + at + key.size();
  const char* const end = body.data() + body.size();
  while (cursor < end && (*cursor == ' ' || *cursor == ':')) ++cursor;
  return std::from_chars(cursor, end, v).ec == std::errc();
}

/// Bit-exact comparison of a /job response with the job's reference.
bool response_matches(const PoolJob& job, std::string_view body, std::vector<double>& scratch) {
  if (!job.particle) {
    if (!parse_array(body, "\"errors\"", scratch)) return false;
    return scratch == job.expected;
  }
  double rmse = 0.0;
  if (!parse_array(body, "\"estimates\"", scratch) || !parse_number(body, "\"rmse\"", rmse))
    return false;
  return scratch == job.expected && rmse == job.expected_rmse;
}

// ------------------------------------------------------------------ server

/// Per-burst probe state, touched only by the server's event-loop
/// thread between HttpServer::start() and stop().
struct BurstProbe {
  bool traced = false;
  /// The event-loop thread's CPU clock, published at its first burst so
  /// the client can read the server's CPU time around a window without
  /// touching the hot path.
  std::atomic<bool> have_clock{false};
  clockid_t clock{};
  std::int64_t bursts = 0;
  std::int64_t requests = 0;
  std::vector<double> burst_us;
  std::int64_t inside_cpu_ns = 0;
  std::int64_t first_cpu_ns = -1;
  std::int64_t last_cpu_ns = 0;

  /// Clears the traced counters (the clock stays: same thread).
  void reset(bool trace) {
    traced = trace;
    bursts = requests = inside_cpu_ns = last_cpu_ns = 0;
    first_cpu_ns = -1;
    burst_us.clear();
  }
};

/// The server's event loop and the client thread each get a core of
/// their own: the last two the process may run on. Unpinned, the
/// scheduler's wake-affine placement at times woke the server on the
/// core where the client spins, which cut capacity by up to 12x.
struct Cores {
  int server = -1;
  int client = -1;
};

Cores pick_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() < 2) return {};
  return {cpus[cpus.size() - 2], cpus.back()};
}

/// Pins the calling thread (threads it starts inherit the mask).
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Restores the calling thread's affinity on scope exit, so the other
/// workload families (whose worker pools inherit it) run unpinned.
class AffinityGuard {
 public:
  AffinityGuard() { saved_ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0; }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;
  ~AffinityGuard() {
    if (saved_ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

/// Keeps one core out of idle with a SCHED_IDLE spinner, which yields
/// to any other runnable thread at once. The guest halts an idle vCPU,
/// and waking it costs the hypervisor 0.05 to over 1 ms on a shared
/// host, varying from minute to minute; with the spinner the server's
/// wake-up is a plain in-guest preemption (p99 about 25 us).
class KeepWarm {
 public:
  explicit KeepWarm(int cpu) {
    if (cpu < 0) return;
    thread_ = std::thread([this, cpu] {
      pin_to(cpu);
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  KeepWarm(const KeepWarm&) = delete;
  KeepWarm& operator=(const KeepWarm&) = delete;
  ~KeepWarm() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A PlanServer with default options behind the benchmark's HTTP front.
class Host {
 public:
  explicit Host(Cores cores) : cores_(cores) {}
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  ~Host() { stop(); }

  void start() {
    obs::HttpServer::Options options;
    options.batch_handler = [this](std::span<obs::HttpRequest> requests,
                                   std::vector<obs::HttpResponse>& responses) {
      if (!probe_.have_clock.load(std::memory_order_relaxed) &&
          pthread_getcpuclockid(pthread_self(), &probe_.clock) == 0)
        probe_.have_clock.store(true, std::memory_order_release);
      if (!probe_.traced) {
        server_.handle_burst(requests, responses);
        return;
      }
      const std::int64_t cpu0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      server_.handle_burst(requests, responses);
      const std::int64_t t1 = now_ns();
      const std::int64_t cpu1 = thread_cpu_ns();
      if (probe_.first_cpu_ns < 0) probe_.first_cpu_ns = cpu0;
      probe_.last_cpu_ns = cpu1;
      probe_.inside_cpu_ns += cpu1 - cpu0;
      ++probe_.bursts;
      probe_.requests += static_cast<std::int64_t>(requests.size());
      probe_.burst_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    };
    http_ = std::make_unique<obs::HttpServer>(std::move(options));
    pin_to(cores_.server);  // the event-loop thread inherits this core
    http_->start();
    pin_to(cores_.client);
    warm_ = std::make_unique<KeepWarm>(cores_.server);
  }
  void stop() {
    warm_.reset();
    if (http_) http_->stop();
    http_.reset();
  }
  [[nodiscard]] int port() const { return http_ ? http_->port() : -1; }
  /// Only while stopped: the event-loop thread owns the probe otherwise.
  BurstProbe& probe() { return probe_; }
  /// CPU nanoseconds the event-loop thread has used; -1 before its first
  /// burst. Safe while the server runs.
  [[nodiscard]] std::int64_t server_cpu_ns() const {
    if (!probe_.have_clock.load(std::memory_order_acquire)) return -1;
    timespec ts{};
    if (clock_gettime(probe_.clock, &ts) != 0) return -1;
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
  serve::PlanServer& server() { return server_; }

 private:
  Cores cores_;
  serve::PlanServer server_;
  BurstProbe probe_;
  std::unique_ptr<obs::HttpServer> http_;
  std::unique_ptr<KeepWarm> warm_;
};

// ------------------------------------------------------------------ client

struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the window start
  std::int32_t wire = -1;   ///< index into the wire table; -1 = scrape
  std::int32_t job = -1;
  std::int32_t tenant = 0;
};

struct WindowStats {
  std::int64_t attempted = 0;
  std::int64_t rejected = 0;   ///< 429
  std::int64_t errors = 0;     ///< other non-2xx
  std::int64_t timeouts = 0;   ///< never answered within the drain timeout
  std::int64_t mismatches = 0; ///< 200 with a wrong result
  std::int64_t scrape_failures = 0;
  std::vector<double> scrape_us;  ///< GET /metrics latency, from due
  std::int64_t start_ns = 0;  ///< window start (absolute)
  std::vector<double> latency_us;
  std::vector<std::int64_t> latency_due_ns;  ///< due offset of each latency sample
  std::vector<std::vector<double>> tenant_latency_us;
  std::vector<double> lag_us;
  std::int64_t backlog_max = 0;
  double backlog_first_quarter = 0.0;
  double backlog_last_quarter = 0.0;
  std::int64_t bytes_out = 0;
  std::int64_t bytes_in = 0;
  std::int64_t messages = 0;  ///< requests incl. scrapes
  std::string first_mismatch;

  [[nodiscard]] double failed_ratio() const {
    const std::int64_t bad = rejected + errors + timeouts + mismatches;
    return attempted > 0 ? static_cast<double>(bad) / static_cast<double>(attempted) : 0.0;
  }
};

class Client {
 public:
  Client(int port, const std::vector<std::string>& wire, const std::vector<PoolJob>& pool)
      : port_(port), wire_(wire), pool_(pool) {
    connect_all();
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { close_all(); }

  WindowStats run(const std::vector<Arrival>& arrivals, int tenants);

 private:
  struct Pending {
    std::int64_t due_abs_ns;
    std::int32_t job;
    std::int32_t tenant;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  void connect_all();
  void close_all();
  bool flush(Conn& c, WindowStats& stats);
  /// Reads what is available and consumes every complete response.
  bool receive(Conn& c, WindowStats& stats);

  int port_;
  const std::vector<std::string>& wire_;
  const std::vector<PoolJob>& pool_;
  std::vector<Conn> conns_;
  std::vector<double> scratch_;
  std::int64_t outstanding_ = 0;
};

void Client::connect_all() {
  conns_.assign(kConnections, Conn{});
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) {
      close_all();
      throw std::runtime_error("client: socket() failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      close_all();
      throw std::runtime_error("client: connect() failed");
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
  }
  outstanding_ = 0;
}

void Client::close_all() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  conns_.clear();
}

bool Client::flush(Conn& c, WindowStats& stats) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    c.out_off += static_cast<std::size_t>(n);
    stats.bytes_out += n;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

bool Client::receive(Conn& c, WindowStats& stats) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return false;
    c.in.append(buf, static_cast<std::size_t>(n));
    stats.bytes_in += n;
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  std::size_t off = 0;
  const std::int64_t now = now_ns();
  for (;;) {
    const std::size_t head_end = c.in.find("\r\n\r\n", off);
    if (head_end == std::string::npos) break;
    const std::string_view head(c.in.data() + off, head_end - off);
    const std::size_t cl = head.find("Content-Length: ");
    std::size_t length = 0;
    if (cl != std::string_view::npos)
      std::from_chars(head.data() + cl + 16, head.data() + head.size(), length);
    if (c.in.size() < head_end + 4 + length) break;
    int status = 0;
    if (head.size() > 12) std::from_chars(head.data() + 9, head.data() + 12, status);
    const std::string_view body(c.in.data() + head_end + 4, length);
    off = head_end + 4 + length;
    if (c.pending.empty()) return false;  // a response nobody asked for
    const Pending p = c.pending.front();
    c.pending.pop_front();
    --outstanding_;
    if (p.job < 0) {
      if (status != 200 || body.find("spi_serve_batches_total") == std::string_view::npos)
        ++stats.scrape_failures;
      stats.scrape_us.push_back(static_cast<double>(now - p.due_abs_ns) / 1e3);
      continue;
    }
    const double latency = static_cast<double>(now - p.due_abs_ns) / 1e3;
    if (status == 200) {
      if (response_matches(pool_[static_cast<std::size_t>(p.job)], body, scratch_)) {
        stats.latency_us.push_back(latency);
        stats.latency_due_ns.push_back(p.due_abs_ns - stats.start_ns);
        stats.tenant_latency_us[static_cast<std::size_t>(p.tenant)].push_back(latency);
      } else {
        ++stats.mismatches;
        if (stats.first_mismatch.empty())
          stats.first_mismatch = "job " + std::to_string(p.job) + ": " +
                                 std::string(body.substr(0, 120));
      }
    } else if (status == 429) {
      ++stats.rejected;
    } else {
      ++stats.errors;
    }
  }
  c.in.erase(0, off);
  return true;
}

WindowStats Client::run(const std::vector<Arrival>& arrivals, int tenants) {
  WindowStats stats;
  stats.tenant_latency_us.resize(static_cast<std::size_t>(tenants));
  stats.latency_us.reserve(arrivals.size());
  stats.lag_us.reserve(arrivals.size());
  const std::int64_t span_ns = arrivals.empty() ? 0 : arrivals.back().due_ns;
  const std::int64_t start = now_ns() + 200'000;
  stats.start_ns = start;
  std::size_t next = 0;
  std::size_t rr = 0;
  double q1_sum = 0.0, q4_sum = 0.0;
  std::int64_t q1_n = 0, q4_n = 0;
  std::vector<pollfd> pfds(conns_.size());
  bool broken = false;

  while (!broken) {
    const std::int64_t now = now_ns();
    const std::int64_t t = now - start;
    bool wrote = false;
    while (next < arrivals.size() && arrivals[next].due_ns <= t) {
      const Arrival& a = arrivals[next++];
      Conn& c = a.wire < 0 ? conns_[0] : conns_[rr++ % conns_.size()];
      c.out += a.wire < 0 ? kScrapeWire : wire_[static_cast<std::size_t>(a.wire)];
      c.pending.push_back({start + a.due_ns, a.job, a.tenant});
      ++outstanding_;
      ++stats.messages;
      if (a.wire >= 0) {
        ++stats.attempted;
        stats.lag_us.push_back(static_cast<double>(t - a.due_ns) / 1e3);
      }
      stats.backlog_max = std::max(stats.backlog_max, outstanding_);
      if (a.due_ns < span_ns / 4) {
        q1_sum += static_cast<double>(outstanding_);
        ++q1_n;
      } else if (a.due_ns >= span_ns - span_ns / 4) {
        q4_sum += static_cast<double>(outstanding_);
        ++q4_n;
      }
      wrote = true;
    }
    if (wrote)
      for (Conn& c : conns_)
        if (!c.out.empty() && !flush(c, stats)) broken = true;

    if (next == arrivals.size() && outstanding_ == 0) break;
    if (t > span_ns + kDrainTimeoutNs) break;

    // Poll without sleeping: the client owns its core, and a sleeping
    // wait would add the host's wake-up latency to every due time.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    timespec timeout{};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) broken = true;
      if ((pfds[i].revents & POLLIN) && !receive(conns_[i], stats)) broken = true;
      if ((pfds[i].revents & POLLOUT) && !flush(conns_[i], stats)) broken = true;
    }
  }
  stats.backlog_first_quarter = q1_n > 0 ? q1_sum / static_cast<double>(q1_n) : 0.0;
  stats.backlog_last_quarter = q4_n > 0 ? q4_sum / static_cast<double>(q4_n) : 0.0;
  // Whatever was never sent or answered timed out.
  for (std::size_t i = next; i < arrivals.size(); ++i) {
    if (arrivals[i].wire < 0) continue;
    ++stats.attempted;
    ++stats.timeouts;
  }
  for (const Conn& c : conns_)
    for (const Pending& p : c.pending)
      if (p.job >= 0) ++stats.timeouts;
  if (outstanding_ != 0 || broken) {
    // Late responses would be matched against the wrong requests:
    // start over on fresh connections.
    close_all();
    connect_all();
  }
  return stats;
}

// ---------------------------------------------------------------- schedule

/// The seeded open-loop schedule of one window: Poisson job arrivals
/// (tenant, app and pool entry drawn per request) plus, when `scrape`,
/// a GET /metrics every second.
std::vector<Arrival> make_arrivals(std::uint64_t seed, double rate, double seconds,
                                   const Profile& profile, std::size_t speech_jobs,
                                   std::size_t particle_jobs, bool scrape) {
  const std::vector<std::int64_t> due = poisson_schedule(seed, rate, seconds);
  Rng rng(sub_seed(seed, 2));
  std::vector<Arrival> arrivals;
  arrivals.reserve(due.size() + 8);
  std::int64_t next_scrape = scrape ? kScrapeEveryNs / 2 : INT64_MAX;
  for (const std::int64_t d : due) {
    while (next_scrape <= d) {
      arrivals.push_back({next_scrape, -1, -1, 0});
      next_scrape += kScrapeEveryNs;
    }
    Arrival a;
    a.due_ns = d;
    a.tenant = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(profile.tenants)));
    const bool particle = rng.uniform() < profile.particle_share;
    a.job = particle ? static_cast<std::int32_t>(speech_jobs + rng.below(particle_jobs))
                     : static_cast<std::int32_t>(rng.below(speech_jobs));
    a.wire = a.job * profile.tenants + a.tenant;
    arrivals.push_back(a);
  }
  return arrivals;
}

/// A window's latencies in due-time order, for chunked medians.
std::vector<double> in_due_order(const WindowStats& w) {
  std::vector<std::size_t> order(w.latency_us.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return w.latency_due_ns[x] < w.latency_due_ns[y]; });
  std::vector<double> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(w.latency_us[i]);
  return out;
}

// --------------------------------------------------------- server readouts

/// Sums of the per-tenant rollups in one GET /tenants body.
struct StageTotals {
  double requests = 0.0;
  double stage_ns[5] = {0, 0, 0, 0, 0};
};
constexpr const char* kStages[5] = {"admission", "queue", "batch", "exec", "reply"};

StageTotals parse_tenants(const std::string& json) {
  StageTotals totals;
  double v = 0.0;
  for (std::size_t at = json.find("\"requests\": "); at != std::string::npos;
       at = json.find("\"requests\": ", at + 1))
    if (parse_number(std::string_view(json).substr(at), "\"requests\"", v)) totals.requests += v;
  for (int k = 0; k < 5; ++k) {
    const std::string key = std::string("\"") + kStages[k] + "\": {\"ns_total\"";
    for (std::size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1))
      if (parse_number(std::string_view(json).substr(at), "\"ns_total\"", v))
        totals.stage_ns[k] += v;
  }
  return totals;
}

struct ServerCounters {
  std::int64_t batches = 0;
  std::int64_t speech_jobs = 0;
  std::int64_t particle_jobs = 0;
  std::int64_t speech_batches = 0;
  std::int64_t particle_batches = 0;
};

ServerCounters read_counters(serve::PlanServer& server) {
  obs::MetricRegistry& m = server.metrics();
  ServerCounters c;
  c.batches = m.counter_total("spi_serve_batches_total");
  c.speech_batches = m.counter_value("spi_serve_batches_total", {{"app", "speech"}});
  c.particle_batches = m.counter_value("spi_serve_batches_total", {{"app", "particle"}});
  for (const auto& s : m.collect()) {
    if (s.name != "spi_serve_jobs_total") continue;
    for (const auto& [k, v] : s.labels) {
      if (k != "app") continue;
      if (v == "speech") c.speech_jobs += s.counter_value;
      if (v == "particle") c.particle_jobs += s.counter_value;
    }
  }
  return c;
}

// ------------------------------------------------------------------- runner

class ServeRun {
 public:
  ServeRun(const RunConfig& config, Result& result) : config_(config), result_(result) {}

  void run();

 private:
  void setup();
  std::vector<Arrival> arrivals(std::uint64_t purpose, double rate, double seconds,
                                bool scrape) {
    return make_arrivals(sub_seed(config_.seed, purpose), rate, seconds, profile_, speech_jobs_,
                         pool_.size() - speech_jobs_, scrape);
  }
  /// Runs one window; outputs are always checked, and `strict` windows
  /// (nominal rate) count every refusal or error as a failed operation.
  WindowStats window(const std::vector<Arrival>& arrivals, bool strict);
  /// Stops the HTTP front (joining its event loop, so server state and
  /// the burst probe may be read) and drops the client connections.
  void stop_host();
  void start_host(bool traced);
  double capacity(double step_seconds, double& lag_p99_us, std::int64_t& backlog_max);
  void traced_layers();
  void replay_apps(double mean_speech_batch, double mean_particle_batch);

  const Profile& profile_ = kProfile;
  RunConfig config_;
  Result& result_;
  Cores cores_ = pick_cores();
  std::unique_ptr<Models> models_;
  std::vector<PoolJob> pool_;
  std::size_t speech_jobs_ = 0;
  std::vector<std::string> wire_;
  std::unique_ptr<Host> host_;
  std::unique_ptr<Client> client_;
  std::uint64_t window_counter_ = 100;
};

void ServeRun::setup() {
  // Inputs and references first, off every timed path.
  models_ = std::make_unique<Models>();
  pool_ = make_pool(profile_, config_.seed, *models_);
  speech_jobs_ = 0;
  while (speech_jobs_ < pool_.size() && !pool_[speech_jobs_].particle) ++speech_jobs_;
  wire_ = render_wire(pool_, profile_.tenants);

  // setup_s: PlanServer construction (compiles and pre-caches the
  // built-in plans) until the server is listening; median of repeats.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    host_.reset();
    const std::int64_t t0 = now_ns();
    host_ = std::make_unique<Host>(cores_);
    host_->start();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  result_.e2e["setup_s"] = {median(setup_s), "s"};
  client_ = std::make_unique<Client>(host_->port(), wire_, pool_);
}

WindowStats ServeRun::window(const std::vector<Arrival>& arrivals, bool strict) {
  WindowStats w = client_->run(arrivals, profile_.tenants);
  result_.attempted += w.attempted;
  for (std::int64_t i = 0; i < w.mismatches; ++i)
    result_.fail_check(i == 0 ? "serve: response differs from reference: " + w.first_mismatch
                              : "serve: response differs from reference");
  for (std::int64_t i = 0; i < w.errors; ++i) result_.fail_check("serve: non-2xx response");
  for (std::int64_t i = 0; i < w.scrape_failures; ++i)
    result_.fail_check("serve: GET /metrics scrape failed");
  if (strict) {
    for (std::int64_t i = 0; i < w.rejected; ++i)
      result_.fail_check("serve: 429 at the nominal rate");
    for (std::int64_t i = 0; i < w.timeouts; ++i)
      result_.fail_check("serve: request unanswered at the nominal rate");
  }
  return w;
}

void ServeRun::stop_host() {
  client_.reset();
  host_->stop();
}

void ServeRun::start_host(bool traced) {
  host_->probe().reset(traced);
  host_->start();
  client_ = std::make_unique<Client>(host_->port(), wire_, pool_);
}

double ServeRun::capacity(double step_seconds, double& lag_p99_us,
                          std::int64_t& backlog_max) {
  const CapacityLimits limits{profile_.p99_limit_us, profile_.max_failed_ratio};
  std::vector<StepOutcome> steps;
  std::vector<WindowStats> stats;
  const auto attempt = [&](double rate) {
    // Enough requests that p99 has 10 samples beyond it.
    const double seconds = std::max(step_seconds, 1500.0 / rate);
    WindowStats w = window(arrivals(window_counter_++, rate, seconds, false), false);
    StepOutcome out;
    out.offered = rate;
    out.p99_us = summarize(w.latency_us).p99;
    out.failed_ratio = w.failed_ratio();
    out.backlog_growing = w.backlog_last_quarter > 2.0 * w.backlog_first_quarter + 16.0;
    return std::make_pair(out, std::move(w));
  };
  // A failing step is measured once more: one stall of the host should
  // not end the search below the knee.
  const auto measure = [&](double rate) {
    auto [out, w] = attempt(rate);
    if (!step_passes(out, limits)) std::tie(out, w) = attempt(rate);
    stats.push_back(std::move(w));
    return out;
  };
  const double cap = search_capacity(measure, limits, 2.0 * profile_.nominal_rps, 1.5, 8, 3, steps);
  // Lag and backlog at the highest passing step.
  lag_p99_us = 0.0;
  backlog_max = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].offered != cap) continue;
    const Summary lag = summarize(stats[i].lag_us);
    lag_p99_us = lag.p99.value_or(lag.tail.value_or(0.0));
    backlog_max = stats[i].backlog_max;
  }
  std::string trail;
  for (const StepOutcome& s : steps) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%.0f:%s", trail.empty() ? "" : " ", s.offered,
                  step_passes(s, limits) ? "ok" : "fail");
    trail += buf;
  }
  std::fprintf(stderr, "perfbench: capacity steps %s\n", trail.c_str());
  return cap;
}

void ServeRun::run() {
  setup();
  const double T = config_.seconds;
  // Warm-up: caches, lazy allocation, TCP windows.
  window(arrivals(1, profile_.nominal_rps, 0.3, false), true);

  if (!config_.trace) {
    const double seconds = 0.8 * T;
    const std::int64_t cpu0 = host_->server_cpu_ns();
    const WindowStats w = window(arrivals(2, profile_.nominal_rps, seconds, true), true);
    const std::int64_t cpu1 = host_->server_cpu_ns();
    const Summary s = summarize(w.latency_us);
    // Medians over chunks of 250 consecutive requests (by due time).
    const Chunked c = chunked(in_due_order(w), 250);
    result_.e2e["latency_p50_us"] = {c.p50, "us"};
    result_.e2e["latency_p90_us"] = {c.p90, "us"};
    result_.details["req_us.chunks"] = {static_cast<double>(c.chunks), "count"};
    if (!w.scrape_us.empty())
      result_.details["client.scrape_us.max"] = {
          *std::max_element(w.scrape_us.begin(), w.scrape_us.end()), "us"};
    Result::put_summary(result_.details, "req_us", s, "us");
    result_.details["failed_ratio"] = {w.failed_ratio(), "ratio"};
    // Throughput: requests per second of server-thread CPU at the
    // nominal rate, i.e. the rate one fully busy server core sustains
    // at this request mix. The p99-limited capacity search runs in
    // traced runs (details: traced.capacity_rps); across runs it
    // spread by a third of its median, too wide for a bound.
    const double served = static_cast<double>(s.count);
    if (cpu0 >= 0 && cpu1 > cpu0 && served > 0.0) {
      const double cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
      result_.e2e["throughput_per_s"] = {served / cpu_s, "1/s"};
      result_.details["server.cpu_us_per_req"] = {cpu_s * 1e6 / served, "us"};
    }
    result_.details["nominal_rps"] = {profile_.nominal_rps, "1/s"};
    return;
  }
  traced_layers();
}

void ServeRun::traced_layers() {
  const double T = config_.seconds;
  // Untraced / traced pairs at the nominal rate, alternating; the
  // difference of the latency medians is the tracing overhead.
  std::vector<double> bare_p50, traced_p50, client_lat;
  std::vector<std::vector<double>> tenant_lat(static_cast<std::size_t>(profile_.tenants));
  std::vector<double> burst_us;
  std::int64_t bursts = 0, burst_requests = 0;
  double outside_cpu_ns = 0.0;
  StageTotals stage_delta;
  ServerCounters traced_counters;
  std::int64_t rejected = 0, errors = 0, bytes_in = 0, bytes_out = 0, messages = 0;
  for (int pair = 0; pair < 2; ++pair) {
    for (const bool traced : {false, true}) {
      stop_host();
      const ServerCounters before = read_counters(host_->server());
      const StageTotals stage_before = parse_tenants(host_->server().tenants_json());
      start_host(traced);
      const WindowStats w =
          window(arrivals(10 + static_cast<std::uint64_t>(pair * 2 + traced),
                          profile_.nominal_rps, std::max(0.15 * T, 0.2), true),
                 true);
      const Summary s = summarize(w.latency_us);
      (traced ? traced_p50 : bare_p50).push_back(s.p50.value_or(s.mean));
      if (!traced) continue;
      stop_host();
      const BurstProbe& p = host_->probe();
      bursts += p.bursts;
      burst_requests += p.requests;
      burst_us.insert(burst_us.end(), p.burst_us.begin(), p.burst_us.end());
      if (p.first_cpu_ns >= 0)
        outside_cpu_ns += static_cast<double>(p.last_cpu_ns - p.first_cpu_ns - p.inside_cpu_ns);
      const StageTotals after = parse_tenants(host_->server().tenants_json());
      stage_delta.requests += after.requests - stage_before.requests;
      for (int k = 0; k < 5; ++k)
        stage_delta.stage_ns[k] += after.stage_ns[k] - stage_before.stage_ns[k];
      const ServerCounters c = read_counters(host_->server());
      traced_counters.batches += c.batches - before.batches;
      traced_counters.speech_batches += c.speech_batches - before.speech_batches;
      traced_counters.particle_batches += c.particle_batches - before.particle_batches;
      traced_counters.speech_jobs += c.speech_jobs - before.speech_jobs;
      traced_counters.particle_jobs += c.particle_jobs - before.particle_jobs;
      client_lat.insert(client_lat.end(), w.latency_us.begin(), w.latency_us.end());
      for (std::size_t t = 0; t < tenant_lat.size(); ++t)
        tenant_lat[t].insert(tenant_lat[t].end(), w.tenant_latency_us[t].begin(),
                             w.tenant_latency_us[t].end());
      rejected += w.rejected;
      errors += w.errors + w.timeouts + w.mismatches;
      bytes_in += w.bytes_out;  // the server's bytes in are the client's bytes out
      bytes_out += w.bytes_in;
      messages += w.messages;
      start_host(false);
    }
  }
  auto& L = result_.layers;
  const double bare = median(bare_p50).value_or(0.0);
  const double traced = median(traced_p50).value_or(0.0);
  L["trace_overhead_pct"] = {bare > 0.0 ? 100.0 * (traced - bare) / bare : 0.0, "%"};
  const auto per = [](double total, double n) {
    return n > 0.0 ? std::optional<double>(total / n) : std::nullopt;
  };
  const double reqs = static_cast<double>(burst_requests);
  L["http.reqs_per_burst"] = {per(reqs, static_cast<double>(bursts)), "count"};
  L["http.cpu_us_per_req"] = {per(outside_cpu_ns / 1e3, reqs), "us"};
  L["http.bytes_in_per_req"] = {per(static_cast<double>(bytes_in), static_cast<double>(messages)),
                                "bytes"};
  L["http.bytes_out_per_req"] = {
      per(static_cast<double>(bytes_out), static_cast<double>(messages)), "bytes"};
  const Summary burst = summarize(burst_us);
  L["serve.burst_us.p50"] = {burst.p50, "us"};
  L["serve.burst_us.p99"] = {burst.p99, "us"};
  double burst_total = 0.0;
  for (const double b : burst_us) burst_total += b;
  L["serve.us_per_req"] = {per(burst_total, reqs), "us"};
  L["serve.batches_per_burst"] = {
      per(static_cast<double>(traced_counters.batches), static_cast<double>(bursts)),
      "count"};
  double stage_sum_us = 0.0;
  for (int k = 0; k < 5; ++k) {
    const auto mean = per(stage_delta.stage_ns[k] / 1e3, stage_delta.requests);
    L[std::string("serve.stage_us.") + kStages[k]] = {mean, "us"};
    stage_sum_us += mean.value_or(0.0);
  }
  const Summary client = summarize(client_lat);
  L["serve.unattributed_us"] = {client.count > 0 ? std::optional<double>(client.mean - stage_sum_us)
                                                 : std::nullopt,
                                "us"};
  L["serve.rejected_429"] = {static_cast<double>(rejected), "count"};
  L["serve.errors"] = {static_cast<double>(errors), "count"};
  std::vector<double> tenant_p50;
  for (auto& lat : tenant_lat)
    if (const auto p = summarize(lat).p50) tenant_p50.push_back(*p);
  double ratio = 0.0;
  if (!tenant_p50.empty())
    ratio = *std::max_element(tenant_p50.begin(), tenant_p50.end()) /
            *std::min_element(tenant_p50.begin(), tenant_p50.end());
  L["client.tenant_p50_max_over_min"] = {tenant_p50.empty() ? std::nullopt
                                                            : std::optional<double>(ratio),
                                         "ratio"};
  for (std::size_t t = 0; t < tenant_lat.size(); ++t)
    Result::put_summary(result_.details, "client.tenant" + std::to_string(t) + "_us",
                        summarize(tenant_lat[t]), "us");
  Result::put_summary(result_.details, "traced.req_us", client, "us");

  double lag = 0.0;
  std::int64_t backlog = 0;
  const double cap = capacity(0.2, lag, backlog);
  result_.details["traced.capacity_rps"] = {cap, "1/s"};
  L["client.lag_us.p99"] = {lag, "us"};
  L["client.backlog_max"] = {static_cast<double>(backlog), "count"};

  stop_host();
  replay_apps(per(static_cast<double>(traced_counters.speech_jobs),
                  static_cast<double>(traced_counters.speech_batches))
                  .value_or(1.0),
              per(static_cast<double>(traced_counters.particle_jobs),
                  static_cast<double>(traced_counters.particle_batches))
                  .value_or(1.0));
}

/// Replays the workload's job mix through the apps' batched firings at
/// the traced run's mean batch size, and the speech kernel alone, so
/// exec splits into kernel time and colocated-runtime time.
void ServeRun::replay_apps(double mean_speech_batch, double mean_particle_batch) {
  auto& L = result_.layers;
  const auto batch_of = [](double mean) {
    return static_cast<std::size_t>(std::max(1.0, std::round(mean)));
  };
  std::vector<apps::ErrorGenApp::SpeechJobSpec> speech;
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> particle;
  for (std::size_t j = 0; j < pool_.size(); ++j) {
    if (pool_[j].particle) particle.push_back(pool_[j].spec);
    else speech.push_back({pool_[j].frame, pool_[j].coeffs});
  }
  const double budget_ns = 0.08e9 * config_.seconds / 10.0;
  {
    const std::size_t b = std::min(batch_of(mean_speech_batch), speech.size());
    std::int64_t jobs = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t at = 0; static_cast<double>(now_ns() - t0) < budget_ns; at = (at + b) % (speech.size() - b + 1)) {
      const auto results = models_->speech.compute_errors_batch({speech.data() + at, b},
                                                                models_->speech_instance);
      for (std::size_t k = 0; k < b; ++k)
        if (results[k] != pool_[at + k].expected)
          result_.fail_check("apps: compute_errors_batch differs from frame_errors");
      jobs += static_cast<std::int64_t>(b);
    }
    L["apps.speech_us_per_job"] = {static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(jobs), "us"};
  }
  {
    const std::size_t b = std::min(batch_of(mean_particle_batch), particle.size());
    std::int64_t jobs = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t at = 0; static_cast<double>(now_ns() - t0) < budget_ns; at = (at + b) % (particle.size() - b + 1)) {
      const auto results = models_->particle.track_batch({particle.data() + at, b},
                                                         models_->particle_instance);
      for (std::size_t k = 0; k < b; ++k)
        if (results[k].estimates != pool_[speech_jobs_ + at + k].expected)
          result_.fail_check("apps: track_batch differs from the batch-of-one reference");
      jobs += static_cast<std::int64_t>(b);
    }
    L["apps.particle_us_per_job"] = {static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(jobs), "us"};
  }
  {
    std::int64_t frames = 0;
    volatile double sink = 0.0;
    const std::int64_t t0 = now_ns();
    for (std::size_t at = 0; static_cast<double>(now_ns() - t0) < budget_ns; at = (at + 1) % speech.size()) {
      const auto errors = models_->compressor.frame_errors(speech[at].frame, speech[at].coeffs);
      sink = sink + errors.front();
      ++frames;
    }
    L["dsp.frame_errors_us"] = {static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(frames), "us"};
  }
}

}  // namespace

void run_serve(const RunConfig& config, Result& result) {
  const AffinityGuard restore;
  ServeRun(config, result).run();
}

}  // namespace perfbench
