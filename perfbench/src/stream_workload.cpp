/// \file stream_workload.cpp
/// stream_speech / stream_particle: one paper app's compiled plan run as
/// long free-running gang runs (JobInstance::run on a WorkerPool) with
/// computes owned by the benchmark. Each firing busy-spins the actor's
/// modeled WCET (exec_cycles × the spin grain) and emits tokens stamped
/// with (firing, edge, position); consumers check every stamp. No
/// sockets, no JSON: the gang runtime is the whole critical path.
#include <cstring>
#include <memory>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spi;

constexpr int kSetupRepeats = 11;
/// Spin grain of the end-to-end runs: fine enough that per-firing and
/// per-message runtime cost is a visible share of the period.
constexpr std::int64_t kCycleNs = 2000;

/// The paper's two plans with the shapes bench/pipeline_period uses.
struct AppPlan {
  std::unique_ptr<apps::ErrorGenApp> speech;
  std::unique_ptr<apps::ParticleFilterApp> particle;

  explicit AppPlan(StreamApp app) {
    if (app == StreamApp::kSpeech) {
      apps::SpeechParams params;
      params.frame_size = 64;
      params.max_frame_size = 128;
      speech = std::make_unique<apps::ErrorGenApp>(3, params);
    } else {
      apps::ParticleParams params;
      params.particles = 64;
      params.max_particles = 256;
      particle = std::make_unique<apps::ParticleFilterApp>(2, params);
    }
  }
  [[nodiscard]] const core::ExecutablePlan& plan() const {
    return speech ? speech->system().plan() : particle->system().plan();
  }
};

/// 16-byte token stamp; tokens narrower than that carry a prefix of
/// its hash instead.
struct Stamp {
  std::uint64_t firing;
  std::uint32_t edge;
  std::uint32_t pos;
};

void write_stamp(std::vector<std::uint8_t>& token, const Stamp& s) {
  if (token.size() >= sizeof(Stamp)) {
    std::memcpy(token.data(), &s, sizeof s);
    return;
  }
  std::uint64_t h = Rng(s.firing * 0x9E3779B97F4A7C15ull ^ (std::uint64_t{s.edge} << 32) ^ s.pos).next();
  std::memcpy(token.data(), &h, std::min(token.size(), sizeof h));
}

bool stamp_matches(const std::vector<std::uint8_t>& token, const Stamp& s) {
  std::vector<std::uint8_t> expected(token.size());
  write_stamp(expected, s);
  const std::size_t n = std::min(token.size(), sizeof(Stamp));
  return std::memcmp(token.data(), expected.data(), n) == 0;
}

/// Benchmark-owned computes over one plan, plus everything they record.
/// Each actor's slots are written only by the worker that runs it.
class Stream {
 public:
  Stream(const core::ExecutablePlan& plan, core::JobInstance& instance)
      : graph_(plan.vts.graph), instance_(instance) {
    const std::size_t actors = graph_.actor_count();
    reps_.resize(actors);
    firings_per_iter_ = 0;
    for (std::size_t a = 0; a < actors; ++a) {
      reps_[a] = plan.repetitions.of(static_cast<df::ActorId>(a));
      firings_per_iter_ += reps_[a];
    }
    actor_state_.resize(actors);
    for (std::size_t a = 0; a < actors; ++a) {
      const auto actor = static_cast<df::ActorId>(a);
      instance_.set_compute(actor, [this, a](core::FiringContext& ctx) { fire(a, ctx); });
    }
  }

  struct RunStats {
    std::int64_t iterations = 0;
    double wall_ns = 0.0;
    double period_ns = 0.0;  ///< steady: slope of iteration completion times
    std::vector<double> latency_us;
    std::int64_t inflight_max = 0;
    double compute_ns = 0.0;  ///< summed firing busy time (traced only)
    core::ThreadedRunStats channel;
    /// Per chunk of kChunk consecutive iterations past the first tenth:
    /// period (completion slope), latency p50 and p90.
    std::vector<double> chunk_period_ns, chunk_p50_us, chunk_p90_us;
  };
  static constexpr std::size_t kChunk = 2000;

  /// One gang run of `iterations` at `cycle_ns` per exec cycle.
  RunStats run(core::WorkerPool& pool, std::int64_t iterations, std::int64_t cycle_ns,
               std::int64_t max_inflight, bool traced) {
    prepare(iterations, cycle_ns, traced);
    core::RunOptions options;
    options.iterations = iterations;
    options.max_inflight_iterations = max_inflight;
    const std::int64_t t0 = now_ns();
    instance_.run(pool, options);
    const double wall = static_cast<double>(now_ns() - t0);
    return finish(iterations, wall);
  }

  /// The same iterations walked on the calling thread.
  RunStats run_colocated(std::int64_t iterations, std::int64_t cycle_ns) {
    prepare(iterations, cycle_ns, false);
    core::RunOptions options;
    options.iterations = iterations;
    const std::int64_t t0 = now_ns();
    instance_.run_colocated(options);
    const double wall = static_cast<double>(now_ns() - t0);
    return finish(iterations, wall);
  }

  /// Per-actor digest of every produced token consumed in the last run.
  [[nodiscard]] std::vector<std::uint64_t> digests() const {
    std::vector<std::uint64_t> d;
    for (const ActorState& s : actor_state_) d.push_back(s.digest);
    return d;
  }
  [[nodiscard]] std::int64_t stamp_errors() const {
    std::int64_t n = 0;
    for (const ActorState& s : actor_state_) n += s.stamp_errors;
    return n;
  }
  [[nodiscard]] std::int64_t firings_per_iter() const { return firings_per_iter_; }

 private:
  struct ActorState {
    std::vector<std::int64_t> start;  ///< per iteration: first firing start
    std::vector<std::int64_t> end;    ///< per iteration: last firing end
    std::uint64_t digest = 0;
    std::int64_t stamp_errors = 0;
    std::int64_t busy_ns = 0;
  };

  void prepare(std::int64_t iterations, std::int64_t cycle_ns, bool traced) {
    cycle_ns_ = cycle_ns;
    traced_ = traced;
    for (ActorState& s : actor_state_) {
      s.start.assign(static_cast<std::size_t>(iterations), 0);
      s.end.assign(static_cast<std::size_t>(iterations), 0);
      s.digest = 0xcbf29ce484222325ull;
      s.stamp_errors = 0;
      s.busy_ns = 0;
    }
    instance_.reset_invocations();
  }

  void fire(std::size_t a, core::FiringContext& ctx) {
    const std::int64_t t0 = now_ns();
    ActorState& s = actor_state_[a];
    const std::int64_t k = ctx.invocation;
    const auto iter = static_cast<std::size_t>(k / reps_[a]);
    for (std::size_t i = 0; i < ctx.in_edges.size(); ++i) {
      const df::Edge& e = graph_.edge(ctx.in_edges[i]);
      const std::int64_t cons = static_cast<std::int64_t>(ctx.inputs[i].size());
      const std::int64_t prod = e.prod.is_dynamic() ? 1 : e.prod.value();
      for (std::int64_t j = 0; j < cons; ++j) {
        const std::int64_t t = k * cons + j - e.delay;
        if (t < 0) continue;  // an initial token: no producer stamp
        const Stamp expect{static_cast<std::uint64_t>(t / prod),
                           static_cast<std::uint32_t>(ctx.in_edges[i]),
                           static_cast<std::uint32_t>(t % prod)};
        const auto& token = ctx.inputs[i][static_cast<std::size_t>(j)];
        if (!stamp_matches(token, expect)) ++s.stamp_errors;
        for (std::size_t b = 0; b < std::min(token.size(), sizeof(Stamp)); ++b)
          s.digest = (s.digest ^ token[b]) * 0x100000001b3ull;
      }
    }
    const std::int64_t wcet = graph_.actor(static_cast<df::ActorId>(a)).exec_cycles * cycle_ns_;
    if (wcet > 0) spin_ns(wcet);
    for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
      const df::Edge& e = graph_.edge(ctx.out_edges[i]);
      const std::int64_t prod = e.prod.is_dynamic() ? 1 : e.prod.value();
      for (std::int64_t p = 0; p < prod; ++p) {
        auto& token = ctx.outputs[i].emplace_back(static_cast<std::size_t>(e.token_bytes), 0);
        write_stamp(token, {static_cast<std::uint64_t>(k), static_cast<std::uint32_t>(ctx.out_edges[i]),
                            static_cast<std::uint32_t>(p)});
      }
    }
    const std::int64_t t1 = now_ns();
    if (iter < s.start.size()) {
      if (k % reps_[a] == 0) s.start[iter] = t0;
      s.end[iter] = t1;
    }
    if (traced_) s.busy_ns += t1 - t0;
  }

  RunStats finish(std::int64_t iterations, double wall) {
    RunStats r;
    r.iterations = iterations;
    r.wall_ns = wall;
    r.channel = instance_.stats();
    const auto n = static_cast<std::size_t>(iterations);
    std::vector<std::int64_t> begin(n, INT64_MAX), done(n, 0);
    for (const ActorState& s : actor_state_) {
      for (std::size_t i = 0; i < n; ++i) {
        begin[i] = std::min(begin[i], s.start[i]);
        done[i] = std::max(done[i], s.end[i]);
      }
      r.compute_ns += static_cast<double>(s.busy_ns);
    }
    r.latency_us.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      r.latency_us.push_back(static_cast<double>(done[i] - begin[i]) / 1e3);
    // Steady period: completion-time slope past the first tenth.
    const std::size_t first = n / 10;
    if (n >= 2 && n - 1 > first)
      r.period_ns = static_cast<double>(done[n - 1] - done[first]) /
                    static_cast<double>(n - 1 - first);
    for (std::size_t at = first; at + kChunk <= n; at += kChunk) {
      r.chunk_period_ns.push_back(static_cast<double>(done[at + kChunk - 1] - done[at]) /
                                  static_cast<double>(kChunk - 1));
      const Summary s = summarize({r.latency_us.begin() + static_cast<std::ptrdiff_t>(at),
                                   r.latency_us.begin() + static_cast<std::ptrdiff_t>(at + kChunk)});
      r.chunk_p50_us.push_back(*s.p50);
      r.chunk_p90_us.push_back(*s.p90);
    }
    // Iterations in flight: sweep over [begin, done] intervals.
    std::vector<std::pair<std::int64_t, int>> events;
    events.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back({begin[i], +1});
      events.push_back({done[i], -1});
    }
    std::sort(events.begin(), events.end(),
              [](const auto& x, const auto& y) { return x.first != y.first ? x.first < y.first : x.second < y.second; });
    std::int64_t live = 0;
    for (const auto& ev : events) {
      live += ev.second;
      r.inflight_max = std::max(r.inflight_max, live);
    }
    return r;
  }

  const df::Graph& graph_;
  core::JobInstance& instance_;
  std::vector<std::int64_t> reps_;
  std::int64_t firings_per_iter_ = 0;
  std::vector<ActorState> actor_state_;
  std::int64_t cycle_ns_ = 0;
  bool traced_ = false;
};

/// A built plan with its instance, pool and computes.
struct Rig {
  AppPlan app;
  core::JobInstance instance;
  core::WorkerPool pool;
  Stream stream;

  explicit Rig(StreamApp which)
      : app(which), instance(app.plan()), pool(app.plan().programs.size()),
        stream(app.plan(), instance) {}
};

/// Iterations that fill about `seconds` at the given period.
std::int64_t iterations_for(double seconds, double period_ns) {
  return std::max<std::int64_t>(200, static_cast<std::int64_t>(seconds * 1e9 / period_ns));
}

void check_stream(Rig& rig, Result& result, const char* what) {
  if (const std::int64_t bad = rig.stream.stamp_errors(); bad > 0)
    result.fail_check(std::string("stream: ") + what + ": " + std::to_string(bad) +
                      " tokens with a wrong (iteration, edge) stamp");
}

/// Gang output must equal the colocated oracle's, token for token.
void check_against_colocated(Rig& rig, Result& result) {
  constexpr std::int64_t kIterations = 500;
  rig.stream.run(rig.pool, kIterations, 0, 0, false);
  check_stream(rig, result, "gang");
  const auto gang = rig.stream.digests();
  rig.stream.run_colocated(kIterations, 0);
  check_stream(rig, result, "colocated");
  if (rig.stream.digests() != gang)
    result.fail_check("stream: gang token stream differs from run_colocated");
  result.attempted += 2 * kIterations;
}

void layer_metrics(Rig& rig, double seconds, std::uint64_t seed, Result& result) {
  auto& L = result.layers;
  const core::ExecutablePlan& plan = rig.app.plan();
  const double mcm_ns = plan.predicted_mcm() * static_cast<double>(kCycleNs);
  const double period_guess = mcm_ns * 1.5;
  // Untraced / traced pairs: the traced run adds per-firing busy-time
  // accounting. Run order alternates with the seed.
  std::vector<double> bare_period, traced_period;
  Stream::RunStats traced_stats;
  // At least two whole chunks past the warm-up tenth.
  const std::int64_t iters =
      std::max<std::int64_t>(iterations_for(seconds * 0.12, period_guess), 5000);
  for (int pair = 0; pair < 2; ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = ((k + pair + static_cast<int>(seed & 1)) % 2) == 1;
      const Stream::RunStats r = rig.stream.run(rig.pool, iters, kCycleNs, 0, traced);
      check_stream(rig, result, "traced pass");
      result.attempted += r.iterations;
      auto& into = traced ? traced_period : bare_period;
      into.insert(into.end(), r.chunk_period_ns.begin(), r.chunk_period_ns.end());
      if (traced) traced_stats = r;
    }
  }
  const double bare = median(bare_period).value_or(0.0);
  const double traced = median(traced_period).value_or(0.0);
  L["trace_overhead_pct"] = {bare > 0.0 ? 100.0 * (traced - bare) / bare : 0.0, "%"};

  const auto n = static_cast<double>(traced_stats.iterations);
  const core::ThreadedRunStats& c = traced_stats.channel;
  L["core.firings_per_iter"] = {static_cast<double>(rig.stream.firings_per_iter()), "count"};
  L["core.messages_per_iter"] = {static_cast<double>(c.messages) / n, "count"};
  L["core.bytes_per_iter"] = {static_cast<double>(c.payload_bytes) / n, "bytes"};
  L["core.block_us_per_iter"] = {
      static_cast<double>(c.producer_block_micros + c.consumer_block_micros) / n, "us"};
  L["core.compute_share"] = {traced_stats.compute_ns /
                                 (traced_stats.wall_ns * static_cast<double>(plan.programs.size())),
                             "ratio"};
  L["core.inflight_max"] = {static_cast<double>(traced_stats.inflight_max), "count"};
  L["core.period_us"] = {traced / 1e3, "us"};
  L["core.period_over_mcm"] = {traced / mcm_ns, "ratio"};

  const Stream::RunStats colocated =
      rig.stream.run_colocated(iterations_for(seconds * 0.05, mcm_ns * plan.programs.size()),
                               kCycleNs);
  check_stream(rig, result, "colocated baseline");
  L["core.colocated_period_us"] = {colocated.wall_ns / static_cast<double>(colocated.iterations) / 1e3,
                                   "us"};
  const Stream::RunStats barriered =
      rig.stream.run(rig.pool, iterations_for(seconds * 0.05, period_guess), kCycleNs, 1, false);
  check_stream(rig, result, "barriered baseline");
  L["core.barriered_period_us"] = {barriered.period_ns / 1e3, "us"};
  result.attempted += colocated.iterations + barriered.iterations;
}

/// Per-firing / per-message cost model: period ≈ MCM + k·firings +
/// m·messages over a spin-grain sweep. One plan alone fixes firings and
/// messages per iteration, so the fit takes both paper plans; the
/// sums of the normal equations (overhead = k·F + m·M) accumulate here.
/// Points are weighted by 1/MCM², i.e. the fit minimizes relative error,
/// so the coarse grains' larger absolute jitter does not swamp the
/// fine grains where the overhead shows.
struct CostFit {
  double sff = 0, sfm = 0, smm = 0, sfo = 0, smo = 0;

  void sweep(Rig& rig, double seconds, const char* tag, Result& result) {
    const core::ExecutablePlan& plan = rig.app.plan();
    for (const std::int64_t cycle : {1000, 3000, 10000, 30000, 100000}) {
      const double mcm_ns = plan.predicted_mcm() * static_cast<double>(cycle);
      const std::int64_t iters = std::max<std::int64_t>(
          60, static_cast<std::int64_t>(seconds * 0.035e9 / (mcm_ns * 1.3)));
      const Stream::RunStats r = rig.stream.run(rig.pool, iters, cycle, 0, false);
      check_stream(rig, result, "grain sweep");
      result.attempted += r.iterations;
      const double f = static_cast<double>(rig.stream.firings_per_iter());
      const double m = static_cast<double>(r.channel.messages) / static_cast<double>(r.iterations);
      const double overhead = r.period_ns - mcm_ns;
      const double w = 1.0 / (mcm_ns * mcm_ns);
      sff += w * f * f;
      sfm += w * f * m;
      smm += w * m * m;
      sfo += w * f * overhead;
      smo += w * m * overhead;
      result.details[std::string("sweep.") + tag + ".cycle_" + std::to_string(cycle / 1000) +
                     "us.period_over_mcm"] = {r.period_ns / mcm_ns, "ratio"};
    }
  }

  void report(Result& result) const {
    const double det = sff * smm - sfm * sfm;
    const double k = det != 0.0 ? (sfo * smm - smo * sfm) / det : 0.0;
    const double m = det != 0.0 ? (smo * sff - sfo * sfm) / det : 0.0;
    result.layers["core.ns_per_firing"] = {k, "ns"};
    result.layers["core.ns_per_message"] = {m, "ns"};
  }
};

}  // namespace

void run_stream(StreamApp which, const RunConfig& config, Result& result) {
  // setup_s: compile plus JobInstance and WorkerPool build; median.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(which);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  result.e2e["setup_s"] = {median(setup_s), "s"};

  check_against_colocated(*rig, result);
  const core::ExecutablePlan& plan = rig->app.plan();
  const double mcm_ns = plan.predicted_mcm() * static_cast<double>(kCycleNs);
  result.details["mcm_us"] = {mcm_ns / 1e3, "us"};
  result.details["cycle_ns"] = {static_cast<double>(kCycleNs), "ns"};
  result.details["procs"] = {static_cast<double>(plan.programs.size()), "count"};

  if (config.trace) {
    layer_metrics(*rig, config.seconds, config.seed, result);
    CostFit fit;
    fit.sweep(*rig, config.seconds, which == StreamApp::kSpeech ? "speech" : "particle", result);
    rig.reset();  // one pool at a time: never more workers than cores
    Rig other(which == StreamApp::kSpeech ? StreamApp::kParticle : StreamApp::kSpeech);
    fit.sweep(other, config.seconds, which == StreamApp::kSpeech ? "particle" : "speech", result);
    fit.report(result);
    return;
  }
  // Fixed iteration counts (from the MCM bound, not from a timed
  // calibration), so every run asks the same work. The figures are
  // medians over chunks of 2000 iterations (about 50 ms) across several
  // sub-runs: a preemption of one worker by the host moves one chunk,
  // not the reported figure.
  constexpr int kRuns = 10;
  const std::int64_t iterations = iterations_for(0.08 * config.seconds, 1.45 * mcm_ns);
  const Stream::RunStats warm = rig->stream.run(rig->pool, iterations / 4, kCycleNs, 0, false);
  check_stream(*rig, result, "warm-up");
  result.attempted += warm.iterations;
  std::vector<double> periods, p50s, p90s;
  std::vector<double> all_latency;
  for (int i = 0; i < kRuns; ++i) {
    const Stream::RunStats r = rig->stream.run(rig->pool, iterations, kCycleNs, 0, false);
    check_stream(*rig, result, "pipelined run");
    result.attempted += r.iterations;
    periods.insert(periods.end(), r.chunk_period_ns.begin(), r.chunk_period_ns.end());
    p50s.insert(p50s.end(), r.chunk_p50_us.begin(), r.chunk_p50_us.end());
    p90s.insert(p90s.end(), r.chunk_p90_us.begin(), r.chunk_p90_us.end());
    all_latency.insert(all_latency.end(), r.latency_us.begin(), r.latency_us.end());
  }
  const double period_ns = median(periods).value_or(0.0);
  result.e2e["latency_p50_us"] = {median(p50s), "us"};
  result.e2e["latency_p90_us"] = {median(p90s), "us"};
  result.e2e["throughput_per_s"] = {period_ns > 0.0 ? std::optional<double>(1e9 / period_ns)
                                                    : std::nullopt,
                                    "1/s"};
  result.details["chunks"] = {static_cast<double>(periods.size()), "count"};
  result.details["period_us"] = {period_ns / 1e3, "us"};
  result.details["period_over_mcm"] = {period_ns / mcm_ns, "ratio"};
  Result::put_summary(result.details, "iteration_latency_us", summarize(all_latency), "us");
}

}  // namespace perfbench
