/// \file report.hpp
/// Shared pieces of the benchmark: clocks, the seeded RNG, the
/// percentile rule, the capacity search and the result document every
/// workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Burns wall time without yielding (sleeps overshoot by scheduler
/// quanta, far more than a fine-grain firing).
inline void spin_ns(std::int64_t ns) {
  const std::int64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) {
  }
}

/// splitmix64: a tiny, fully specified generator, so a seed yields the
/// same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Exponential variate with the given rate (inverse transform).
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for one purpose from the workload seed.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed ^ (purpose * 0xD6E8FEB86659FD93ull)).next();
}

/// Poisson arrival offsets (ns from the window start) at `rate` per
/// second over `seconds`. Deterministic in (seed, rate, seconds).
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate, double seconds);

// ---------------------------------------------------------------- percentiles

/// The percentile rule: a percentile is reported only when at least 10
/// samples lie beyond it (nearest-rank); otherwise it is null, never 0.
[[nodiscard]] std::optional<double> percentile(const std::vector<double>& sorted, double level);

/// A timing distribution as the benchmark reports it: the median, p99,
/// and the highest of the standard levels that still has 10 samples
/// beyond it, with the sample count.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  std::optional<double> p50;
  std::optional<double> p90;
  std::optional<double> p99;
  double tail_level = 0.0;  ///< 0 when no level qualifies
  std::optional<double> tail;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Median of a small set (setup repeats, per-window values); null when empty.
[[nodiscard]] std::optional<double> median(std::vector<double> values);

/// A latency series cut into consecutive chunks of `chunk` samples (in
/// time order): the median across chunks of each chunk's p50, p90 and
/// p99 (a level is null when a chunk has fewer than 10 samples beyond
/// it). A stall of the host inflates the chunks it overlaps, not the
/// median across chunks, as long as it hits fewer than half of them.
struct Chunked {
  std::size_t chunks = 0;
  std::optional<double> p50;
  std::optional<double> p90;
  std::optional<double> p99;
};
[[nodiscard]] Chunked chunked(const std::vector<double>& in_time_order, std::size_t chunk);

// ---------------------------------------------------------- capacity search

/// One offered-rate step of a capacity search.
struct StepOutcome {
  double offered = 0.0;
  std::optional<double> p99_us;  ///< null: too few samples to tell
  double failed_ratio = 0.0;
  bool backlog_growing = false;
};

struct CapacityLimits {
  double p99_limit_us = 0.0;
  double max_failed_ratio = 0.0;
};

[[nodiscard]] bool step_passes(const StepOutcome& step, const CapacityLimits& limits);

/// Highest offered rate that passes: from `start`, grows the rate by
/// `growth` until a step fails (or shrinks it until one passes), within
/// `max_steps`, then bisects geometrically between the last pass and
/// the first fail `refine` times. Returns 0 when no step passes. Every
/// measured step is appended to `steps`.
[[nodiscard]] double search_capacity(const std::function<StepOutcome(double)>& measure,
                                     const CapacityLimits& limits, double start, double growth,
                                     int max_steps, int refine, std::vector<StepOutcome>& steps);

// ------------------------------------------------------------------ result

/// One metric value; null = not measured / not enough samples.
struct Value {
  std::optional<double> value;
  std::string unit;
};

/// What one workload run produces.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;  ///< first few output mismatches
  std::map<std::string, Value> e2e;         ///< end-to-end metrics
  std::map<std::string, Value> layers;      ///< per-layer metrics
  std::map<std::string, Value> details;     ///< everything else worth reading

  void fail_check(std::string what) {
    ++failed;
    if (check_failures.size() < 8) check_failures.push_back(std::move(what));
  }
  /// Adds "<prefix>.p50", ".p90", ".p99", ".tail" (+ ".tail_level",
  /// ".count") to `into` from a summary.
  static void put_summary(std::map<std::string, Value>& into, const std::string& prefix,
                          const Summary& s, const std::string& unit);
  [[nodiscard]] std::string to_json() const;
};

}  // namespace perfbench
