/// \file unit_tests.cpp
/// Unit tests of the benchmark's own machinery: the seeded arrival
/// schedule, the percentile rule and the capacity search. Plain checks
/// that stay on in every build type; exits nonzero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "report.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void schedule_is_deterministic() {
  const auto a = poisson_schedule(7, 5000.0, 2.0);
  const auto b = poisson_schedule(7, 5000.0, 2.0);
  const auto c = poisson_schedule(8, 5000.0, 2.0);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  check(!a.empty() && std::is_sorted(a.begin(), a.end()), "arrivals are ordered");
  check(a.back() < 2'000'000'000, "arrivals stay inside the window");
  // Poisson count: mean 10000, sd 100.
  check(std::abs(static_cast<double>(a.size()) - 10000.0) < 500.0, "arrival count matches the rate");
  check(sub_seed(7, 1) == sub_seed(7, 1) && sub_seed(7, 1) != sub_seed(7, 2),
        "sub-seeds are stable and distinct");
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(percentile(v, 50.0) == 500.0, "p50 of 1..1000 is 500");
  check(percentile(v, 99.0) == 990.0, "p99 of 1..1000 has exactly 10 beyond it");
  check(!percentile(v, 99.9).has_value(), "p99.9 of 1000 samples is null, not 0");
  v.pop_back();
  check(!percentile(v, 99.0).has_value(), "p99 of 999 samples is null");
  const Summary s = summarize(v);
  check(s.count == 999 && !s.p99.has_value(), "summary keeps the null p99");
  check(s.tail_level == 90.0 && s.tail == 900.0, "tail falls back to the highest valid level");
  const Summary few = summarize({1.0, 2.0, 3.0});
  check(!few.p50.has_value() && !few.tail.has_value() && few.tail_level == 0.0,
        "three samples support no percentile at all");
  check(summarize({}).count == 0, "empty summary");
  // Chunked medians: one chunk inflated by a stall does not move them.
  std::vector<double> series;
  for (int chunk = 0; chunk < 5; ++chunk)
    for (int i = 1; i <= 100; ++i) series.push_back(chunk == 2 ? 1000.0 * i : i);
  const Chunked c = chunked(series, 100);
  check(c.chunks == 5 && c.p50 == 50.0 && c.p90 == 90.0, "chunked medians ignore one stalled chunk");
  check(!c.p99.has_value(), "chunked p99 is null when chunks are too small");
  check(chunked(series, 1000).chunks == 0 && !chunked(series, 1000).p50, "no whole chunk, no value");
  check(median({3.0, 1.0, 2.0}) == 2.0 && median({1.0, 2.0}) == 1.5 && !median({}).has_value(),
        "median of small sets");
}

void capacity_search_stops_at_growing_backlog() {
  // Synthetic server: latency stays low, but the backlog grows from
  // 7000 req/s up; the search must settle just below 7000.
  int calls = 0;
  const auto measure = [&](double rate) {
    ++calls;
    StepOutcome out;
    out.offered = rate;
    out.p99_us = 100.0;
    out.backlog_growing = rate >= 7000.0;
    return out;
  };
  std::vector<StepOutcome> steps;
  const CapacityLimits limits{1000.0, 0.001};
  const double cap = search_capacity(measure, limits, 1000.0, 1.5, 10, 4, steps);
  check(cap < 7000.0 && cap > 7000.0 / 1.5, "capacity lands below the backlog knee");
  check(cap > 6500.0, "refinement narrows the bracket");
  check(static_cast<int>(steps.size()) == calls && calls <= 10, "search stops after the knee");
  check(steps.size() == 6 + 4, "six steps bracket the knee (1000 .. 7594), then four bisections");
  for (const StepOutcome& s : steps)
    check(step_passes(s, limits) == (s.offered < 7000.0), "every step is judged by its backlog");

  // p99 over the limit, or too many failures, also fail a step.
  check(!step_passes({1000.0, 2000.0, 0.0, false}, limits), "p99 over the limit fails");
  check(!step_passes({1000.0, std::nullopt, 0.0, false}, limits), "unknown p99 fails");
  check(!step_passes({1000.0, 10.0, 0.01, false}, limits), "failed ratio over the limit fails");
  // Starting above the knee, the search steps down, then refines.
  std::vector<StepOutcome> down;
  const double from_above = search_capacity(measure, limits, 20000.0, 1.5, 10, 4, down);
  check(from_above < 7000.0 && from_above > 6500.0, "a failing start searches downwards");
  std::vector<StepOutcome> none;
  const auto always_bad = [](double rate) { return StepOutcome{rate, std::nullopt, 1.0, true}; };
  check(search_capacity(always_bad, limits, 1000.0, 1.5, 10, 4, none) == 0.0 && none.size() == 10,
        "capacity is 0 when no step within the budget passes");
}

}  // namespace

int main() {
  schedule_is_deterministic();
  percentile_rule();
  capacity_search_stops_at_growing_backlog();
  if (g_failures == 0) std::printf("perfbench unit tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
