#include "report.hpp"

#include <cstdio>

namespace perfbench {

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate, double seconds) {
  std::vector<std::int64_t> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= seconds) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return due;
}

std::optional<double> percentile(const std::vector<double>& sorted, double level) {
  const auto n = static_cast<double>(sorted.size());
  if (n * (1.0 - level / 100.0) < 10.0 - 1e-9) return std::nullopt;
  const double rank = std::ceil(level / 100.0 * n);
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = percentile(samples, 50.0);
  s.p90 = percentile(samples, 90.0);
  s.p99 = percentile(samples, 99.0);
  for (const double level : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (const auto v = percentile(samples, level)) {
      s.tail_level = level;
      s.tail = v;
    }
  }
  return s;
}

std::optional<double> median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Chunked chunked(const std::vector<double>& in_time_order, std::size_t chunk) {
  Chunked c;
  std::vector<double> p50, p90, p99;
  for (std::size_t at = 0; chunk > 0 && at + chunk <= in_time_order.size(); at += chunk) {
    const Summary s = summarize({in_time_order.begin() + static_cast<std::ptrdiff_t>(at),
                                 in_time_order.begin() + static_cast<std::ptrdiff_t>(at + chunk)});
    ++c.chunks;
    if (s.p50) p50.push_back(*s.p50);
    if (s.p90) p90.push_back(*s.p90);
    if (s.p99) p99.push_back(*s.p99);
  }
  c.p50 = median(p50);
  c.p90 = median(p90);
  c.p99 = median(p99);
  return c;
}

bool step_passes(const StepOutcome& step, const CapacityLimits& limits) {
  return step.p99_us.has_value() && *step.p99_us <= limits.p99_limit_us &&
         !step.backlog_growing && step.failed_ratio <= limits.max_failed_ratio;
}

double search_capacity(const std::function<StepOutcome(double)>& measure,
                       const CapacityLimits& limits, double start, double growth, int max_steps,
                       int refine, std::vector<StepOutcome>& steps) {
  const auto run = [&](double rate) {
    steps.push_back(measure(rate));
    return step_passes(steps.back(), limits);
  };
  // Bracket the knee: grow from a passing start, or shrink from a
  // failing one, until the verdict flips.
  double pass = 0.0;
  double fail = 0.0;
  if (run(start)) {
    pass = start;
    for (int i = 1; i < max_steps && fail == 0.0; ++i) {
      const double rate = pass * growth;
      if (run(rate)) pass = rate;
      else fail = rate;
    }
    if (fail == 0.0) return pass;  // never failed within the step budget
  } else {
    fail = start;
    for (int i = 1; i < max_steps && pass == 0.0; ++i) {
      const double rate = fail / growth;
      if (run(rate)) pass = rate;
      else fail = rate;
    }
    if (pass == 0.0) return 0.0;  // nothing passed
  }
  for (int i = 0; i < refine; ++i) {
    const double mid = std::sqrt(pass * fail);
    if (run(mid)) pass = mid;
    else fail = mid;
  }
  return pass;
}

void Result::put_summary(std::map<std::string, Value>& into, const std::string& prefix,
                         const Summary& s, const std::string& unit) {
  into[prefix + ".p50"] = {s.p50, unit};
  into[prefix + ".p90"] = {s.p90, unit};
  into[prefix + ".p99"] = {s.p99, unit};
  into[prefix + ".tail"] = {s.tail, unit};
  into[prefix + ".tail_level"] = {s.tail_level > 0.0 ? std::optional<double>(s.tail_level)
                                                     : std::nullopt,
                                  "percentile"};
  into[prefix + ".count"] = {static_cast<double>(s.count), "count"};
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_values(std::string& out, const std::map<std::string, Value>& values) {
  out += '{';
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, name);
    out += ": {\"value\": ";
    if (v.value && std::isfinite(*v.value)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", *v.value);
      out += buf;
    } else {
      out += "null";
    }
    out += ", \"unit\": ";
    append_escaped(out, v.unit);
    out += '}';
  }
  out += '}';
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"check_failures\": [";
  for (std::size_t i = 0; i < check_failures.size(); ++i) {
    if (i != 0) out += ", ";
    append_escaped(out, check_failures[i]);
  }
  out += "], \"e2e\": ";
  append_values(out, e2e);
  out += ", \"layers\": ";
  append_values(out, layers);
  out += ", \"details\": ";
  append_values(out, details);
  out += '}';
  return out;
}

}  // namespace perfbench
