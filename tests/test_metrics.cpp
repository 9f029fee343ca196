#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace spi::obs {
namespace {

TEST(Metrics, ConcurrentCounterIncrementsSumExactly) {
  MetricRegistry registry;
  Counter& counter = registry.counter("test_total");
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::int64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(registry.counter_value("test_total", {}), kThreads * kPerThread);
}

TEST(Metrics, ConcurrentHistogramObservationsSumExactly) {
  Histogram hist(Histogram::linear_bounds(10.0, 10.0, 9));  // 10..90 + inf
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) hist.observe(static_cast<double>((t * 17 + i) % 100));
    });
  for (auto& t : threads) t.join();
  const Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::int64_t bucket_sum = 0;
  for (std::int64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, snap.count);  // every observation landed in exactly one bucket
}

TEST(Metrics, HistogramQuantilesInterpolate) {
  Histogram hist(Histogram::linear_bounds(10.0, 10.0, 10));
  for (int v = 1; v <= 100; ++v) hist.observe(static_cast<double>(v));
  EXPECT_NEAR(hist.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(hist.quantile(0.9), 90.0, 10.0);
  EXPECT_GE(hist.quantile(1.0), hist.quantile(0.5));
  EXPECT_DOUBLE_EQ(Histogram(Histogram::linear_bounds(1, 1, 3)).quantile(0.5), 0.0);  // empty
  const std::string summary = hist.summary("us");
  EXPECT_NE(summary.find("count=100"), std::string::npos);
  EXPECT_NE(summary.find("p99="), std::string::npos);
}

TEST(Metrics, HistogramBoundHelpersValidate) {
  EXPECT_EQ(Histogram::exponential_bounds(1.0, 2.0, 4), (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(Histogram::linear_bounds(0.0, 5.0, 3), (std::vector<double>{0, 5, 10}));
  EXPECT_THROW(Histogram::exponential_bounds(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_bounds(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 2.0}), std::invalid_argument);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameIdentity) {
  MetricRegistry registry;
  Counter& a = registry.counter("msgs_total", {{"channel", "x"}});
  Counter& b = registry.counter("msgs_total", {{"channel", "x"}});
  Counter& c = registry.counter("msgs_total", {{"channel", "y"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(4);
  EXPECT_EQ(registry.counter_total("msgs_total"), 7);  // summed over label sets
  // Label order does not matter for identity.
  Gauge& g1 = registry.gauge("g", {{"a", "1"}, {"b", "2"}});
  Gauge& g2 = registry.gauge("g", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&g1, &g2);
}

TEST(Metrics, RegistryRejectsKindMismatch) {
  MetricRegistry registry;
  registry.counter("series");
  EXPECT_THROW(registry.gauge("series"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("series", {1.0}), std::invalid_argument);
  registry.gauge("other");
  EXPECT_THROW(registry.counter("other"), std::invalid_argument);
}

TEST(Metrics, GaugeSetAddAndConcurrentAdd) {
  MetricRegistry registry;
  Gauge& gauge = registry.gauge("temperature");
  gauge.set(10.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 10.5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) gauge.add(1.0);
    });
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 10.5 + 40'000.0);
}

TEST(Metrics, JsonExportIsStructurallySound) {
  MetricRegistry registry;
  registry.counter("c_total", {{"channel", "a\"b"}}, "with \"quotes\"").inc(5);
  registry.gauge("g", {}, "a gauge").set(1.25);
  registry.histogram("h", {1.0, 2.0}).observe(1.5);
  const std::string json = registry.to_json();
  EXPECT_EQ(json.front(), '{');
  std::size_t opens = 0, closes = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++opens;
    if (c == '}') ++closes;
  }
  EXPECT_EQ(opens, closes);
  EXPECT_FALSE(in_string);  // all strings terminated
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);  // escaped label value
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(Metrics, PrometheusExportFollowsExposition) {
  MetricRegistry registry;
  registry.counter("spi_msgs_total", {{"channel", "x"}}, "messages").inc(9);
  registry.gauge("spi_phase_seconds", {{"phase", "vts"}}).set(0.5);
  Histogram& h = registry.histogram("spi_latency", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# HELP spi_msgs_total messages"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE spi_msgs_total counter"), std::string::npos);
  EXPECT_NE(prom.find("spi_msgs_total{channel=\"x\"} 9"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE spi_phase_seconds gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE spi_latency histogram"), std::string::npos);
  EXPECT_NE(prom.find("spi_latency_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("spi_latency_bucket{le=\"5\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("spi_latency_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("spi_latency_count 3"), std::string::npos);
  // Exactly one TYPE line per metric name even with many series.
  registry.counter("spi_msgs_total", {{"channel", "y"}}).inc(1);
  const std::string prom2 = registry.to_prometheus();
  std::size_t type_lines = 0;
  for (std::size_t pos = prom2.find("# TYPE spi_msgs_total counter"); pos != std::string::npos;
       pos = prom2.find("# TYPE spi_msgs_total counter", pos + 1))
    ++type_lines;
  EXPECT_EQ(type_lines, 1u);
}

// The documented quantile edge cases (metrics.hpp, docs/observability.md):
// these are a contract, not incidental behavior.
TEST(Metrics, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile is 0.
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

  // All mass in the implicit +Inf bucket: the floor (largest finite
  // bound) is reported — never infinity, never an invented value.
  Histogram overflow({1.0, 2.0});
  overflow.observe(50.0);
  overflow.observe(99.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(1.0), 2.0);

  // ... and with no finite bounds at all, the floor is 0.
  Histogram unbounded((std::vector<double>{}));
  unbounded.observe(7.0);
  EXPECT_DOUBLE_EQ(unbounded.quantile(0.5), 0.0);

  // q=0: the lower edge of the first nonempty bucket; q=1: the upper
  // bound of the last nonempty finite bucket.
  Histogram hist({10.0, 20.0, 30.0});
  hist.observe(15.0);  // (10, 20]
  hist.observe(25.0);  // (20, 30]
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 30.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(hist.quantile(-3.0), hist.quantile(0.0));
  EXPECT_DOUBLE_EQ(hist.quantile(7.0), hist.quantile(1.0));
}

// Hostile label values and help strings through both exporters: the
// JSON must stay parseable and the Prometheus exposition must escape
// per 0.0.4 — label values escape backslash, quote and newline; HELP
// lines escape only backslash and newline (a quote stays literal).
TEST(Metrics, ExportersEscapeHostileStrings) {
  MetricRegistry registry;
  const std::string hostile_value = "a\"b\\c\nd\te\rf";
  const std::string hostile_help = "help \"quoted\" with\nnewline and \\backslash";
  registry.counter("spi_hostile_total", {{"channel", hostile_value}}, hostile_help).inc(1);

  const std::string json = registry.to_json();
  // No raw control characters may survive into the JSON document
  // (newlines between elements are document formatting, not content).
  for (char c : json)
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20u || c == '\n') << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf"), std::string::npos) << json;

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# HELP spi_hostile_total help \"quoted\" with\\nnewline and "
                      "\\\\backslash\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("channel=\"a\\\"b\\\\c\\nd\te\rf\""), std::string::npos) << prom;
  // The HELP line must not have broken the line structure: exactly one
  // physical line starts with "# HELP spi_hostile_total".
  std::size_t help_lines = 0;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("# HELP spi_hostile_total", 0) == 0) ++help_lines;
  EXPECT_EQ(help_lines, 1u);
}

// Snapshot consistency (docs/observability.md "Live telemetry"): an
// export taken while writers are mutating the registry must still be a
// well-formed document with internally consistent values.  collect()
// freezes every series in one pass under the registry lock; the
// histogram snapshot derives its count from the bucket reads, so the
// exported +Inf cumulative always equals the exported count even when
// observe() races the export.
TEST(Metrics, ExportIsConsistentUnderConcurrentWrites) {
  MetricRegistry registry;
  Counter& counter = registry.counter("spi_hammer_total", {{"channel", "c0"}});
  Histogram& hist = registry.histogram("spi_hammer_us", Histogram::exponential_bounds(1, 2, 8));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      counter.inc();
      hist.observe(static_cast<double>(i++ % 300));
    }
  });

  for (int round = 0; round < 200; ++round) {
    const std::string json = registry.to_json();
    EXPECT_EQ(obs::json::validate(json), "") << json;
    const std::string prom = registry.to_prometheus();
    // Parse the histogram lines back out: the +Inf cumulative bucket
    // must equal the _count line — a torn snapshot breaks this.
    std::int64_t inf_bucket = -1, count = -1;
    std::istringstream lines(prom);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("spi_hammer_us_bucket{le=\"+Inf\"} ", 0) == 0)
        inf_bucket = std::stoll(line.substr(line.rfind(' ') + 1));
      else if (line.rfind("spi_hammer_us_count ", 0) == 0)
        count = std::stoll(line.substr(line.rfind(' ') + 1));
    }
    ASSERT_GE(inf_bucket, 0) << prom;
    ASSERT_GE(count, 0) << prom;
    EXPECT_EQ(inf_bucket, count);
  }
  stop.store(true);
  writer.join();

  // Quiescent export agrees with the instruments exactly.
  const auto series = registry.collect();
  bool saw_counter = false, saw_hist = false;
  for (const MetricRegistry::SeriesSnapshot& s : series) {
    if (s.name == "spi_hammer_total") {
      saw_counter = true;
      EXPECT_EQ(s.counter_value, counter.value());
    } else if (s.name == "spi_hammer_us") {
      saw_hist = true;
      EXPECT_EQ(s.histogram.count, hist.count());
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST(Metrics, ScopedTimerRecordsElapsedSeconds) {
  MetricRegistry registry;
  Gauge& gauge = registry.gauge("phase_seconds");
  Histogram& hist = registry.histogram("phase_hist", {0.5, 1.0});
  {
    ScopedTimer timer(&gauge, &hist);
    EXPECT_GE(timer.elapsed_seconds(), 0.0);
  }
  EXPECT_GT(gauge.value(), 0.0);
  EXPECT_LT(gauge.value(), 1.0);  // this block does not take a second
  EXPECT_EQ(hist.count(), 1);
}

}  // namespace
}  // namespace spi::obs
