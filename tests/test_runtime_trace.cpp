/// The wall-clock runtime trace: the flight recorder captures every
/// firing of a run, and the critical-path report renders that log as
/// the Chrome trace `spi_compile --trace-out` writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/job_instance.hpp"
#include "core/spi_system.hpp"
#include "core/worker_pool.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace spi::obs {
namespace {

/// Extracts the numeric `"key":<number>` value of every Chrome event
/// whose category is `category`, in order of appearance.
std::vector<double> slice_fields(const std::string& json, const std::string& category,
                                 const std::string& key) {
  std::vector<double> values;
  const std::string cat = "\"cat\":\"" + category + "\"";
  const std::string needle = "\"" + key + "\":";
  for (std::size_t pos = json.find(cat); pos != std::string::npos;
       pos = json.find(cat, pos + 1)) {
    const std::size_t end = json.find('}', pos);
    const std::size_t at = json.find(needle, pos);
    if (at != std::string::npos && at < end)
      values.push_back(std::stod(json.substr(at + needle.size())));
  }
  return values;
}

FlightEvent event(std::int32_t proc, FlightEventKind kind, std::int32_t actor, std::int64_t t,
                  std::int64_t iteration) {
  FlightEvent e;
  e.t = t;
  e.proc = proc;
  e.actor = actor;
  e.kind = kind;
  e.iteration = iteration;
  return e;
}

TEST(RuntimeTrace, JsonParseableAndMonotonic) {
  FlightLog log;
  log.time_unit = "cycles";
  log.proc_count = 2;
  log.actor_names = {"alpha", "beta", "gamma"};
  // Grouped by proc, so proc 1's early-listed firing starts last; the
  // exporter merges both processors into one time-sorted stream.
  log.events = {event(1, FlightEventKind::kFireBegin, 1, 50, 1),
                event(1, FlightEventKind::kFireEnd, 1, 70, 1),
                event(0, FlightEventKind::kFireBegin, 0, 10, 0),
                event(0, FlightEventKind::kFireEnd, 0, 30, 0),
                event(0, FlightEventKind::kFireBegin, 2, 30, 0),
                event(0, FlightEventKind::kFireEnd, 2, 30, 0)};
  const std::string json = analyze_critical_path(log).to_chrome_trace_json(log);

  EXPECT_EQ(json.front(), '{');
  std::size_t opens = 0, closes = 0;
  for (char c : json) {
    if (c == '{') ++opens;
    if (c == '}') ++closes;
  }
  EXPECT_EQ(opens, closes);

  const std::vector<double> ts = slice_fields(json, "firing", "ts");
  ASSERT_EQ(ts.size(), 3u);  // one slice per firing, the zero-length one too
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));  // monotonic timestamps
  for (double dur : slice_fields(json, "firing", "dur")) EXPECT_GE(dur, 0.0);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(RuntimeTrace, ClockIsMonotonicAndSpansClamped) {
  FlightRecorder recorder(1);
  std::int64_t last = recorder.now_ns();
  for (int i = 0; i < 100; ++i) {
    const std::int64_t now = recorder.now_ns();
    EXPECT_GE(now, last);
    last = now;
    recorder.record(0, FlightEventKind::kFireBegin, 0, -1, 0, i);
    recorder.record(0, FlightEventKind::kFireEnd, 0, -1, 0, i);
  }
  const FlightLog log = recorder.collect();
  ASSERT_EQ(log.events.size(), 200u);
  for (std::size_t i = 1; i < log.events.size(); ++i)
    EXPECT_GE(log.events[i].t, log.events[i - 1].t);
  for (double dur : slice_fields(analyze_critical_path(log).to_chrome_trace_json(log), "firing",
                                 "dur"))
    EXPECT_GE(dur, 0.0);

  // An end stamped before its begin never becomes a negative span.
  FlightLog backwards;
  backwards.proc_count = 1;
  backwards.events = {event(0, FlightEventKind::kFireBegin, 0, 100, 0),
                      event(0, FlightEventKind::kFireEnd, 0, 40, 0)};
  for (double dur : slice_fields(
           analyze_critical_path(backwards).to_chrome_trace_json(backwards), "firing", "dur"))
    EXPECT_GE(dur, 0.0);

  // collect() drained the rings: the next log is empty and so is its
  // trace.
  const FlightLog drained = recorder.collect();
  EXPECT_TRUE(drained.events.empty());
  EXPECT_EQ(analyze_critical_path(drained).to_chrome_trace_json(drained).find("\"firing\""),
            std::string::npos);
}

TEST(RuntimeTrace, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 4, kPerThread = 5'000;
  FlightRecorder recorder(kThreads, /*ring_capacity=*/8192);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        recorder.record(t, FlightEventKind::kFireBegin, 0, -1, 0, i);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder.dropped_total(), 0);
  EXPECT_EQ(recorder.collect().events.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

/// One single-rate pipeline over 3 processors: the system the engines
/// execute for the parity and trace assertions below.
struct PipelineFixture {
  df::Graph g{"parity"};
  df::ActorId a, b, c;
  sched::Assignment assignment{3, 3};
  static constexpr std::int64_t kIterations = 40;

  PipelineFixture() {
    a = g.add_actor("Alpha", 10);
    b = g.add_actor("Beta", 20);
    c = g.add_actor("Gamma", 5);
    g.connect_simple(a, b, 0, 16);
    g.connect_simple(b, c, 0, 16);
    assignment.assign(b, 1);
    assignment.assign(c, 2);
  }
};

TEST(RuntimeTrace, ThreadedRegistryCountersMatchSimulatorMessages) {
  PipelineFixture f;
  const core::SpiSystem system(f.g, f.assignment);

  // Simulated execution: data messages of the timed platform model.
  sim::TimedExecutorOptions options;
  options.iterations = PipelineFixture::kIterations;
  const sim::ExecStats sim_stats = system.run_timed(options);

  // Real-thread execution of the same system and iteration count.
  MetricRegistry registry;
  core::JobInstance runtime(system.plan(), {core::ChannelPolicy::kAuto, {}, &registry, {}});
  core::WorkerPool pool(runtime.proc_count());
  runtime.run(pool, PipelineFixture::kIterations);

  EXPECT_EQ(registry.counter_total("spi_threaded_messages_total"), sim_stats.data_messages);
  EXPECT_EQ(registry.counter_total("spi_threaded_messages_total"), runtime.stats().messages);
  EXPECT_GT(registry.counter_total("spi_threaded_payload_bytes_total"), 0);
  // Per-channel series carry the channel label.
  EXPECT_EQ(registry.counter_value("spi_threaded_messages_total",
                                   {{"channel", f.g.edge(df::EdgeId{0}).name}}),
            PipelineFixture::kIterations);
}

TEST(RuntimeTrace, GangRunRecordsOneFiringPairPerFiring) {
  PipelineFixture f;
  const core::SpiSystem system(f.g, f.assignment);
  core::JobInstance runtime(system.plan());
  core::WorkerPool pool(runtime.proc_count());
  FlightRecorder recorder(static_cast<std::int32_t>(runtime.proc_count()));
  runtime.set_flight_recorder(&recorder);
  runtime.run(pool, PipelineFixture::kIterations);
  const FlightLog log = recorder.collect();
  ASSERT_EQ(log.dropped, 0);

  std::int64_t begins = 0, ends = 0;
  for (const FlightEvent& e : log.events) {
    if (e.kind != FlightEventKind::kFireBegin && e.kind != FlightEventKind::kFireEnd) continue;
    (e.kind == FlightEventKind::kFireBegin ? begins : ends) += 1;
    EXPECT_GE(e.proc, 0);
    EXPECT_LT(e.proc, 3);
    EXPECT_GE(e.iteration, 0);
    EXPECT_LT(e.iteration, PipelineFixture::kIterations);
  }
  EXPECT_EQ(begins, 3 * PipelineFixture::kIterations);
  EXPECT_EQ(ends, begins);

  // The JSON the acceptance flow writes via --trace-out: one firing
  // slice per firing, time-sorted, no negative durations.
  const std::string json = analyze_critical_path(log).to_chrome_trace_json(log);
  const std::vector<double> ts = slice_fields(json, "firing", "ts");
  EXPECT_EQ(static_cast<std::int64_t>(ts.size()), begins);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  for (double dur : slice_fields(json, "firing", "dur")) EXPECT_GE(dur, 0.0);
}

}  // namespace
}  // namespace spi::obs
