/// Property test of the ExecutablePlan serialization contract: for
/// randomized consistent dataflow systems, compile -> to_json ->
/// from_json must reproduce the plan *exactly* — byte-identical
/// re-serialization, and bit-identical execution on every engine
/// (colocated channel statistics, timed message counts and makespan)
/// when the deserialized plan is run instead of the compiled one.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "dsp/rng.hpp"
#include "obs/json.hpp"

namespace spi {
namespace {

/// Random consistent, deadlock-free system (same construction as
/// test_random_systems.cpp: rates derived from hidden repetition counts,
/// topological backbone, feedback only with delay).
struct RandomSystem {
  df::Graph graph{"random"};
  sched::Assignment assignment{0, 1};
};

RandomSystem make_random_system(dsp::Rng& rng) {
  RandomSystem rs;
  const int actors = static_cast<int>(rng.uniform_int(2, 9));
  std::vector<std::int64_t> hidden;
  for (int i = 0; i < actors; ++i) {
    rs.graph.add_actor("a" + std::to_string(i), rng.uniform_int(5, 60));
    hidden.push_back(rng.uniform_int(1, 3));
  }
  for (int i = 0; i + 1 < actors; ++i) {
    const auto u = static_cast<df::ActorId>(i);
    const auto v = static_cast<df::ActorId>(i + 1);
    const std::int64_t k = rng.uniform_int(1, 2);
    rs.graph.connect(u, df::Rate::fixed(k * hidden[static_cast<std::size_t>(v)]), v,
                     df::Rate::fixed(k * hidden[static_cast<std::size_t>(u)]),
                     rng.uniform_int(0, 2), rng.uniform_int(1, 16));
  }
  const int extra = static_cast<int>(rng.uniform_int(0, 6));
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    const auto v = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    if (u == v) continue;
    const bool forward = u < v;
    const bool dynamic = rng.uniform_int(0, 2) == 0;
    if (dynamic) {
      if (hidden[static_cast<std::size_t>(u)] != hidden[static_cast<std::size_t>(v)]) continue;
      if (hidden[static_cast<std::size_t>(u)] != 1) continue;
      rs.graph.connect(u, df::Rate::dynamic(rng.uniform_int(2, 12)), v,
                       df::Rate::dynamic(rng.uniform_int(2, 12)),
                       forward ? rng.uniform_int(0, 1) : rng.uniform_int(1, 3),
                       rng.uniform_int(1, 8));
    } else {
      const std::int64_t k = rng.uniform_int(1, 2);
      rs.graph.connect(u, df::Rate::fixed(k * hidden[static_cast<std::size_t>(v)]), v,
                       df::Rate::fixed(k * hidden[static_cast<std::size_t>(u)]),
                       forward ? rng.uniform_int(0, 2) : rng.uniform_int(1, 4),
                       rng.uniform_int(1, 16));
    }
  }

  const auto procs = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  rs.assignment = sched::Assignment(rs.graph.actor_count(), procs);
  for (int i = 0; i < actors; ++i)
    rs.assignment.assign(static_cast<df::ActorId>(i),
                         static_cast<sched::Proc>(rng.uniform_int(0, procs - 1)));
  return rs;
}

class PlanRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanRoundTrip, SerializeDeserializeRunIdentical) {
  dsp::Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    RandomSystem rs = make_random_system(rng);
    core::ExecutablePlan compiled;
    try {
      compiled = core::compile_plan(rs.graph, rs.assignment);
    } catch (const std::invalid_argument&) {
      continue;  // rare inconsistent composition, cleanly rejected
    }

    // The serialization itself is lossless: a plan re-serialized after a
    // round trip is byte-identical (this also pins the golden-file
    // format — any change shows up here before it breaks the goldens).
    const std::string json = compiled.to_json();
    const core::ExecutablePlan loaded = core::ExecutablePlan::from_json(json);
    EXPECT_EQ(loaded.to_json(), json) << "seed " << GetParam();

    EXPECT_EQ(loaded.graph_name, compiled.graph_name);
    EXPECT_EQ(loaded.messages_per_iteration, compiled.messages_per_iteration);
    ASSERT_EQ(loaded.channels.size(), compiled.channels.size());

    // Colocated execution of both plans with full-rate zero tokens:
    // every channel must carry the same messages and the same bytes, and
    // every actor must fire equally often.
    const auto run = [](const core::ExecutablePlan& plan, std::vector<std::int64_t>& fired) {
      auto job = std::make_unique<core::JobInstance>(plan);
      const df::Graph& graph = plan.vts.graph;
      fired.assign(graph.actor_count(), 0);
      for (df::ActorId a = 0; a < static_cast<df::ActorId>(graph.actor_count()); ++a)
        job->set_compute(a, [&graph, &fired, a](core::FiringContext& ctx) {
          ++fired[static_cast<std::size_t>(a)];
          for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
            const df::Edge& e = graph.edge(ctx.out_edges[i]);
            ctx.outputs[i].assign(static_cast<std::size_t>(e.prod.value()),
                                  core::Bytes(static_cast<std::size_t>(e.token_bytes), 0));
          }
        });
      job->run_colocated(4);
      return job;
    };
    std::vector<std::int64_t> fired_original, fired_reloaded;
    const auto original = run(compiled, fired_original);
    const auto reloaded = run(loaded, fired_reloaded);
    for (const core::ChannelSpec& spec : compiled.channels) {
      EXPECT_EQ(reloaded->channel_traffic(spec.edge).messages,
                original->channel_traffic(spec.edge).messages)
          << "seed " << GetParam() << " edge " << spec.edge;
      EXPECT_EQ(reloaded->channel_traffic(spec.edge).payload_bytes,
                original->channel_traffic(spec.edge).payload_bytes)
          << "seed " << GetParam() << " edge " << spec.edge;
    }
    EXPECT_EQ(fired_reloaded, fired_original);

    // Timed execution from each plan's own backend: identical message
    // counts, wire bytes and makespan.
    sim::TimedExecutorOptions options;
    options.iterations = 25;
    const auto backend_a = compiled.make_backend();
    const auto backend_b = loaded.make_backend();
    const sim::ExecStats a = core::run_timed(compiled, *backend_a, options);
    const sim::ExecStats b = core::run_timed(loaded, *backend_b, options);
    EXPECT_EQ(b.data_messages, a.data_messages) << "seed " << GetParam();
    EXPECT_EQ(b.sync_messages, a.sync_messages) << "seed " << GetParam();
    EXPECT_EQ(b.wire_bytes, a.wire_bytes) << "seed " << GetParam();
    EXPECT_EQ(b.makespan, a.makespan) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(PlanRoundTrip, ValidateRejectsCorruptPlans) {
  df::Graph g("v");
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 20);
  g.connect_simple(a, b, 0, 8);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  ASSERT_NO_THROW(plan.validate());

  {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    broken.messages_per_iteration += 1;
    EXPECT_THROW(broken.validate(), std::invalid_argument);
  }
  {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    broken.proc_of_actor.pop_back();
    EXPECT_THROW(broken.validate(), std::invalid_argument);
  }
  {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    ASSERT_FALSE(broken.channels.empty());
    broken.channels[0].edge += 40;  // no such edge in the graph
    EXPECT_THROW(broken.rebuild_channel_index(), std::invalid_argument);
  }

  // Every field of the channel geometry the compiler derives from the
  // converted graph and the repetitions vector is recomputed: a plan
  // that restates one differently is rejected, naming the field.
  ASSERT_EQ(plan.channels.size(), 1u);
  const auto expect_rejected = [&](const char* what, auto corrupt) {
    core::ExecutablePlan broken = core::ExecutablePlan::from_json(plan.to_json());
    corrupt(broken, broken.channels[0]);
    try {
      broken.validate();
      ADD_FAILURE() << "accepted a corrupt " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  };
  using Plan = core::ExecutablePlan;
  using Channel = core::ChannelSpec;
  expect_rejected("mode", [](Plan&, Channel& c) { c.mode = core::SpiMode::kDynamic; });
  expect_rejected("b_max_bytes", [](Plan&, Channel& c) { c.b_max_bytes += 1; });
  expect_rejected("token_bytes", [](Plan&, Channel& c) { c.token_bytes = -1'000'000'000'000; });
  expect_rejected("raw_token_bytes", [](Plan&, Channel& c) { c.raw_token_bytes += 1; });
  expect_rejected("prod_tokens", [](Plan&, Channel& c) { c.prod_tokens = std::int64_t{1} << 62; });
  expect_rejected("delay_tokens", [](Plan&, Channel& c) { c.delay_tokens += 1; });
  expect_rejected("src_firings_per_iteration",
                  [](Plan&, Channel& c) { c.src_firings_per_iteration = 4; });
  expect_rejected("cross processors", [](Plan& p, Channel&) { p.proc_of_actor[1] = 0; });
  expect_rejected("balance equation", [](Plan& p, Channel&) { p.repetitions.q[0] = 2; });
  expect_rejected("repetitions must be positive", [](Plan& p, Channel&) {
    p.repetitions.q[0] = std::numeric_limits<std::int64_t>::max();
  });
  expect_rejected("VTS edge info", [](Plan& p, Channel&) { p.vts.edges[0].b_max_bytes += 1; });
  expect_rejected("BBS capacity bytes", [](Plan&, Channel& c) {
    c.bbs_capacity_tokens = 3;
    c.bbs_capacity_bytes = 3 * c.b_max_bytes + 1;
  });
  expect_rejected("BBS capacity bytes", [](Plan&, Channel& c) {  // tokens x bytes overflows
    c.bbs_capacity_tokens = std::int64_t{1} << 62;
    c.bbs_capacity_bytes = 0;
  });
}

TEST(PlanRoundTrip, FromJsonRejectsMalformedDocuments) {
  EXPECT_THROW((void)core::ExecutablePlan::from_json(""), std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json("{"), std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW((void)core::ExecutablePlan::from_json(R"({"schema": 99})"),
               std::invalid_argument);
  try {
    (void)core::ExecutablePlan::from_json(std::string(200'000, '['));
    ADD_FAILURE() << "accepted 200 000 nested arrays";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"), std::string::npos) << e.what();
  }
}

/// A two-processor plan whose names need every kind of escaping.
core::ExecutablePlan hostile_name_plan() {
  df::Graph g(std::string("graph\x01"));
  const df::ActorId a = g.add_actor("A\nline", 10);
  const df::ActorId b = g.add_actor("B\ttab\x01", 20);
  g.connect(a, df::Rate::fixed(1), b, df::Rate::fixed(1), 0, 8, "edge\x01\"q\\\n");
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  return core::compile_plan(g, assignment);
}

TEST(PlanRoundTrip, ControlCharactersInNamesAreEscapedAndByteStable) {
  const core::ExecutablePlan plan = hostile_name_plan();
  const std::string json = plan.to_json();
  EXPECT_EQ(obs::json::validate(json), "") << json;
  const core::ExecutablePlan loaded = core::ExecutablePlan::from_json(json);
  EXPECT_EQ(loaded.to_json(), json);
  EXPECT_EQ(loaded.graph_name, plan.graph_name);
  EXPECT_EQ(loaded.vts.graph.actor(0).name, "A\nline");
  EXPECT_EQ(loaded.vts.graph.actor(1).name, "B\ttab\x01");
  EXPECT_EQ(loaded.vts.graph.edge(0).name, "edge\x01\"q\\\n");
}

/// `json` with the first `from` replaced by `to`.
std::string with(std::string json, const std::string& from, const std::string& to) {
  const std::size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? json : json.replace(at, from.size(), to);
}

TEST(PlanRoundTrip, FromJsonRangeChecksNumbersAndFingerprints) {
  const std::string json = hostile_name_plan().to_json();
  ASSERT_NO_THROW((void)core::ExecutablePlan::from_json(json));
  // Beyond int64 (strtoll used to clamp it to INT64_MAX).
  EXPECT_THROW((void)core::ExecutablePlan::from_json(
                   with(json, "\"exec_cycles\": 10}", "\"exec_cycles\": 99999999999999999999}")),
               std::invalid_argument);
  // Beyond an int32 field (static_cast used to narrow 4294967298 to 2).
  EXPECT_THROW((void)core::ExecutablePlan::from_json(
                   with(json, "\"processors\": 2,", "\"processors\": 4294967298,")),
               std::invalid_argument);
  // Negative into a size field.
  EXPECT_THROW((void)core::ExecutablePlan::from_json(
                   with(json, "\"acks_total\": ", "\"acks_total\": -1")),
               std::invalid_argument);
  // A fingerprint beyond uint64, or not a number at all (std::stoull used
  // to throw std::out_of_range).
  const std::size_t at = json.find("\"topology\": \"") + 13;
  const std::string topology = json.substr(at, json.find('"', at) - at);
  for (const char* bad : {"99999999999999999999999", "12x", ""})
    EXPECT_THROW((void)core::ExecutablePlan::from_json(
                     with(json, "\"topology\": \"" + topology, std::string("\"topology\": \"") + bad)),
                 std::invalid_argument)
        << bad;
}

TEST(PlanRoundTrip, ChannelIndexMatchesLinearScan) {
  df::Graph g("idx");
  const df::ActorId a = g.add_actor("A", 10);
  const df::ActorId b = g.add_actor("B", 10);
  const df::ActorId c = g.add_actor("C", 10);
  g.connect_simple(a, b, 0, 8);
  g.connect_simple(b, c, 0, 8);
  g.connect_simple(a, c, 1, 4);
  sched::Assignment assignment(3, 3);
  assignment.assign(b, 1);
  assignment.assign(c, 2);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  for (const core::ChannelSpec& spec : plan.channels) {
    EXPECT_EQ(&plan.channel_for(spec.edge), &spec);
    ASSERT_NE(plan.find_channel(spec.edge), nullptr);
    EXPECT_EQ(plan.find_channel(spec.edge)->edge, spec.edge);
  }
  // A processor-local edge has no channel.
  EXPECT_THROW((void)plan.channel_for(static_cast<df::EdgeId>(999)), std::out_of_range);
  EXPECT_EQ(plan.find_channel(static_cast<df::EdgeId>(999)), nullptr);
}

}  // namespace
}  // namespace spi
