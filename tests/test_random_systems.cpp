/// Randomized end-to-end sweep: generate random consistent dataflow
/// graphs (mixed static/dynamic rates, delays, feedback), random
/// assignments, and push each through the entire pipeline — compile,
/// analyze, execute functionally and timed — asserting the global
/// invariants hold on every one. This is the fuzzer that guards the
/// interactions no hand-written test enumerates.
#include <gtest/gtest.h>

#include "core/job_instance.hpp"
#include "core/spi_system.hpp"
#include "dsp/rng.hpp"
#include "mpi/mpi_backend.hpp"

namespace spi {
namespace {

struct RandomSystem {
  df::Graph graph{"random"};
  sched::Assignment assignment{0, 1};
};

/// Builds a random graph that is consistent by construction (rates
/// derived from hidden repetition counts) and deadlock-free (a
/// topological backbone; feedback edges always carry delay).
RandomSystem make_random_system(dsp::Rng& rng) {
  RandomSystem rs;
  const int actors = static_cast<int>(rng.uniform_int(2, 9));
  std::vector<std::int64_t> hidden;
  for (int i = 0; i < actors; ++i) {
    rs.graph.add_actor("a" + std::to_string(i), rng.uniform_int(5, 60));
    hidden.push_back(rng.uniform_int(1, 3));
  }
  // Backbone chain keeps the graph connected.
  for (int i = 0; i + 1 < actors; ++i) {
    const auto u = static_cast<df::ActorId>(i);
    const auto v = static_cast<df::ActorId>(i + 1);
    const std::int64_t k = rng.uniform_int(1, 2);
    rs.graph.connect(u, df::Rate::fixed(k * hidden[static_cast<std::size_t>(v)]), v,
                     df::Rate::fixed(k * hidden[static_cast<std::size_t>(u)]),
                     rng.uniform_int(0, 2), rng.uniform_int(1, 16));
  }
  // Extra edges: forward static/dynamic, or delayed feedback.
  const int extra = static_cast<int>(rng.uniform_int(0, 6));
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    const auto v = static_cast<df::ActorId>(rng.uniform_int(0, actors - 1));
    if (u == v) continue;
    const bool forward = u < v;
    const bool dynamic = rng.uniform_int(0, 2) == 0;
    if (dynamic) {
      // Dynamic edges become rate 1/1 after VTS: repetition-safe only
      // between actors of equal hidden counts.
      if (hidden[static_cast<std::size_t>(u)] != hidden[static_cast<std::size_t>(v)]) continue;
      // Hidden counts must also be 1 to stay consistent with rate-1
      // conversion against the backbone's repetitions.
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

class RandomSystems : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSystems, FullPipelineInvariants) {
  dsp::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    RandomSystem rs = make_random_system(rng);

    // Compilation must succeed (graphs are consistent and deadlock-free
    // by construction) or be rejected with a clean diagnostic in the
    // rare compositions where an extra edge breaks consistency.
    std::unique_ptr<core::SpiSystem> system;
    try {
      system = std::make_unique<core::SpiSystem>(rs.graph, rs.assignment);
    } catch (const std::invalid_argument&) {
      continue;  // cleanly rejected; acceptable
    }

    // Analysis invariants.
    EXPECT_TRUE(system->sync_graph().is_deadlock_free());
    for (const core::ChannelPlan& plan : system->channels()) {
      EXPECT_GT(plan.b_max_bytes, 0);
      EXPECT_GE(plan.c_bytes, plan.b_max_bytes);
      if (plan.bbs_capacity_tokens) {
        EXPECT_GE(*plan.bbs_capacity_tokens, 1);
      }
      EXPECT_GE(plan.acks_total, plan.acks_elided);
    }

    // Colocated execution with default (zero-token) computes: the
    // plan's capacities must admit its PASS (a wait would throw).
    core::JobInstance runtime(system->plan());
    EXPECT_NO_THROW(runtime.run_colocated(3));

    // Timed execution: completes, deterministic, occupancy within bounds,
    // message counts backend-invariant.
    sim::TimedExecutorOptions options;
    options.iterations = 40;
    const sim::ExecStats spi_stats = system->run_timed(options);
    const sim::ExecStats again = system->run_timed(options);
    EXPECT_EQ(spi_stats.makespan, again.makespan);
    const mpi::MpiBackend mpi_backend;
    const sim::ExecStats mpi_stats = system->run_timed_with(mpi_backend, options);
    EXPECT_EQ(spi_stats.data_messages, mpi_stats.data_messages);

    for (const core::ChannelPlan& plan : system->channels()) {
      if (!plan.bbs_capacity_tokens) continue;
      for (std::size_t idx : plan.sync_edges)
        EXPECT_LE(spi_stats.max_occupancy[idx], *plan.bbs_capacity_tokens)
            << "seed " << GetParam() << " channel " << plan.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006, 7007, 8008,
                                           9009, 10010));

TEST(LargeSystem, HundredsOfActorsCompileAndRun) {
  // Complexity guard: the compilation pipeline (repetitions, PASS, HSDF,
  // sync graph, all-pairs redundancy analysis, resynchronization) and
  // the executor must handle a 150-actor system quickly. A chain with
  // periodic feedback over 6 processors.
  df::Graph g("large");
  constexpr int kActors = 150;
  for (int i = 0; i < kActors; ++i) g.add_actor("t" + std::to_string(i), 10 + i % 7);
  for (int i = 0; i + 1 < kActors; ++i)
    g.connect_simple(static_cast<df::ActorId>(i), static_cast<df::ActorId>(i + 1), 0, 16);
  for (int i = 0; i + 30 < kActors; i += 30)  // feedback every 30 stages
    g.connect_simple(static_cast<df::ActorId>(i + 30), static_cast<df::ActorId>(i), 4, 4);
  sched::Assignment assignment(kActors, 6);
  for (int i = 0; i < kActors; ++i)
    assignment.assign(static_cast<df::ActorId>(i), static_cast<sched::Proc>((i / 25) % 6));

  const core::SpiSystem system(g, assignment);
  EXPECT_GT(system.channels().size(), 4u);
  EXPECT_TRUE(system.sync_graph().is_deadlock_free());

  sim::TimedExecutorOptions options;
  options.iterations = 30;
  const sim::ExecStats stats = system.run_timed(options);
  EXPECT_GT(stats.makespan, 0);

  core::JobInstance runtime(system.plan());
  EXPECT_NO_THROW(runtime.run_colocated(3));
}

}  // namespace
}  // namespace spi
