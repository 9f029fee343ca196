/// The sequential (colocated) host engine: JobInstance::run_colocated
/// walks the PASS on the calling thread through the production channels
/// and checks every firing's outputs against the plan.
#include "core/job_instance.hpp"

#include <gtest/gtest.h>

#include "apps/serialization.hpp"
#include "core/worker_pool.hpp"

namespace spi::core {
namespace {

using apps::pack_f64;
using apps::unpack_f64;

struct Fixture {
  df::Graph g{"func"};
  df::ActorId src, mid, dst;
  df::EdgeId dyn, stat;
  sched::Assignment assignment{3, 3};

  Fixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    dyn = g.connect(src, df::Rate::dynamic(8), mid, df::Rate::dynamic(8), 0, sizeof(double));
    stat = g.connect(mid, df::Rate::fixed(1), dst, df::Rate::fixed(1), 0, sizeof(double));
    assignment.assign(src, 0);
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
  }
};

TEST(Functional, DataFlowsCorrectly) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  std::vector<double> sums;
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    const std::size_t count = static_cast<std::size_t>(ctx.invocation % 8) + 1;
    std::vector<double> values(count, 1.5);
    ctx.outputs[ctx.output_index(f.dyn)] = {pack_f64(values)};
  });
  runtime.set_compute(f.mid, [&](FiringContext& ctx) {
    const auto values = unpack_f64(ctx.inputs[ctx.input_index(f.dyn)][0]);
    double sum = 0;
    for (double v : values) sum += v;
    ctx.outputs[ctx.output_index(f.stat)] = {pack_f64(std::vector<double>{sum})};
  });
  runtime.set_compute(f.dst, [&](FiringContext& ctx) {
    sums.push_back(unpack_f64(ctx.inputs[ctx.input_index(f.stat)][0]).at(0));
  });
  runtime.run_colocated(10);
  ASSERT_EQ(sums.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k)
    EXPECT_DOUBLE_EQ(sums[k], 1.5 * (static_cast<double>(k % 8) + 1.0));
  // Invocation counters keep counting across runs: firing 11 is the 10th.
  std::int64_t next_invocation = -1;
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    next_invocation = ctx.invocation;
    ctx.outputs[ctx.output_index(f.dyn)] = {Bytes{}};
  });
  runtime.run_colocated(1);
  EXPECT_EQ(next_invocation, 10);
}

TEST(Functional, ChannelStatsReflectTraffic) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.dyn)] = {pack_f64(std::vector<double>{1.0, 2.0})};
  });
  runtime.run_colocated(5);
  const JobInstance::ChannelTraffic dyn = runtime.channel_traffic(f.dyn);
  EXPECT_EQ(dyn.messages, 5);
  EXPECT_EQ(dyn.payload_bytes, 5 * 16);
  EXPECT_EQ(runtime.stats().messages, 5 + 5);  // both channels, one token per firing
  // On the wire every one of those packed tokens carries the SPI_dynamic
  // header (edge id + size).
  EXPECT_EQ(static_cast<std::int64_t>(encode_dynamic(f.dyn, Bytes(16, 0)).size()),
            16 + kDynamicHeaderBytes);
}

TEST(Functional, DefaultComputeProducesZeroTokens) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  EXPECT_NO_THROW(runtime.run_colocated(3));  // all defaults: zero-filled full-rate tokens
}

TEST(Functional, BmaxViolationDetected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.dyn)] = {pack_f64(std::vector<double>(9, 0.0))};  // bound is 8
  });
  EXPECT_THROW(runtime.run_colocated(1), std::length_error);
}

TEST(Functional, NonWholeTokenPayloadDetected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  // Both modes reject a packed token that is not a whole number of raw
  // sizeof(double) tokens, before the consumer ever sees it.
  for (const bool gang : {false, true}) {
    JobInstance runtime(system.plan());
    WorkerPool pool(runtime.proc_count());
    bool consumed = false;
    runtime.set_compute(f.src, [&](FiringContext& ctx) {
      ctx.outputs[ctx.output_index(f.dyn)] = {Bytes(gang ? 5 : 7, 0)};  // not a multiple of 8
    });
    runtime.set_compute(f.mid, [&](FiringContext&) { consumed = true; });
    if (gang)
      EXPECT_THROW(runtime.run(pool, 1), std::logic_error);
    else
      EXPECT_THROW(runtime.run_colocated(1), std::logic_error);
    EXPECT_FALSE(consumed) << (gang ? "gang" : "colocated");
  }
}

TEST(Functional, WrongTokenCountDetected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  runtime.set_compute(f.mid, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.stat)] = {};  // must produce exactly 1
  });
  EXPECT_THROW(runtime.run_colocated(1), std::logic_error);
}

TEST(Functional, StaticTokenSizeEnforced) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  for (const bool gang : {false, true}) {
    JobInstance runtime(system.plan());
    WorkerPool pool(runtime.proc_count());
    bool consumed = false;
    runtime.set_compute(f.mid, [&](FiringContext& ctx) {
      ctx.outputs[ctx.output_index(f.stat)] = {Bytes(4, 0)};  // edge carries 8-byte tokens
    });
    runtime.set_compute(f.dst, [&](FiringContext&) { consumed = true; });
    if (gang)
      EXPECT_THROW(runtime.run(pool, 1), std::logic_error);
    else
      EXPECT_THROW(runtime.run_colocated(1), std::logic_error);
    EXPECT_FALSE(consumed) << (gang ? "gang" : "colocated");
  }
}

TEST(Functional, InitialDelayTokensAvailable) {
  df::Graph g("delayed");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId fwd = g.connect_simple(a, b, 0, 4);
  const df::EdgeId back = g.connect_simple(b, a, 1, 4);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const SpiSystem system(g, assignment);
  JobInstance runtime(system.plan());
  std::int64_t a_count = 0;
  runtime.set_compute(a, [&](FiringContext& ctx) {
    // Consumes the (initially zero) feedback token and forwards a signal.
    ++a_count;
    EXPECT_EQ(ctx.inputs[ctx.input_index(back)][0].size(), 4u);
    ctx.outputs[ctx.output_index(fwd)] = {Bytes(4, 1)};
  });
  runtime.run_colocated(4);
  EXPECT_EQ(a_count, 4);
}

TEST(Functional, MultirateLocalEdges) {
  df::Graph g("multirate");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect(a, df::Rate::fixed(3), b, df::Rate::fixed(2), 0, 4);
  const SpiSystem system(g, sched::Assignment(2, 1));  // same processor
  JobInstance runtime(system.plan());
  std::int64_t produced = 0, consumed = 0;
  runtime.set_compute(a, [&](FiringContext& ctx) {
    std::vector<Bytes> tokens(3, Bytes(4, 0));
    produced += 3;
    ctx.outputs[ctx.output_index(e)] = std::move(tokens);
  });
  runtime.set_compute(b, [&](FiringContext& ctx) {
    consumed += static_cast<std::int64_t>(ctx.inputs[ctx.input_index(e)].size());
  });
  runtime.run_colocated(4);  // q = (2, 3) per iteration
  EXPECT_EQ(produced, 4 * 2 * 3);
  EXPECT_EQ(consumed, 4 * 3 * 2);
}

TEST(Functional, ChannelLookupValidation) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  EXPECT_THROW((void)runtime.channel_traffic(999), std::out_of_range);
}

TEST(Functional, NegativeIterationsRejected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  EXPECT_THROW(runtime.run_colocated(-1), std::invalid_argument);
}

}  // namespace
}  // namespace spi::core
