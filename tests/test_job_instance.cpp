/// JobInstance as the host engine's checker: the invariants the plan
/// promises (exact static token sizes, eq.-2 channel capacities, the
/// occupancy bound) hold in both run modes or fail loudly.
#include "core/job_instance.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/worker_pool.hpp"

namespace spi::core {
namespace {

/// A -> B across two processors with q = [2, 1]: A fires twice per
/// iteration, so the channel must hold two tokens before B drains it.
struct TwoToOne {
  df::Graph g{"two-to-one"};
  df::ActorId a, b;
  df::EdgeId e;
  sched::Assignment assignment{2, 2};

  TwoToOne() {
    a = g.add_actor("A");
    b = g.add_actor("B");
    e = g.connect(a, df::Rate::fixed(1), b, df::Rate::fixed(2), 0, 8);
    assignment.assign(b, 1);
  }
};

TEST(JobInstance, StaticPayloadSizeEnforced) {
  TwoToOne f;
  const SpiSystem system(f.g, f.assignment);
  for (const std::size_t size : {std::size_t{7}, std::size_t{9}}) {
    for (const bool gang : {false, true}) {
      JobInstance runtime(system.plan());
      WorkerPool pool(runtime.proc_count());
      runtime.set_compute(f.a, [size](FiringContext& ctx) {
        ctx.outputs[0] = {Bytes(size, 0)};  // the edge carries 8-byte tokens
      });
      if (gang)
        EXPECT_THROW(runtime.run(pool, 1), std::logic_error) << size << " B gang";
      else
        EXPECT_THROW(runtime.run_colocated(1), std::logic_error) << size << " B colocated";
    }
  }
}

TEST(JobInstance, BbsCapacityIsAnInvariant) {
  // Capacity 0 (clamped to one slot) cannot hold A's two tokens: the
  // plan is structurally valid and round-trips, but its capacities do
  // not admit its PASS. One thread walking the PASS would wait forever;
  // it must fail fast, naming the edge, in both channel implementations.
  TwoToOne f;
  const SpiSystem system(f.g, f.assignment);
  ExecutablePlan plan = system.plan();
  ASSERT_EQ(plan.channels.size(), 1u);
  plan.channels[0].bbs_capacity_tokens = 0;
  plan.channels[0].bbs_capacity_bytes = 0;
  ASSERT_NO_THROW(plan.validate());
  const ExecutablePlan loaded = ExecutablePlan::from_json(plan.to_json());
  const std::string& name = loaded.channels[0].name;

  for (const ChannelPolicy policy : {ChannelPolicy::kAuto, ChannelPolicy::kBlockingOnly}) {
    JobInstance colocated(loaded, {policy, {}, nullptr, {}});
    try {
      colocated.run_colocated(1);
      ADD_FAILURE() << "colocated run over an inadmissible capacity did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }

    // The gang run of the same plan only back-pressures: B drains the
    // one slot while A waits.
    JobInstance gang(loaded, {policy, {}, nullptr, {}});
    WorkerPool pool(gang.proc_count());
    EXPECT_NO_THROW(gang.run(pool, 20));
    EXPECT_EQ(gang.stats().messages, 40);
  }

  // The compiled capacity does admit the PASS: no colocated wait, ever.
  JobInstance admitted(system.plan());
  EXPECT_NO_THROW(admitted.run_colocated(50));
  EXPECT_EQ(admitted.stats().consumer_blocks + admitted.stats().producer_blocks, 0);
}

TEST(JobInstance, MaxOccupancyTracked) {
  TwoToOne f;
  const SpiSystem system(f.g, f.assignment);
  JobInstance runtime(system.plan());
  runtime.run_colocated(3);
  EXPECT_EQ(runtime.stats().messages, 6);
  EXPECT_EQ(runtime.channel_traffic(f.e).messages, 6);
  // The colocated walk fires A, A, B: two tokens queue before B drains,
  // which is exactly the capacity the plan sized the channel with.
  runtime.refresh_channel_gauges();
  const obs::Labels labels{{"channel", system.plan().channels[0].name}};
  EXPECT_EQ(runtime.metrics().gauge_value("spi_channel_high_watermark_tokens", labels), 2.0);
  EXPECT_LE(runtime.metrics().gauge_value("spi_channel_high_watermark_tokens", labels),
            runtime.metrics().gauge_value("spi_channel_capacity_tokens", labels));
}

TEST(JobInstance, ConvertedEdgeNeedsARawTokenSize) {
  // The whole-raw-token check divides by the raw token size: a loaded
  // plan that zeroes it is rejected at construction, not at the first
  // firing.
  df::Graph g("dynamic");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect(a, df::Rate::dynamic(4), b, df::Rate::dynamic(4), 0, 8);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const SpiSystem system(g, assignment);
  ExecutablePlan plan = system.plan();
  plan.vts.edges[static_cast<std::size_t>(e)].raw_token_bytes = 0;
  EXPECT_THROW(JobInstance{plan}, std::invalid_argument);
  EXPECT_NO_THROW(JobInstance{system.plan()});
}

TEST(JobInstance, OverflowingChannelSlabIsATypedError) {
  // prod_tokens = 2^62 on an in-memory plan (validate() never ran): the
  // slab size overflows 64 bits, which is an std::invalid_argument
  // naming the channel, never signed overflow or an absurd allocation.
  TwoToOne f;
  ExecutablePlan plan = SpiSystem(f.g, f.assignment).plan();
  ASSERT_EQ(plan.channels.size(), 1u);
  plan.channels[0].prod_tokens = std::int64_t{1} << 62;
  const std::string& name = plan.channels[0].name;
  for (const bool construct : {false, true}) {
    try {
      if (construct)
        JobInstance{plan};
      else
        (void)JobInstance::resident_channel_bytes(plan);
      ADD_FAILURE() << (construct ? "JobInstance" : "resident_channel_bytes")
                    << " accepted a 2^62-token channel";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace spi::core
