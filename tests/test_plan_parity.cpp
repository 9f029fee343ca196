/// Cross-engine parity from one *loaded* plan: serialize the compiled
/// plan of the paper's two applications (speech error-generation,
/// distributed particle filter), deserialize it, and drive both host
/// run modes (colocated and gang) and the timed engine from the
/// deserialized plan alone. All must agree on the communication volume
/// — the plan, not the compiler's in-memory state, is the contract.
#include <gtest/gtest.h>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/plan.hpp"
#include "core/worker_pool.hpp"

namespace spi {
namespace {

constexpr std::int64_t kIterations = 20;

/// Per-channel traffic one run moved (the counters also hold the
/// initial-token placement done at construction).
std::vector<core::JobInstance::ChannelTraffic> traffic_of(const core::JobInstance& job) {
  std::vector<core::JobInstance::ChannelTraffic> out;
  for (const core::ChannelSpec& spec : job.plan().channels)
    out.push_back(job.channel_traffic(spec.edge));
  return out;
}

/// Runs every engine from `plan` (deserialized, no SpiSystem in sight)
/// and checks the agreements that hold by construction:
///  * colocated: one token push per produced token -> prod_tokens *
///    src_firings_per_iteration * iterations messages per channel;
///  * gang: the same pushes on real threads -> identical message and
///    byte counts;
///  * timed: every active synchronization edge transmits once per
///    iteration -> messages_per_iteration * iterations messages total,
///    and one data message per producing firing, which equals the
///    colocated token count wherever prod_tokens == 1 (both paper apps).
void expect_engines_agree(const core::ExecutablePlan& plan) {
  ASSERT_NO_THROW(plan.validate());
  ASSERT_FALSE(plan.channels.empty());

  core::JobInstance colocated(plan);
  const auto colocated_before = traffic_of(colocated);
  colocated.run_colocated(kIterations);
  const auto colocated_after = traffic_of(colocated);

  core::JobInstance gang(plan);
  core::WorkerPool pool(gang.proc_count());
  const auto gang_before = traffic_of(gang);
  gang.run(pool, kIterations);
  const auto gang_after = traffic_of(gang);

  std::int64_t compared = 0;
  std::int64_t colocated_messages = 0;
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    const core::ChannelSpec& spec = plan.channels[c];
    const std::int64_t messages = colocated_after[c].messages - colocated_before[c].messages;
    const std::int64_t bytes =
        colocated_after[c].payload_bytes - colocated_before[c].payload_bytes;
    colocated_messages += messages;
    EXPECT_EQ(messages, kIterations * spec.src_firings_per_iteration * spec.prod_tokens)
        << "channel " << spec.name;
    EXPECT_EQ(gang_after[c].messages - gang_before[c].messages, messages)
        << "channel " << spec.name;
    EXPECT_EQ(gang_after[c].payload_bytes - gang_before[c].payload_bytes, bytes)
        << "channel " << spec.name;
    if (spec.prod_tokens == 1) ++compared;
  }
  // Both paper applications are rate-1 across every interprocessor edge,
  // so tokens and timed messages coincide on every channel.
  EXPECT_EQ(compared, static_cast<std::int64_t>(plan.channels.size()));

  // Timed engine from the same plan.
  const auto backend = plan.make_backend();
  sim::TimedExecutorOptions options;
  options.iterations = kIterations;
  const sim::ExecStats stats = core::run_timed(plan, *backend, options);
  EXPECT_EQ(stats.data_messages + stats.sync_messages,
            kIterations * plan.messages_per_iteration);
  // ... and it agrees with the colocated run on data messages: every
  // colocated channel token is one timed IPC transmission.
  EXPECT_EQ(stats.data_messages, colocated_messages);
}

/// host -> worker -> host on two processors, one dynamic edge: the
/// round trip lets resynchronization prove both acks redundant.
struct RoundTrip {
  df::Graph g{"round-trip"};
  sched::Assignment assignment{3, 2};

  RoundTrip() {
    const df::ActorId send = g.add_actor("Send", 10);
    const df::ActorId work = g.add_actor("Work", 40);
    const df::ActorId recv = g.add_actor("Recv", 10);
    g.connect(send, df::Rate::dynamic(32), work, df::Rate::dynamic(32), 0, 4);
    g.connect(work, df::Rate::fixed(1), recv, df::Rate::fixed(1), 0, 8);
    assignment.assign(work, 1);
  }

  /// Timed sync messages of `iterations` iterations, and the acks the
  /// plan says survive per iteration.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> sync_and_acks(
      const core::ExecutablePlan& plan, std::int64_t iterations) const {
    std::int64_t acks = 0;
    for (const core::ChannelSpec& spec : plan.channels)
      acks += static_cast<std::int64_t>(spec.acks_total - spec.acks_elided);
    const auto backend = plan.make_backend();
    sim::TimedExecutorOptions options;
    options.iterations = iterations;
    return {core::run_timed(plan, *backend, options).sync_messages, acks};
  }
};

TEST(PlanParity, UbsCountsAcksUnlessElided) {
  RoundTrip f;
  constexpr std::int64_t kRuns = 30;
  core::SpiSystemOptions no_resync;
  no_resync.resynchronize = false;
  const core::SpiSystem with_acks(f.g, f.assignment, no_resync);
  const auto [sync, acks] = f.sync_and_acks(with_acks.plan(), kRuns);
  EXPECT_EQ(acks, 2);  // one ack per channel survives without resync
  EXPECT_EQ(sync, kRuns * acks);

  const core::SpiSystem elided(f.g, f.assignment);
  const auto [sync_elided, acks_elided] = f.sync_and_acks(elided.plan(), kRuns);
  EXPECT_EQ(acks_elided, 0);
  EXPECT_EQ(sync_elided, 0);
}

TEST(PlanParity, BbsNeverCountsAcksOnReceive) {
  // Every BBS channel of the resynchronized plan has its acks elided:
  // the eq.-2 buffer bound is the only synchronization, so no timed
  // sync message is charged for it.
  RoundTrip f;
  const core::SpiSystem system(f.g, f.assignment);
  std::int64_t bbs = 0;
  for (const core::ChannelSpec& spec : system.plan().channels) {
    if (spec.protocol != sched::SyncProtocol::kBbs) continue;
    ++bbs;
    EXPECT_EQ(spec.acks_elided, spec.acks_total) << spec.name;
  }
  EXPECT_GT(bbs, 0);
  EXPECT_EQ(f.sync_and_acks(system.plan(), 30).first, 0);
}

TEST(PlanParity, SpeechErrorGenEnginesAgreeFromLoadedPlan) {
  apps::SpeechParams params;
  params.frame_size = 128;
  params.max_frame_size = 512;
  params.order = 8;
  params.max_order = 12;
  const apps::ErrorGenApp app(4, params);
  const core::ExecutablePlan plan =
      core::ExecutablePlan::from_json(app.system().plan().to_json());
  expect_engines_agree(plan);
}

TEST(PlanParity, ParticleFilterEnginesAgreeFromLoadedPlan) {
  apps::ParticleParams params;
  params.particles = 64;
  params.max_particles = 256;
  params.seed = 5;
  const apps::ParticleFilterApp app(4, params);
  const core::ExecutablePlan plan =
      core::ExecutablePlan::from_json(app.system().plan().to_json());
  expect_engines_agree(plan);
}

TEST(PlanParity, LoadedPlanReportsMatchCompiledReports) {
  apps::SpeechParams params;
  params.frame_size = 128;
  params.max_frame_size = 512;
  params.order = 8;
  params.max_order = 12;
  const apps::ErrorGenApp app(3, params);
  const core::ExecutablePlan& compiled = app.system().plan();
  const core::ExecutablePlan loaded = core::ExecutablePlan::from_json(compiled.to_json());
  EXPECT_EQ(loaded.report(), compiled.report());
  EXPECT_EQ(loaded.messages_per_iteration, compiled.messages_per_iteration);
}

}  // namespace
}  // namespace spi
