#include "apps/particle_app.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/serialization.hpp"
#include "core/worker_pool.hpp"

namespace spi::apps {

namespace {

/// Deterministic transfer plan for phase 3: donors (targets above quota)
/// ship their excess to receivers (below quota), both walked in PE order.
/// Every PE computes the identical plan from the shared weight sums.
/// transfer[i][j] = particles PE i sends to PE j.
std::vector<std::vector<std::int64_t>> transfer_plan(const std::vector<std::int64_t>& targets,
                                                     std::int64_t quota) {
  const std::size_t n = targets.size();
  std::vector<std::vector<std::int64_t>> plan(n, std::vector<std::int64_t>(n, 0));
  std::vector<std::int64_t> surplus(n);
  for (std::size_t i = 0; i < n; ++i) surplus[i] = targets[i] - quota;
  std::size_t donor = 0, receiver = 0;
  while (true) {
    while (donor < n && surplus[donor] <= 0) ++donor;
    while (receiver < n && surplus[receiver] >= 0) ++receiver;
    if (donor >= n || receiver >= n) break;
    const std::int64_t amount = std::min(surplus[donor], -surplus[receiver]);
    plan[donor][receiver] += amount;
    surplus[donor] -= amount;
    surplus[receiver] += amount;
  }
  return plan;
}

/// Deterministic per-iteration exchange volume for the timed model:
/// mean_fraction scaled by a hash-derived factor in [0.5, 1.5).
std::int64_t modeled_exchange(std::size_t per_pe, double mean_fraction, std::int64_t iter) {
  const auto h = static_cast<std::uint64_t>(iter + 1) * 2654435761ULL;
  const double factor = 0.5 + static_cast<double>(h % 1000) / 1000.0;
  return static_cast<std::int64_t>(mean_fraction * factor * static_cast<double>(per_pe));
}

}  // namespace

ParticleFilterApp::ParticleFilterApp(std::int32_t pe_count, ParticleParams params,
                                     core::SpiSystemOptions options)
    : pe_count_(pe_count), params_(params) {
  if (pe_count <= 0) throw std::invalid_argument("ParticleFilterApp: pe_count must be positive");
  if (params_.particles == 0 || params_.particles > params_.max_particles)
    throw std::invalid_argument("ParticleFilterApp: particle count out of range");
  if (params_.particles % static_cast<std::size_t>(pe_count) != 0)
    throw std::invalid_argument(
        "ParticleFilterApp: particles must divide evenly across PEs (paper: each PE handles N/n)");

  df::Graph graph("particle-filter-" + std::to_string(pe_count) + "pe");
  const auto n = static_cast<std::size_t>(pe_count);
  const auto particle_bound = static_cast<std::int64_t>(params_.max_particles);

  obs_ = graph.add_actor("Obs");
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = std::to_string(i);
    est_.push_back(graph.add_actor("Est" + s));
    upd_.push_back(graph.add_actor("Upd" + s));
    lws_.push_back(graph.add_actor("Lws" + s));
    res_.push_back(graph.add_actor("Res" + s));
    xch_.push_back(graph.add_actor("Xch" + s));
  }

  lws_edge_.assign(n, std::vector<df::EdgeId>(n, df::kInvalidEdge));
  particle_edge_.assign(n, std::vector<df::EdgeId>(n, df::kInvalidEdge));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = std::to_string(i);
    chain_eu_.push_back(graph.connect_simple(est_[i], upd_[i], 0, 4));
    obs_edge_.push_back(graph.connect_simple(obs_, upd_[i], 0, sizeof(double)));
    chain_ul_.push_back(graph.connect_simple(upd_[i], lws_[i], 0, 4));
    // Phase 1: partial weight statistics to every PE (SPI_static when
    // interprocessor; 3 doubles: weight sum, weighted-particle sum and
    // squared-weight sum — the latter for the global ESS).
    for (std::size_t j = 0; j < n; ++j)
      lws_edge_[i][j] =
          graph.connect_simple(lws_[i], res_[j], 0, 3 * sizeof(double));
    chain_rx_.push_back(graph.connect_simple(res_[i], xch_[i], 0, 4));
    // Phase 3: excess particles to every other PE (SPI_dynamic — the
    // count varies at run time; paper Section 5.3).
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      particle_edge_[i][j] = graph.connect(
          res_[i], df::Rate::dynamic(particle_bound), xch_[j],
          df::Rate::dynamic(particle_bound), 0, sizeof(double),
          "particles" + s + "->" + std::to_string(j));
    }
    // Next-iteration loop (the unit delay makes the schedule admissible).
    loop_xe_.push_back(graph.connect_simple(xch_[i], est_[i], 1, 4));
  }

  sched::Assignment assignment(graph.actor_count(), pe_count);
  assignment.assign(obs_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<sched::Proc>(i);
    assignment.assign(est_[i], p);
    assignment.assign(upd_[i], p);
    assignment.assign(lws_[i], p);
    assignment.assign(res_[i], p);
    assignment.assign(xch_[i], p);
  }

  system_ = std::make_unique<core::SpiSystem>(graph, std::move(assignment), options);
}

/// Per-PE mutable tracking state. Each instance is touched only by its
/// PE's actors — on the threaded engine, only by that PE's thread.
struct ParticleFilterApp::TrackState {
  struct PeState {
    std::vector<double> particles;
    std::vector<double> weights;
    std::vector<double> kept;                        // phase-2 survivors
    std::vector<std::vector<double>> exports;        // per destination PE
    std::int64_t exported = 0;                       // phase-3 particles shipped out
    dsp::Rng rng;
    explicit PeState(std::uint64_t seed) : rng(seed) {}
  };
  std::vector<PeState> pe;
  const dsp::CrackTrajectory* traj = nullptr;
  std::vector<double> estimates;  ///< appended only by Res0
  std::int64_t resample_steps = 0;
};

/// The job states of one batch in queue order. Every actor of the graph
/// fires exactly once per iteration (q == 1 throughout), so an actor's
/// cumulative invocation count *is* the merged-PASS iteration index:
/// iteration k executes step k % steps_per_job of job k / steps_per_job.
struct ParticleFilterApp::BatchTrackState {
  std::vector<std::shared_ptr<TrackState>> jobs;
  std::int64_t steps_per_job = 1;

  [[nodiscard]] TrackState& at(std::int64_t invocation) const {
    return *jobs[static_cast<std::size_t>(invocation / steps_per_job)];
  }
  [[nodiscard]] std::int64_t local_step(std::int64_t invocation) const {
    return invocation % steps_per_job;
  }
};

std::shared_ptr<ParticleFilterApp::TrackState> ParticleFilterApp::make_track_state(
    const ParticleParams& params, std::size_t n, const dsp::CrackTrajectory& trajectory) {
  const std::size_t quota = params.particles / n;
  auto shared = std::make_shared<ParticleFilterApp::TrackState>();
  shared->traj = &trajectory;
  for (std::size_t i = 0; i < n; ++i) {
    auto& st = shared->pe.emplace_back(params.seed + 1000 * i);
    st.particles.reserve(quota);
    for (std::size_t p = 0; p < quota; ++p)
      st.particles.push_back(std::max(
          1e-6, params.model.initial_length +
                    st.rng.gaussian(0.0, 5.0 * params.model.process_noise)));
    st.weights.assign(quota, 1.0 / static_cast<double>(params.particles));
    st.exports.assign(n, {});
  }
  return shared;
}

void ParticleFilterApp::wire_tracking(core::JobInstance& runtime,
                                      const std::shared_ptr<BatchTrackState>& batch) const {
  const auto n = static_cast<std::size_t>(pe_count_);
  const std::size_t quota = params_.particles / n;
  const dsp::CrackModel model = params_.model;
  const auto total = static_cast<std::int64_t>(params_.particles);

  runtime.set_compute(obs_, [this, batch](core::FiringContext& ctx) {
    const TrackState& shared = batch->at(ctx.invocation);
    const double obs =
        shared.traj->observations.at(static_cast<std::size_t>(batch->local_step(ctx.invocation)));
    for (std::size_t i = 0; i < obs_edge_.size(); ++i)
      ctx.outputs[ctx.output_index(obs_edge_[i])] = {pack_f64(std::vector<double>{obs})};
  });

  for (std::size_t i = 0; i < n; ++i) {
    runtime.set_compute(est_[i], [this, batch, i, model](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      for (double& p : st.particles) p = model.step(p, st.rng);
      ctx.outputs[ctx.output_index(chain_eu_[i])] = {core::Bytes(4, 0)};
    });

    runtime.set_compute(upd_[i], [this, batch, i, model](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      const double obs = unpack_f64(ctx.inputs[ctx.input_index(obs_edge_[i])][0]).at(0);
      // Weight accumulation (weights are globally normalized after every
      // iteration, so this composes across skipped resampling steps).
      for (std::size_t p = 0; p < st.particles.size(); ++p)
        st.weights[p] *= model.likelihood(obs, st.particles[p]);
      ctx.outputs[ctx.output_index(chain_ul_[i])] = {core::Bytes(4, 0)};
    });

    runtime.set_compute(lws_[i], [this, batch, i, n](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      double w_sum = 0.0, wp_sum = 0.0, w2_sum = 0.0;
      for (std::size_t p = 0; p < st.particles.size(); ++p) {
        w_sum += st.weights[p];
        wp_sum += st.weights[p] * st.particles[p];
        w2_sum += st.weights[p] * st.weights[p];
      }
      for (std::size_t j = 0; j < n; ++j)
        ctx.outputs[ctx.output_index(lws_edge_[i][j])] = {
            pack_f64(std::vector<double>{w_sum, wp_sum, w2_sum})};
    });

    runtime.set_compute(res_[i], [this, batch, i, n, quota, total](core::FiringContext& ctx) {
      TrackState& shared = batch->at(ctx.invocation);
      auto& st = shared.pe[i];
      std::vector<double> w_sums(n);
      double w_total = 0.0, wp_acc = 0.0, w2_acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const std::vector<double> sums =
            unpack_f64(ctx.inputs[ctx.input_index(lws_edge_[j][i])][0]);
        w_sums[j] = sums.at(0);
        w_total += sums.at(0);
        wp_acc += sums.at(1);
        w2_acc += sums.at(2);
      }
      if (i == 0)  // the global posterior-mean estimate (identical on all PEs)
        shared.estimates.push_back(w_total > 0.0 ? wp_acc / w_total : 0.0);

      // Adaptive trigger: global ESS from the shared sums — every PE
      // reaches the same decision with no extra communication.
      const double ess = w2_acc > 0.0 ? (w_total * w_total) / w2_acc : 0.0;
      const bool do_resample =
          w_total > 0.0 &&
          ess <= params_.resample_ess_fraction * static_cast<double>(total);
      if (i == 0 && do_resample) ++shared.resample_steps;

      st.exports.assign(n, {});
      if (do_resample) {
        std::vector<std::int64_t> targets = dsp::proportional_targets(w_sums, total);
        const auto plan = transfer_plan(targets, static_cast<std::int64_t>(quota));

        // Phase 2: local resampling to this PE's target count.
        std::vector<double> resampled;
        const auto t_i = static_cast<std::size_t>(targets[i]);
        if (t_i > 0 && w_sums[i] > 0.0) {
          resampled = dsp::systematic_resample(st.particles, st.weights, targets[i],
                                               st.rng.uniform());
        } else if (t_i > 0) {
          resampled.assign(t_i, st.particles.empty() ? 1e-6 : st.particles[0]);
        }
        const std::size_t keep = std::min(t_i, quota);
        st.kept.assign(resampled.begin(),
                       resampled.begin() + static_cast<std::ptrdiff_t>(keep));
        // Phase 3 exports: slices of the excess, walked in receiver order.
        std::size_t cursor = keep;
        for (std::size_t j = 0; j < n; ++j) {
          const auto amount = static_cast<std::size_t>(plan[i][j]);
          if (amount == 0) continue;
          st.exports[j].assign(
              resampled.begin() + static_cast<std::ptrdiff_t>(cursor),
              resampled.begin() + static_cast<std::ptrdiff_t>(cursor + amount));
          cursor += amount;
        }
      } else {
        // Skip: keep the particle set, normalize weights globally (the
        // degenerate w_total <= 0 case resets to uniform instead).
        st.kept = st.particles;
        if (w_total > 0.0) {
          for (double& w : st.weights) w /= w_total;
        } else {
          st.weights.assign(quota, 1.0 / static_cast<double>(total));
        }
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        st.exported += static_cast<std::int64_t>(st.exports[j].size());
        ctx.outputs[ctx.output_index(particle_edge_[i][j])] = {pack_f64(st.exports[j])};
      }
      ctx.outputs[ctx.output_index(chain_rx_[i])] = {
          core::Bytes(4, do_resample ? 1 : 0)};  // flag for Xch
    });

    runtime.set_compute(xch_[i], [this, batch, i, n, quota, total](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      const bool resampled = ctx.inputs[ctx.input_index(chain_rx_[i])][0][0] != 0;
      std::vector<double> merged = std::move(st.kept);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const std::vector<double> imported =
            unpack_f64(ctx.inputs[ctx.input_index(particle_edge_[j][i])][0]);
        merged.insert(merged.end(), imported.begin(), imported.end());
      }
      if (merged.size() != quota)
        throw std::logic_error("ParticleFilterApp: intra-resampling did not rebalance to N/n");
      st.particles = std::move(merged);
      if (resampled) st.weights.assign(quota, 1.0 / static_cast<double>(total));
      ctx.outputs[ctx.output_index(loop_xe_[i])] = {core::Bytes(4, 0)};
    });
  }
}

namespace {
/// A single-trajectory run is a batch of one job.
template <class Batch, class State>
std::shared_ptr<Batch> one_job_batch(std::shared_ptr<State> state, std::size_t steps) {
  auto batch = std::make_shared<Batch>();
  batch->steps_per_job = std::max<std::int64_t>(1, static_cast<std::int64_t>(steps));
  batch->jobs.push_back(std::move(state));
  return batch;
}
}  // namespace

TrackResult ParticleFilterApp::track(const dsp::CrackTrajectory& trajectory) const {
  auto shared =
      make_track_state(params_, static_cast<std::size_t>(pe_count_), trajectory);

  const core::ExecutablePlan& plan = system_->plan();
  core::JobInstance runtime(plan);
  // The channel counters include initial-token placement; count only
  // what this run moves.
  std::vector<core::JobInstance::ChannelTraffic> before;
  for (const core::ChannelSpec& spec : plan.channels)
    before.push_back(runtime.channel_traffic(spec.edge));

  wire_tracking(runtime, one_job_batch<BatchTrackState>(shared, trajectory.observations.size()));
  runtime.run_colocated(static_cast<std::int64_t>(trajectory.observations.size()));

  TrackResult result;
  result.estimates = std::move(shared->estimates);
  result.resample_steps = shared->resample_steps;
  result.rmse_vs_truth = dsp::rmse(trajectory.truth, result.estimates);
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    const core::JobInstance::ChannelTraffic now = runtime.channel_traffic(plan.channels[c].edge);
    const std::int64_t messages = now.messages - before[c].messages;
    if (plan.channels[c].mode == core::SpiMode::kDynamic) {
      result.dynamic_messages += messages;
      result.particles_exchanged += (now.payload_bytes - before[c].payload_bytes) /
                                    static_cast<std::int64_t>(sizeof(double));
    } else {
      result.static_messages += messages;
    }
  }
  return result;
}

TrackResult ParticleFilterApp::track_threaded(const dsp::CrackTrajectory& trajectory,
                                              core::ChannelPolicy policy) const {
  return track_threaded(trajectory, core::RunOptions{}, policy);
}

TrackResult ParticleFilterApp::track_threaded(const dsp::CrackTrajectory& trajectory,
                                              const core::RunOptions& run_options,
                                              core::ChannelPolicy policy) const {
  auto shared =
      make_track_state(params_, static_cast<std::size_t>(pe_count_), trajectory);

  core::JobInstance runtime(system_->plan(), {policy, {}, nullptr, {}});
  core::WorkerPool pool(runtime.proc_count());
  wire_tracking(runtime, one_job_batch<BatchTrackState>(shared, trajectory.observations.size()));
  core::RunOptions options = run_options;
  options.iterations = static_cast<std::int64_t>(trajectory.observations.size());
  runtime.run(pool, options);

  TrackResult result;
  result.estimates = std::move(shared->estimates);
  result.resample_steps = shared->resample_steps;
  result.rmse_vs_truth = dsp::rmse(trajectory.truth, result.estimates);
  for (const auto& pe : shared->pe) result.particles_exchanged += pe.exported;
  return result;
}

std::vector<TrackResult> ParticleFilterApp::track_batch(std::span<const ParticleJobSpec> jobs,
                                                        core::JobInstance& instance,
                                                        const core::RunOptions* run_options) const {
  if (jobs.empty()) return {};
  const auto n = static_cast<std::size_t>(pe_count_);
  const auto steps = static_cast<std::int64_t>(jobs.front().trajectory.observations.size());
  if (steps <= 0)
    throw std::invalid_argument("ParticleFilterApp::track_batch: empty trajectory");

  auto batch = std::make_shared<BatchTrackState>();
  batch->steps_per_job = steps;
  batch->jobs.reserve(jobs.size());
  for (const ParticleJobSpec& job : jobs) {
    if (static_cast<std::int64_t>(job.trajectory.observations.size()) != steps)
      throw std::invalid_argument(
          "ParticleFilterApp::track_batch: jobs must share one trajectory length");
    ParticleParams params = params_;
    params.seed = job.seed;
    batch->jobs.push_back(make_track_state(params, n, job.trajectory));
  }

  wire_tracking(instance, batch);
  instance.reset_invocations();
  if (run_options) {
    core::RunOptions options = *run_options;
    options.iterations = steps * static_cast<std::int64_t>(jobs.size());
    instance.run_colocated(options);
  } else {
    instance.run_colocated(steps * static_cast<std::int64_t>(jobs.size()));
  }

  std::vector<TrackResult> results;
  results.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    TrackState& shared = *batch->jobs[k];
    TrackResult result;
    result.estimates = std::move(shared.estimates);
    result.resample_steps = shared.resample_steps;
    result.rmse_vs_truth = dsp::rmse(jobs[k].trajectory.truth, result.estimates);
    for (const auto& pe : shared.pe) result.particles_exchanged += pe.exported;
    results.push_back(std::move(result));
  }
  return results;
}

sim::ExecStats ParticleFilterApp::run_timed(std::size_t particles,
                                            const ParticleTimingModel& timing,
                                            std::int64_t iterations,
                                            const sim::CommBackend* backend) const {
  if (particles > params_.max_particles)
    throw std::length_error("ParticleFilterApp::run_timed: particles exceed declared bound");
  const auto n = static_cast<std::size_t>(pe_count_);
  const std::size_t per_pe = particles / n;

  enum class Role { kObs, kEst, kUpd, kLws, kRes, kXch };
  std::vector<Role> role(system_->application().actor_count(), Role::kObs);
  for (std::size_t i = 0; i < n; ++i) {
    role[static_cast<std::size_t>(est_[i])] = Role::kEst;
    role[static_cast<std::size_t>(upd_[i])] = Role::kUpd;
    role[static_cast<std::size_t>(lws_[i])] = Role::kLws;
    role[static_cast<std::size_t>(res_[i])] = Role::kRes;
    role[static_cast<std::size_t>(xch_[i])] = Role::kXch;
  }

  sim::WorkloadModel workload;
  workload.exec_cycles = [this, per_pe, timing, role](std::int32_t task,
                                                      std::int64_t iter) -> std::int64_t {
    const df::ActorId actor = system_->sync_graph().task(task).actor;
    const auto count = static_cast<std::int64_t>(per_pe);
    switch (role[static_cast<std::size_t>(actor)]) {
      case Role::kObs: return timing.phase_setup_cycles;
      case Role::kEst: return timing.phase_setup_cycles + count * timing.est_cycles_per_particle;
      case Role::kUpd: return timing.phase_setup_cycles + count * timing.upd_cycles_per_particle;
      case Role::kLws: return timing.phase_setup_cycles + count * timing.sum_cycles_per_particle;
      case Role::kRes: return timing.phase_setup_cycles + count * timing.res_cycles_per_particle;
      case Role::kXch:
        return timing.phase_setup_cycles +
               modeled_exchange(per_pe, timing.mean_exchange_fraction, iter) *
                   timing.xch_cycles_per_particle;
    }
    return 1;
  };
  workload.payload_bytes = [this, per_pe, timing, n](const sched::SyncEdge& e,
                                                     std::int64_t iter) -> std::int64_t {
    for (std::size_t i = 0; i < n; ++i) {
      if (e.dataflow_edge == obs_edge_[i]) return timing.obs_wire_bytes;
      for (std::size_t j = 0; j < n; ++j) {
        if (e.dataflow_edge == lws_edge_[i][j]) return timing.weight_wire_bytes;
        if (j != i && e.dataflow_edge == particle_edge_[i][j])
          return modeled_exchange(per_pe, timing.mean_exchange_fraction, iter) *
                 timing.particle_wire_bytes;
      }
    }
    return 4;
  };

  sim::TimedExecutorOptions options;
  options.iterations = iterations;
  options.clock.mhz = timing.clock_mhz;
  options.link = timing.link;
  if (backend) return system_->run_timed_with(*backend, options, std::move(workload));
  return system_->run_timed(options, std::move(workload));
}

sim::AreaReport ParticleFilterApp::area_report() const {
  // Component areas calibrated against the paper's Table 2 (2-PE system;
  // see EXPERIMENTS.md for the calibration note). The particle-filter PE
  // is computationally heavy — the paper could only fit 2 PEs.
  sim::AreaReport report(sim::virtex4_sx35());
  report.add("Observation host", sim::ResourceVector{60, 60, 80, 1, 0});
  const auto n = static_cast<std::size_t>(pe_count_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = std::to_string(i);
    report.add("PF PE " + s, sim::ResourceVector{3400, 3050, 9990, 15, 54});
    if (i > 0)  // obs channel to every non-host PE
      report.add("SPI obs channel " + s, sim::ResourceVector{2, 1, 8, 0, 0}, /*is_spi=*/true);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      report.add("SPI weight channel " + s + "->" + std::to_string(j),
                 sim::ResourceVector{2, 1, 10, 0, 0}, /*is_spi=*/true);
      report.add("SPI particle channel " + s + "->" + std::to_string(j),
                 sim::ResourceVector{4, 2, 14, 2, 0}, /*is_spi=*/true);
    }
  }
  return report;
}

}  // namespace spi::apps
