#include "serve/served_model.hpp"

#include <charconv>
#include <cmath>
#include <numeric>
#include <optional>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/json.hpp"
#include "serve/plan_server.hpp"

namespace spi::serve {

namespace {

using obs::json::append_double;
using obs::json::append_doubles;

constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;  ///< exact in a double
constexpr std::uint64_t kMaxSteps = 4096;                   ///< particle trajectory cap
constexpr const char* kBadSeed = "job \"seed\" must be an integer in [0, 2^53]";

/// Job field `key` as an integer in [lo, hi], or `fallback` when the body
/// has no such field; nullopt when the field is present but not a finite
/// integral number in range. Checked before the cast, so no input makes
/// the conversion undefined.
std::optional<std::uint64_t> integer_field(const JobBody& body, std::string_view key,
                                           std::uint64_t fallback, std::uint64_t lo,
                                           std::uint64_t hi) {
  const auto value = body.number(key);
  if (!value) return body.has(key) ? std::nullopt : std::optional(fallback);
  const bool in_range = *value >= static_cast<double>(lo) && *value <= static_cast<double>(hi);
  if (!in_range || std::trunc(*value) != *value) return std::nullopt;  // NaN is not in range
  return static_cast<std::uint64_t>(*value);
}

std::string bad_array(std::string_view key) {
  return "job \"" + std::string(key) + "\" must be an array of finite JSON numbers";
}

/// Copies job field `key`, an array of numbers, into `out`; `fallback(out)`
/// fills it when the body has no such field. False when the field is
/// present but is not an array of finite JSON numbers.
template <class Fallback>
bool array_field(const JobBody& body, std::string_view key, std::vector<double>& out,
                 Fallback fallback) {
  if (const auto values = body.array(key)) {
    out.assign(values->begin(), values->end());
    return true;
  }
  if (body.has(key)) return false;
  fallback(out);
  return true;
}

/// Deterministic synthetic speech frame: a splitmix-style stream keyed
/// by the job seed, so identical requests produce identical jobs (the
/// loadgen relies on this for cheap request bodies).
void synth_frame(std::uint64_t seed, std::size_t n, std::vector<double>& frame) {
  frame.resize(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    frame[i] = static_cast<double>((x >> 33) % 2000) / 1000.0 - 1.0;
  }
}

void synth_coeffs(std::size_t order, std::vector<double>& coeffs) {
  coeffs.resize(order);
  for (std::size_t j = 0; j < order; ++j) coeffs[j] = 0.5 / static_cast<double>(j + 1);
}

/// Appends an integer as std::to_string spells it, without the temporary.
template <class Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

using SpeechJob = apps::ErrorGenApp::SpeechJobSpec;

class ServedSpeech final : public ServedModelOf<apps::ErrorGenApp, SpeechJob> {
 public:
  using ServedModelOf::ServedModelOf;

 private:
  std::optional<std::string> parse(const JobBody& body, Spec& spec) const override {
    const apps::SpeechParams& params = app_->params();
    SpeechJob& job = spec.job;
    if (const auto frame = body.array("frame"); frame || body.has("frame")) {
      if (!frame) return bad_array("frame");
      job.frame.assign(frame->begin(), frame->end());
      if (!array_field(body, "coeffs", job.coeffs,
                       [&](std::vector<double>& out) { synth_coeffs(params.order, out); }))
        return bad_array("coeffs");
      spec.explicit_io = true;
    } else {
      const auto n =
          integer_field(body, "frame_size", params.frame_size, 1, params.max_frame_size);
      const auto order = integer_field(body, "order", params.order, 1, params.max_order);
      if (!n || !order) return "speech job exceeds the model bounds";
      const auto seed = integer_field(body, "seed", 0, 0, kMaxSeed);
      if (!seed) return kBadSeed;
      synth_frame(*seed, *n, job.frame);
      synth_coeffs(*order, job.coeffs);
    }
    if (job.frame.empty() || job.frame.size() > params.max_frame_size || job.coeffs.empty() ||
        job.coeffs.size() > params.max_order)
      return "speech job exceeds the model bounds";
    return std::nullopt;
  }

  void run_batch(std::span<const SpeechJob> jobs, const std::vector<bool>& explicit_io,
                 std::span<std::string* const> bodies) override {
    app_->compute_errors_batch(jobs, instance, results_, &run_options);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      std::string& body = *bodies[k];
      const std::vector<double>& errors = results_[k];
      // A double takes at most 24 characters and a comma: one allocation.
      body.reserve(body.size() + 25 * errors.size() + 96);
      body += "{\"app\": \"speech\", ";
      if (explicit_io[k]) {
        body += "\"errors\": ";
        append_doubles(body, errors);
      } else {
        body += "\"n\": ";
        append_integer(body, errors.size());
        body += ", \"checksum\": ";
        append_double(body, std::accumulate(errors.begin(), errors.end(), 0.0));
      }
      body += "}\n";
    }
  }

  std::vector<std::vector<double>> results_;  ///< reused batch after batch
};

using ParticleJob = apps::ParticleFilterApp::ParticleJobSpec;

class ServedParticle final : public ServedModelOf<apps::ParticleFilterApp, ParticleJob> {
 public:
  using ServedModelOf::ServedModelOf;

 private:
  std::optional<std::string> parse(const JobBody& body, Spec& spec) const override {
    const apps::ParticleParams& params = app_->params();
    const auto seed = integer_field(body, "seed", params.seed, 0, kMaxSeed);
    if (!seed) return kBadSeed;
    spec.job.seed = *seed;
    dsp::CrackTrajectory& trajectory = spec.job.trajectory;
    if (const auto observations = body.array("observations");
        observations || body.has("observations")) {
      if (!observations) return bad_array("observations");
      trajectory.observations.assign(observations->begin(), observations->end());
      if (trajectory.observations.empty()) return "particle job has no observations";
      if (trajectory.observations.size() > kMaxSteps) return "particle job steps out of range";
      if (!array_field(body, "truth", trajectory.truth, [&](std::vector<double>& out) {
            out.assign(trajectory.observations.size(), 0.0);
          }))
        return bad_array("truth");
      // Rejected here, not in the batch: the RMSE would throw there and
      // fail every job batched with this one.
      if (trajectory.truth.size() != trajectory.observations.size())
        return "particle job truth length differs from its observations";
      spec.explicit_io = true;
    } else {
      const auto steps = integer_field(body, "steps", 8, 1, kMaxSteps);
      if (!steps) return "particle job steps out of range";
      dsp::Rng rng(spec.job.seed + 1);
      trajectory = dsp::simulate_crack(params.model, *steps, rng);
    }
    return std::nullopt;
  }

  /// A batch must share one trajectory length: a different length is a
  /// different iteration count per job.
  std::int64_t batch_key(const ParticleJob& job) const override {
    return static_cast<std::int64_t>(job.trajectory.observations.size());
  }

  void run_batch(std::span<const ParticleJob> jobs, const std::vector<bool>& explicit_io,
                 std::span<std::string* const> bodies) override {
    const auto results = app_->track_batch(jobs, instance, &run_options);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const apps::TrackResult& r = results[k];
      std::string& body = *bodies[k];
      body.reserve(body.size() + 25 * r.estimates.size() + 160);
      body += "{\"app\": \"particle\", ";
      if (explicit_io[k]) {
        body += "\"estimates\": ";
        append_doubles(body, r.estimates);
        body += ", \"rmse\": ";
        append_double(body, r.rmse_vs_truth);
        body += ", \"resample_steps\": ";
        append_integer(body, r.resample_steps);
        body += ", \"particles_exchanged\": ";
        append_integer(body, r.particles_exchanged);
      } else {
        body += "\"steps\": ";
        append_integer(body, jobs[k].trajectory.observations.size());
        body += ", \"estimate\": ";
        append_double(body, r.estimates.empty() ? 0.0 : r.estimates.back());
        body += ", \"rmse\": ";
        append_double(body, r.rmse_vs_truth);
      }
      body += "}\n";
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<ServedModel>> make_builtin_models(const PlanServerOptions& options,
                                                              obs::MetricRegistry* metrics) {
  std::vector<std::unique_ptr<ServedModel>> models;
  models.push_back(std::make_unique<ServedSpeech>(
      "speech", std::make_unique<apps::ErrorGenApp>(options.speech_pes, options.speech_params),
      metrics));
  models.push_back(std::make_unique<ServedParticle>(
      "particle",
      std::make_unique<apps::ParticleFilterApp>(options.particle_pes, options.particle_params),
      metrics));
  return models;
}

}  // namespace spi::serve
