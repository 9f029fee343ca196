#include "serve/served_model.hpp"

#include <cmath>
#include <numeric>
#include <optional>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/json.hpp"
#include "serve/plan_server.hpp"
#include "serve/request.hpp"

namespace spi::serve {

namespace {

using obs::json::append_double;

constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;  ///< exact in a double
constexpr std::uint64_t kMaxSteps = 4096;                   ///< particle trajectory cap
constexpr const char* kBadSeed = "job \"seed\" must be an integer in [0, 2^53]";

/// Job field `key` as an integer in [lo, hi], or `fallback` when the body
/// has no such field; nullopt when the field is present but not a finite
/// integral number in range. Checked before the cast, so no input makes
/// the conversion undefined.
std::optional<std::uint64_t> integer_field(std::string_view body, std::string_view key,
                                           std::uint64_t fallback, std::uint64_t lo,
                                           std::uint64_t hi) {
  const auto value = json_number_field(body, key);
  if (!value) return json_has_field(body, key) ? std::nullopt : std::optional(fallback);
  const bool in_range = *value >= static_cast<double>(lo) && *value <= static_cast<double>(hi);
  if (!in_range || std::trunc(*value) != *value) return std::nullopt;  // NaN is not in range
  return static_cast<std::uint64_t>(*value);
}

/// Job field `key` as an array of numbers, `fallback()` when the body has
/// no such field; nullopt when the field is present but is not an array
/// of finite JSON numbers.
template <class Fallback>
std::optional<std::vector<double>> array_field(std::string_view body, std::string_view key,
                                               Fallback fallback) {
  auto values = json_array_field(body, key);
  if (!values && !json_has_field(body, key)) return fallback();
  return values;
}

std::string bad_array(std::string_view key) {
  return "job \"" + std::string(key) + "\" must be an array of finite JSON numbers";
}

/// Deterministic synthetic speech frame: a splitmix-style stream keyed
/// by the job seed, so identical requests produce identical jobs (the
/// loadgen relies on this for cheap request bodies).
std::vector<double> synth_frame(std::uint64_t seed, std::size_t n) {
  std::vector<double> frame(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    frame[i] = static_cast<double>((x >> 33) % 2000) / 1000.0 - 1.0;
  }
  return frame;
}

std::vector<double> synth_coeffs(std::size_t order) {
  std::vector<double> coeffs(order);
  for (std::size_t j = 0; j < order; ++j) coeffs[j] = 0.5 / static_cast<double>(j + 1);
  return coeffs;
}

void append_doubles(std::string& out, std::span<const double> values) {
  // A double takes at most 24 characters and a comma: one allocation,
  // with room left for the closing members.
  out.reserve(out.size() + 25 * values.size() + 32);
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    append_double(out, values[i]);
  }
  out += ']';
}

using SpeechJob = apps::ErrorGenApp::SpeechJobSpec;

class ServedSpeech final : public ServedModelOf<apps::ErrorGenApp, SpeechJob> {
 public:
  using ServedModelOf::ServedModelOf;

 private:
  std::variant<Spec, std::string> parse(std::string_view body) const override {
    const apps::SpeechParams& params = app_->params();
    Spec spec;
    if (auto frame = json_array_field(body, "frame"); frame || json_has_field(body, "frame")) {
      if (!frame) return bad_array("frame");
      auto coeffs = array_field(body, "coeffs", [&] { return synth_coeffs(params.order); });
      if (!coeffs) return bad_array("coeffs");
      spec = {{std::move(*frame), std::move(*coeffs)}, true};
    } else {
      const auto n =
          integer_field(body, "frame_size", params.frame_size, 1, params.max_frame_size);
      const auto order = integer_field(body, "order", params.order, 1, params.max_order);
      if (!n || !order) return "speech job exceeds the model bounds";
      const auto seed = integer_field(body, "seed", 0, 0, kMaxSeed);
      if (!seed) return kBadSeed;
      spec.job = {synth_frame(*seed, *n), synth_coeffs(*order)};
    }
    if (spec.job.frame.empty() || spec.job.frame.size() > params.max_frame_size ||
        spec.job.coeffs.empty() || spec.job.coeffs.size() > params.max_order)
      return "speech job exceeds the model bounds";
    return spec;
  }

  std::vector<std::string> run_batch(std::span<const SpeechJob> jobs,
                                     const std::vector<bool>& explicit_io) override {
    const auto results = app_->compute_errors_batch(jobs, instance, &run_options);
    std::vector<std::string> bodies(jobs.size(), "{\"app\": \"speech\", ");
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      if (explicit_io[k]) {
        bodies[k] += "\"errors\": ";
        append_doubles(bodies[k], results[k]);
      } else {
        bodies[k] += "\"n\": " + std::to_string(results[k].size()) + ", \"checksum\": ";
        append_double(bodies[k], std::accumulate(results[k].begin(), results[k].end(), 0.0));
      }
      bodies[k] += "}\n";
    }
    return bodies;
  }
};

using ParticleJob = apps::ParticleFilterApp::ParticleJobSpec;

class ServedParticle final : public ServedModelOf<apps::ParticleFilterApp, ParticleJob> {
 public:
  using ServedModelOf::ServedModelOf;

 private:
  std::variant<Spec, std::string> parse(std::string_view body) const override {
    const apps::ParticleParams& params = app_->params();
    const auto seed = integer_field(body, "seed", params.seed, 0, kMaxSeed);
    if (!seed) return kBadSeed;
    Spec spec{.job = {.trajectory = {}, .seed = *seed}};
    dsp::CrackTrajectory& trajectory = spec.job.trajectory;
    if (auto observations = json_array_field(body, "observations");
        observations || json_has_field(body, "observations")) {
      if (!observations) return bad_array("observations");
      trajectory.observations = std::move(*observations);
      if (trajectory.observations.empty()) return "particle job has no observations";
      if (trajectory.observations.size() > kMaxSteps) return "particle job steps out of range";
      auto truth = array_field(body, "truth", [&] {
        return std::vector<double>(trajectory.observations.size(), 0.0);
      });
      if (!truth) return bad_array("truth");
      trajectory.truth = std::move(*truth);
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
    return spec;
  }

  /// A batch must share one trajectory length: a different length is a
  /// different iteration count per job.
  std::int64_t batch_key(const ParticleJob& job) const override {
    return static_cast<std::int64_t>(job.trajectory.observations.size());
  }

  std::vector<std::string> run_batch(std::span<const ParticleJob> jobs,
                                     const std::vector<bool>& explicit_io) override {
    const auto results = app_->track_batch(jobs, instance, &run_options);
    std::vector<std::string> bodies(jobs.size(), "{\"app\": \"particle\", ");
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const apps::TrackResult& r = results[k];
      std::string& body = bodies[k];
      if (explicit_io[k]) {
        body += "\"estimates\": ";
        append_doubles(body, r.estimates);
        body += ", \"rmse\": ";
        append_double(body, r.rmse_vs_truth);
        body += ", \"resample_steps\": " + std::to_string(r.resample_steps);
        body += ", \"particles_exchanged\": " + std::to_string(r.particles_exchanged);
      } else {
        body += "\"steps\": " + std::to_string(jobs[k].trajectory.observations.size()) +
                ", \"estimate\": ";
        append_double(body, r.estimates.empty() ? 0.0 : r.estimates.back());
        body += ", \"rmse\": ";
        append_double(body, r.rmse_vs_truth);
      }
      body += "}\n";
    }
    return bodies;
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
