/// \file served_model.hpp
/// The models a plan server runs POST /job bodies on (docs/serving.md).
///
/// A ServedModel owns one app, the persistent JobInstance that executes
/// every batch of it, that instance's flight recorder and run options.
/// The server's drain treats every model alike: it stages each admitted
/// job under the batch key its model names, then fires each staged key
/// as ONE batched colocated run. A model supplies only the app-specific
/// steps — parse a body, name its batch key, run one batch — through
/// ServedModelOf<App, Job>.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/job_instance.hpp"
#include "obs/flight_recorder.hpp"

namespace spi::serve {

struct PlanServerOptions;

class ServedModel {
 public:
  ServedModel(const ServedModel&) = delete;
  ServedModel& operator=(const ServedModel&) = delete;
  virtual ~ServedModel() = default;

  /// Parses one job body and stages the job under its batch key, which
  /// is returned; a string is the 400 message for a bad job.
  virtual std::variant<std::int64_t, std::string> stage(std::string_view body) = 0;
  /// Runs every job staged under `key` as one batch and unstages them.
  /// Returns one 200 body per job, in staging order; throws when the
  /// batch fails (the server answers every job of it 500).
  virtual std::vector<std::string> fire(std::int64_t key) = 0;

  const std::string app;  ///< the job body's "app" value
  obs::FlightRecorder flight;
  core::JobInstance instance;
  core::RunOptions run_options;

 protected:
  ServedModel(std::string app_name, const core::ExecutablePlan& plan, obs::MetricRegistry* metrics)
      : app(std::move(app_name)),
        flight(plan.proc_count),
        instance(plan, core::JobInstanceOptions{core::ChannelPolicy::kAuto, {}, metrics, app}) {
    instance.set_flight_recorder(&flight);
  }
};

/// The typed half: stages the parsed jobs per batch key, so a model
/// only writes parse / batch_key / run_batch over its app's Job type.
template <class App, class Job>
class ServedModelOf : public ServedModel {
 public:
  /// A parsed job. Explicit-input jobs answer with the full result,
  /// synthetic ones (inputs generated from a seed) with a summary.
  struct Spec {
    Job job;
    bool explicit_io = false;
  };

  std::variant<std::int64_t, std::string> stage(std::string_view body) final {
    auto parsed = parse(body);
    if (auto* error = std::get_if<std::string>(&parsed)) return std::move(*error);
    Spec& spec = std::get<Spec>(parsed);
    const std::int64_t key = batch_key(spec.job);
    Batch& batch = staged_[key];
    batch.jobs.push_back(std::move(spec.job));
    batch.explicit_io.push_back(spec.explicit_io);
    return key;
  }

  std::vector<std::string> fire(std::int64_t key) final {
    auto node = staged_.extract(key);
    if (!node) return {};
    return run_batch(node.mapped().jobs, node.mapped().explicit_io);
  }

  /// `app` must live on the heap: the instance keeps a reference to its
  /// plan, and the base is built before this class's members.
  ServedModelOf(std::string app_name, std::unique_ptr<App> app, obs::MetricRegistry* metrics)
      : ServedModel(std::move(app_name), app->system().plan(), metrics), app_(std::move(app)) {}

 protected:
  [[nodiscard]] virtual std::variant<Spec, std::string> parse(std::string_view body) const = 0;
  [[nodiscard]] virtual std::int64_t batch_key(const Job& /*job*/) const { return 0; }
  [[nodiscard]] virtual std::vector<std::string> run_batch(
      std::span<const Job> jobs, const std::vector<bool>& explicit_io) = 0;

  std::unique_ptr<App> app_;

 private:
  struct Batch {
    std::vector<Job> jobs;
    std::vector<bool> explicit_io;
  };
  std::map<std::int64_t, Batch> staged_;
};

/// The built-in models, in the order /runtime lists them: "speech"
/// (ErrorGenApp) and "particle" (ParticleFilterApp).
[[nodiscard]] std::vector<std::unique_ptr<ServedModel>> make_builtin_models(
    const PlanServerOptions& options, obs::MetricRegistry* metrics);

}  // namespace spi::serve
