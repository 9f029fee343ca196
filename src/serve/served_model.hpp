/// \file served_model.hpp
/// The models a plan server runs POST /job bodies on (docs/serving.md).
///
/// A ServedModel owns one app, the persistent JobInstance that executes
/// every batch of it, that instance's flight recorder and run options.
/// The server's drain treats every model alike: it stages each admitted
/// job (its body already read into a JobBody) under the batch key its
/// model names, then fires each staged key as ONE batched colocated run,
/// rendering the replies straight into the responses. A model supplies
/// only the app-specific steps — parse a job, name its batch key, run
/// one batch — through ServedModelOf<App, Job>.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/job_instance.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/job_body.hpp"

namespace spi::serve {

struct PlanServerOptions;

class ServedModel {
 public:
  ServedModel(const ServedModel&) = delete;
  ServedModel& operator=(const ServedModel&) = delete;
  virtual ~ServedModel() = default;

  /// Parses one job body and stages the job under its batch key, which
  /// is returned; a string is the 400 message for a bad job.
  virtual std::variant<std::int64_t, std::string> stage(const JobBody& body) = 0;
  /// Runs every job staged under `key` as one batch and unstages them,
  /// appending each job's 200 body to *bodies[i], in staging order;
  /// throws when the batch fails (the server answers every job of it
  /// 500).
  virtual void fire(std::int64_t key, std::span<std::string* const> bodies) = 0;

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
/// Staged jobs and their batches are kept for reuse: a job is parsed
/// into storage a past job left behind, so steady traffic stages without
/// touching the heap.
template <class App, class Job>
class ServedModelOf : public ServedModel {
 public:
  /// A parsed job. Explicit-input jobs answer with the full result,
  /// synthetic ones (inputs generated from a seed) with a summary.
  struct Spec {
    Job job;
    bool explicit_io = false;
  };

  std::variant<std::int64_t, std::string> stage(const JobBody& body) final {
    parsing_.explicit_io = false;
    if (auto error = parse(body, parsing_)) return std::move(*error);
    const std::int64_t key = batch_key(parsing_.job);
    Batch& batch = batch_for(key);
    if (batch.size == batch.jobs.size()) {
      batch.jobs.emplace_back();
      batch.explicit_io.push_back(false);
    }
    std::swap(batch.jobs[batch.size], parsing_.job);
    batch.explicit_io[batch.size] = parsing_.explicit_io;
    ++batch.size;
    return key;
  }

  void fire(std::int64_t key, std::span<std::string* const> bodies) final {
    for (Batch& batch : batches_) {
      if (batch.key != key || batch.size == 0) continue;
      const std::size_t size = std::exchange(batch.size, 0);
      run_batch({batch.jobs.data(), size}, batch.explicit_io, bodies);
      return;
    }
  }

  /// `app` must live on the heap: the instance keeps a reference to its
  /// plan, and the base is built before this class's members.
  ServedModelOf(std::string app_name, std::unique_ptr<App> app, obs::MetricRegistry* metrics)
      : ServedModel(std::move(app_name), app->system().plan(), metrics), app_(std::move(app)) {}

 protected:
  /// Parses `body` into `spec` (whose storage a past job may have left);
  /// returns the 400 message for a bad job.
  [[nodiscard]] virtual std::optional<std::string> parse(const JobBody& body, Spec& spec) const = 0;
  [[nodiscard]] virtual std::int64_t batch_key(const Job& /*job*/) const { return 0; }
  /// Runs the batch and appends one 200 body per job; explicit_io[k]
  /// holds job k's flag.
  virtual void run_batch(std::span<const Job> jobs, const std::vector<bool>& explicit_io,
                         std::span<std::string* const> bodies) = 0;

  std::unique_ptr<App> app_;

 private:
  struct Batch {
    std::int64_t key = 0;
    std::size_t size = 0;  ///< staged jobs: the first `size` of jobs
    std::vector<Job> jobs;
    std::vector<bool> explicit_io;
  };

  /// The batch staging `key`: the one already holding it, else an empty
  /// one (a drained batch keeps its storage), else a new one.
  Batch& batch_for(std::int64_t key) {
    Batch* empty = nullptr;
    for (Batch& batch : batches_) {
      if (batch.size != 0 && batch.key == key) return batch;
      if (batch.size == 0 && (empty == nullptr || batch.key == key)) empty = &batch;
    }
    if (empty == nullptr) empty = &batches_.emplace_back();
    empty->key = key;
    return *empty;
  }

  Spec parsing_;  ///< the job being parsed; swapped into its batch
  std::vector<Batch> batches_;
};

/// The built-in models, in the order /runtime lists them: "speech"
/// (ErrorGenApp) and "particle" (ParticleFilterApp).
[[nodiscard]] std::vector<std::unique_ptr<ServedModel>> make_builtin_models(
    const PlanServerOptions& options, obs::MetricRegistry* metrics);

}  // namespace spi::serve
