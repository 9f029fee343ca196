/// \file plan_server.hpp
/// The multi-tenant plan server (docs/serving.md).
///
/// One persistent process serves the built-in models' plan instances:
///
///   POST /job       — run one job on a built-in model ("speech" or
///                     "particle"); jobs admitted from one HTTP read
///                     burst are queued per tenant, then every tenant's
///                     queue drains into ONE batched colocated firing
///                     per (model, batch key) — see served_model.hpp.
///   GET  /metrics   — Prometheus exposition of the serve + runtime
///                     counters; /metrics.json for the JSON form.
///   GET  /runtime   — live server status JSON (admission, tenants,
///                     models).
///   GET  /healthz   — liveness.
///
/// The server is synchronous and single-threaded by design: the target
/// is one hardware thread, where the fastest schedule is to batch the
/// pipelined requests of each read burst through one program traversal
/// (HTTP/1.1 pipelining + BatchHandler + JobInstance::run_colocated)
/// rather than to context-switch between worker threads. Every request
/// is serialized through the poll thread, which is what makes the
/// single-threaded JobQueue/JobInstance contracts sound.
///
/// A new app is served by adding a ServedModel (served_model.hpp); the
/// server keeps no plans beyond the ones its models run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/admission.hpp"
#include "serve/job_queue.hpp"

namespace spi::serve {

class ServedModel;

struct PlanServerOptions {
  int port = 0;  ///< 0 = ephemeral
  std::string bind_address = "127.0.0.1";
  AdmissionController::Options admission;
  /// Built-in model shapes (small defaults sized for one serving core;
  /// the bounds cap per-job input sizes).
  std::int32_t speech_pes = 2;
  apps::SpeechParams speech_params{.frame_size = 64,
                                   .max_frame_size = 256,
                                   .order = 4,
                                   .max_order = 8};
  std::int32_t particle_pes = 2;
  apps::ParticleParams particle_params{.particles = 16, .max_particles = 64, .model = {}};
  /// Watchdog over each batch run (0 = off): a batch making no progress
  /// for this window dumps a flight post-mortem into
  /// `flight_dump_dir` and counts spi_serve_stalls_total — without
  /// aborting the batch (abort_on_stall stays false so one wedged job
  /// cannot take the server down with it).
  std::int64_t watchdog_ms = 0;
  std::string flight_dump_dir;
  obs::MetricRegistry* metrics = nullptr;  ///< optional external registry
  /// Request-lifecycle tracing (GET /trace, /tenants — see
  /// obs/request_trace.hpp). On by default; the serve bench holds the
  /// traced-vs-bare throughput regression under 2%.
  obs::RequestTracerOptions trace;
};

class PlanServer {
 public:
  explicit PlanServer(PlanServerOptions options = {});
  ~PlanServer();
  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return http_ && http_->running(); }
  [[nodiscard]] int port() const { return http_ ? http_->port() : -1; }

  /// The batch handler: routes every request of one read burst, then
  /// drains all tenant queues as one batched firing per (model, batch
  /// key) across tenants. Public so tests (and in-process embedders)
  /// can drive the server without a socket — `responses` is filled with
  /// exactly one response per request, in order.
  void handle_burst(std::span<obs::HttpRequest> requests,
                    std::vector<obs::HttpResponse>& responses);

  [[nodiscard]] const AdmissionController& admission() const { return admission_; }
  /// Equation-2 resident channel bytes of the built-in models, checked
  /// against the memory budget at construction.
  [[nodiscard]] std::int64_t resident_bytes() const { return resident_bytes_; }
  [[nodiscard]] obs::MetricRegistry& metrics() { return *metrics_; }
  [[nodiscard]] std::int64_t jobs_served() const { return jobs_served_; }
  [[nodiscard]] std::string runtime_json() const;
  /// The GET /tenants body: per-tenant queue facts merged with the
  /// tracer's per-stage rollups.
  [[nodiscard]] std::string tenants_json() const;
  [[nodiscard]] const obs::RequestTracer& tracer() const { return *tracer_; }
  /// Content hash of a built-in model's plan, e.g. plan_key("speech");
  /// throws std::out_of_range for an app no model serves.
  [[nodiscard]] std::string plan_key(std::string_view app) const;

 private:
  /// One tenant's serving state: the queue plus cached instrument
  /// handles (resolved once — per-request stamping must not take the
  /// registry lock).
  struct TenantState {
    TenantState(std::string tenant, std::size_t models)
        : queue(std::move(tenant)), jobs_total(models, nullptr) {}
    JobQueue queue;
    obs::TenantSeries* series = nullptr;
    /// spi_serve_jobs_total{app,tenant} per model, resolved at the
    /// tenant's first served job of that model.
    std::vector<obs::Counter*> jobs_total;
  };
  /// A model's batch instruments, resolved at its first batch.
  struct ModelSeries {
    obs::Counter* batches = nullptr;       ///< spi_serve_batches_total{app}
    obs::Histogram* batch_jobs = nullptr;  ///< spi_serve_batch_jobs{app}
  };

  [[nodiscard]] obs::HttpResponse handle_get(const obs::HttpRequest& request);
  /// Parses and queues one POST /job, or answers it immediately (400 /
  /// 429) in `responses`.
  void route_job(std::size_t index, const obs::HttpRequest& request,
                 std::vector<obs::HttpResponse>& responses);
  /// Pops every tenant's queued jobs and fires one batch per (model,
  /// batch key) for the whole burst.
  void drain_burst(std::vector<obs::HttpResponse>& responses);

  PlanServerOptions options_;
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;

  AdmissionController admission_;
  std::int64_t resident_bytes_ = 0;
  std::map<std::string, TenantState, std::less<>> tenants_;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::int64_t next_batch_id_ = 0;
  std::int64_t burst_ingest_ns_ = 0;  ///< tracer stamp at handle_burst entry
  /// Shared enqueue stamp, taken lazily at the burst's first admitted
  /// job (-1 = not yet): one clock read per burst, not per job.
  std::int64_t burst_admit_ns_ = -1;
  std::vector<std::uint64_t> span_ids_scratch_;  ///< reused per drained batch

  std::vector<std::unique_ptr<ServedModel>> models_;
  std::vector<ModelSeries> model_series_;  ///< parallel to models_

  // Hot-path instruments, each resolved on first use so a series shows
  // up in /metrics exactly when it is first counted.
  obs::Counter* job_requests_ = nullptr;     ///< spi_serve_requests_total{route="job"}
  obs::Counter* queue_rejects_ = nullptr;    ///< spi_serve_rejects_total{reason="queue-depth"}
  obs::Histogram* burst_seconds_ = nullptr;  ///< spi_serve_burst_seconds

  std::unique_ptr<obs::HttpServer> http_;
  std::int64_t jobs_served_ = 0;
  std::int64_t bursts_ = 0;
  std::int64_t stalls_ = 0;
};

}  // namespace spi::serve
