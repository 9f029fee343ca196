#include "serve/plan_server.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "serve/served_model.hpp"

namespace spi::serve {

namespace {

obs::HttpResponse json_response(int status, std::string body) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

obs::HttpResponse reject_response(const std::string& reason) {
  return json_response(429, "{\"error\": \"" + reason + "\"}\n");
}

obs::HttpResponse bad_request(const std::string& what) {
  return json_response(400, "{\"error\": \"" + obs::json::escaped(what) + "\"}\n");
}

std::string_view path_of(const obs::HttpRequest& request) {
  const std::string_view target = request.target;
  const std::size_t query = target.find('?');
  return query == std::string_view::npos ? target : target.substr(0, query);
}

/// A span whose successive stages (admission, queue, batch, exec,
/// reply) end at `stage_ends`; stages past the last stamp stay zero.
/// Stages tile the request by construction: each starts where the last
/// one ended.
obs::RequestSpan span_ending(int status, std::int64_t ingest_ns,
                             std::initializer_list<std::int64_t> stage_ends) {
  obs::RequestSpan span;
  span.status = status;
  span.ingest_ns = ingest_ns;
  std::int64_t* stage = span.stage_ns;
  for (std::int64_t start = ingest_ns; const std::int64_t end : stage_ends)
    *stage++ = end - std::exchange(start, end);
  return span;
}

}  // namespace

PlanServer::PlanServer(PlanServerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {
  if (options_.metrics) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = std::make_unique<obs::RequestTracer>(options_.trace, *metrics_);

  models_ = make_builtin_models(options_, metrics_);
  model_series_.resize(models_.size());
  for (const auto& model : models_) {
    // The recorders stay attached for the server's lifetime but record
    // only when somebody will drain the events: continuously when the
    // stall watchdog may dump a post-mortem, else just around captured
    // batches (the flight bridge arms/disarms per capture).
    model->flight.set_armed(options_.watchdog_ms > 0);
    if (options_.watchdog_ms > 0)
      model->run_options.watchdog = {.enabled = true,
                                     .window_ms = options_.watchdog_ms,
                                     .dump_dir = options_.flight_dump_dir,
                                     .abort_on_stall = false,  // survive a wedged batch
                                     .on_stall = [this](const obs::StallReport&) {
                                       ++stalls_;
                                       metrics_->counter("spi_serve_stalls_total").inc();
                                     }};
    resident_bytes_ += model->instance.resident_bytes();
  }
  // The models are all the server ever runs: it refuses to start with a
  // budget they bust, and then no request can reserve more.
  if (resident_bytes_ > admission_.options().memory_budget_bytes)
    throw std::invalid_argument("PlanServer: memory budget of " +
                                std::to_string(admission_.options().memory_budget_bytes) +
                                " bytes below the built-in models' resident " +
                                std::to_string(resident_bytes_) + " bytes");
}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  if (http_) return;
  obs::HttpServer::Options http;
  http.port = options_.port;
  http.bind_address = options_.bind_address;
  http.batch_handler = [this](std::span<obs::HttpRequest> requests,
                              std::vector<obs::HttpResponse>& responses) {
    handle_burst(requests, responses);
  };
  http_ = std::make_unique<obs::HttpServer>(std::move(http));
  http_->start();
}

void PlanServer::stop() {
  if (!http_) return;
  http_->stop();
  http_.reset();
}

obs::HttpResponse PlanServer::handle_get(const obs::HttpRequest& request) {
  const std::string_view path = path_of(request);
  if (path == "/healthz") {
    metrics_->counter("spi_serve_requests_total", {{"route", "healthz"}}).inc();
    obs::HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics" || path == "/metrics.json") {
    metrics_->counter("spi_serve_requests_total", {{"route", "metrics"}}).inc();
    metrics_->gauge("spi_serve_resident_reserved_bytes")
        .set(static_cast<double>(resident_bytes_));
    for (const auto& model : models_) model->instance.refresh_channel_gauges();
    for (const auto& [tenant, state] : tenants_) {
      const obs::Labels tenant_label{{"tenant", tenant}};
      metrics_->gauge("spi_serve_queue_depth", tenant_label)
          .set(static_cast<double>(state.queue.depth()));
      metrics_->gauge("spi_serve_queue_depth_watermark", tenant_label)
          .set(static_cast<double>(state.queue.depth_watermark()));
    }
    obs::HttpResponse response;
    if (path == "/metrics.json") {
      response.content_type = "application/json";
      response.body = metrics_->to_json();
    } else {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = metrics_->to_prometheus();
    }
    return response;
  }
  if (path == "/runtime") {
    metrics_->counter("spi_serve_requests_total", {{"route", "runtime"}}).inc();
    return json_response(200, runtime_json());
  }
  if (path == "/trace") {
    metrics_->counter("spi_serve_requests_total", {{"route", "trace"}}).inc();
    return json_response(200, tracer_->trace_json());
  }
  if (path == "/trace/flight") {
    metrics_->counter("spi_serve_requests_total", {{"route", "trace"}}).inc();
    if (!tracer_->has_flight())
      return json_response(404, "{\"error\": \"no sampled flight log captured yet\"}\n");
    return json_response(200, tracer_->flight_json());
  }
  if (path == "/tenants") {
    metrics_->counter("spi_serve_requests_total", {{"route", "tenants"}}).inc();
    return json_response(200, tenants_json());
  }
  metrics_->counter("spi_serve_requests_total", {{"route", "other"}}).inc();
  return json_response(404, "{\"error\": \"not found\"}\n");
}

void PlanServer::route_job(std::size_t index, const obs::HttpRequest& request,
                           std::vector<obs::HttpResponse>& responses) {
  if (job_requests_ == nullptr)
    job_requests_ = &metrics_->counter("spi_serve_requests_total", {{"route", "job"}});
  job_requests_->inc();
  // The body is read once, here; the model parses the job from the same
  // JobBody at drain time.
  JobBody& body = job_bodies_[index];
  try {
    body.read(request.body);
  } catch (const std::invalid_argument& e) {
    responses[index] = bad_request(e.what());
    return;
  }
  const auto app = body.string("app");
  std::size_t model = 0;
  while (app && model < models_.size() && models_[model]->app != *app) ++model;
  if (!app || model == models_.size()) {
    std::string names;
    for (const auto& m : models_) names += (names.empty() ? "\"" : " or \"") + m->app + "\"";
    responses[index] = bad_request("job requires \"app\": " + names);
    return;
  }
  const auto tenant_field = body.string("tenant");
  if (!tenant_field && body.has("tenant")) {
    responses[index] = bad_request("job \"tenant\" must be a string without escapes");
    return;
  }
  const std::string_view tenant = tenant_field.value_or("default");
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.try_emplace(std::string(tenant), std::string(tenant), models_.size()).first;
    it->second.series = tracer_->tenant_series(it->first);
  }
  TenantState& state = it->second;
  const AdmissionDecision decision = admission_.admit_job(state.queue.depth());
  if (!decision.admitted) {
    // A job is only ever refused for queue depth.
    if (queue_rejects_ == nullptr)
      queue_rejects_ =
          &metrics_->counter("spi_serve_rejects_total", {{"reason", decision.reason}});
    queue_rejects_->inc();
    responses[index] = reject_response(decision.reason);
    if (state.series != nullptr) {
      // A 429 is a complete (short) lifecycle: ingest -> admission
      // verdict -> reply. Rejects show up in the per-tenant rollups.
      const std::uint64_t id = tracer_->begin_span();
      tracer_->complete_batch(*state.series,
                              span_ending(429, burst_ingest_ns_, {tracer_->now_ns()}),
                              {&id, 1}, it->first, models_[model]->app);
    }
    return;
  }
  QueuedJob job{index, model, 0, 0, 0};
  if (state.series != nullptr) {
    job.span_id = tracer_->begin_span();
    job.ingest_ns = burst_ingest_ns_;
    // One enqueue stamp per burst, taken at the first admitted job: the
    // per-job clock read was the largest per-request tracing cost, and
    // sharing the stamp only moves sibling-routing time from the
    // admission stage into the queue stage (time spent waiting for the
    // rest of the burst to route IS batch-formation wait). Stage tiling
    // is unaffected — the stamp still falls between ingest and drain.
    if (burst_admit_ns_ < 0) burst_admit_ns_ = tracer_->now_ns();
    job.enqueued_ns = burst_admit_ns_;
  }
  state.queue.push(job);
}

void PlanServer::drain_burst(std::vector<obs::HttpResponse>& responses) {
  const bool traced = tracer_->enabled();
  const std::int64_t drain_ns = traced ? tracer_->now_ns() : 0;

  // Stage every tenant's jobs with their models. Jobs sharing a (model,
  // batch key) fire together whichever tenant sent them; within a batch
  // they stay grouped by tenant, in queue order. Batches fire in (model,
  // key) order.
  staged_.clear();
  batch_keys_.clear();
  for (auto& [name, tenant] : tenants_) {
    tenant.queue.count_served(tenant.queue.depth());
    while (!tenant.queue.empty()) {
      const QueuedJob job = tenant.queue.pop();
      ServedModel& model = *models_[job.model];
      auto key = model.stage(job_bodies_[job.request_index]);
      if (const auto* error = std::get_if<std::string>(&key)) {
        responses[job.request_index] = bad_request(*error);
        // Rejected while parsing: the lifecycle ends inside the
        // batch-formation stage.
        if (job.span_id != 0)
          tracer_->complete_batch(
              *tenant.series,
              span_ending(400, job.ingest_ns, {job.enqueued_ns, drain_ns, tracer_->now_ns()}),
              {&job.span_id, 1}, name, model.app);
        continue;
      }
      const BatchKey batch{job.model, std::get<std::int64_t>(key)};
      staged_.push_back({job, &tenant, batch});
      const auto at = std::lower_bound(batch_keys_.begin(), batch_keys_.end(), batch);
      if (at == batch_keys_.end() || *at != batch) batch_keys_.insert(at, batch);
    }
  }

  for (const BatchKey& key : batch_keys_) {
    batch_.clear();
    for (const Staged& staged : staged_)
      if (staged.batch == key) batch_.push_back(&staged);
    const std::vector<const Staged*>& jobs = batch_;
    ServedModel& model = *models_[key.first];
    ModelSeries& series = model_series_[key.first];
    if (series.batches == nullptr) {
      const obs::Labels app_label{{"app", model.app}};
      series.batches = &metrics_->counter("spi_serve_batches_total", app_label);
      series.batch_jobs = &metrics_->histogram(
          "spi_serve_batch_jobs", obs::Histogram::exponential_bounds(1.0, 2.0, 11), app_label);
    }
    series.batches->inc();
    series.batch_jobs->observe(static_cast<double>(jobs.size()));
    const std::int64_t batch_id = next_batch_id_++;
    // Flight bridge, paced much coarser than span sampling (collect is
    // the one expensive capture): drop whatever the rings still hold,
    // tag the run, and collect right after — the captured log is
    // exactly this batch's causal firing stream (GET /trace/flight).
    const bool capture_flight =
        std::any_of(jobs.begin(), jobs.end(),
                    [&](const Staged* s) { return tracer_->is_sampled(s->job.span_id); }) &&
        tracer_->want_flight();
    if (capture_flight) {
      model.flight.set_armed(true);
      model.flight.discard_all();
    }
    model.run_options.batch_id = capture_flight ? batch_id : -1;

    // Each reply is rendered straight into its response.
    reply_bodies_.clear();
    for (const Staged* staged : jobs) {
      obs::HttpResponse& response = responses[staged->job.request_index];
      response.status = 200;
      response.content_type = "application/json";
      response.body.clear();
      reply_bodies_.push_back(&response.body);
    }
    const std::int64_t formed_ns = traced ? tracer_->now_ns() : 0;
    int status = 200;
    try {
      model.fire(key.second, reply_bodies_);
    } catch (const std::exception& e) {
      status = 500;
      const std::string body = "{\"error\": \"" + obs::json::escaped(e.what()) + "\"}\n";
      for (const Staged* staged : jobs) {
        obs::HttpResponse& response = responses[staged->job.request_index];
        response.status = 500;
        response.body = body;
      }
    }
    const std::int64_t exec_end_ns = traced ? tracer_->now_ns() : 0;
    if (status == 200) jobs_served_ += static_cast<std::int64_t>(jobs.size());

    // Reply stamp before the bookkeeping below: per-tenant accounting
    // and flight collection are not part of any request's lifecycle
    // (flight serialization waits for the GET /trace/flight scrape).
    const std::int64_t reply_ns = traced ? tracer_->now_ns() : 0;
    if (capture_flight) {
      tracer_->note_flight(batch_id, model.flight.collect());
      model.flight.set_armed(options_.watchdog_ms > 0);
    }
    // Every job of the batch shares every stage boundary (the burst's
    // ingest and enqueue stamps, the batch stamps, one status for the
    // batched firing), so one span stands for all of them; per tenant in
    // the batch it completes once, with that tenant's span ids.
    obs::RequestSpan span =
        span_ending(status, jobs.front()->job.ingest_ns,
                    {jobs.front()->job.enqueued_ns, drain_ns, formed_ns, exec_end_ns, reply_ns});
    span.batch_id = batch_id;
    span.batch_size = static_cast<std::int32_t>(jobs.size());
    for (std::size_t begin = 0, end = 0; begin < jobs.size(); begin = end) {
      TenantState& tenant = *jobs[begin]->tenant;
      const std::string& name = tenant.queue.tenant();
      span_ids_scratch_.clear();
      for (end = begin; end < jobs.size() && jobs[end]->tenant == &tenant; ++end)
        if (jobs[end]->job.span_id != 0) span_ids_scratch_.push_back(jobs[end]->job.span_id);
      if (status == 200) {
        obs::Counter*& served = tenant.jobs_total[key.first];
        if (served == nullptr)
          served =
              &metrics_->counter("spi_serve_jobs_total", {{"app", model.app}, {"tenant", name}});
        served->inc(static_cast<std::int64_t>(end - begin));
      }
      if (!span_ids_scratch_.empty())
        tracer_->complete_batch(*tenant.series, span, span_ids_scratch_, name, model.app);
    }
  }
}

void PlanServer::handle_burst(std::span<obs::HttpRequest> requests,
                              std::vector<obs::HttpResponse>& responses) {
  const auto start = std::chrono::steady_clock::now();
  ++bursts_;
  burst_ingest_ns_ = tracer_->enabled() ? tracer_->now_ns() : 0;
  burst_admit_ns_ = -1;
  responses.resize(requests.size());
  if (job_bodies_.size() < requests.size()) job_bodies_.resize(requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const obs::HttpRequest& request = requests[i];
    if (request.method == "GET") {
      responses[i] = handle_get(request);
      continue;
    }
    if (request.method != "POST") {
      responses[i] = json_response(405, "{\"error\": \"method not allowed\"}\n");
      continue;
    }
    const std::string_view path = path_of(request);
    if (path == "/job") {
      route_job(i, request, responses);
    } else {
      metrics_->counter("spi_serve_requests_total", {{"route", "other"}}).inc();
      responses[i] = json_response(404, "{\"error\": \"not found\"}\n");
    }
  }

  // Batched firing: all tenant queues drain as one colocated batch per
  // (model, batch key) — one program traversal amortized over every
  // queued job of the burst.
  drain_burst(responses);

  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (burst_seconds_ == nullptr)
    burst_seconds_ = &metrics_->histogram("spi_serve_burst_seconds",
                                          obs::Histogram::exponential_bounds(1e-6, 4.0, 10));
  burst_seconds_->observe(seconds);
}

std::string PlanServer::plan_key(std::string_view app) const {
  for (const auto& model : models_)
    if (model->app == app) return model->instance.plan().content_hash_hex();
  throw std::out_of_range("PlanServer: no model serves app \"" + std::string(app) + "\"");
}

std::string PlanServer::runtime_json() const {
  std::string out = "{\n  \"server\": \"spi_served\",\n";
  out += "  \"jobs_served\": " + std::to_string(jobs_served_) + ",\n";
  out += "  \"bursts\": " + std::to_string(bursts_) + ",\n";
  out += "  \"stalls\": " + std::to_string(stalls_) + ",\n";
  out += "  \"admission\": {\"reserved_bytes\": " + std::to_string(resident_bytes_) +
         ", \"memory_budget_bytes\": " + std::to_string(admission_.options().memory_budget_bytes) +
         ", \"max_queue_depth\": " + std::to_string(admission_.options().max_queue_depth) +
         ", \"rejected_queue\": " + std::to_string(admission_.rejected_queue()) + "},\n";
  out += "  \"models\": [\n";
  for (std::size_t i = 0; i < models_.size(); ++i)
    out += "    {\"app\": \"" + models_[i]->app + "\", \"plan\": \"" +
           models_[i]->instance.plan().content_hash_hex() +
           "\", \"resident_bytes\": " + std::to_string(models_[i]->instance.resident_bytes()) +
           (i + 1 < models_.size() ? "},\n" : "}\n");
  out += "  ],\n";
  out += "  \"tenants\": [";
  bool first = true;
  for (const auto& [tenant, state] : tenants_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"tenant\": \"" + obs::json::escaped(tenant) +
           "\", \"depth_watermark\": " + std::to_string(state.queue.depth_watermark()) +
           ", \"jobs_served\": " + std::to_string(state.queue.jobs_served()) + "}";
  }
  out += "]\n}\n";
  return out;
}

std::string PlanServer::tenants_json() const {
  std::string out = "{\"schema\": 1, \"tracing\": ";
  out += tracer_->enabled() ? "true" : "false";
  out += ", \"requests_total\": " + std::to_string(tracer_->requests_total());
  out += ", \"sampled_total\": " + std::to_string(tracer_->sampled_total());
  out += ",\n \"tenants\": [\n";
  bool first = true;
  for (const auto& [tenant, state] : tenants_) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"tenant\": \"" + obs::json::escaped(tenant) + "\"";
    out += ", \"queue_depth\": " + std::to_string(state.queue.depth());
    out += ", \"depth_watermark\": " + std::to_string(state.queue.depth_watermark());
    out += ", \"jobs_served\": " + std::to_string(state.queue.jobs_served());
    if (state.series != nullptr) {
      out += ", ";
      tracer_->append_rollup_json(out, *state.series);
    }
    out += "}";
  }
  out += "\n ]\n}\n";
  return out;
}

}  // namespace spi::serve
