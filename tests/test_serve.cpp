/// Tests of the serving layer (docs/serving.md): the AdmissionController
/// queue-depth budget, the startup memory-budget check, the PlanServer's
/// socketless burst contract — including the headline guarantee that a
/// batched colocated firing is bit-identical to running each job alone,
/// for both built-in models — a seeded mutation fuzz of `/job` bodies
/// (FuzzJob), and a multi-client soak over real sockets (TSan-clean in
/// CI).
#include "serve/plan_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/speech_app.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
#include "obs/json.hpp"
#include "serve/request.hpp"

namespace spi::serve {
namespace {

using obs::json::append_double;

/// The server's built-in model shapes, mirrored so tests can compute
/// references through the same apps.
apps::SpeechParams server_speech_params() {
  return {.frame_size = 64, .max_frame_size = 256, .order = 4, .max_order = 8};
}

apps::ParticleParams server_particle_params() {
  apps::ParticleParams params;
  params.particles = 16;
  params.max_particles = 64;
  return params;
}

TEST(AdmissionController, BudgetsMemoryAndQueueDepth) {
  AdmissionController::Options options;
  options.max_queue_depth = 2;
  AdmissionController admission(options);

  EXPECT_TRUE(admission.admit_job(0).admitted);
  EXPECT_TRUE(admission.admit_job(1).admitted);
  const AdmissionDecision full = admission.admit_job(2);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.reason, "queue-depth");
  EXPECT_EQ(admission.rejected_queue(), 1);
}

/// Builds a burst of POST /job requests from raw JSON bodies.
std::vector<obs::HttpRequest> job_burst(const std::vector<std::string>& bodies) {
  std::vector<obs::HttpRequest> requests;
  for (const std::string& body : bodies)
    requests.push_back({"POST", "/job", "HTTP/1.1", body, true});
  return requests;
}

std::string frame_json(std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    out += buf;
  }
  return out + "]";
}

TEST(PlanServer, RoutesGetEndpointsWithoutSockets) {
  PlanServer server;
  std::vector<obs::HttpRequest> requests = {
      {"GET", "/healthz", "HTTP/1.1", "", true},
      {"GET", "/runtime", "HTTP/1.1", "", true},
      {"GET", "/metrics.json", "HTTP/1.1", "", true},
      {"GET", "/nope", "HTTP/1.1", "", true},
      {"PUT", "/job", "HTTP/1.1", "{}", true},
      {"POST", "/elsewhere", "HTTP/1.1", "{}", true},
  };
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_TRUE(obs::json::validate(responses[1].body).empty()) << responses[1].body;
  EXPECT_EQ(responses[2].status, 200);
  EXPECT_TRUE(obs::json::validate(responses[2].body).empty());
  EXPECT_EQ(responses[3].status, 404);
  EXPECT_EQ(responses[4].status, 405);
  EXPECT_EQ(responses[5].status, 404);
}

TEST(PlanServer, BatchedSpeechFiringBitIdenticalToSingleJobRuns) {
  // References through an identically-parameterized app, one job at a
  // time — the pre-serving execution model.
  const apps::ErrorGenApp reference_app(2, server_speech_params());
  const apps::SpeechCompressor codec(server_speech_params());
  constexpr std::size_t kJobs = 5;
  std::vector<std::vector<double>> frames, coeffs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    dsp::Rng rng(100 + j);
    // Varying sizes exercise the SPI_dynamic path inside one batch.
    frames.push_back(dsp::synthetic_speech(32 + 8 * j, rng));
    coeffs.push_back(codec.frame_coefficients(frames.back()));
  }

  std::vector<std::string> bodies;
  for (std::size_t j = 0; j < kJobs; ++j)
    bodies.push_back("{\"app\":\"speech\",\"frame\":" + frame_json(frames[j]) +
                     ",\"coeffs\":" + frame_json(coeffs[j]) + "}");

  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);

  ASSERT_EQ(responses.size(), kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(responses[j].status, 200) << responses[j].body;
    const auto errors = json_array_field(responses[j].body, "errors");
    ASSERT_TRUE(errors.has_value()) << responses[j].body;
    // The shortest round-trip serialization reads back exactly, so
    // equality here is bit-identity of the computed errors.
    EXPECT_EQ(*errors, reference_app.compute_errors_parallel(frames[j], coeffs[j]))
        << "batched job " << j << " diverged from its single-job run";
  }
  EXPECT_EQ(server.jobs_served(), static_cast<std::int64_t>(kJobs));
}

TEST(PlanServer, BatchedParticleFiringBitIdenticalToSingleJobRuns) {
  const apps::ParticleFilterApp reference_app(2, server_particle_params());
  const auto& model = server_particle_params().model;
  dsp::Rng traj_rng_a(5), traj_rng_b(6);
  const auto traj_a = dsp::simulate_crack(model, 10, traj_rng_a);
  const auto traj_b = dsp::simulate_crack(model, 10, traj_rng_b);
  // A third job with a different length lands in its own length group.
  dsp::Rng traj_rng_c(7);
  const auto traj_c = dsp::simulate_crack(model, 6, traj_rng_c);

  const auto body_for = [](const dsp::CrackTrajectory& traj) {
    return "{\"app\":\"particle\",\"seed\":42,\"observations\":" +
           frame_json(traj.observations) + ",\"truth\":" + frame_json(traj.truth) + "}";
  };

  PlanServer server;
  std::vector<obs::HttpRequest> requests =
      job_burst({body_for(traj_a), body_for(traj_b), body_for(traj_c)});
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 3u);

  const dsp::CrackTrajectory* trajs[] = {&traj_a, &traj_b, &traj_c};
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_EQ(responses[j].status, 200) << responses[j].body;
    const auto estimates = json_array_field(responses[j].body, "estimates");
    ASSERT_TRUE(estimates.has_value()) << responses[j].body;
    // Seed 42 is the reference app's own seed: track() must reproduce
    // the batched result bit for bit.
    const apps::TrackResult reference = reference_app.track(*trajs[j]);
    EXPECT_EQ(*estimates, reference.estimates) << "batched job " << j;
    const auto resamples = json_number_field(responses[j].body, "resample_steps");
    ASSERT_TRUE(resamples.has_value());
    EXPECT_EQ(static_cast<std::int64_t>(*resamples), reference.resample_steps);
  }
}

TEST(PlanServer, MixedBatchRepeatedBurstsReuseTheInstances) {
  PlanServer server;
  // Same synthetic job in two different bursts (alone, then surrounded)
  // must produce byte-identical responses: batch composition and
  // instance reuse are invisible to the result.
  const std::string probe = "{\"app\":\"speech\",\"frame_size\":16,\"order\":3,\"seed\":9}";
  std::vector<obs::HttpRequest> alone = job_burst({probe});
  std::vector<obs::HttpResponse> alone_responses;
  server.handle_burst(alone, alone_responses);
  ASSERT_EQ(alone_responses.size(), 1u);
  ASSERT_EQ(alone_responses[0].status, 200);

  std::vector<obs::HttpRequest> crowd = job_burst({
      "{\"app\":\"speech\",\"frame_size\":24,\"order\":4,\"seed\":1}",
      "{\"app\":\"particle\",\"steps\":4,\"seed\":3}",
      probe,
      "{\"app\":\"particle\",\"steps\":7,\"seed\":4}",
      "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":2}",
  });
  std::vector<obs::HttpResponse> crowd_responses;
  server.handle_burst(crowd, crowd_responses);
  ASSERT_EQ(crowd_responses.size(), 5u);
  for (const auto& response : crowd_responses)
    EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(crowd_responses[2].body, alone_responses[0].body);
  EXPECT_EQ(server.jobs_served(), 6);
}

TEST(PlanServer, RejectsOverDeepTenantQueuesPerTenant) {
  PlanServerOptions options;
  options.admission.max_queue_depth = 2;
  PlanServer server(options);

  const std::string job = "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":1}";
  const std::string other = "{\"app\":\"speech\",\"tenant\":\"vip\",\"frame_size\":8,"
                            "\"order\":2,\"seed\":1}";
  std::vector<obs::HttpRequest> requests = job_burst({job, job, job, job, other});
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);

  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[2].status, 429);
  EXPECT_NE(responses[2].body.find("queue-depth"), std::string::npos);
  EXPECT_EQ(responses[3].status, 429);
  // The other tenant's queue is untouched by the default tenant's burst.
  EXPECT_EQ(responses[4].status, 200);
  EXPECT_EQ(server.admission().rejected_queue(), 2);
  EXPECT_EQ(server.jobs_served(), 3);
}

TEST(PlanServer, BadJobsAnswer400WithoutPoisoningTheBatch) {
  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst({
      "{\"app\":\"neither\"}",
      "{\"frame_size\":8}",
      "{\"app\":\"speech\",\"frame_size\":100000,\"order\":4,\"seed\":1}",
      "{\"app\":\"particle\",\"steps\":0,\"seed\":1}",
      "{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":1}",
      // truth shorter than observations: its RMSE cannot be computed.
      "{\"app\":\"particle\",\"observations\":[0.1,0.2,0.3],\"truth\":[0.1,0.2]}",
      // A valid job of the same trajectory length, so the same batch.
      "{\"app\":\"particle\",\"observations\":[0.1,0.2,0.3],\"truth\":[0.1,0.2,0.3]}",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses[0].status, 400);
  EXPECT_EQ(responses[1].status, 400);
  EXPECT_EQ(responses[2].status, 400);
  EXPECT_EQ(responses[3].status, 400);
  EXPECT_EQ(responses[4].status, 200) << "valid job must survive its burst-mates";
  EXPECT_EQ(responses[5].status, 400) << responses[5].body;
  EXPECT_NE(responses[5].body.find("truth"), std::string::npos) << responses[5].body;
  EXPECT_EQ(responses[6].status, 200) << "same-length particle mate must survive: "
                                      << responses[6].body;
}

TEST(PlanServer, NumericJobFieldsAreRangeCheckedBeforeTheCast) {
  // Every numeric field must be a finite integer in range before it is
  // cast: the cast of -1, 1e300 or NaN to an unsigned integer is
  // undefined, and a fraction must not be silently truncated.
  std::vector<std::string> bad = {
      R"({"app":"speech","frame_size":8.9,"order":2,"seed":1})",
      R"({"app":"speech","frame_size":-1,"order":2,"seed":1})",
      R"({"app":"speech","frame_size":1e300,"order":2,"seed":1})",
      R"({"app":"speech","frame_size":nan,"order":2,"seed":1})",
      R"({"app":"speech","frame_size":"8","order":2,"seed":1})",
      R"({"app":"speech","frame_size":8,"order":2.5,"seed":1})",
      R"({"app":"speech","frame_size":8,"order":-inf,"seed":1})",
      R"({"app":"speech","frame_size":8,"order":2,"seed":-1})",
      R"({"app":"speech","frame_size":8,"order":2,"seed":0.5})",
      R"({"app":"speech","frame_size":8,"order":2,"seed":1e300})",
      R"({"app":"speech","frame_size":8,"order":2,"seed":9007199254740994})",
      R"({"app":"particle","steps":-3,"seed":1})",
      R"({"app":"particle","steps":2.5,"seed":1})",
      R"({"app":"particle","steps":4097,"seed":1})",
      R"({"app":"particle","steps":1e300,"seed":1})",
      R"({"app":"particle","steps":4,"seed":-1})",
      R"({"app":"particle","steps":4,"seed":inf})",
  };
  // 4097 explicit observations: over the same cap as synthetic steps.
  std::string long_observations = R"({"app":"particle","observations":[0)";
  for (int i = 1; i < 4097; ++i) long_observations += ",0";
  bad.push_back(long_observations + "]}");
  std::vector<std::string> bodies = bad;
  // In-range edges of the same fields still serve.
  bodies.push_back(R"({"app":"speech","frame_size":256,"order":8,"seed":9007199254740992})");
  bodies.push_back(R"({"app":"speech","frame_size":1.0,"order":1,"seed":0})");
  bodies.push_back(R"({"app":"particle","steps":4096,"seed":0})");

  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), bodies.size());
  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_EQ(responses[i].status, 400) << bodies[i].substr(0, 80) << " -> " << responses[i].body;
  for (std::size_t i = bad.size(); i < bodies.size(); ++i)
    EXPECT_EQ(responses[i].status, 200) << bodies[i] << " -> " << responses[i].body;
  EXPECT_EQ(server.jobs_served(), 3);
}

TEST(PlanServer, JobKeysAreMatchedAtTopLevelOnly) {
  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst({
      // A nested "frame" is not the job's frame: this is a synthetic job.
      R"({"app":"speech","meta":{"frame":[0.5,0.25]},"frame_size":8,"order":2,"seed":1})",
      R"({"app":"speech","frame_size":8,"order":2,"seed":1})",
      // A string value that spells a key does not match it either.
      R"({"note":"\"app\":\"particle\"","app":"speech","frame_size":8,"order":2,"seed":1})",
      // Escaped strings are malformed: 400, never a truncated tenant.
      R"({"app":"speech","tenant":"a\"b","frame_size":8,"order":2,"seed":1})",
      R"({"app":"spe\u0065ch","frame_size":8,"order":2,"seed":1})",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 5u);
  ASSERT_EQ(responses[0].status, 200) << responses[0].body;
  EXPECT_EQ(responses[0].body.find("\"errors\""), std::string::npos) << responses[0].body;
  EXPECT_EQ(responses[0].body, responses[1].body);
  EXPECT_EQ(responses[2].status, 200) << responses[2].body;
  EXPECT_EQ(responses[2].body, responses[1].body);
  EXPECT_EQ(responses[3].status, 400) << responses[3].body;
  EXPECT_EQ(responses[4].status, 400) << responses[4].body;
  const std::string runtime = server.runtime_json();
  EXPECT_TRUE(obs::json::validate(runtime).empty()) << runtime;
  EXPECT_EQ(runtime.find("\"a\\"), std::string::npos) << "no truncated tenant: " << runtime;
}

TEST(ServeRequest, ScannerSkipsNestedValuesAndStringContents) {
  const std::string body =
      R"({"outer":{"key":1,"list":[{"key":2}]},"text":"\"key\": 3","key" : 4,"s":"x"})";
  EXPECT_EQ(json_number_field(body, "key"), 4.0);
  EXPECT_TRUE(json_has_field(body, "outer"));
  EXPECT_FALSE(json_has_field(body, "list")) << "nested keys are not top-level";
  EXPECT_EQ(json_string_field(body, "s"), "x");
  EXPECT_FALSE(json_string_field(body, "text").has_value()) << "escaped strings are malformed";
  EXPECT_TRUE(json_has_field(body, "text"));
  EXPECT_FALSE(json_array_field(body, "outer").has_value());
  EXPECT_FALSE(json_string_field(R"({"a":"unterminated)", "a").has_value());
  EXPECT_FALSE(json_has_field(R"({"a":"x","b)", "b")) << "unterminated key";
  EXPECT_EQ(json_array_field(R"({"v":[1, 2 ,3]})", "v"), (std::vector<double>{1, 2, 3}));
  EXPECT_FALSE(json_array_field(R"({"v":[1,2)", "v").has_value()) << "unterminated array";
}

TEST(PlanServer, MalformedArrayFieldsAnswer400) {
  // A present array field must be an array of numbers: never a silent
  // fallback to a synthetic job or to default coefficients / truth.
  // Each bad body with the field its 400 must name:
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"({"app":"speech","frame":[1,"x"],"coeffs":[0.5]})", "frame"},
      {R"({"app":"speech","frame":"abc","coeffs":[0.5]})", "frame"},
      {R"({"app":"speech","frame":[1,,2],"coeffs":[0.5]})", "frame"},
      {R"({"app":"speech","frame":[0.25,0.5],"coeffs":[0.5,true]})", "coeffs"},
      {R"({"app":"speech","frame":[0.25,0.5],"coeffs":{"c":1}})", "coeffs"},
      {R"({"app":"particle","observations":[0.1,"0.2"],"truth":[0.1,0.2]})", "observations"},
      {R"({"app":"particle","observations":null})", "observations"},
      {R"({"app":"particle","observations":[0.1,0.2],"truth":[0.1 0.2]})", "truth"},
      {R"({"app":"particle","observations":[0.1,0.2],"truth":"zero"})", "truth"},
  };
  std::vector<std::string> bodies;
  for (const auto& [body, field] : bad) bodies.push_back(body);
  // The same shapes, well formed, still serve (and absent coeffs / truth
  // still take their defaults).
  bodies.push_back(R"({"app":"speech","frame":[0.25,0.5],"coeffs":[0.5]})");
  bodies.push_back(R"({"app":"speech","frame":[0.25,0.5]})");
  bodies.push_back(R"({"app":"particle","observations":[0.1,0.2],"truth":[0.1,0.2]})");
  bodies.push_back(R"({"app":"particle","observations":[0.1,0.2]})");

  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), bodies.size());
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(responses[i].status, 400) << bodies[i] << " -> " << responses[i].body;
    EXPECT_NE(responses[i].body.find("\\\"" + bad[i].second + "\\\""), std::string::npos)
        << "the 400 names the field: " << responses[i].body;
  }
  for (std::size_t i = bad.size(); i < bodies.size(); ++i)
    EXPECT_EQ(responses[i].status, 200) << bodies[i] << " -> " << responses[i].body;
  EXPECT_EQ(server.jobs_served(), 4);
}

TEST(PlanServer, NonFiniteValuesNeverReachOrLeaveTheServer) {
  // 1e400 has no double: a 400 at parse time, not an inf in the batch.
  // A finite input can still overflow inside the kernel; that result
  // has no JSON spelling and is rendered null, so every 200 body stays
  // valid JSON.
  std::vector<obs::HttpRequest> requests = job_burst({
      R"({"app":"speech","frame":[1,1e400],"coeffs":[0.5]})",
      R"({"app":"particle","observations":[0.1,-1e400]})",
      R"({"app":"speech","frame":[1e308,-1e308,1e308,-1e308],"coeffs":[4]})",
  });
  PlanServer server;
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, 400) << responses[0].body;
  EXPECT_EQ(responses[1].status, 400) << responses[1].body;
  ASSERT_EQ(responses[2].status, 200) << responses[2].body;
  EXPECT_NE(responses[2].body.find("null"), std::string::npos) << responses[2].body;
  EXPECT_EQ(responses[2].body.find("inf"), std::string::npos) << responses[2].body;
  EXPECT_TRUE(obs::json::validate(responses[2].body).empty()) << responses[2].body;
}

TEST(ServeRequest, NumbersFollowTheJsonGrammar) {
  for (const char* value : {"+1", "0x10", "1e400", "-1e400", "01", ".5", "5.", "1e", "-",
                            "1.5e+", "nan", "inf", "1_0", "0x"}) {
    const std::string body = std::string(R"({"n":)") + value + "}";
    EXPECT_FALSE(json_number_field(body, "n").has_value()) << value;
    EXPECT_FALSE(json_array_field(std::string(R"({"v":[0,)") + value + "]}", "v").has_value())
        << value;
  }
  for (const auto& [text, value] : std::vector<std::pair<std::string, double>>{
           {"0", 0.0}, {"-0", -0.0}, {"12", 12.0}, {"-1.5", -1.5}, {"2e3", 2000.0},
           {"2E-3", 0.002}, {"1.25e+2", 125.0}}) {
    EXPECT_EQ(json_number_field(R"({"n": )" + text + " }", "n"), value) << text;
    EXPECT_EQ(json_array_field(R"({"v":[ )" + text + " ]}", "v"), std::vector<double>{value})
        << text;
  }

  // The same spellings in /job fields: each a 400, numeric or array.
  std::vector<std::string> bodies;
  for (const char* value : {"+1", "0x10", "1e400"}) {
    const std::string v = value;
    bodies.push_back(R"({"app":"speech","frame_size":)" + v + R"(,"order":2,"seed":1})");
    bodies.push_back(R"({"app":"speech","frame_size":8,"order":)" + v + R"(,"seed":1})");
    bodies.push_back(R"({"app":"particle","steps":4,"seed":)" + v + "}");
    bodies.push_back(R"({"app":"speech","frame":[0.5,)" + v + R"(],"coeffs":[0.5]})");
    bodies.push_back(R"({"app":"speech","frame":[0.5,0.25],"coeffs":[)" + v + "]}");
    bodies.push_back(R"({"app":"particle","observations":[)" + v + "]}");
    bodies.push_back(R"({"app":"particle","observations":[0.5],"truth":[)" + v + "]}");
  }
  PlanServer server;
  std::vector<obs::HttpRequest> requests = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i)
    EXPECT_EQ(responses[i].status, 400) << bodies[i] << " -> " << responses[i].body;
  EXPECT_EQ(server.jobs_served(), 0);
}

TEST(ServeRequest, EdgeDoublesRoundTripBitForBit) {
  const std::vector<double> edges = {-0.0,
                                     0.0,
                                     std::numeric_limits<double>::denorm_min(),
                                     -std::numeric_limits<double>::denorm_min(),
                                     DBL_MIN,
                                     DBL_MAX,
                                     -DBL_MAX,
                                     0.1,
                                     1.0 / 3.0,
                                     -2.0 / 3.0,
                                     1e21,
                                     123456789.0};
  std::string body = R"({"v":[)";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i != 0) body += ',';
    append_double(body, edges[i]);
  }
  body += "]}";
  EXPECT_TRUE(obs::json::validate(body).empty()) << body;
  const auto parsed = json_array_field(body, "v");
  ASSERT_TRUE(parsed.has_value()) << body;
  ASSERT_EQ(parsed->size(), edges.size()) << body;
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*parsed)[i]), std::bit_cast<std::uint64_t>(edges[i]))
        << "edge " << i << " in " << body;

  // Shortest form: 0.1 is "0.1", not "0.10000000000000001".
  std::string tenth;
  append_double(tenth, 0.1);
  EXPECT_EQ(tenth, "0.1");
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    std::string out;
    append_double(out, v);
    EXPECT_EQ(out, "null");
  }
}

/// Whether the registry holds the exact (name, labels) series.
bool has_series(const obs::MetricRegistry& registry, const std::string& name,
                const obs::Labels& labels = {}) {
  for (const auto& s : registry.collect())
    if (s.name == name && s.labels == labels) return true;
  return false;
}

TEST(PlanServer, JobSeriesAppearInMetricsOnFirstUse) {
  // The /job path caches its instrument handles, resolving each on first
  // use: a series appears when it is first counted, never earlier as a
  // zero, and the cached handles keep counting the same series.
  PlanServer server;
  obs::MetricRegistry& m = server.metrics();
  EXPECT_FALSE(has_series(m, "spi_serve_requests_total", {{"route", "job"}}));
  EXPECT_FALSE(has_series(m, "spi_serve_burst_seconds"));

  std::vector<obs::HttpRequest> first = job_burst({
      R"({"app":"speech","tenant":"t0","frame_size":8,"order":2,"seed":1})",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(first, responses);
  ASSERT_EQ(responses[0].status, 200) << responses[0].body;
  EXPECT_TRUE(has_series(m, "spi_serve_requests_total", {{"route", "job"}}));
  EXPECT_TRUE(has_series(m, "spi_serve_burst_seconds"));
  EXPECT_TRUE(has_series(m, "spi_serve_batches_total", {{"app", "speech"}}));
  EXPECT_TRUE(has_series(m, "spi_serve_batch_jobs", {{"app", "speech"}}));
  EXPECT_TRUE(has_series(m, "spi_serve_jobs_total", {{"app", "speech"}, {"tenant", "t0"}}));
  EXPECT_FALSE(has_series(m, "spi_serve_batches_total", {{"app", "particle"}}));
  EXPECT_FALSE(has_series(m, "spi_serve_batch_jobs", {{"app", "particle"}}));
  EXPECT_FALSE(has_series(m, "spi_serve_jobs_total", {{"app", "particle"}, {"tenant", "t0"}}));
  EXPECT_FALSE(has_series(m, "spi_serve_rejects_total", {{"reason", "queue-depth"}}));

  std::vector<obs::HttpRequest> second = job_burst({
      R"({"app":"speech","tenant":"t1","frame_size":8,"order":2,"seed":2})",
      R"({"app":"particle","tenant":"t0","steps":4,"seed":3})",
      R"({"app":"speech","tenant":"t0","frame_size":8,"order":2,"seed":4})",
  });
  server.handle_burst(second, responses);
  for (const obs::HttpResponse& r : responses) ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(m.counter_value("spi_serve_requests_total", {{"route", "job"}}), 4);
  EXPECT_EQ(m.counter_value("spi_serve_batches_total", {{"app", "speech"}}), 2);
  EXPECT_EQ(m.counter_value("spi_serve_batches_total", {{"app", "particle"}}), 1);
  EXPECT_EQ(m.counter_value("spi_serve_jobs_total", {{"app", "speech"}, {"tenant", "t0"}}), 2);
  EXPECT_EQ(m.counter_value("spi_serve_jobs_total", {{"app", "speech"}, {"tenant", "t1"}}), 1);
  EXPECT_EQ(m.counter_value("spi_serve_jobs_total", {{"app", "particle"}, {"tenant", "t0"}}), 1);
  EXPECT_FALSE(has_series(m, "spi_serve_jobs_total", {{"app", "particle"}, {"tenant", "t1"}}));
  EXPECT_EQ(m.histogram("spi_serve_burst_seconds", {}).count(), 2);
  EXPECT_EQ(m.histogram("spi_serve_batch_jobs", {}, {{"app", "speech"}}).count(), 2);
}

std::string read_source_file(const std::string& relative) {
  std::ifstream in(std::string(SPI_SOURCE_DIR) + "/" + relative);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PlanServer, PlanPostIsA404AndTheServerKeepsServing) {
  // The server stores no plans: neither a real compiled plan nor a
  // hostile body reaches any parser, and the next job still serves.
  const std::string golden = read_source_file("tools/golden/threaded_pipeline.plan.json");
  ASSERT_FALSE(golden.empty()) << "golden plan not found under " << SPI_SOURCE_DIR;
  PlanServer server;
  for (const std::string& body : {golden, std::string(200'000, '[')}) {
    std::vector<obs::HttpRequest> requests = {{"POST", "/plan", "HTTP/1.1", body, true}};
    std::vector<obs::HttpResponse> responses;
    server.handle_burst(requests, responses);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, 404);
    EXPECT_TRUE(obs::json::validate(responses[0].body).empty()) << responses[0].body;

    requests = job_burst({"{\"app\":\"speech\",\"frame_size\":8,\"order\":2,\"seed\":1}"});
    server.handle_burst(requests, responses);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, 200) << responses[0].body;
  }
  EXPECT_EQ(server.metrics().counter_value("spi_serve_requests_total", {{"route", "other"}}), 2);
  EXPECT_EQ(server.jobs_served(), 2);
}

TEST(PlanServer, RefusesToStartBelowBuiltInResidentBytes) {
  const std::int64_t builtin_bytes = PlanServer{}.resident_bytes();
  ASSERT_GT(builtin_bytes, 0);
  PlanServerOptions options;
  options.admission.memory_budget_bytes = 16;
  EXPECT_THROW(PlanServer{options}, std::invalid_argument);
  options.admission.memory_budget_bytes = builtin_bytes - 1;
  EXPECT_THROW(PlanServer{options}, std::invalid_argument);
  options.admission.memory_budget_bytes = builtin_bytes;  // an exact fit starts
  const PlanServer server(options);
  EXPECT_EQ(server.resident_bytes(), builtin_bytes);
  const std::string runtime = server.runtime_json();
  EXPECT_NE(runtime.find("\"reserved_bytes\": " + std::to_string(builtin_bytes)),
            std::string::npos)
      << runtime;
}

// --- FuzzJob: seeded mutations of /job bodies ------------------------------

/// The fuzz seeds: an explicit speech frame, a synthetic speech job and
/// an explicit particle job, each a clean body the server answers 200.
const std::vector<std::string>& job_seeds() {
  static const std::vector<std::string> seeds = [] {
    const apps::SpeechCompressor codec(server_speech_params());
    dsp::Rng speech_rng(3);
    const auto frame = dsp::synthetic_speech(48, speech_rng);
    dsp::Rng crack_rng(4);
    const auto traj = dsp::simulate_crack(server_particle_params().model, 8, crack_rng);
    return std::vector<std::string>{
        "{\"app\":\"speech\",\"tenant\":\"t0\",\"frame\":" + frame_json(frame) +
            ",\"coeffs\":" + frame_json(codec.frame_coefficients(frame)) + "}",
        R"({"app":"speech","tenant":"t1","frame_size":24,"order":3,"seed":7})",
        "{\"app\":\"particle\",\"seed\":42,\"observations\":" +
            frame_json(traj.observations) + ",\"truth\":" + frame_json(traj.truth) + "}"};
  }();
  return seeds;
}

/// `seed` with one mutation: byte flips, a truncation, deep nesting, a
/// huge number in place of a number, or a duplicate of one of its keys
/// (the scanner reads a key's first occurrence).
std::string mutate_job(const std::string& seed, dsp::Rng& rng) {
  std::string doc = seed;
  const auto at = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // byte flips
      const auto flips = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < flips; ++i)
        doc[at(doc.size() - 1)] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    }
    case 1:  // truncation
      doc.resize(at(doc.size()));
      break;
    case 2:  // deep nesting
      doc.insert(at(doc.size()), static_cast<std::size_t>(rng.uniform_int(200, 5000)),
                 rng.uniform_int(0, 1) ? '[' : '{');
      break;
    case 3: {  // a huge number in place of a number
      static const char* const kHuge[] = {"99999999999999999999999", "-9223372036854775809",
                                          "9223372036854775808", "4294967297", "1e400",
                                          "-1e400", "1e308", "4.9e-324"};
      std::size_t p = doc.find_first_of("0123456789", at(doc.size()));
      if (p == std::string::npos) p = doc.find_first_of("0123456789");
      std::size_t end = doc.find_first_not_of("0123456789.eE+-", p);
      if (end == std::string::npos) end = doc.size();
      doc.replace(p, end - p, kHuge[rng.uniform_int(0, 7)]);
      break;
    }
    default: {  // a duplicate key, ahead of or behind the original
      static const char* const kKeys[] = {"app", "tenant", "frame", "coeffs", "frame_size",
                                          "order", "seed", "observations", "truth"};
      static const char* const kValues[] = {"1", "-1", "0.5", "1e300", "\"particle\"",
                                            "\"speech\"", "[]", "[1e308,-1e308]", "{}",
                                            "null", "\"t\\u0001\""};
      const std::string pair = std::string("\"") + kKeys[rng.uniform_int(0, 8)] +
                               "\":" + kValues[rng.uniform_int(0, 10)];
      if (rng.uniform_int(0, 1)) doc.insert(1, pair + ",");
      else doc.insert(doc.size() - 1, "," + pair);
    }
  }
  return doc;
}

class FuzzJob : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzJob, MutatedBodiesAreServedOrRejectedTypedAndLeaveNoTrace) {
  // Each seed's answer from a fresh server, alone in its burst: the
  // single-job references the fuzzed server must still reproduce.
  std::vector<std::string> references;
  for (const std::string& seed : job_seeds()) {
    PlanServer fresh;
    std::vector<obs::HttpRequest> requests = job_burst({seed});
    std::vector<obs::HttpResponse> responses;
    fresh.handle_burst(requests, responses);
    ASSERT_EQ(responses.at(0).status, 200) << seed << " -> " << responses[0].body;
    references.push_back(responses[0].body);
  }

  PlanServer server;
  dsp::Rng rng(GetParam());
  std::int64_t ok = 0;
  for (int round = 0; round < 100; ++round) {  // 300 mutated jobs
    std::vector<std::string> bodies;
    for (const std::string& seed : job_seeds()) bodies.push_back(mutate_job(seed, rng));
    std::vector<obs::HttpRequest> requests = job_burst(bodies);
    std::vector<obs::HttpResponse> responses;
    server.handle_burst(requests, responses);
    ASSERT_EQ(responses.size(), bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const int status = responses[i].status;
      EXPECT_TRUE(status == 200 || status == 400 || status == 429)
          << status << " for " << bodies[i].substr(0, 200) << " -> " << responses[i].body;
      EXPECT_TRUE(obs::json::validate(responses[i].body).empty()) << responses[i].body;
      ok += status == 200;
    }
  }
  EXPECT_EQ(server.jobs_served(), ok);
  // Both verdicts must occur, or one property above is never exercised.
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, 300);

  std::vector<obs::HttpRequest> requests = job_burst(job_seeds());
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(requests, responses);
  ASSERT_EQ(responses.size(), references.size());
  for (std::size_t i = 0; i < references.size(); ++i) {
    EXPECT_EQ(responses[i].status, 200) << responses[i].body;
    EXPECT_EQ(responses[i].body, references[i]) << "seed " << i << " after the fuzz";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzJob, ::testing::Values(11, 22, 33, 44, 55));

// --- request-lifecycle tracing (docs/observability.md) --------------------

/// Extracts the integer following `"key": ` at or after `from` within
/// the same flat span object (spans in /trace are never nested).
std::int64_t span_int(const std::string& json, std::size_t from, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + key.size() + 4);
}

TEST(PlanServer, TraceSpansTileEndToEndAndTenantsRollUp) {
  PlanServerOptions options;
  options.trace.sample_every = 1;  // keep every span
  PlanServer server(options);
  std::vector<obs::HttpRequest> jobs = job_burst({
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":1})",
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":2})",
      R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":3})",
      R"({"app":"particle","tenant":"t1","steps":3,"seed":4})",
      R"({"app":"particle","tenant":"t1","steps":3,"seed":5})",
  });
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(jobs, responses);
  for (const obs::HttpResponse& r : responses) EXPECT_EQ(r.status, 200);

  std::vector<obs::HttpRequest> scrapes = {
      {"GET", "/trace", "HTTP/1.1", "", true},
      {"GET", "/tenants", "HTTP/1.1", "", true},
      {"GET", "/trace/flight", "HTTP/1.1", "", true},
  };
  server.handle_burst(scrapes, responses);
  ASSERT_EQ(responses.size(), 3u);

  // /trace: valid JSON holding one flat span per job, each tiling e2e.
  ASSERT_EQ(responses[0].status, 200);
  const std::string& trace = responses[0].body;
  EXPECT_TRUE(obs::json::validate(trace).empty()) << trace;
  EXPECT_NE(trace.find("\"requests_total\": 5"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"sampled_total\": 5"), std::string::npos);
  std::size_t at = trace.find("\"spans\": [");
  ASSERT_NE(at, std::string::npos);
  int spans_seen = 0;
  const std::size_t spans_end = trace.find("\"outliers\": [");
  while ((at = trace.find("{\"id\": ", at)) != std::string::npos && at < spans_end) {
    const std::int64_t e2e = span_int(trace, at, "e2e_ns");
    std::int64_t sum = 0;
    for (const char* stage : {"admission_ns", "queue_ns", "batch_ns", "exec_ns", "reply_ns"})
      sum += span_int(trace, at, stage);
    EXPECT_EQ(sum, e2e) << "stages must tile the request exactly";
    EXPECT_GT(e2e, 0);
    EXPECT_GE(span_int(trace, at, "batch"), 0) << "every job rode a batch";
    ++spans_seen;
    ++at;
  }
  EXPECT_EQ(spans_seen, 5);
  // The t0 speech jobs drained as one batch of 3.
  EXPECT_NE(trace.find("\"tenant\": \"t0\", \"app\": \"speech\", \"status\": 200, "),
            std::string::npos);
  EXPECT_NE(trace.find("\"batch_size\": 3"), std::string::npos);

  // /tenants: per-tenant rollups for both tenants, queue facts included.
  ASSERT_EQ(responses[1].status, 200);
  const std::string& tenants = responses[1].body;
  EXPECT_TRUE(obs::json::validate(tenants).empty()) << tenants;
  EXPECT_NE(tenants.find("\"t0\""), std::string::npos);
  EXPECT_NE(tenants.find("\"t1\""), std::string::npos);
  EXPECT_NE(tenants.find("\"stages\""), std::string::npos);

  // /trace/flight: the first sampled batch captured a loadable firing
  // log whose batch markers carry the span's batch id.
  ASSERT_EQ(responses[2].status, 200);
  const obs::FlightLog flight = obs::FlightLog::from_json(responses[2].body);
  EXPECT_GT(flight.events.size(), 0u);
  bool batch_begin = false;
  for (const obs::FlightEvent& e : flight.events)
    if (e.kind == obs::FlightEventKind::kBatchBegin && e.seq == server.tracer().flight_batch())
      batch_begin = true;
  EXPECT_TRUE(batch_begin) << "captured log must carry its batch-begin marker";
}

TEST(PlanServer, TracingDisabledStillServesEndpoints) {
  PlanServerOptions options;
  options.trace.enabled = false;
  PlanServer server(options);
  std::vector<obs::HttpRequest> jobs =
      job_burst({R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":1})"});
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(jobs, responses);
  EXPECT_EQ(responses[0].status, 200);

  std::vector<obs::HttpRequest> scrapes = {
      {"GET", "/trace", "HTTP/1.1", "", true},
      {"GET", "/tenants", "HTTP/1.1", "", true},
      {"GET", "/trace/flight", "HTTP/1.1", "", true},
  };
  server.handle_burst(scrapes, responses);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_NE(responses[0].body.find("\"enabled\": false"), std::string::npos);
  EXPECT_NE(responses[0].body.find("\"requests_total\": 0"), std::string::npos)
      << "disabled tracing allocates no spans";
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_TRUE(obs::json::validate(responses[1].body).empty());
  EXPECT_EQ(responses[2].status, 404) << "no flight log without tracing";
}

TEST(PlanServer, RejectedJobsCompleteShortSpansWith429) {
  PlanServerOptions options;
  options.admission.max_queue_depth = 2;
  options.trace.sample_every = 1;
  PlanServer server(options);
  std::vector<std::string> bodies;
  for (int i = 0; i < 4; ++i)
    bodies.push_back(R"({"app":"speech","tenant":"t0","frame_size":12,"order":3,"seed":)" +
                     std::to_string(i) + "}");
  std::vector<obs::HttpRequest> jobs = job_burst(bodies);
  std::vector<obs::HttpResponse> responses;
  server.handle_burst(jobs, responses);
  int ok = 0;
  int rejected = 0;
  for (const obs::HttpResponse& r : responses) (r.status == 200 ? ok : rejected)++;
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, 2);

  std::vector<obs::HttpRequest> scrapes = {{"GET", "/trace", "HTTP/1.1", "", true},
                                           {"GET", "/tenants", "HTTP/1.1", "", true}};
  server.handle_burst(scrapes, responses);
  EXPECT_NE(responses[0].body.find("\"status\": 429"), std::string::npos)
      << "rejects are traced too";
  EXPECT_NE(responses[1].body.find("\"rejects\": 2"), std::string::npos) << responses[1].body;
}

TEST(PlanServer, OneFiringPerAppPerBurstAcrossTenants) {
  for (const int tenants : {2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << tenants << " tenants");
    PlanServerOptions options;
    options.trace.sample_every = 1;  // keep every span
    PlanServer server(options);
    const obs::MetricRegistry& metrics = server.metrics();
    for (int burst = 0; burst < 2; ++burst) {
      std::vector<std::string> bodies;
      for (int j = 0; j < 2 * tenants; ++j)
        bodies.push_back(R"({"app":"speech","tenant":"t)" + std::to_string(j % tenants) +
                         R"(","frame_size":12,"order":3,"seed":)" + std::to_string(j) + "}");
      const std::int64_t batches_before =
          metrics.counter_value("spi_serve_batches_total", {{"app", "speech"}});
      std::vector<obs::HttpRequest> requests = job_burst(bodies);
      std::vector<obs::HttpResponse> responses;
      server.handle_burst(requests, responses);
      for (const obs::HttpResponse& r : responses) EXPECT_EQ(r.status, 200) << r.body;
      EXPECT_EQ(metrics.counter_value("spi_serve_batches_total", {{"app", "speech"}}),
                batches_before + 1)
          << "one speech firing per burst, whatever the tenant count";
    }

    // The second burst's spans: one batch id and one queue wait for all.
    std::vector<obs::HttpRequest> scrape = {{"GET", "/trace", "HTTP/1.1", "", true}};
    std::vector<obs::HttpResponse> trace_response;
    server.handle_burst(scrape, trace_response);
    const std::string& trace = trace_response.at(0).body;
    std::vector<std::int64_t> batch_ids, queue_ns;
    const std::size_t spans_end = trace.find("\"outliers\": [");
    std::size_t at = trace.find("\"spans\": [");
    for (; (at = trace.find("{\"id\": ", at)) < spans_end; ++at) {
      batch_ids.push_back(span_int(trace, at, "batch"));
      queue_ns.push_back(span_int(trace, at, "queue_ns"));
    }
    ASSERT_EQ(batch_ids.size(), static_cast<std::size_t>(4 * tenants));
    for (std::size_t k = 2 * tenants; k < batch_ids.size(); ++k) {
      EXPECT_EQ(batch_ids[k], batch_ids[2 * tenants]) << "span " << k;
      EXPECT_EQ(queue_ns[k], queue_ns[2 * tenants]) << "no tenant waits behind another";
    }
    EXPECT_NE(batch_ids.front(), batch_ids.back()) << "each burst fires its own batch";

    std::int64_t per_tenant_sum = 0;
    for (int t = 0; t < tenants; ++t)
      per_tenant_sum += metrics.counter_value(
          "spi_serve_jobs_total", {{"app", "speech"}, {"tenant", "t" + std::to_string(t)}});
    EXPECT_EQ(per_tenant_sum, server.jobs_served());
    EXPECT_EQ(server.jobs_served(), 4 * tenants);
  }
}

// --- multi-client soak over real sockets (TSan-clean in CI) ---------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `wire` and reads `count` Content-Length-framed responses;
/// returns the number of 200s (-1 on transport error).
int pipelined_round_trip(int fd, const std::string& wire, std::size_t count) {
  if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(wire.size()))
    return -1;
  int ok = 0;
  std::string inbox;
  char buf[16384];
  for (std::size_t seen = 0; seen < count;) {
    const std::size_t head_end = inbox.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return -1;
      inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    std::size_t content_length = 0;
    std::string head = inbox.substr(0, head_end);
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    const std::size_t lenpos = head.find("content-length:");
    if (lenpos != std::string::npos)
      content_length = static_cast<std::size_t>(
          std::atoll(head.c_str() + lenpos + std::strlen("content-length:")));
    if (inbox.size() < head_end + 4 + content_length) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return -1;
      inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (std::atoi(inbox.c_str() + inbox.find(' ') + 1) == 200) ++ok;
    inbox.erase(0, head_end + 4 + content_length);
    ++seen;
  }
  return ok;
}

TEST(PlanServer, MultiClientSoakServesEveryJobAndScrape) {
  PlanServer server;
  server.start();
  ASSERT_TRUE(server.running());
  const int port = server.port();

  constexpr int kClients = 2;
  constexpr int kBursts = 15;
  constexpr int kPipeline = 8;
  std::vector<int> ok_per_client(kClients, -1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(port);
      if (fd < 0) return;
      int ok = 0;
      for (int b = 0; b < kBursts; ++b) {
        std::string wire;
        for (int i = 0; i < kPipeline; ++i) {
          const bool particle = (b + i) % 4 == 0;
          const std::string body =
              particle ? "{\"app\":\"particle\",\"tenant\":\"t" + std::to_string(c) +
                             "\",\"steps\":3,\"seed\":" + std::to_string(b * kPipeline + i) + "}"
                       : "{\"app\":\"speech\",\"tenant\":\"t" + std::to_string(c) +
                             "\",\"frame_size\":12,\"order\":3,\"seed\":" +
                             std::to_string(b * kPipeline + i) + "}";
          wire += "POST /job HTTP/1.1\r\nContent-Length: " + std::to_string(body.size()) +
                  "\r\n\r\n" + body;
        }
        const int got = pipelined_round_trip(fd, wire, kPipeline);
        if (got < 0) break;
        ok += got;
      }
      ::close(fd);
      ok_per_client[static_cast<std::size_t>(c)] = ok;
    });
  }
  // A scraper hammers the observation endpoints while jobs run; every
  // response must be a complete 200 (the routes share the event loop, so
  // this pins scrape-during-serve at the HTTP layer).
  std::thread scraper([&] {
    const int fd = connect_to(port);
    if (fd < 0) return;
    for (int i = 0; i < 30; ++i) {
      static const char* const kTargets[] = {"/metrics.json", "/runtime", "/trace", "/tenants"};
      const char* target = kTargets[i % 4];
      const std::string wire = "GET " + std::string(target) + " HTTP/1.1\r\n\r\n";
      if (pipelined_round_trip(fd, wire, 1) != 1) break;
    }
    ::close(fd);
  });
  for (std::thread& t : clients) t.join();
  scraper.join();
  server.stop();

  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(ok_per_client[static_cast<std::size_t>(c)], kBursts * kPipeline)
        << "client " << c << " lost responses";
  EXPECT_EQ(server.jobs_served(), kClients * kBursts * kPipeline);
  EXPECT_TRUE(obs::json::validate(server.runtime_json()).empty());
}

}  // namespace
}  // namespace spi::serve
