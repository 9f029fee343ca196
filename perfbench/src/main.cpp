/// \file main.cpp
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload and prints one JSON document (Result::to_json) on
/// stdout. Untraced runs measure the end-to-end metrics. A traced run
/// spends most of its time on the workload's own family, traced, and the
/// rest on short traced probes of the other families, so that every
/// layer's metrics come out of every traced run; the tracing overhead is
/// always the workload's own. Progress notes go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

enum class Family { kServe, kStream, kCompile };

struct Workload {
  const char* name;
  Family family;
  StreamApp stream;  ///< the app of the stream family
};

constexpr Workload kWorkloads[] = {
    {"serve_tenants", Family::kServe, StreamApp::kSpeech},
    {"stream_speech", Family::kStream, StreamApp::kSpeech},
    {"stream_particle", Family::kStream, StreamApp::kParticle},
    {"compile_graphs", Family::kCompile, StreamApp::kSpeech},
};

void run_family(const Workload& w, const RunConfig& config, Result& result) {
  switch (w.family) {
    case Family::kServe: run_serve(config, result); break;
    case Family::kStream: run_stream(w.stream, config, result); break;
    case Family::kCompile: run_compile(config, result); break;
  }
}

/// Default probe of each family for traced runs of another family.
constexpr Workload kProbes[] = {kWorkloads[0], kWorkloads[1], kWorkloads[3]};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") name = value;
    else if (flag == "--seed") config.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") config.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") config.trace = std::strcmp(value, "0") != 0;
    else return usage();
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) workload = &w;
  if (workload == nullptr || config.seconds <= 0.0) return usage();

  Result result;
  try {
    if (!config.trace) {
      run_family(*workload, config, result);
    } else {
      RunConfig own = config;
      own.seconds = 0.6 * config.seconds;
      run_family(*workload, own, result);
      for (const Workload& probe : kProbes) {
        if (probe.family == workload->family) continue;
        RunConfig probe_config = config;
        probe_config.seconds = 0.2 * config.seconds;
        Result probe_result;
        run_family(probe, probe_config, probe_result);
        result.attempted += probe_result.attempted;
        result.failed += probe_result.failed;
        for (auto& failure : probe_result.check_failures)
          if (result.check_failures.size() < 8) result.check_failures.push_back(failure);
        for (auto& [key, value] : probe_result.layers)
          if (key != "trace_overhead_pct") result.layers.try_emplace(key, value);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", name.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
