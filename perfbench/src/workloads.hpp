/// \file workloads.hpp
/// The benchmark's workload families. Each runs from one process, times
/// the public entry points of the SPI libraries from its own code, and
/// checks every output it gets back.
///
/// A run fills a Result: end-to-end metrics from untraced passes, or —
/// when traced — per-layer metrics plus the traced-vs-untraced overhead.
/// Layers off a family's path are measured by the other families'
/// probes (main.cpp), so every traced run reports the whole stack.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget of the run
  bool trace = false;
};

/// Open-loop HTTP traffic from 4 tenants against an in-process
/// serve::PlanServer.
void run_serve(const RunConfig& config, Result& result);

/// Free-running gang runs of one paper app's plan with benchmark-owned
/// busy-spin computes.
enum class StreamApp { kSpeech, kParticle };
void run_stream(StreamApp app, const RunConfig& config, Result& result);

/// Seeded synthetic SDF graphs through the staged compile pipeline.
void run_compile(const RunConfig& config, Result& result);

}  // namespace perfbench
