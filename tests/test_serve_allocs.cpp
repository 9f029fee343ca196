/// \file test_serve_allocs.cpp
/// The serve path's steady-state heap budget. This binary replaces the
/// global operator new/delete with a counting allocator (the
/// bench/micro_channel idiom), so an allocation added anywhere on the
/// /job path — routing, the body read, staging, the batched firing, the
/// reply — fails the test instead of hiding in the server's CPU time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "serve/plan_server.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spi::serve {
namespace {

TEST(ServeAllocations, ExplicitSpeechJobStaysWithinItsBudget) {
  // One explicit 32-sample speech job per burst, as the serve_tenants
  // benchmark sends them, through a default server (tracing on).
  PlanServer server;
  std::string body = R"({"app": "speech", "tenant": "t1", "frame": [)";
  for (int i = 0; i < 32; ++i) body += (i == 0 ? "" : ",") + std::to_string(0.01 * i - 0.13);
  body += R"(], "coeffs": [0.51234, 0.25, 0.16667, 0.125]})";
  std::vector<obs::HttpRequest> requests{{"POST", "/job", "HTTP/1.1", body, true}};
  std::vector<obs::HttpResponse> responses;
  const auto burst = [&] {
    responses.clear();  // as HttpServer hands the handler an empty vector
    server.handle_burst(requests, responses);
  };
  for (int i = 0; i < 256; ++i) burst();  // warm: every reusable buffer at size
  ASSERT_EQ(responses.at(0).status, 200) << responses[0].body;

  constexpr int kBursts = 1024;
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kBursts; ++i) burst();
  const std::int64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  // Per job: the six tokens the firing emits (a frame section and the
  // coefficients for each of the 2 PEs, and each PE's errors) — one
  // allocation per emitted token is JobInstance::fire's contract — and
  // the reply body. Sampled spans' flight captures are amortized in.
  constexpr std::int64_t kBudget = 7;
  EXPECT_LE(allocations, kBudget * kBursts)
      << static_cast<double>(allocations) / kBursts << " allocations per /job";
  EXPECT_EQ(server.jobs_served(), 256 + kBursts);
}

}  // namespace
}  // namespace spi::serve
