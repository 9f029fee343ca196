/// \file test_job_queue.cpp
/// Unit tests for the per-tenant job queue (serve/job_queue.hpp) — FIFO
/// order, trace-context carriage, the depth watermark's
/// monotonic-between-resets contract — and the admission controller's
/// 429 edge (serve/admission.hpp): the exact queue-depth boundary.

#include <gtest/gtest.h>

#include "serve/admission.hpp"
#include "serve/job_queue.hpp"

namespace spi::serve {
namespace {

QueuedJob job(std::size_t index) {
  QueuedJob j;
  j.request_index = index;
  j.model = 0;
  j.span_id = index + 1;
  j.ingest_ns = 100;
  j.enqueued_ns = 200 + static_cast<std::int64_t>(index);
  return j;
}

TEST(JobQueueTest, FifoOrderAndTraceContextCarried) {
  JobQueue queue("t0");
  EXPECT_EQ(queue.tenant(), "t0");
  EXPECT_TRUE(queue.empty());
  queue.push(job(4));
  queue.push(job(9));
  EXPECT_EQ(queue.depth(), 2);

  const QueuedJob first = queue.pop();
  EXPECT_EQ(first.request_index, 4u);
  EXPECT_EQ(first.span_id, 5u);
  EXPECT_EQ(first.ingest_ns, 100);
  EXPECT_EQ(first.enqueued_ns, 204);
  EXPECT_EQ(queue.pop().request_index, 9u);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueueTest, WatermarkTracksHighWaterAcrossDrains) {
  JobQueue queue("t0");
  EXPECT_EQ(queue.depth_watermark(), 0);
  queue.push(job(0));
  queue.push(job(1));
  queue.push(job(2));
  EXPECT_EQ(queue.depth_watermark(), 3);

  // Draining does not lower the watermark.
  (void)queue.pop();
  (void)queue.pop();
  (void)queue.pop();
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.depth_watermark(), 3);

  // A shallower refill keeps the old high water.
  queue.push(job(3));
  EXPECT_EQ(queue.depth_watermark(), 3);
  // A deeper refill raises it.
  queue.push(job(4));
  queue.push(job(5));
  queue.push(job(6));
  EXPECT_EQ(queue.depth_watermark(), 4);
}

TEST(JobQueueTest, ResetRebasesWatermarkOnCurrentDepth) {
  JobQueue queue("t0");
  for (std::size_t i = 0; i < 5; ++i) queue.push(job(i));
  (void)queue.pop();
  (void)queue.pop();
  EXPECT_EQ(queue.depth_watermark(), 5);

  queue.reset_watermark();
  EXPECT_EQ(queue.depth_watermark(), 3) << "never drops below the live depth";
  (void)queue.pop();
  EXPECT_EQ(queue.depth_watermark(), 3) << "monotonic between resets";
  queue.reset_watermark();
  EXPECT_EQ(queue.depth_watermark(), 2);
}

TEST(JobQueueTest, ServedCountAccumulates) {
  JobQueue queue("t0");
  queue.count_served(3);
  queue.count_served(4);
  EXPECT_EQ(queue.jobs_served(), 7);
}

TEST(AdmissionTest, QueueDepthRejectsExactlyAtTheLimit) {
  AdmissionController::Options options;
  options.max_queue_depth = 2;
  AdmissionController admission(options);

  EXPECT_TRUE(admission.admit_job(0).admitted);
  EXPECT_TRUE(admission.admit_job(1).admitted);
  const AdmissionDecision rejected = admission.admit_job(2);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "queue-depth");
  EXPECT_EQ(admission.rejected_queue(), 1);
}

}  // namespace
}  // namespace spi::serve
