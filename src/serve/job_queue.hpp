/// \file job_queue.hpp
/// Per-tenant job queues for the plan server (docs/serving.md).
///
/// Jobs admitted from one HTTP read burst are queued per tenant, so
/// admission (queue depth), watermarks and served counts stay per
/// tenant. The server then drains every tenant's queue into ONE batched
/// firing per (model, batch key) for the whole burst: N queued speech
/// jobs, whichever tenants sent them, become N colocated graph
/// iterations through one JobInstance — one program traversal amortized
/// over the whole batch (dataflow determinacy makes the per-job results
/// bit-identical to N separate runs; the serve tests assert it).
///
/// Single-threaded like the rest of the serve layer: queues live on the
/// server's poll thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spi::serve {

/// One admitted job waiting for its batch: which burst slot to answer
/// (the server keeps the slot's body, already read into a JobBody) and
/// which served model runs it.
/// The trace fields are the job's request-lifecycle context
/// (obs/request_trace.hpp): span id plus the ingest and enqueue stamps,
/// carried through the queue so the drain can attribute queue wait.
struct QueuedJob {
  std::size_t request_index = 0;  ///< slot in the burst's response vector
  std::size_t model = 0;          ///< index into the server's models
  std::uint64_t span_id = 0;      ///< 0 = untraced
  std::int64_t ingest_ns = 0;     ///< burst entry (tracer clock)
  std::int64_t enqueued_ns = 0;   ///< enqueue stamp (shared per burst)
};

class JobQueue {
 public:
  explicit JobQueue(std::string tenant) : tenant_(std::move(tenant)) {}

  void push(QueuedJob job) {
    queue_.push_back(job);
    depth_watermark_ = std::max<std::int64_t>(depth_watermark_, depth());
  }

  QueuedJob pop() {
    const QueuedJob job = queue_[head_++];
    if (head_ == queue_.size()) {  // drained: rewind, keeping the storage
      queue_.clear();
      head_ = 0;
    }
    return job;
  }

  [[nodiscard]] bool empty() const { return head_ == queue_.size(); }
  [[nodiscard]] std::int64_t depth() const {
    return static_cast<std::int64_t>(queue_.size() - head_);
  }
  /// High-water queue depth since construction (a gauge on /metrics —
  /// the closest the synchronous server gets to "queueing delay").
  [[nodiscard]] std::int64_t depth_watermark() const { return depth_watermark_; }
  /// Re-bases the watermark on the current depth (scrape-and-reset
  /// consumers). Monotonic between resets; never drops below depth().
  void reset_watermark() { depth_watermark_ = depth(); }
  [[nodiscard]] std::int64_t jobs_served() const { return jobs_served_; }
  void count_served(std::int64_t n) { jobs_served_ += n; }
  [[nodiscard]] const std::string& tenant() const { return tenant_; }

 private:
  std::string tenant_;
  std::vector<QueuedJob> queue_;  ///< FIFO from head_; the drain empties it every burst
  std::size_t head_ = 0;
  std::int64_t depth_watermark_ = 0;
  std::int64_t jobs_served_ = 0;
};

}  // namespace spi::serve
