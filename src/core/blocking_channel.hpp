/// \file blocking_channel.hpp
/// Mutex + condition-variable bounded token FIFO — the host engine's
/// reliable-transport channel and the general-purpose fallback
/// the lock-free SpscChannel is measured against (bench/micro_channel).
///
/// Historically this was the threaded engine's only channel. It remains
/// the right structure when the edge speaks the reliable protocol
/// (docs/reliability.md): retransmission scripts need to requeue frames,
/// receive timeouts need a deadline wait, and both sit naturally on a
/// condvar'd deque. Plain (non-reliable) edges use SpscChannel instead —
/// see docs/architecture.md, "Channel selection".
///
/// Hot-path counter policy (all registry handles nullable): the channel
/// only touches block counters when a wait actually happens, and only
/// reads the monotonic clock when a block-duration counter is attached.
/// Per-token message/byte counters are *not* incremented here for plain
/// pushes — the runtime batches them per firing; the reliable transmit
/// path (execute) keeps its own accounting because retries, drops and
/// backoff are per-attempt facts.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "core/reliable_link.hpp"
#include "core/spsc_channel.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"

namespace spi::core {

/// Lock-free registry handles of one channel's counters. All nullable:
/// a null handle skips that accounting entirely. Reliability pointers
/// are null when the protocol is off.
struct ChannelCounters {
  obs::Counter* messages = nullptr;
  obs::Counter* payload_bytes = nullptr;
  obs::Counter* producer_blocks = nullptr;
  obs::Counter* consumer_blocks = nullptr;
  obs::Counter* producer_block_micros = nullptr;
  obs::Counter* consumer_block_micros = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* dropped_frames = nullptr;
  obs::Counter* crc_failures = nullptr;
  obs::Counter* duplicates = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* send_failures = nullptr;
  obs::Counter* backoff_micros = nullptr;
  obs::Histogram* backoff_histogram = nullptr;

  [[nodiscard]] SpscCounters spsc() const {
    return SpscCounters{producer_blocks, consumer_blocks, producer_block_micros,
                        consumer_block_micros};
  }
};

/// Thread-safe bounded FIFO for one interprocessor edge. In plain mode
/// it moves raw tokens; in reliable mode it moves sequenced frames
/// produced/consumed by the per-edge protocol state machines (each
/// touched only by its single producing / consuming thread).
class BlockingChannel {
 public:
  BlockingChannel(df::EdgeId edge, std::size_t capacity_tokens, std::atomic<bool>& abort,
                  ChannelCounters counters = {});

  /// Enables the reliable protocol. `plan` may be null (perfect wire);
  /// `policy` must outlive the channel.
  void enable_reliability(const sim::FaultPlan* plan, const sim::RetryPolicy& policy);

  [[nodiscard]] bool reliable() const { return sender_ != nullptr; }

  /// Same contract as SpscChannel::set_colocated_flag: while
  /// `*colocated` holds, a push to a full or pop from an empty channel
  /// throws colocated_wait_error instead of waiting.
  void set_colocated_flag(const bool* colocated, std::string edge_name) {
    colocated_ = colocated;
    edge_name_ = std::move(edge_name);
  }

  [[nodiscard]] df::EdgeId edge() const { return edge_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Queued-but-unconsumed frames right now (takes the channel mutex —
  /// scrape-path cost, not worker-path cost).
  [[nodiscard]] std::size_t size() const;
  /// Highest queue depth ever reached (frames). Tracked in enqueue()
  /// under the mutex the enqueue already holds, so it adds no extra
  /// synchronization to the worker path.
  [[nodiscard]] std::size_t high_watermark() const;

  void push(Bytes token, const ChannelFlightCtx* flight = nullptr);
  /// Initial-token placement: sequenced framing without fault
  /// injection, so construction cannot fail under a hostile plan.
  void push_faultless(Bytes token);
  [[nodiscard]] Bytes pop(const ChannelFlightCtx* flight = nullptr);
  void interrupt();  ///< wake all waiters (used on abort)

 private:
  void enqueue(Bytes frame, const ChannelFlightCtx* flight);  ///< capacity-blocking raw enqueue
  /// Blocking raw dequeue (timeout in reliable mode).
  [[nodiscard]] Bytes dequeue(const ChannelFlightCtx* flight);
  void execute(const TransmitScript& script, std::int64_t payload_bytes,
               const ChannelFlightCtx* flight);

  df::EdgeId edge_;
  mutable std::mutex mutex_;  ///< mutable: const depth/watermark accessors lock it
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Bytes> queue_;
  std::size_t capacity_;
  std::size_t high_watermark_ = 0;  ///< guarded by mutex_
  std::atomic<bool>& abort_;
  ChannelCounters counters_;
  const bool* colocated_ = nullptr;  ///< owner's colocated-run flag
  std::string edge_name_;            ///< for colocated_wait_error
  // Reliable mode (null/empty otherwise). Sender state is touched only
  // by the edge's producing thread, receiver state only by its
  // consuming thread — dataflow edges are single-producer,
  // single-consumer by construction.
  std::unique_ptr<ReliableSender> sender_;
  std::unique_ptr<ReliableReceiver> receiver_;
  const sim::RetryPolicy* policy_ = nullptr;
  /// Flight-event sequence numbers. send_seq_ is touched only by the
  /// edge's producing thread, recv_seq_ only by its consuming thread
  /// (channels are SPSC by construction), so plain int64 suffices.
  /// Initial tokens advance send_seq_ unrecorded, which is correct:
  /// delay tokens are initially available, not sent during the run.
  std::int64_t send_seq_ = 0;
  std::int64_t recv_seq_ = 0;
};

}  // namespace spi::core
