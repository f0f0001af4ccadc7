// OpCoalescer: the client-side operation-coalescing queue shared by every
// wire transport (ChannelTransport, SocketTransport). Queued (pipelined)
// operations bound for one DC fold into a single kOperationBatch message;
// a background flusher bounds how long a queued op can wait when the
// caller never awaits. Extracted so the channel and socket clients cannot
// drift in batching behavior — msgs/txn comparisons across transports
// measure the wire, not the queue.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "dc/dc_api.h"

namespace untx {

/// The background flusher pushes a coalescing queue onto the wire when
/// the submitters go quiescent (no new op for idle_us) or when the oldest
/// queued op has waited max_delay_us (the latency target), whichever
/// comes first. Under load batches fill naturally; a lone op ships
/// almost immediately.
struct CoalesceOptions {
  /// A queue reaching this size flushes immediately.
  uint32_t max_batch_ops = 64;
  /// Flush once no new op has been queued for this long.
  uint32_t idle_us = 25;
  /// Hard latency target — the oldest queued op never waits longer than
  /// this for the batch to fill.
  uint32_t max_delay_us = 250;
};

class OpCoalescer {
 public:
  using FlushFn = std::function<void(const std::vector<OperationRequest>&)>;

  /// `flush` ships one batch on the wire; called from the queueing
  /// thread (full queue, explicit Flush) or from the flusher thread.
  OpCoalescer(CoalesceOptions options, FlushFn flush);
  ~OpCoalescer();

  OpCoalescer(const OpCoalescer&) = delete;
  OpCoalescer& operator=(const OpCoalescer&) = delete;

  /// Starts the background flusher. Queue/Flush work without it, but
  /// un-awaited queued ops then wait for the next explicit flush.
  void Start();
  void Stop();

  void Queue(const OperationRequest& req);
  /// Ships whatever is queued, immediately. No-op on an empty queue.
  void Flush();
  bool HasPending() const;

  /// Flush reasons (diagnostics for tuning).
  uint64_t idle_flushes() const { return idle_flushes_.load(); }
  uint64_t deadline_flushes() const { return deadline_flushes_.load(); }

 private:
  void FlushLoop();
  /// Queue age snapshot for the flusher: false if empty.
  bool PendingAges(std::chrono::steady_clock::time_point* oldest,
                   std::chrono::steady_clock::time_point* newest) const;

  const CoalesceOptions options_;
  const FlushFn flush_;
  mutable std::mutex pending_mu_;
  std::vector<OperationRequest> pending_;
  std::chrono::steady_clock::time_point oldest_enqueue_;
  std::chrono::steady_clock::time_point last_enqueue_;
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::thread flusher_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> idle_flushes_{0};
  std::atomic<uint64_t> deadline_flushes_{0};
};

}  // namespace untx
