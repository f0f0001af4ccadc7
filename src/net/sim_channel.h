// SimChannel: simulated unidirectional message channel between the TC
// and a DC ("in a cloud environment asynchronous messages might be
// used", §4.2.1).
//
// Substitution note: stands in for a real datacenter network. A stand-in
// must keep every failure mode the interaction contracts (§4.2) have to
// survive and may drop the rest, so exactly these are modeled:
// per-message random delay (which yields out-of-order delivery), message
// drop, and message duplication. The TC's resend daemon plus the DC's
// idempotence turn this lossy channel into exactly-once execution.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/random.h"

namespace untx {

struct ChannelOptions {
  uint32_t min_delay_us = 0;
  uint32_t max_delay_us = 0;
  /// Probability a message is silently dropped.
  double drop_prob = 0.0;
  /// Probability a message is delivered twice.
  double dup_prob = 0.0;
  uint64_t seed = 7;
};

/// Multi-producer, multi-consumer queue of byte strings with simulated
/// delivery latency. Messages become receivable when their delivery time
/// passes; random per-message delays reorder them.
class SimChannel {
 public:
  explicit SimChannel(ChannelOptions options = {});

  /// Enqueues (or drops / duplicates) a message.
  void Send(std::string msg);

  /// Blocks until a message is deliverable or timeout. Returns false on
  /// timeout or if the channel was closed and emptied.
  bool Receive(std::string* out, uint32_t timeout_ms);

  /// Non-blocking receive.
  bool TryReceive(std::string* out);

  /// Discards all in-flight messages (receiver crashed).
  void Clear();

  /// Closes the channel: Send becomes a no-op, receivers drain then fail.
  void Close();
  bool closed() const;

  // Stats.
  uint64_t sent() const;
  uint64_t delivered() const;
  uint64_t dropped() const;
  /// Dropped messages that were frames (net/frame.h) of this kind.
  uint64_t dropped_kind(uint8_t kind) const;
  uint64_t duplicated() const;
  size_t InFlight() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct InFlightMsg {
    Clock::time_point deliver_at;
    uint64_t seq;  // tie-breaker to keep the priority queue deterministic
    std::string payload;
    bool operator>(const InFlightMsg& other) const {
      if (deliver_at != other.deliver_at) {
        return deliver_at > other.deliver_at;
      }
      return seq > other.seq;
    }
  };

  void Enqueue(std::string msg);

  ChannelOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<InFlightMsg, std::vector<InFlightMsg>,
                      std::greater<InFlightMsg>>
      queue_;
  Random rng_;
  uint64_t next_seq_ = 0;
  bool closed_ = false;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  std::array<uint64_t, 256> dropped_kinds_{};
  uint64_t duplicated_ = 0;
};

}  // namespace untx
