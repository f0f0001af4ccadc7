#include "net/sim_channel.h"

#include "net/frame.h"

namespace untx {

SimChannel::SimChannel(ChannelOptions options)
    : options_(options), rng_(options.seed) {}

void SimChannel::Enqueue(std::string msg) {
  uint32_t delay_us = options_.min_delay_us;
  if (options_.max_delay_us > options_.min_delay_us) {
    delay_us = static_cast<uint32_t>(
        rng_.Range(options_.min_delay_us, options_.max_delay_us));
  }
  queue_.push(InFlightMsg{Clock::now() + std::chrono::microseconds(delay_us),
                          next_seq_++, std::move(msg)});
}

void SimChannel::Send(std::string msg) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (closed_) return;
    ++sent_;
    if (options_.drop_prob > 0 && rng_.Bernoulli(options_.drop_prob)) {
      ++dropped_;
      if (msg.size() > kFrameHeaderSize) {
        ++dropped_kinds_[static_cast<uint8_t>(msg[kFrameHeaderSize])];
      }
      return;
    }
    const bool dup =
        options_.dup_prob > 0 && rng_.Bernoulli(options_.dup_prob);
    if (dup) {
      ++duplicated_;
      Enqueue(msg);
    }
    Enqueue(std::move(msg));
  }
  cv_.notify_all();
}

bool SimChannel::Receive(std::string* out, uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!queue_.empty()) {
      const auto now = Clock::now();
      const auto& top = queue_.top();
      if (top.deliver_at <= now) {
        *out = top.payload;
        queue_.pop();
        ++delivered_;
        return true;
      }
      // Wait until the earliest message matures (or new ones arrive).
      const auto wake = top.deliver_at < deadline ? top.deliver_at : deadline;
      if (cv_.wait_until(lock, wake) == std::cv_status::timeout &&
          wake == deadline && Clock::now() >= deadline) {
        // Deadline passed; one more immediate check below.
      }
    } else {
      if (closed_) return false;
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // fall through to the deadline check
      }
    }
    if (Clock::now() >= deadline) {
      // Final non-blocking attempt.
      if (!queue_.empty() && queue_.top().deliver_at <= Clock::now()) {
        *out = queue_.top().payload;
        queue_.pop();
        ++delivered_;
        return true;
      }
      return false;
    }
  }
}

bool SimChannel::TryReceive(std::string* out) {
  std::lock_guard<std::mutex> guard(mu_);
  if (queue_.empty() || queue_.top().deliver_at > Clock::now()) {
    return false;
  }
  *out = queue_.top().payload;
  queue_.pop();
  ++delivered_;
  return true;
}

void SimChannel::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  while (!queue_.empty()) queue_.pop();
}

void SimChannel::Close() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool SimChannel::closed() const {
  std::lock_guard<std::mutex> guard(mu_);
  return closed_;
}

uint64_t SimChannel::sent() const {
  std::lock_guard<std::mutex> guard(mu_);
  return sent_;
}
uint64_t SimChannel::delivered() const {
  std::lock_guard<std::mutex> guard(mu_);
  return delivered_;
}
uint64_t SimChannel::dropped_kind(uint8_t kind) const {
  std::lock_guard<std::mutex> guard(mu_);
  return dropped_kinds_[kind];
}

uint64_t SimChannel::dropped() const {
  std::lock_guard<std::mutex> guard(mu_);
  return dropped_;
}
uint64_t SimChannel::duplicated() const {
  std::lock_guard<std::mutex> guard(mu_);
  return duplicated_;
}
size_t SimChannel::InFlight() const {
  std::lock_guard<std::mutex> guard(mu_);
  return queue_.size();
}

}  // namespace untx
