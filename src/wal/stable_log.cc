#include "wal/stable_log.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "common/coding.h"
#include "common/crc32c.h"

namespace untx {

namespace {
// Backing-file entry tags. Each entry:
//   kRecordTag:   [u8 tag][varint len][payload][fixed32 masked crc(payload)]
//   kTruncateTag: [u8 tag][varint new_base]
constexpr char kRecordTag = 1;
constexpr char kTruncateTag = 2;
}  // namespace

StableLog::StableLog(StableLogOptions options) : options_(std::move(options)) {
  if (!options_.path.empty()) LoadFile();
}

StableLog::~StableLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void StableLog::LoadFile() {
  std::string blob;
  if (std::FILE* in = std::fopen(options_.path.c_str(), "rb")) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) blob.append(buf, n);
    std::fclose(in);
  }
  Slice input(blob);
  size_t good = 0;  // offset past the last fully-parsed entry
  while (!input.empty()) {
    const char tag = input[0];
    Slice attempt(input.data() + 1, input.size() - 1);
    if (tag == kRecordTag) {
      uint64_t len = 0;
      uint32_t masked = 0;
      // Overflow-safe bounds check: a corrupt varint near 2^64 would
      // wrap `len + 4`, pass a naive check, and crash the recovery on a
      // giant allocation instead of truncating the torn tail.
      if (!GetVarint64(&attempt, &len) || len > attempt.size() ||
          attempt.size() - len < 4) {
        break;
      }
      std::string payload(attempt.data(), len);
      attempt.remove_prefix(len);
      GetFixed32(&attempt, &masked);
      if (crc32c::Unmask(masked) !=
          crc32c::Value(payload.data(), payload.size())) {
        break;  // torn or corrupt tail entry: everything after is suspect
      }
      records_.emplace_back();
      records_.back().payload = std::move(payload);
      records_.back().sealed = true;
    } else if (tag == kTruncateTag) {
      uint64_t new_base = 0;
      if (!GetVarint64(&attempt, &new_base)) break;
      const uint64_t loaded_end = base_ + records_.size();
      if (new_base > base_ && new_base <= loaded_end) {
        records_.erase(records_.begin(),
                       records_.begin() +
                           static_cast<ptrdiff_t>(new_base - base_));
        base_ = new_base;
      }
    } else {
      break;
    }
    good = blob.size() - attempt.size();
    input = attempt;
  }
  stable_end_ = base_ + records_.size();  // everything on disk is stable
  if (good < blob.size()) {
    // Torn tail: rewrite just the parsed prefix so appends start clean.
    file_ = std::fopen(options_.path.c_str(), "wb");
    if (file_ != nullptr && good > 0) {
      std::fwrite(blob.data(), 1, good, file_);
      std::fflush(file_);
    }
  } else {
    file_ = std::fopen(options_.path.c_str(), "ab");
  }
}

void StableLog::PersistRangeLocked(uint64_t from, uint64_t to) {
  if (file_ == nullptr) return;
  std::string out;
  for (uint64_t i = from; i < to; ++i) {
    const std::string& payload = records_[i - base_].payload;
    out.push_back(kRecordTag);
    PutVarint64(&out, payload.size());
    out.append(payload);
    PutFixed32(&out,
               crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  }
  if (!out.empty()) {
    std::fwrite(out.data(), 1, out.size(), file_);
    // fflush pushes into the kernel: enough to survive SIGKILL of this
    // process (the harness's failure model). Machine-crash durability
    // would add fsync; the simulated force_delay_us stands in for it.
    std::fflush(file_);
  }
}

void StableLog::PersistTruncateLocked(uint64_t index) {
  if (file_ == nullptr) return;
  std::string out;
  out.push_back(kTruncateTag);
  PutVarint64(&out, index);
  std::fwrite(out.data(), 1, out.size(), file_);
  std::fflush(file_);
}

uint64_t StableLog::Reserve() {
  std::lock_guard<std::mutex> guard(mu_);
  records_.emplace_back();
  return base_ + records_.size() - 1;
}

void StableLog::Seal(uint64_t index, std::string payload) {
  std::lock_guard<std::mutex> guard(mu_);
  assert(index >= base_ && index < base_ + records_.size());
  Record& rec = records_[index - base_];
  assert(!rec.sealed);
  bytes_appended_ += payload.size();
  rec.payload = std::move(payload);
  rec.sealed = true;
}

uint64_t StableLog::Append(std::string payload) {
  std::lock_guard<std::mutex> guard(mu_);
  bytes_appended_ += payload.size();
  records_.emplace_back();
  records_.back().payload = std::move(payload);
  records_.back().sealed = true;
  return base_ + records_.size() - 1;
}

uint64_t StableLog::Force() { return ForceTo(~0ull); }

uint64_t StableLog::ForceTo(uint64_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = stable_end_;
  const uint64_t total = base_ + records_.size();
  while (target < total && records_[target - base_].sealed &&
         target <= index) {
    ++target;
  }
  // Also extend past `index` opportunistically? No: stop at the sealed
  // prefix; `index` is only a lower bound on desire, the prefix rule is
  // what limits us.
  if (target > stable_end_) {
    ++force_count_;
    if (options_.force_delay_us > 0) {
      lock.unlock();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.force_delay_us));
      lock.lock();
      // Re-derive target under the lock; more records may have sealed.
      const uint64_t total2 = base_ + records_.size();
      while (target < total2 && records_[target - base_].sealed) {
        ++target;
      }
    }
    if (target > stable_end_) {
      PersistRangeLocked(stable_end_, target);
      stable_end_ = target;
    }
    stable_cv_.notify_all();
  }
  return stable_end_;
}

bool StableLog::WaitStableThrough(uint64_t index, uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return stable_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this, index] { return stable_end_ > index; });
}

uint64_t StableLog::stable_end() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stable_end_;
}

uint64_t StableLog::total_end() const {
  std::lock_guard<std::mutex> guard(mu_);
  return base_ + records_.size();
}

uint64_t StableLog::sealed_prefix_end() const {
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t end = stable_end_;
  const uint64_t total = base_ + records_.size();
  while (end < total && records_[end - base_].sealed) ++end;
  return end;
}

Status StableLog::ReadAt(uint64_t index, std::string* out) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (index < base_) {
    return Status::NotFound("log record truncated");
  }
  if (index >= base_ + records_.size()) {
    return Status::NotFound("log record beyond end");
  }
  const Record& rec = records_[index - base_];
  if (!rec.sealed) {
    return Status::Busy("log record not sealed");
  }
  *out = rec.payload;
  return Status::OK();
}

Status StableLog::Scan(uint64_t begin, uint64_t end,
                       const RecordVisitor& visit) const {
  uint64_t index = begin;
  while (index < end) {
    const uint64_t chunk_end = std::min(end, index + kScanChunkRecords);
    std::lock_guard<std::mutex> guard(mu_);
    if (index < base_) return Status::NotFound("log record truncated");
    for (; index < chunk_end; ++index) {
      if (index >= base_ + records_.size()) {
        return Status::NotFound("log record beyond end");
      }
      const Record& rec = records_[index - base_];
      if (!rec.sealed) return Status::Busy("log record not sealed");
      Status s = visit(index, Slice(rec.payload));
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

void StableLog::Crash() {
  std::lock_guard<std::mutex> guard(mu_);
  assert(stable_end_ >= base_);
  records_.resize(stable_end_ - base_);
}

void StableLog::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  records_.clear();
  base_ = 0;
  stable_end_ = 0;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = std::fopen(options_.path.c_str(), "wb");
  }
}

void StableLog::TruncatePrefix(uint64_t index) {
  std::vector<std::string> dropped;  // freed after the lock is released
  std::lock_guard<std::mutex> guard(mu_);
  if (index <= base_) return;
  // Never truncate into the volatile region.
  if (index > stable_end_) index = stable_end_;
  dropped.reserve(index - base_);
  for (; base_ < index; ++base_) {
    dropped.push_back(std::move(records_.front().payload));
    records_.pop_front();
  }
  PersistTruncateLocked(index);
}

uint64_t StableLog::truncated_prefix() const {
  std::lock_guard<std::mutex> guard(mu_);
  return base_;
}

uint64_t StableLog::bytes_appended() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bytes_appended_;
}

uint64_t StableLog::force_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return force_count_;
}

}  // namespace untx
