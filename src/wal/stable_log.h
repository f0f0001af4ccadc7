// StableLog: simulated append-only log with an explicit volatile tail.
//
// Used for both the TC's logical transaction log and each DC's
// system-transaction log. Records are opaque byte strings; the record's
// index (0-based, dense) is its position. Durability model:
//
//   [0, stable_end)            on "disk", survives Crash()
//   [stable_end, total_end)    volatile buffer, lost by Crash()
//
// The TC assigns an operation's LSN *before* dispatching it (§5.1), but
// can only complete the record's undo image once the DC replies. The log
// therefore supports Reserve() (claim an index now) + Seal() (provide the
// payload later). Force() advances stable_end through the longest sealed
// prefix — an unsealed record blocks durability of everything after it,
// which is exactly the paper's low-water-mark structure: everything at or
// below the force point has completed.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace untx {

struct StableLogOptions {
  /// Simulated device latency charged to every Force() that makes at
  /// least one record stable (models an fsync). Microseconds.
  uint32_t force_delay_us = 0;
  /// Non-empty: back the stable prefix with this file so it survives the
  /// PROCESS dying (the separate-process deployment's SIGKILL harness),
  /// not just the simulated Crash(). Records append at Force() time —
  /// the volatile tail is never written, so the on-disk prefix IS the
  /// durability contract. An existing file is loaded on construction
  /// (a torn tail entry is discarded); empty = in-memory only.
  std::string path;
};

class StableLog {
 public:
  explicit StableLog(StableLogOptions options = {});
  ~StableLog();

  /// Claims the next index with no payload yet. The record is volatile
  /// and unsealed; Force() cannot pass it.
  uint64_t Reserve();

  /// Provides the payload for a reserved index and seals it.
  void Seal(uint64_t index, std::string payload);

  /// Reserve + Seal in one step.
  uint64_t Append(std::string payload);

  /// Makes the longest sealed prefix stable. Returns new stable_end.
  uint64_t Force();

  /// Forces at least through `index` if sealed; returns new stable_end.
  uint64_t ForceTo(uint64_t index);

  /// Blocks until stable_end > index (i.e. record `index` is durable) or
  /// timeout. Used by group commit. Returns false on timeout.
  bool WaitStableThrough(uint64_t index, uint32_t timeout_ms);

  /// Index one past the last stable record.
  uint64_t stable_end() const;
  /// Index one past the last reserved record.
  uint64_t total_end() const;
  /// Longest sealed prefix end (== what Force() would make stable).
  uint64_t sealed_prefix_end() const;

  /// Reads a record. Only stable or sealed-volatile records are readable;
  /// reading an unsealed reservation returns kBusy.
  Status ReadAt(uint64_t index, std::string* out) const;

  /// Drops the volatile tail (sealed or not). This is the component crash.
  void Crash();

  /// Wipes the log back to empty — records, indices, and the backing
  /// file. Unlike Crash(), stable records are discarded too. Used when
  /// the owning component rebuilds itself from scratch (replica reset).
  void Clear();

  /// Logically discards records before `index` (checkpoint truncation).
  /// Indices of surviving records are unchanged. The dropped payloads are
  /// freed after mu_ is released, so appenders and forcers do not stall.
  void TruncatePrefix(uint64_t index);
  uint64_t truncated_prefix() const;

  // Stats for the logging benches (C9) and log-volume accounting (C4).
  uint64_t bytes_appended() const;
  uint64_t force_count() const;

 private:
  struct Record {
    std::string payload;
    bool sealed = false;
  };

  /// Replays an existing backing file into records_/base_/stable_end_,
  /// truncating a torn tail. Called from the constructor only.
  void LoadFile();
  /// Appends records [from, to) (already sealed) to the backing file and
  /// flushes to the kernel. Caller holds mu_.
  void PersistRangeLocked(uint64_t from, uint64_t to);
  /// Appends a truncate-prefix marker. Caller holds mu_.
  void PersistTruncateLocked(uint64_t index);

  StableLogOptions options_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable stable_cv_;
  /// records_[i] is log index base_ + i. A deque, so truncating the
  /// front never shifts the retained records under mu_.
  std::deque<Record> records_;
  uint64_t base_ = 0;            // first retained index
  uint64_t stable_end_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t force_count_ = 0;
};

}  // namespace untx
