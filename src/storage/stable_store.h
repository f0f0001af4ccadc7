// StableStore: the simulated durable page device beneath one DC.
//
// Substitution note: the paper assumes conventional disks. A stand-in
// must keep the failure semantics the recovery protocols rely on and may
// drop everything else, so we model a disk as an in-memory page map with
// write-through durability: a page write is durable once Write()
// returns. The volatile layer of the system is the DC's buffer pool, not
// the store, so a DC crash loses cached pages but never store contents —
// exactly the fail-stop model of §5.3. CRC32C over every page detects
// corruption, and fault-injection knobs let tests exercise I/O failures
// and torn writes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace untx {

struct StableStoreOptions {
  uint32_t page_size = kDefaultPageSize;
  uint32_t trailer_capacity = kDefaultTrailerCapacity;
  /// Probability that a Write fails with IOError (fault injection).
  double write_fail_prob = 0.0;
  uint64_t fault_seed = 42;
  /// Non-empty: back the store with this file so pages survive the
  /// PROCESS dying (untx_dcd --recover), not just the simulated DC
  /// crash. Page `pid` lives at byte offset (pid-1)*page_size; writes
  /// go through to the kernel immediately (pwrite), matching the
  /// write-through durability contract above. A slot whose CRC does not
  /// verify on load (never written, freed, or torn) is free space.
  std::string path;
};

/// Thread-safe simulated page store.
class StableStore {
 public:
  explicit StableStore(StableStoreOptions options = {});
  ~StableStore();

  uint32_t page_size() const { return options_.page_size; }
  uint32_t trailer_capacity() const { return options_.trailer_capacity; }

  /// Allocates a fresh (or recycled) page id. Durable immediately — the
  /// allocator models the device's block map.
  PageId Allocate();

  /// Returns a page to the free list. Idempotent.
  void Free(PageId pid);

  /// Durably writes page_size bytes; stamps the CRC into bytes [0,4).
  Status Write(PageId pid, const char* data);

  /// Reads page_size bytes into out; verifies CRC (Corruption on
  /// mismatch, with `out` holding the unverified image).
  Status Read(PageId pid, char* out) const;

  bool Exists(PageId pid) const;

  /// Corrupts a stored page (flips a byte) — for CRC-detection tests.
  void CorruptForTest(PageId pid, uint32_t byte_offset);

  /// Wipes the store back to empty (pages, allocator, backing file).
  /// Used when a replica rebuilds itself from a cancel-filtered replay
  /// of the primary's redo stream: its own page set may have diverged.
  void Reset();

  // Stats. reads() counts every page copied out, verified or not.
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t allocated_high_water() const;

  /// Number of live (written, non-free) pages.
  size_t LivePageCount() const;

 private:
  /// Loads every CRC-valid slot of the backing file. Constructor only.
  void LoadFile();
  /// Writes `data` (page_size bytes) at pid's slot. Caller holds mu_.
  void PersistPageLocked(PageId pid, const char* data);

  StableStoreOptions options_;
  int fd_ = -1;
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::string> pages_;
  std::vector<PageId> free_list_;
  std::unordered_set<PageId> free_set_;
  PageId next_page_id_ = 1;
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  mutable Random fault_rng_;
};

}  // namespace untx
