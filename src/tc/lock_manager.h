// TC lock manager (§3.1, §4.1.1(1)).
//
// "Transactional locking to ensure that transactions are properly
// isolated (serializable) and that there are no concurrent conflicting
// operation requests submitted to the DC. The locks cannot exploit
// knowledge of data pagination."
//
// Lockables are opaque byte strings (record ids, range-partition ids, a
// per-table EOF sentinel) — never pages. Strict two-phase locking:
// everything is released together at commit/abort. Deadlocks are detected
// on a wait-for graph with the requester aborted when it closes a cycle,
// plus a timeout backstop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "util/wait_graph.h"

namespace untx {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

struct LockManagerOptions {
  uint32_t wait_timeout_ms = 5000;
  bool deadlock_detection = true;
};

struct LockManagerStats {
  uint64_t acquisitions = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t upgrades = 0;
};

// Lock-name constructors. The encoding keeps record and range names in
// disjoint spaces.
std::string RecordLockName(TableId table, const std::string& key);
std::string RangeLockName(TableId table, uint32_t range_idx);
std::string TableEofLockName(TableId table);

class LockManager {
 public:
  explicit LockManager(LockManagerOptions options = {});

  /// Acquires (or upgrades to) `mode` on `name` for `txn`. Blocks until
  /// granted, deadlock (kDeadlock) or timeout (kTimedOut). Re-entrant:
  /// holding X satisfies an S request.
  Status Lock(TxnId txn, const std::string& name, LockMode mode);

  /// Instant-duration lock: acquire then immediately release. Used for
  /// next-key probes during inserts under the fetch-ahead protocol. A
  /// lock the txn already held (or its upgrade) is kept: releasing it
  /// would break 2PL.
  Status LockInstant(TxnId txn, const std::string& name, LockMode mode);

  /// Releases every lock held by txn (strict 2PL release point).
  void ReleaseAll(TxnId txn);

  /// Number of locks currently held by txn (tests).
  size_t HeldCount(TxnId txn) const;

  LockManagerStats stats() const;

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
    bool instant;  ///< granted without holding unless txn holds already
    bool granted = false;
  };
  struct LockEntry {
    // (txn, mode); a txn appears at most once, with its strongest mode.
    std::vector<std::pair<TxnId, LockMode>> holders;
    /// FIFO queue. A vector, not a deque: most entries never see a
    /// waiter, and a deque allocates two blocks as soon as it exists.
    std::vector<Waiter*> waiters;
  };

  Status Acquire(TxnId txn, const std::string& name, LockMode mode,
                 bool instant);
  bool CompatibleLocked(const LockEntry& entry, TxnId txn,
                        LockMode mode) const;
  void GrantLocked(LockEntry* entry, TxnId txn, LockMode mode);
  void WakeWaitersLocked(LockEntry* entry);
  std::vector<TxnId> BlockersLocked(const LockEntry& entry, TxnId txn,
                                    LockMode mode) const;

  LockManagerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, LockEntry> table_;
  std::unordered_map<TxnId, std::unordered_set<std::string>> held_;
  WaitForGraph wait_graph_;
  LockManagerStats stats_;
};

}  // namespace untx
