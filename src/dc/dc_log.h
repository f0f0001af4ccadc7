// DcLog: the DC's private log for system transactions (§5.2.2).
//
// Structure modifications (page split, page delete/consolidate, table
// creation) are logged as atomic batches: SmoBegin, body records,
// SmoCommit. Replay applies only committed batches, in log order, guarded
// per page by the page's dLSN — so SMOs are redone *before* any TC redo
// and possibly out of their original order relative to TC operations,
// exactly the regime of §5.2.
//
// Record forms follow the paper:
//  * Split: a physical image of the NEW page capturing its abLSN, plus a
//    logical record for the pre-split page holding only the split key.
//  * Consolidate (page delete): a physical image of the surviving page
//    whose abLSN is the max/union of the two pages' abLSNs, plus a
//    logical free record for the deleted page.
//
// Causality floor (a rule derived here, not stated in the paper): a
// physical image embeds TC operation effects. The batch may be FORCED to
// stable storage only once the TC stable log covers every such operation
// (per-TC floor <= EOSL). Otherwise a later TC crash could resurrect
// operations the TC lost — violating the causality contract of §4.2.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/ab_lsn.h"
#include "wal/stable_log.h"

namespace untx {

enum class DcLogRecordType : uint8_t {
  kSmoBegin = 1,
  kPageImage = 2,  ///< Physical: full page body + its PageAbLsn.
  kSplitOld = 3,   ///< Logical: pre-split page keeps keys < split_key.
  kPageFree = 4,   ///< Logical: page returned to free space.
  kSmoCommit = 5,
};

struct DcLogRecord {
  DcLogRecordType type = DcLogRecordType::kSmoBegin;
  DLsn dlsn = kInvalidDLsn;  ///< Assigned at append (== log index + 1).
  PageId pid = kInvalidPageId;
  std::string split_key;           ///< kSplitOld
  PageId aux_pid = kInvalidPageId; ///< kSplitOld: new right sibling (chain relink)
  std::string body;                ///< kPageImage: raw page bytes
  PageAbLsn ablsn;                 ///< kPageImage: abLSN captured with the image

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, DcLogRecord* out);
};

/// A parsed committed batch (for replay).
struct DcLogBatch {
  std::vector<DcLogRecord> records;  // body records only (no begin/commit)
};

class DcLog {
 public:
  explicit DcLog(StableLogOptions options = {});

  /// Appends an SMO batch atomically (begin + records + commit). Assigns
  /// each record's dlsn and returns it through the records. The caller
  /// stamps affected pages with these dlsns while still holding their
  /// latches. `floor` is the per-TC causality floor of the batch.
  /// `deferred_frees` lists pages whose stable bytes may only be released
  /// once the batch itself is stable (else a crash in between loses the
  /// merged records: the survivor's image is the only copy).
  void AppendBatch(std::vector<DcLogRecord>* records,
                   const std::map<TcId, Lsn>& floor,
                   std::vector<PageId> deferred_frees = {});

  /// Forces batches whose causality floors are satisfied by the given
  /// per-TC EOSL map. Batches force strictly in order. Appends the page
  /// ids whose deferred frees became executable to `freed_out`.
  void ForceEligible(const std::map<TcId, Lsn>& eosl,
                     std::vector<PageId>* freed_out = nullptr);

  /// True if every appended batch is stable (used by tests/benches).
  bool FullyForced() const;

  /// All committed batches currently on the stable log, in order.
  std::vector<DcLogBatch> ReadStableBatches() const;

  /// DLsn one past the last stable record (replay horizon).
  DLsn stable_dlsn_end() const;

  /// Highest dLSN assigned so far.
  DLsn next_dlsn() const;

  /// Drops volatile batches (DC crash).
  void Crash();

  /// Wipes the log back to empty, backing file included. Part of the
  /// replica reset-by-replay wipe: stale SMO records must never replay
  /// against the rebuilt-from-scratch tree.
  void Clear();

  /// Metadata of one not-yet-forced batch (for TC-crash reset).
  struct PendingBatchInfo {
    std::map<TcId, Lsn> floor;
    std::vector<PageId> pids;
  };

  /// TC-crash reset support: discards every pending (unforced) batch and
  /// truncates the volatile log tail. A pending batch may embed operation
  /// effects the failed TC lost, so it can never become stable; its page
  /// effects must be dropped by the caller (info returned here).
  std::vector<PendingBatchInfo> DiscardPending();

  /// Truncates the log below `dlsn` (DC checkpoint). Snaps DOWN to a
  /// batch boundary so replay never starts mid-batch, and never enters
  /// the unforced region.
  void TruncateBelow(DLsn dlsn);

  /// First retained dLSN (for tests).
  DLsn truncated_below() const;

  uint64_t bytes_appended() const { return log_.bytes_appended(); }
  uint64_t force_count() const { return log_.force_count(); }

 private:
  struct PendingBatch {
    uint64_t first_index;
    uint64_t last_index;
    std::map<TcId, Lsn> floor;
    std::vector<PageId> deferred_frees;
    std::vector<PageId> pids;  // every page the batch's records touch
  };

  mutable std::mutex mu_;
  StableLog log_;
  std::deque<PendingBatch> pending_;    // appended but not yet forced
  std::deque<uint64_t> batch_starts_;   // begin-record index of every batch
};

}  // namespace untx
