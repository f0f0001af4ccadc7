// B-tree access method inside the DC (§4.1.2 responsibility 2).
//
// "For a structure like a B-tree, where a logical operation may lead to
// re-arrangements that affect multiple physical pages, the maintenance of
// indices must be done using system transactions that are not related in
// any way to user-invoked transactions known to the TC."
//
// Concurrency: operations descend with latch coupling (parent latched
// shared until the child is latched); structure modifications serialize
// on a per-DC SMO mutex, re-descend with exclusive latches and log one
// atomic DC-log batch (§5.2.2):
//   split       -> logical SplitOld{split key} for the pre-split page +
//                  physical image (with abLSN) for the new page +
//                  physical images for modified ancestors.
//   consolidate -> physical image of the surviving page with the merged
//                  (max/union) abLSN + PageFree for the deleted page +
//                  physical image of the parent.
//
// The table catalog (table id -> root page) lives in a meta page and is
// mirrored by an in-memory root cache rebuilt at recovery.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/status_or.h"
#include "common/types.h"
#include "dc/buffer_pool.h"
#include "dc/dc_log.h"
#include "dc/record_format.h"
#include "storage/stable_store.h"

namespace untx {

struct BTreeOptions {
  /// Consolidate a leaf whose fill fraction drops below this.
  double consolidate_threshold = 0.20;
};

struct BTreeStats {
  uint64_t splits = 0;
  uint64_t consolidates = 0;
  uint64_t root_splits = 0;
  uint64_t height_shrinks = 0;
};

class BTree {
 public:
  BTree(StableStore* store, BufferPool* pool, DcLog* dc_log,
        BTreeOptions options = {});

  /// Formats the meta (catalog) page on a fresh store. The meta page id
  /// is the store's first allocation, so recovery can find it again.
  Status Bootstrap();

  /// Reloads the root cache from the (recovered) meta page.
  Status RebuildRootCache();

  /// Creates a table: allocates a root leaf and catalogs it, as one
  /// logged system transaction. kAlreadyExists if present.
  Status CreateTable(TableId table);

  /// Root page of a table, or kNotFound.
  StatusOr<PageId> GetRoot(TableId table) const;

  /// Descends to the leaf that owns `key`. On success the leaf frame is
  /// pinned and latched (exclusive or shared); the caller must unlatch
  /// and unpin. Retries internally across concurrent root changes.
  Status LocateLeaf(TableId table, Slice key, bool exclusive, Frame** out);

  /// Splits the leaf owning `key` (and any full ancestors) so that a
  /// payload of `needed` bytes can be inserted. No-op if space appeared
  /// in the meantime. Runs as one system transaction. A key past every
  /// key on the leaf moves only the last record right (append split);
  /// other keys split the leaf at its payload midpoint.
  Status SplitForInsert(TableId table, Slice key, size_t needed);

  /// Consolidates the leaf owning `key` with a sibling if it is under
  /// the fill threshold and the merge fits. Runs as one system
  /// transaction. Returns OK even when no merge was performed.
  Status TryConsolidate(TableId table, Slice key);

  /// Applies all committed system-transaction batches from the stable DC
  /// log (dLSN-guarded, idempotent) — the FIRST phase of DC recovery,
  /// which must complete before any TC redo (§5.2.2). Also used by the
  /// TC-crash page reset to restore evicted structure pages. `rewritten`
  /// (optional) counts the pages the replay changed.
  Status ReplayStableSmoBatches(size_t* rewritten = nullptr);

  PageId meta_page_id() const { return meta_pid_; }
  const BTreeStats& stats() const { return stats_; }

  // -- In-page search helpers (exposed for the DataComponent & tests) ----
  /// Lower bound over leaf records; *found true on exact match.
  static uint16_t LeafLowerBound(const SlottedPage& page, Slice key,
                                 bool* found);
  /// Index of the child subtree owning `key` in an internal node.
  static uint16_t InternalChildIdx(const SlottedPage& page, Slice key);

  /// Validates tree structure for table: key order inside pages,
  /// separator consistency, leaf chain monotonicity. For tests.
  Status CheckInvariants(TableId table) const;

 private:
  struct PathEntry {
    Frame* frame;
    uint16_t child_idx;
  };

  SlottedPage PageOf(Frame* frame) const {
    return SlottedPage(frame->data.data(), pool_->page_size(),
                       pool_->trailer_capacity());
  }

  /// Descends with exclusive latches, returning the latched path
  /// root..leaf. Caller must release via ReleasePath.
  Status DescendExclusive(TableId table, Slice key,
                          std::vector<PathEntry>* path, Frame** leaf);
  void ReleasePath(std::vector<PathEntry>* path);

  /// Captures a physical-image DC-log record for a mutated page.
  DcLogRecord MakeImageRecord(Frame* frame) const;
  /// Folds a frame's abLSN into a batch causality floor.
  static void FoldFloor(const PageAbLsn& ablsn, std::map<TcId, Lsn>* floor);

  Status SetRootInMeta(TableId table, PageId root,
                       std::vector<DcLogRecord>* recs,
                       std::map<TcId, Lsn>* floor);

  Status LoadRootCache();

  StableStore* store_;
  BufferPool* pool_;
  DcLog* dc_log_;
  BTreeOptions options_;
  PageId meta_pid_ = kInvalidPageId;

  /// Serializes all structure modifications on this DC.
  std::mutex smo_mu_;

  mutable std::mutex root_mu_;
  std::map<TableId, PageId> root_cache_;

  BTreeStats stats_;
};

}  // namespace untx
