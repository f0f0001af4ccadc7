// BufferPool: the DC's cache manager (§4.1.2 responsibility 3).
//
// A page may be flushed to the stable store only when:
//   (1) every DC system-transaction record it reflects is stable in the
//       DC log (WAL for SMOs): page.dlsn <= stable DC log end;
//   (2) every TC operation it reflects is on the stable TC log
//       (causality, §4.2): per-TC abLSN max <= that TC's EOSL;
//   (3) its abstract LSN can be "synced" into the page trailer by the
//       configured §5.1.2 strategy:
//         kWaitForLwm  — wait until the abLSN collapses to <LSNlw, {}>;
//                        meanwhile refuse ops with LSN beyond the in-set.
//         kStoreFull   — serialize the whole abLSN into the trailer.
//         kHybrid      — serialize once the in-set is small enough.
//
// A DC crash is BufferPool::Clear(): cached pages vanish; the stable
// store and the stable DC log survive (§5.3).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dc/ab_lsn.h"
#include "dc/dc_log.h"
#include "storage/slotted_page.h"
#include "storage/stable_store.h"
#include "util/latch.h"

namespace untx {

enum class PageSyncStrategy : uint8_t {
  kWaitForLwm = 1,
  kStoreFull = 2,
  kHybrid = 3,
};

struct BufferPoolOptions {
  size_t capacity = 1024;
  PageSyncStrategy strategy = PageSyncStrategy::kStoreFull;
  /// kHybrid: flush once the total in-set size is at or below this.
  uint32_t hybrid_cap = 8;
};

/// One cached page. Content (data/ablsn/dirty/rec fields) is guarded by
/// `latch`; pins, recency and the clean-list links are guarded by the
/// pool mutex. `dirty` may change only while the frame is pinned.
struct Frame {
  PageId pid = kInvalidPageId;
  std::vector<char> data;
  Latch latch;
  PageAbLsn ablsn;
  bool dirty = false;
  /// First TC op LSN applied since the frame was last clean (0 = none).
  Lsn first_op_lsn = 0;
  /// First SMO dLSN applied since the frame was last clean (0 = none);
  /// bounds how far the DC log can be truncated at a DC checkpoint.
  DLsn rec_dlsn = 0;
  /// True while a flush is parked waiting for the abLSN to shrink
  /// (strategy 1/3). Writes beyond the in-set must stall (§5.1.2(1)).
  bool flush_waiting = false;
  /// Set (under the exclusive latch) when an SMO merged this page away.
  /// Anyone who latches the frame afterwards must release and re-descend.
  bool retired = false;
  /// Set (under the exclusive latch) on a frame a TC reset must drop. If
  /// a reader holds it past the reset's deadline it stays cached until
  /// the next reset drops it, and must never be flushed meanwhile.
  bool reset_stale = false;

  // Pool-mutex-guarded bookkeeping.
  int pins = 0;
  uint64_t last_use = 0;
  /// Links in the pool's clean-victim list (see BufferPool).
  Frame* clean_prev = nullptr;
  Frame* clean_next = nullptr;
  bool on_clean_list = false;

  SlottedPage Page(uint32_t page_size, uint32_t trailer_capacity) {
    return SlottedPage(data.data(), page_size, trailer_capacity);
  }
};

struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t flushes = 0;
  uint64_t flush_deferrals = 0;  ///< flush attempts parked by strategy
  uint64_t evictions = 0;
  uint64_t overflows = 0;        ///< frames beyond configured capacity
  uint64_t trailer_bytes_written = 0;
};

class BufferPool {
 public:
  BufferPool(StableStore* store, DcLog* dc_log, BufferPoolOptions options);

  uint32_t page_size() const { return store_->page_size(); }
  uint32_t trailer_capacity() const { return store_->trailer_capacity(); }

  /// Pins the frame for `pid`, reading it from the store if absent
  /// (decoding the trailer into the in-memory abLSN). kNotFound if the
  /// page does not exist on the store.
  Status Fetch(PageId pid, Frame** out);

  /// Pins a new frame for a freshly allocated page. The caller formats
  /// the page and marks the frame dirty before unpinning.
  Frame* Create(PageId pid);

  void Unpin(Frame* frame);

  /// Removes the frame without flushing, waiting up to `timeout_ms` for
  /// its pins to drain. OK when the page is (now) not cached; TimedOut
  /// when a pin outlives the deadline, and the frame stays cached.
  Status Drop(PageId pid, uint32_t timeout_ms);

  /// Drops `pid`'s frame and frees its store page (a deferred SMO free
  /// whose DC-log batch starts at or after `dlsn`). A retired frame may
  /// still be pinned by a reader that reached it before the parent
  /// pointer went away; then both steps wait for a later ForceDcLog, so
  /// the store never recycles a pid whose frame is still cached.
  void FreePage(PageId pid, DLsn dlsn);

  /// Lowest dLSN a pending free needs kept in the DC log (kInvalidDLsn
  /// if none). A pending free is volatile: after a crash only DC-log
  /// replay re-executes it, so a DC checkpoint must not truncate its
  /// batch away.
  DLsn OldestPendingFreeDlsn() const;

  /// Forces eligible DC-log batches and executes their deferred page
  /// frees against the store (consolidation, §5.2.2 "Page Deletes"),
  /// retrying frees an earlier call had to keep pending.
  void ForceDcLog();

  /// Attempts to flush one frame; the caller must hold its exclusive
  /// latch. Returns kBusy when a WAL/causality/strategy gate defers it.
  Status TryFlushLocked(Frame* frame);

  /// Flushes every dirty frame currently eligible. Returns the number of
  /// frames that remain dirty.
  size_t FlushAllEligible();

  /// Control-message sinks.
  void OnEndOfStableLog(TcId tc, Lsn eosl);
  /// False (and ignored) while the TC's LWM contract is not armed.
  bool OnLowWaterMark(TcId tc, Lsn lwm);

  /// LWM validity protocol (a rule derived here, not stated in the
  /// paper): after any DC state regression (crash-revert or TC-reset), a
  /// TC's low-water mark describes executions whose page effects may have
  /// been discarded, so folding it into abLSNs would wrongly mark
  /// un-reapplied operations as covered. The DC ignores a TC's LWM until
  /// that TC re-arms it with restart-end after completing its redo resend.
  void AllowLwm(TcId tc);
  void DisallowLwm(TcId tc);
  bool LwmAllowed(TcId tc) const;

  /// True when every TC this DC serves has completed its redo resend.
  /// Page consolidations must wait for this (see DataComponent::Perform):
  /// merging pages whose abLSNs were replayed from time-skewed SMO
  /// images would union a split-copied over-coverage into the very page
  /// the covered keys route to.
  bool ConsolidationSafe() const;

  Lsn eosl_for(TcId tc) const;
  Lsn lwm_for(TcId tc) const;
  std::map<TcId, Lsn> eosl_map() const;

  /// Blocks until `frame->flush_waiting` clears or timeout. The caller
  /// must NOT hold the frame latch.
  bool WaitWhileFlushWaiting(Frame* frame, uint32_t timeout_ms);

  /// Clears every parked flush (strategy-1 §5.1.2 back-pressure). Used
  /// by redo-stream replay: there the refusal can deadlock — the stream
  /// applies in strict order, so the control that would collapse the
  /// abLSN may sit BEHIND the refused op (cancel-filtering shrinks
  /// in-sets below what live history saw). Abandoning the flush is only
  /// a space/liveness trade: the page stays dirty and a later control
  /// re-arms the flush.
  void AbandonParkedFlushes();

  /// Snapshot of currently cached page ids (for reset / checkpoint scans).
  std::vector<PageId> CachedPages() const;

  /// Lowest first_op_lsn among dirty frames (kMaxLsn if none) — the TC
  /// checkpoint uses this to pick how far the RSSP may advance.
  Lsn MinDirtyFirstOpLsn() const;

  /// Drops every frame (the DC crash). Requires no pins outstanding.
  void Clear();

  size_t FrameCount() const;
  size_t DirtyCount() const;
  const BufferPoolStats& stats() const { return stats_; }

 private:
  /// Must hold mu_. Evicts one victim if over capacity.
  void MaybeEvictLocked();
  /// Must hold mu_. Every pin goes through here: the 0->1 transition
  /// takes the frame off the clean list. `touch` marks a use for LRU; a
  /// pool-internal pin (flush, LWM fold) does not count as one.
  void PinLocked(Frame* frame, bool touch);
  /// Must hold mu_. Links a clean, unpinned frame in last_use order.
  void LinkCleanLocked(Frame* frame);
  void UnlinkCleanLocked(Frame* frame);
  /// Must hold mu_. Drops pid's frame unless pinned; true if not cached.
  bool DropLocked(PageId pid);
  /// Must hold mu_. Drops and frees pid, or queues it on pending_free_.
  void FreePageLocked(PageId pid, DLsn dlsn);

  StableStore* store_;
  DcLog* dc_log_;
  BufferPoolOptions options_;

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  std::unordered_map<PageId, std::unique_ptr<Frame>> frames_;
  std::map<TcId, Lsn> eosl_;
  std::map<TcId, Lsn> lwm_;
  std::set<TcId> lwm_allowed_;
  uint64_t use_clock_ = 0;
  // The clean-victim list: exactly the frames with pins == 0 && !dirty,
  // coldest (least recently used) first, so eviction is O(1). Because
  // `dirty` changes only under a pin, testing it at the unpin that drops
  // the last pin keeps the list exact.
  Frame* clean_head_ = nullptr;
  Frame* clean_tail_ = nullptr;
  // Drop() callers waiting for a pin to drain; Unpin signals unpin_cv_
  // only when this is non-zero.
  int unpin_waiters_ = 0;
  std::condition_variable unpin_cv_;
  // Freed pids whose frame was still pinned, each with the dLSN its DC-log
  // batch starts at or after (see FreePage).
  std::vector<std::pair<PageId, DLsn>> pending_free_;
  BufferPoolStats stats_;
};

/// RAII pin holder.
class PinGuard {
 public:
  PinGuard(BufferPool* pool, Frame* frame) : pool_(pool), frame_(frame) {}
  ~PinGuard() { Release(); }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

  void Release() {
    if (frame_ != nullptr) {
      pool_->Unpin(frame_);
      frame_ = nullptr;
    }
  }

 private:
  BufferPool* pool_;
  Frame* frame_;
};

}  // namespace untx
