// DataComponent: the DC of the unbundled kernel (§4.1.2).
//
// "The DC acts as a server for requests from the TC. It is responsible
// for organizing, searching, updating, caching and durability for the
// data in the database. It supports a non-transactional, record oriented
// interface."
//
// Responsibilities implemented here:
//  * atomic logical record operations over the B-tree (page latches held
//    for the duration of one operation only);
//  * idempotence via abstract page LSNs + a volatile duplicate filter
//    (dc/duplicate_filter.h) pruned by the TC's low-water mark, so
//    resends return the original result and no two conflicting writes
//    execute at once (the TC's §1.2 obligation, reported as Conflict);
//  * record versioning (before-versions) for cross-TC read committed
//    (§6.2.2), with promote/rollback version operations;
//  * the control half of the TC:DC contract: EOSL, LWM, checkpoint,
//    restart/reset, DC-local checkpoint;
//  * crash (lose buffer pool, duplicate filter, volatile DC log) and recovery
//    (replay committed SMOs *before* any TC redo, §5.2.2);
//  * the TC-crash page reset of §5.3.2/§6.1.2: evict exactly the cached
//    pages whose abLSN covers operations beyond the failed TC's stable
//    log; on multi-TC pages, reset only the failed TC's records;
//  * per-TC redo epochs, so a restarting TC skips the redo of a DC that
//    lost nothing. The DC moves a TC to a new epoch whenever it may have
//    lost that TC's effects: a crash, a replica wipe or a promotion (every
//    TC), a reset by the TC that reverted anything (a page dropped, merged
//    or carried from an earlier reset, a DC-log batch discarded, an SMO
//    replay that rewrote a page, or a local redo-log replay), and an
//    escalation naming the TC. A kRestartEnd echoing the current epoch
//    marks the TC settled; a kRestartBegin finding it still settled
//    answers redo_intact. No TC is settled at a fresh DC.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dc/btree.h"
#include "dc/buffer_pool.h"
#include "dc/dc_api.h"
#include "dc/dc_log.h"
#include "dc/dc_redo_log.h"
#include "dc/duplicate_filter.h"
#include "storage/stable_store.h"

namespace untx {

struct DataComponentOptions {
  BufferPoolOptions buffer_pool;
  BTreeOptions btree;
  StableLogOptions dc_log;
  /// Upper bound on value size; several records must fit per page.
  uint32_t max_value_size = 1024;
  /// Default result bound for scans/probes when the request says 0.
  uint32_t default_scan_limit = 256;
  /// A parked scan cursor (a stream out of credit, or a probe
  /// stream whose TC went silent) is evicted after this long idle — the
  /// backstop for abandoned streams whose close message never arrived.
  /// Must exceed the TC's lock wait timeout: a fetch-ahead window can
  /// legitimately sit idle for a full lock wait between its probe chunk
  /// and the rewind credit.
  uint32_t scan_cursor_ttl_ms = 10000;
  /// Maintain a DcRedoLog of applied operations (PR 8): required for
  /// replication (primary or replica role) and for local --recover.
  bool redo_log_enabled = false;
  DcRedoLogOptions redo_log;
};

/// Replication role. A replica applies the primary's redo stream via
/// ApplyReplicated() and rejects direct TC traffic (it is not in any
/// TC's routing table until promoted); Promote() fences it at a
/// promotion epoch and opens it for TC traffic.
enum class DcRole : uint8_t {
  kPrimary = 0,
  kReplica = 1,
};

struct DataComponentStats {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> batches{0};          ///< PerformBatch calls
  std::atomic<uint64_t> batched_ops{0};      ///< ops arriving inside batches
  std::atomic<uint64_t> duplicate_hits{0};   ///< idempotence filter hits
  std::atomic<uint64_t> reply_cache_hits{0};
  std::atomic<uint64_t> conflicts_detected{0};
  std::atomic<uint64_t> pages_reset_dropped{0};
  std::atomic<uint64_t> pages_reset_merged{0};
  std::atomic<uint64_t> reset_escalations{0};
  /// Post-regression redo passes that overrode a stale abLSN coverage
  /// claim (split-copied / merge-unioned over-coverage on a reverted
  /// page) and re-executed the op instead.
  std::atomic<uint64_t> redo_stale_coverage_overrides{0};
  /// TC resets answered redo_intact: the restarting TC skipped its redo
  /// here.
  std::atomic<uint64_t> resets_intact{0};
  // Scan-stream cursor machinery (PR 4).
  std::atomic<uint64_t> scan_streams{0};        ///< streams opened
  std::atomic<uint64_t> scan_chunks_emitted{0};
  std::atomic<uint64_t> scan_stream_pauses{0};  ///< credit ran out
  std::atomic<uint64_t> scan_rewinds{0};        ///< validated-window re-reads
  /// Chunk productions that resumed from the cursor's pinned-leaf hint
  /// vs. those that had to re-descend (hint invalidated by an SMO, or a
  /// fresh stream).
  std::atomic<uint64_t> scan_cursor_hint_hits{0};
  std::atomic<uint64_t> scan_cursor_descends{0};
  std::atomic<uint64_t> scan_cursors_evicted{0};
  // Replication + local recovery (PR 8).
  std::atomic<uint64_t> redo_entries_appended{0};
  std::atomic<uint64_t> replica_entries_applied{0};  ///< entries absorbed from a primary
  std::atomic<uint64_t> replica_resets_replayed{0};  ///< full reset-by-replay rebuilds
  std::atomic<uint64_t> local_recovery_ops{0};       ///< ops replayed by --recover
  std::atomic<uint64_t> promotions{0};
};

class DataComponent : public DcService {
 public:
  DataComponent(StableStore* store, DataComponentOptions options = {});
  ~DataComponent() override;

  /// Formats a fresh store (meta page). Call exactly once per store.
  Status Initialize();

  /// Post-crash recovery phase 1: make the search structures well-formed
  /// by replaying committed system transactions — must complete before
  /// the TC performs redo (§5.2.2). The TC then resends from its RSSP.
  Status Recover();

  /// Simulated crash: loses the buffer pool, duplicate filter and the
  /// volatile DC-log tail. Blocks new operations until Restore().
  void Crash();

  /// Powers the component back up (still needs Recover()).
  void Restore();

  bool crashed() const { return crashed_.load(); }

  // -- DcService ------------------------------------------------------------
  OperationReply Perform(const OperationRequest& req) override;
  ControlReply Control(const ControlRequest& req) override;

  /// Batched entry point for the kOperationBatch wire message: performs
  /// the ops in request order (a resent batch is answered from the
  /// duplicate filter) and forces the redo log once for all of them.
  std::vector<OperationReply> PerformBatch(
      const std::vector<OperationRequest>& reqs) override;

  /// Credited, cursor-holding scan streams: production pauses when the
  /// chunk window (ScanStreamRequest::credit_chunks) is exhausted and the
  /// stream parks as a DC-side cursor — resume key + leaf hint — so a
  /// later kScanCredit resumes WITHOUT re-descending the B-tree (the hint
  /// is validated against SMO retirement and falls back to a descent).
  /// Cursors are evicted on stream completion, an explicit close credit,
  /// the owning TC's reset, DC crash, or the idle TTL. A request with a
  /// zero window is malformed: it gets one done chunk carrying
  /// InvalidArgument and no cursor.
  void PerformScanStream(const ScanStreamRequest& req,
                         const ScanChunkEmitter& emit) override;
  void ScanCredit(const ScanCreditRequest& req,
                  const ScanChunkEmitter& emit) override;

  /// Open (parked or in-production) scan cursors. For tests.
  size_t ScanCursorCount() const;
  /// A TC's network session dropped: evict its parked scan cursors (a
  /// reconnecting TC restarts streams from scratch). The duplicate
  /// filter is deliberately KEPT — the TC will resend in-flight ops after
  /// the redial and idempotence depends on the stored replies; the LWM
  /// prunes them as always (§4.2).
  void OnTcDisconnect(TcId tc);
  /// Evicts cursors idle longer than the TTL; returns how many. Runs
  /// implicitly on every stream open / credit; exposed for tests.
  size_t EvictIdleScanCursors();

  // -- Replication & local recovery (PR 8) -----------------------------------

  DcRole role() const { return role_.load(); }
  uint64_t promotion_epoch() const { return promotion_epoch_.load(); }
  /// Redo end at the moment of promotion — the rlsn a rejoining
  /// ex-primary truncates its own log back to.
  uint64_t promotion_base() const { return promotion_base_.load(); }

  /// Puts the DC into replica role (before any traffic). It will only
  /// mutate through ApplyReplicated() until promoted.
  void StartAsReplica();

  /// Fences the replica at `epoch` and opens it as the primary. The
  /// replies stored while applying the stream answer in-flight TC
  /// resends idempotently, so a caught-up standby promotes with zero
  /// full redo-resend.
  void Promote(uint64_t epoch);

  /// A recovered ex-primary rejoining as a replica of the new primary:
  /// drops its redo suffix past the promotion base (that suffix may
  /// contain ops the new primary never acked and orders differently)
  /// and re-enters replica role. The overlap the new primary re-ships
  /// is absorbed by abLSN duplicate detection.
  Status RejoinAsReplica(uint64_t promotion_base);

  /// Applies one shipped batch (replica role). Entries must extend the
  /// local log densely: a gap returns InvalidArgument and the caller
  /// re-subscribes from redo_log()->end() + 1. Appends each entry to
  /// the local redo log (same rlsn as the primary) and forces once.
  Status ApplyReplicated(const ReplicaEntriesMessage& msg);

  /// Local recovery from the DC's own durable state (untx_dcd
  /// --recover): call after Recover(), with the store's pages loaded
  /// from disk. Replays the cancel-filtered op log from rlsn 1; ops
  /// already reflected in checkpointed pages are skipped by abLSN
  /// duplicate detection, so the pass is cheap when checkpoints are
  /// fresh. TCs then resend only unacknowledged in-flight suffixes.
  Status RecoverFromLocalLog(uint64_t* replayed_out = nullptr);

  // -- Introspection (tests, benches, wired deployments) ---------------------
  BufferPool* pool() { return pool_.get(); }
  BTree* btree() { return btree_.get(); }
  DcLog* dc_log() { return dc_log_.get(); }
  DcRedoLog* redo_log() { return redo_log_.get(); }
  StableStore* store() { return store_; }
  const DataComponentStats& stats() const { return stats_; }
  const DataComponentOptions& options() const { return options_; }
  /// Whether `tc` is settled here: a redo pass of the current epoch
  /// completed, so this DC holds every op of the TC's log.
  bool RedoSettled(TcId tc) const;

 private:
  struct ApplyOutcome {
    bool need_split = false;
    bool need_flush_wait = false;
    bool need_retry = false;
    bool maybe_consolidate = false;
    std::string consolidate_key;
  };

  /// The Perform body. `record_redo`: append logically-completed writes
  /// to the redo log (false on replica apply and local replay — those
  /// manage the log themselves). `defer_redo_force`: skip the per-op
  /// Force (the caller forces once for the whole batch).
  OperationReply PerformImpl(const OperationRequest& req, bool record_redo,
                             bool defer_redo_force);
  /// Appends `req` to the redo log and stamps reply->rlsn if the reply
  /// is a non-duplicate logical completion (the abLSN advanced).
  void MaybeAppendRedo(const OperationRequest& req, OperationReply* reply,
                       bool record, bool defer_force);
  /// Appends a control entry (reset / lwm / eosl / watermark) and forces
  /// it — control entries are low-rate and must never ship volatile.
  void AppendRedoControl(RedoEntryKind kind, TcId tc, uint64_t lsn);
  /// The replica's response to a kReset entry: full wipe (store, SMO
  /// log, tree) + cancel-filtered replay of the retained redo log. The
  /// primary resets by dropping exactly the covered pages, but the
  /// replica's page/flush history diverges from the primary's, so the
  /// per-page protocol does not transfer — rebuilding from the filtered
  /// history does.
  Status ReplicaResetByReplay();
  /// Applies one redo entry without touching the redo log (the caller
  /// owns append/force bookkeeping). kReset is a no-op here.
  Status ApplyOneReplicated(const RedoEntry& entry);
  /// Applies a replay set in order; counts op entries into *ops.
  Status ReplayRedoEntries(const std::vector<RedoEntry>& entries,
                           uint64_t* ops);

  OperationReply ApplyOnce(const OperationRequest& req, ApplyOutcome* out);
  OperationReply DoRead(const OperationRequest& req);
  OperationReply DoScan(const OperationRequest& req);

  /// One open scan stream's DC-side state. `mu` serializes chunk
  /// production (two server threads may race a credit and the original
  /// request); the table mutex only guards lookup/insert/erase.
  struct ScanCursor {
    ScanStreamRequest req;
    std::mutex mu;
    std::string resume_key;
    bool resume_exclusive = false;
    uint64_t emitted_rows = 0;
    uint32_t next_chunk = 0;
    /// Absolute chunk window: chunks [0, allowed) may be produced.
    uint32_t allowed = 0;
    /// Last leaf the cursor stopped in — the latch-coupled resume hint.
    PageId leaf_hint = kInvalidPageId;
    /// Atomic: checked by the table-maintenance paths without mu.
    std::atomic<bool> exhausted{false};
    /// Steady-clock millis; atomic so the TTL sweep can read it while a
    /// producer holds mu.
    std::atomic<int64_t> last_active_ms{0};
  };

  /// Produces chunks for `cursor` until its credit window or the range
  /// is exhausted, applying an optional rewind first, and unregisters a
  /// finished plain stream before emitting its done chunk. Holds
  /// cursor->mu and takes cursor_mu_ inside it (nothing takes them in the
  /// other order).
  void ProduceScanChunks(const std::shared_ptr<ScanCursor>& cursor,
                         const ScanChunkEmitter& emit,
                         const ScanCreditRequest* credit);

  /// Reads one window from (start, start_exclusive) bounded by
  /// `end_bound` (exclusive; empty = unbounded) into `chunk`, using and
  /// updating the cursor's leaf hint. Sets *exhausted when the range
  /// ended inside this window, and advances the cursor's resume
  /// position past the window (to next_key inclusively when the probe
  /// peeked one, else past the last read key). Caller holds cursor->mu.
  void ReadScanWindow(ScanCursor* cursor, std::string start,
                      bool start_exclusive, const std::string& end_bound,
                      uint32_t max_rows, bool peek_next,
                      ScanStreamChunk* chunk, bool* exhausted);

  void EvictScanCursorsForTc(TcId tc);
  void ClearScanCursors();

  /// Write-op application on a latched leaf. Returns the reply; sets
  /// outcome flags for split/consolidate needs.
  OperationReply ApplyWriteOnLeaf(const OperationRequest& req, Frame* leaf,
                                  ApplyOutcome* out);

  /// The first key after the gap at `slot` of the exclusively latched
  /// `leaf`, appended to `keys` (nothing appended = EOF). Walks right
  /// siblings, latch-coupled left to right, only when the gap ends at the
  /// leaf's end. False if a sibling could not be read (retry the op).
  bool NextKeyAfterGap(Frame* leaf, uint16_t slot,
                       std::vector<std::string>* keys);

  Status DoTcCheckpoint(TcId tc, Lsn new_rssp);
  Status DoDcCheckpoint();
  /// TC-crash reset (§5.3.2). Fills `escalate` even when it fails. A
  /// page a reader holds past the drop deadline makes it return TimedOut
  /// with that page still cached; everything else is done, and a retried
  /// reset drops the page (escalating the TCs with effects on it then).
  Status DoReset(TcId tc, Lsn stable_end, std::vector<TcId>* escalate);

  /// Per-record reset of a multi-TC page against its stable version
  /// (§6.1.2). Caller holds the exclusive latch. Returns false if the
  /// merge could not be performed (caller escalates).
  bool MergeResetLocked(Frame* frame, TcId tc, const std::vector<char>& stable);

  StableStore* store_;
  DataComponentOptions options_;
  std::unique_ptr<DcLog> dc_log_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> btree_;
  std::unique_ptr<DcRedoLog> redo_log_;  // null unless redo_log_enabled

  std::atomic<DcRole> role_{DcRole::kPrimary};
  std::atomic<uint64_t> promotion_epoch_{0};
  std::atomic<uint64_t> promotion_base_{0};
  /// True while the DC's state provably reflects every durable redo-log
  /// entry (normal operation, successful local replay, replica apply).
  /// False after a crash or when a log was loaded from disk without a
  /// replay — kQueryReplication then reports rlsn 0 and TCs degrade to
  /// the full redo-resend instead of trusting a stale prefix.
  std::atomic<bool> redo_state_current_{true};

  /// Ends an operation counted in active_ops_; wakes a draining Crash().
  void EndActiveOp();

  std::atomic<bool> crashed_{false};
  std::atomic<int> active_ops_{0};
  /// Pages a failed TC reset left cached (see DoReset); the next reset
  /// drops them first.
  std::mutex reset_mu_;
  std::set<PageId> reset_undropped_;

  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  /// Every write passes it: one execution per (tc, lsn), one reply for
  /// all of its copies.
  DuplicateFilter filter_;

  mutable std::mutex cursor_mu_;
  std::map<std::pair<TcId, uint64_t>, std::shared_ptr<ScanCursor>> cursors_;

  /// One TC's redo state, guarded by redo_mu_.
  struct TcRedo {
    /// High-water mark of lsns re-executed by the CURRENT
    /// post-regression redo pass (tracked only while the TC's LWM is
    /// disallowed, i.e. between a state regression and the TC's
    /// restart-end); 0 = none. Reset whenever a new regression begins.
    Lsn fresh_max = 0;
    /// The TC's redo epoch; 0 = redo_epoch_floor_.
    uint64_t epoch = 0;
    /// A redo pass of `epoch` completed (kRestartEnd echoed it).
    bool settled = false;
  };
  /// The TC's current redo epoch. Caller holds redo_mu_.
  uint64_t RedoEpochLocked(TcId tc) const;
  /// The DC may have lost `tc`'s effects: a new epoch, not settled, and
  /// a fresh redo high-water mark. Caller holds redo_mu_.
  void BumpRedoEpochLocked(TcId tc);
  /// The same for every TC (crash, wipe, promotion). Caller holds
  /// redo_mu_.
  void BumpAllRedoEpochsLocked();

  mutable std::mutex redo_mu_;
  std::map<TcId, TcRedo> redo_tcs_;
  /// The last epoch handed out, and the epoch of every TC without one of
  /// its own (raised by BumpAllRedoEpochsLocked). Epoch 0 is never used:
  /// a kRestartEnd carrying it settles nothing.
  uint64_t redo_epoch_clock_ = 1;
  uint64_t redo_epoch_floor_ = 1;
  /// Serializes recovery-resend execution: the channel can duplicate a
  /// redo batch, and two copies interleaving on the server threads
  /// would re-execute ops out of LSN order. Recursive because
  /// PerformBatch holds it for the whole batch and delegates per-op to
  /// Perform, which also takes it.
  std::recursive_mutex recovery_serial_mu_;

  DataComponentStats stats_;
};

}  // namespace untx
