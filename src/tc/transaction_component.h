// TransactionComponent: the TC of the unbundled kernel (§4.1.1).
//
// The TC owns everything transactional and nothing physical:
//   1. transactional locking (LockManager; record, range-partition and
//      EOF-sentinel locks — never pages), two range protocols per §3.1;
//   2. transaction atomicity: commit, or rollback via inverse logical
//      operations (CLR-logged so repeated crashes during undo are safe);
//   3. logical undo/redo logging with LSNs reserved before dispatch and
//      records sealed when the DC reply returns the undo image;
//   4. log forcing for durability (optionally group commit).
//
// Contract machinery (§4.2): unique request ids (LSNs), resend until
// acknowledged, EOSL/LWM pushes, checkpoint (RSSP advancement), restart.
//
// Failure model (§5.3): Crash() loses the volatile log tail and all
// transaction state; Restart() scans the stable log once (analysis plus
// the per-DC redo index), resets each DC (which evicts exactly the pages
// reflecting lost operations), replays redo by resending logged
// operations from the RSSP in per-DC LSN order — one concurrent stream
// per DC, skipping a DC whose reset answers that it lost nothing since
// the TC's last completed redo pass there — then undoes loser
// transactions logically. A DC crash is
// handled by OnDcRestart: redo-resend from the RSSP to that DC, then
// normal traffic resumes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "common/types.h"
#include "dc/dc_api.h"
#include "tc/dc_client.h"
#include "tc/lock_manager.h"
#include "tc/tc_log.h"
#include "util/node_pool.h"
#include "util/repeating_thread.h"
#include "util/sync.h"
#include "wal/stable_log.h"

namespace untx {

/// Which §3.1 protocol guards ranges (and, for kPartition, everything).
enum class RangeLockProtocol : uint8_t {
  /// Speculative probe -> lock returned keys (+ fencepost) -> validated
  /// read; inserts take an instant next-key lock. Fine-grained.
  kFetchAhead = 0,
  /// Static partition locks over the key space; coarse, fewer locks,
  /// less concurrency.
  kPartition = 1,
};

/// Key-space partitioning for RangeLockProtocol::kPartition. Partition i
/// covers [boundaries[i-1], boundaries[i]) with open ends at both sides;
/// an empty boundary list means one whole-table lock.
struct RangePartitionConfig {
  std::vector<std::string> boundaries;  // sorted ascending

  uint32_t PartitionOf(const std::string& key) const;
  /// Inclusive partition index range overlapping [from, to); empty `to`
  /// means +infinity.
  std::pair<uint32_t, uint32_t> Overlapping(const std::string& from,
                                            const std::string& to) const;
  uint32_t Count() const {
    return static_cast<uint32_t>(boundaries.size()) + 1;
  }
};

struct TcOptions {
  TcId tc_id = 1;
  LockManagerOptions locks;
  RangeLockProtocol range_protocol = RangeLockProtocol::kFetchAhead;
  RangePartitionConfig partitions;
  /// Keep before-versions on writes for cross-TC read committed (§6.2.2).
  bool versioning = false;
  uint32_t resend_interval_ms = 100;
  uint32_t control_interval_ms = 20;
  uint32_t op_timeout_ms = 20000;
  uint32_t commit_timeout_ms = 20000;
  uint32_t fetch_ahead_batch = 32;
  /// Backpressure: cap on outstanding (submitted, not yet acknowledged)
  /// pipelined operations per (transaction, DC). A Submit* at the cap
  /// blocks until the window drains, then returns Busy after
  /// op_timeout_ms. 0 = unbounded (the pre-cap behavior).
  uint32_t max_outstanding_ops = 256;
  /// Recovery redo-resend ships ordered kOperationBatch messages of at
  /// most this many operations per DC round trip (1 = the sequential
  /// one-op-per-trip protocol).
  uint32_t recovery_batch_ops = 64;
  /// Commit-time version promotion (§6.2.2) ships kPromoteVersion ops as
  /// kOperationBatch messages of at most this many per DC round trip, so
  /// a K-key versioned commit costs ceil(K / promote_batch_ops) messages
  /// instead of K (1 = the old one-blocking-trip-per-key protocol).
  uint32_t promote_batch_ops = 64;
  /// Rows per streamed-scan chunk (0 = the DC default). ScanShared and
  /// partition-protocol scans open one kScanStream request per range.
  uint32_t scan_stream_chunk = 128;
  /// Scan-stream flow control, >= 1: the DC may run at most this many
  /// chunks ahead of the TC cursor's consumption (kScanCredit replenishes
  /// the window as chunks drain), bounding reply-channel memory to
  /// credit × chunk size for arbitrarily large scans. The DC rejects a
  /// zero window with InvalidArgument.
  uint32_t scan_credit_chunks = 4;
  /// Fetch-ahead protocol: a write that may create a key instant-locks
  /// the next key first, so serializable scans are phantom-safe. An
  /// insert probes the gap, then writes: 2 DC round trips. An upsert
  /// tries the key in place: 1 trip when it is present, and 2 when it is
  /// absent (the DC refuses and names the next key, then the plain
  /// upsert follows). Off: every write is 1 trip.
  bool insert_phantom_protection = true;
  bool group_commit = false;
  /// Idle backstop cadence of the group-commit forcer (clamped to >=
  /// 1ms). Committers wake the forcer on demand, so commit latency does
  /// NOT depend on this interval.
  uint32_t group_commit_interval_us = 200;
  StableLogOptions log;
  /// Tests may drive resend/control pushes by hand.
  bool start_daemons = true;
};

struct TcStats {
  std::atomic<uint64_t> txns_begun{0};
  std::atomic<uint64_t> txns_committed{0};
  std::atomic<uint64_t> txns_aborted{0};
  std::atomic<uint64_t> deadlocks{0};
  std::atomic<uint64_t> ops_sent{0};
  std::atomic<uint64_t> resends{0};
  std::atomic<uint64_t> recoveries{0};
  std::atomic<uint64_t> checkpoints{0};
  /// Gap round trips: insert probes plus refused in-place upserts (an
  /// upsert answered in place is not one).
  std::atomic<uint64_t> probes{0};
  /// Replies the DC answered from its idempotence machinery instead of
  /// executing (OperationReply::was_duplicate) — resend/duplication cost.
  std::atomic<uint64_t> dup_replies{0};
  /// Submits that blocked on the per-(txn, DC) outstanding-op cap.
  std::atomic<uint64_t> backpressure_waits{0};
  /// Redo operations resent by recovery paths (TC restart, DC recovery,
  /// §6.1.2 escalation).
  std::atomic<uint64_t> recovery_resent_ops{0};
  /// Wire messages that carried them — with batching, msgs << ops.
  std::atomic<uint64_t> recovery_resend_msgs{0};
  /// Redo operations NOT resent because the revived DC (a promoted
  /// standby or a locally-recovered primary) already held their redo-log
  /// entry — the suffix-only resend of PR 8.
  std::atomic<uint64_t> suffix_skipped_ops{0};
  /// Streamed scans opened (one request message each per attempt).
  std::atomic<uint64_t> scan_streams{0};
  /// In-order chunks consumed and rows they delivered.
  std::atomic<uint64_t> scan_chunks{0};
  std::atomic<uint64_t> scan_rows{0};
  /// Stream re-issues after a lost/late chunk (resume from last key).
  std::atomic<uint64_t> scan_restarts{0};
  /// Flow control: kScanCredit messages sent, and credits re-sent on a
  /// stall (a lost credit must not wedge the stream).
  std::atomic<uint64_t> scan_credits_sent{0};
  std::atomic<uint64_t> scan_credit_resends{0};
  /// Fetch-ahead fold: windows whose validated read was served from the
  /// DC-side stream cursor (a rewind chunk).
  std::atomic<uint64_t> scan_validated_windows{0};
  /// Fetch-ahead scans: the prefetched next-window probe had already
  /// completed when awaited — the probe round trip fully overlapped the
  /// lock/validate work of the previous window.
  std::atomic<uint64_t> scan_prefetch_hits{0};
  /// Commit-time version promotion: ops shipped and the batch messages
  /// that carried them (msgs = ceil(K / promote_batch_ops) per commit).
  std::atomic<uint64_t> promote_ops{0};
  std::atomic<uint64_t> promote_batches{0};
  /// Group-commit forcer wakeups triggered on demand by a waiting
  /// committer (vs the periodic interval tick).
  std::atomic<uint64_t> group_commit_wakes{0};
  /// Restart stage clocks, cumulative microseconds: the analysis scan
  /// (which also builds the redo index) and the DC resets.
  std::atomic<uint64_t> restart_analyze_us{0};
  std::atomic<uint64_t> restart_reset_us{0};
  /// Wall time spent shipping redo streams, on every redo path (TC
  /// restart, DC recovery, §6.1.2 escalation).
  std::atomic<uint64_t> redo_ship_us{0};
  /// DCs whose restart redo was skipped because their reset answered
  /// redo_intact: they already held every op of the stable log.
  std::atomic<uint64_t> restart_redo_skipped_dcs{0};
};

struct DcBinding {
  DcId id;
  DcClient* client;
};

/// Routes a (table, key) to the DC holding it. Defaults to the first DC.
using Router = std::function<DcId(TableId, const std::string&)>;

class TransactionComponent {
 private:
  struct OutstandingOp;  // defined below; OpHandle needs the declaration

 public:
  /// Handle to one submitted (pipelined) operation. Obtained from the
  /// Submit* family, consumed by Await / AwaitAll. Copyable; awaiting the
  /// same operation twice is harmless (the result is harvested once).
  class OpHandle {
   public:
    OpHandle() = default;
    /// True if the operation made it onto the wire (an LSN was assigned).
    /// False handles carry the submit-time failure (e.g. a lock denial),
    /// which Await returns.
    bool submitted() const { return op_ != nullptr; }

   private:
    friend class TransactionComponent;
    std::shared_ptr<OutstandingOp> op_;
    Status submit_status_;
  };

  TransactionComponent(TcOptions options, std::vector<DcBinding> dcs,
                       Router router = nullptr);
  ~TransactionComponent();

  Status Start();
  void Stop();

  // -- Transactions -----------------------------------------------------------
  StatusOr<TxnId> Begin();
  Status Commit(TxnId txn);
  /// Rolls the txn back and releases its locks. While one of its ops is
  /// still unanswered (its DC is down) or an undo op fails, returns the
  /// error and keeps the txn open with its locks held: call again.
  Status Abort(TxnId txn);

  Status Read(TxnId txn, TableId table, const std::string& key,
              std::string* value);
  Status Insert(TxnId txn, TableId table, const std::string& key,
                const std::string& value);
  Status Update(TxnId txn, TableId table, const std::string& key,
                const std::string& value);
  Status Delete(TxnId txn, TableId table, const std::string& key);
  Status Upsert(TxnId txn, TableId table, const std::string& key,
                const std::string& value);
  /// Serializable range scan over [from, to) (empty to = unbounded),
  /// bounded by limit (0 = no bound beyond the DC default batching).
  Status Scan(TxnId txn, TableId table, const std::string& from,
              const std::string& to, uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out);

  // -- Pipelined asynchronous surface (§4.2.1: "in a cloud environment
  // asynchronous messages might be used") ------------------------------------
  //
  // Submit* acquires locks, reserves the LSN, registers the outstanding
  // op and fires it without waiting for the DC. Queued ops bound for the
  // same DC coalesce into one batched channel message (explicit flush on
  // Await, plus the transport's small coalescing window). Await blocks on
  // one handle; AwaitAll drains every pending op of a transaction.
  // Commit/Abort/Scan AwaitAll internally, so a submit with no explicit
  // await is still accounted for. Within a transaction, ops against the
  // same key stay ordered (a conflicting submit awaits its predecessor —
  // the §1.2 obligation that no two conflicting operations are in flight).
  OpHandle SubmitRead(TxnId txn, TableId table, const std::string& key);
  OpHandle SubmitInsert(TxnId txn, TableId table, const std::string& key,
                        const std::string& value);
  OpHandle SubmitUpdate(TxnId txn, TableId table, const std::string& key,
                        const std::string& value);
  OpHandle SubmitDelete(TxnId txn, TableId table, const std::string& key);
  /// Under fetch-ahead phantom protection an upsert waits for one DC
  /// round trip: it is tried in place, and only an absent key's refusal
  /// leads to a gap lock and a plain upsert (see insert_phantom_protection).
  OpHandle SubmitUpsert(TxnId txn, TableId table, const std::string& key,
                        const std::string& value);

  /// Waits for one submitted operation and returns its logical status.
  /// For reads, `value` (if non-null) receives the record value on OK.
  Status Await(OpHandle* handle, std::string* value = nullptr);

  /// Flushes every coalescing client and waits for all pending operations
  /// of `txn`, in submission (LSN) order. Returns the first non-OK
  /// operation status; OK for a transaction with nothing pending.
  Status AwaitAll(TxnId txn);

  /// DDL; idempotent. `routing_key` selects which DC hosts the table's
  /// partition (a table spanning DCs is created once per DC with a key
  /// hint from each partition — Figure 2's Movies/Reviews layout).
  Status CreateTable(TableId table, const std::string& routing_key = "");

  // -- Cross-TC shared reads (§6.2): no locks, no transaction ----------------
  Status ReadShared(TableId table, const std::string& key, ReadFlavor flavor,
                    std::string* value);
  Status ScanShared(TableId table, const std::string& from,
                    const std::string& to, uint32_t limit, ReadFlavor flavor,
                    std::vector<std::pair<std::string, std::string>>* out);

  // -- Contract drivers --------------------------------------------------------
  /// Forces the log and pushes EOSL/LWM to every DC (the control daemon
  /// does this periodically; exposed for tests and deterministic benches).
  void PushControls();

  /// Advances the redo scan start point: force, EOSL, checkpoint each DC,
  /// log a checkpoint record, truncate the log (§4.2 contract
  /// termination). Busy while a DC is down or replaying its redo (or went
  /// down during the checkpoint): the DC's pages do not yet reflect the
  /// redo, and truncation could drop records the redo still has to ship.
  Status TakeCheckpoint();

  // -- Failures ---------------------------------------------------------------
  /// TC crash: loses the volatile log tail, all transaction state, all
  /// locks, all outstanding operations.
  void Crash();

  /// TC restart (§5.3.2): reset DCs, redo-resend from RSSP to every DC
  /// whose reset did not answer redo_intact, undo losers. escalate_out
  /// (optional) collects TCs that must also resend due to multi-TC page
  /// resets (§6.1.2), also when a DC reset fails (e.g. a page stayed
  /// pinned past its drop deadline); a failed restart may be retried.
  Status Restart(std::vector<TcId>* escalate_out = nullptr);

  /// A DC went down: hold resends and streamed-scan attempts to it until
  /// OnDcRestart finishes the redo — a scan slipping in mid-redo would
  /// read a partially re-populated tree and silently end early.
  void OnDcCrash(DcId dc);

  /// A DC crashed and has been recovered (structures well-formed):
  /// redo-resend every logged operation from the RSSP routed to it.
  Status OnDcRestart(DcId dc);

  /// Resend everything from the RSSP to every DC — used when another
  /// TC's restart escalated (§6.1.2) and this TC must repopulate pages.
  Status ResendFromRssp();

  // -- Introspection ------------------------------------------------------------
  TcId id() const { return options_.tc_id; }
  Lsn stable_lsn() const { return log_.stable_end(); }
  Lsn low_water_mark() const { return log_.sealed_prefix_end(); }
  Lsn rssp() const;
  const TcStats& stats() const { return stats_; }
  /// Registered operations still awaiting a DC reply (including recovery
  /// resends in flight).
  size_t outstanding_ops();
  LockManagerStats lock_stats() const { return locks_->stats(); }
  StableLog* log() { return &log_; }
  const TcOptions& options() const { return options_; }

 private:
  struct TxnPipeline;

  struct OutstandingOp {
    /// Built once by the submitter and never written after dispatch:
    /// resends read it without a lock.
    OperationRequest request;
    TxnId txn = kInvalidTxnId;
    TcLogRecordType record_type = TcLogRecordType::kOperation;
    Lsn undo_target = kInvalidLsn;
    DcId dc = 0;
    Notification done;
    /// Moved in by the reply handler under out_mu_ (or failed by Crash())
    /// before `done` fires; read in place once `done` has fired. Harvest
    /// moves a write's before-image on into the undo chain.
    OperationReply reply;
    /// Atomic: set under out_mu_ by the reply handler, but read lock-free
    /// on fast paths (AwaitOp's flush check, prefetch-hit accounting).
    std::atomic<bool> completed{false};
    /// False for recovery resends: the log record already exists.
    bool needs_seal = true;
    /// Dispatched through the coalescing queue (Await must flush).
    bool pipelined = false;
    /// Undo info already folded into the txn state (exactly once).
    bool harvested = false;
    std::chrono::steady_clock::time_point last_send;
    /// The submitting transaction's pipeline, for a pipelined op of a
    /// known transaction: it sits in the pipeline's in-flight list from
    /// admission until its reply.
    std::shared_ptr<TxnPipeline> pipeline;
  };

  /// One transaction's pipelined ops that have not completed: its
  /// conflict gate and its backpressure window. Only ops of one
  /// transaction can conflict — the lock manager serialises the rest —
  /// so the gate scans this list alone, and a reply wakes only its own
  /// transaction's waiters. Over a direct binding an op completes inside
  /// its own submit, so the list is empty whenever a submit looks.
  struct TxnPipeline {
    std::mutex mu;
    /// Signalled whenever an in-flight op completes, and by Crash().
    std::condition_variable cv;
    /// Admitted, not yet completed ops in submission order. Raw
    /// pointers: an op leaves the list on completion while the reply
    /// handler still holds it, and Crash() empties the list.
    std::vector<OutstandingOp*> inflight;
    /// Completions so far: a waiter that dropped mu to flush can tell
    /// whether it missed a wakeup.
    uint64_t completions = 0;
    /// Set by Crash(): every waiter gives up at once.
    bool failed = false;
  };

  struct UndoEntry {
    Lsn lsn;
    OpType op;
    TableId table;
    std::string key;
    std::string before;
    bool has_before;
  };

  struct TxnState {
    TxnId id;
    std::vector<UndoEntry> undo_chain;
    /// Filled only with versioning on: the versioned commit promotes
    /// these keys (§6.2.2).
    std::vector<std::pair<TableId, std::string>> written_keys;
    /// Submitted-not-yet-harvested ops, in submission (LSN) order.
    std::vector<std::shared_ptr<OutstandingOp>> pending_ops;
    std::shared_ptr<TxnPipeline> pipeline;
  };

  DcId Route(TableId table, const std::string& key) const;
  DcClient* ClientFor(DcId dc) const;

  /// Reserves an LSN, registers the outstanding op and fires it (through
  /// the coalescing queue when pipelined). Locks must already be held for
  /// conflicting operations. Returns nullptr on failure (TC crashed,
  /// conflict-gate timeout, backpressure timeout) with the reason in
  /// *error when provided.
  std::shared_ptr<OutstandingOp> SubmitOp(OperationRequest req, TxnId txn,
                                          TcLogRecordType record_type,
                                          Lsn undo_target, bool pipelined,
                                          Status* error = nullptr);

  /// Flushes (for pipelined ops) and waits for the reply. OK means
  /// op->done fired and op->reply may be read in place.
  Status AwaitOp(const std::shared_ptr<OutstandingOp>& op);

  /// Folds a completed write reply into the transaction state (undo
  /// chain + written keys), exactly once, and drops the op from the
  /// txn's pending list. Caller has seen op->done fire.
  void HarvestReply(const std::shared_ptr<OutstandingOp>& op);

  /// Folds a done op's write reply into `state`: the undo chain takes
  /// the before-image by move (and, with versioning, written_keys the
  /// key). Caller holds txn_mu_ and has marked op harvested.
  void FoldReplyLocked(TxnState* state, OutstandingOp* op);

  /// Drops a refused if_present upsert from its txn's pending list (in
  /// O(1): it is the latest submit) and marks it harvested.
  void DropRefusedAttempt(const std::shared_ptr<OutstandingOp>& op);

  /// Admits a pipelined op into its transaction's pipeline. Two gates,
  /// checked and passed in one step under the pipeline's mutex: no
  /// conflicting op of the txn may be in flight on the same key (the
  /// §1.2 contract), and the txn may have at most max_outstanding_ops in
  /// flight to the op's DC (backpressure). TimedOut if a conflicting
  /// predecessor, Busy if the window, did not clear within the op
  /// timeout; Crashed if the TC crashed meanwhile.
  Status AdmitToPipeline(OutstandingOp* op);

  /// Takes a completed (or abandoned) op out of its pipeline and wakes
  /// the transaction's waiting submitters.
  static void LeavePipeline(OutstandingOp* op);

  /// Crash(): empties the pipeline and fails every waiter on it.
  static void FailPipeline(TxnPipeline* pipe);

  /// Submit + await: the blocking call path.
  StatusOr<OperationReply> ExecuteOp(
      OperationRequest req, TxnId txn,
      TcLogRecordType record_type = TcLogRecordType::kOperation,
      Lsn undo_target = kInvalidLsn);

  /// Shared submit path of the public Submit* family.
  OpHandle SubmitLocked(TxnId txn, OperationRequest req);

  void OnOperationReply(OperationReply reply);
  void OnControlReply(const ControlReply& reply);
  void OnScanChunk(const ScanStreamChunk& chunk);

  /// One open streamed scan: chunks are buffered by index and consumed
  /// in order; the channel may reorder, duplicate or drop them.
  struct ScanStream {
    std::mutex mu;
    std::condition_variable cv;
    std::map<uint32_t, ScanStreamChunk> chunks;
    uint32_t next_index = 0;
    bool failed = false;  // TC crashed; waiters must give up
    /// EWMA of the inter-chunk arrival gap (microseconds), updated on
    /// every delivery; drives the adaptive stall wait — a stream whose
    /// chunks arrive every 300us shouldn't sit a full resend interval
    /// before suspecting a lost credit. Guarded by mu.
    int64_t ewma_gap_us = 0;
    std::chrono::steady_clock::time_point last_arrival{};
    bool has_arrival = false;
  };

  /// The adaptive stall timeout for one wait on `stream`: 4x its EWMA
  /// inter-chunk gap, clamped to [2ms, cap] (cap = the fixed wait the
  /// protocol used before — never wait longer than the old behavior).
  static std::chrono::milliseconds StallWait(
      const std::shared_ptr<ScanStream>& stream,
      std::chrono::milliseconds cap);

  /// Drives one streamed scan over [from, to) at the routed DC,
  /// delivering rows in order to `emit_row` (return false to stop, e.g.
  /// at a row limit). Exactly-once per stable key: a lost or late chunk
  /// re-issues the stream from the last delivered key, and keys at or
  /// below it are filtered — so duplicated stream executions interleave
  /// safely. Costs one request message per attempt, however many
  /// chunks the range spans.
  Status StreamScan(
      TableId table, const std::string& from, const std::string& to,
      uint32_t limit, ReadFlavor flavor,
      const std::function<bool(const std::string&, const std::string&)>&
          emit_row);

  /// Fetch-ahead protocol over ONE probe-mode stream (§3.1 folded into
  /// the scan stream): each chunk is the speculative probe for one
  /// window (every physical key + the fencepost), the TC locks it, and
  /// the validated read is a kScanCredit REWIND served from the same
  /// DC-side cursor — zero blocking ScanRange messages. The rewind
  /// credit also grants one speculative chunk beyond the rewind, so the
  /// next window's probe flies while this window's rows are emitted.
  Status FetchAheadStreamScan(
      TxnId txn, TableId table, const std::string& from,
      const std::string& to, uint32_t limit,
      std::vector<std::pair<std::string, std::string>>* out);

  /// Waits for the next in-order chunk of `stream`. Returns OK with
  /// *got=false on a stall (chunk lost or late), non-OK when the TC
  /// crashed or the chunk carried a failure.
  Status WaitStreamChunk(const std::shared_ptr<ScanStream>& stream,
                         std::chrono::milliseconds wait,
                         ScanStreamChunk* chunk, bool* got);

  /// Blocks while `dc` is replaying its redo (scans must not read a
  /// partially re-populated tree).
  Status WaitDcReady(DcId dc, std::chrono::steady_clock::time_point deadline);

  /// Sends a control request and waits for the ack.
  StatusOr<ControlReply> ControlAwait(DcId dc, ControlRequest req,
                                      uint32_t timeout_ms);

  void ResendPass();
  /// The control daemon's tick: PushControls, then, while a checkpoint
  /// waits on DC flushes, once more after every move of the stable log
  /// end.
  void ControlPass();
  void SendToDc(const std::shared_ptr<OutstandingOp>& op, bool is_resend);

  Status LockForWrite(TxnId txn, TableId table, const std::string& key,
                      bool is_insert);
  /// Instant-locks the first of `keys` other than `key` (the table's EOF
  /// sentinel if there is none): the next-key lock of §3.1 for a gap.
  Status LockGap(TxnId txn, TableId table, const std::string& key,
                 const std::vector<std::string>& keys);
  Status LockForRead(TxnId txn, TableId table, const std::string& key);

  Status UndoTxnLocked(TxnState* state);
  Status FinishVersionedCommit(TxnId txn,
                               const std::vector<std::pair<TableId,
                                                           std::string>>&
                                   written_keys);

  /// Per DC, the log indices of its redo records in LSN order (indices
  /// only — payloads are re-read per batch, so recovery never
  /// materializes the whole redo stream).
  using RedoIndex = std::map<DcId, std::vector<uint64_t>>;

  /// The one redo rule, shared by Analyze and RedoResend: the DC that
  /// `rec` replays at, or nothing if it has no redo effect.
  std::optional<DcId> RedoTarget(const TcLogRecordView& rec,
                                 std::string* key_buf) const;

  /// Analysis pass over the stable log (for Restart). The same scan
  /// builds the redo index from the RSSP, so a restart reads the log once.
  struct AnalysisResult {
    Lsn rssp = 1;
    std::map<TxnId, TxnState> losers;
    std::map<TxnId, std::vector<std::pair<TableId, std::string>>>
        committed_pending_promote;
    std::map<TxnId, std::vector<Lsn>> undone;  // CLR undo_targets per txn
    RedoIndex redo;
  };
  Status Analyze(AnalysisResult* out);

  /// Indexes the redo records from `from_lsn` (routed to `only_dc`
  /// unless `all_dcs`) and ships them. dc_redo_end != 0 (single-DC
  /// resends only): skip ops whose DC-acknowledged redo-log position
  /// (OperationReply::rlsn, recorded in acked_rlsns_) is <= dc_redo_end —
  /// the revived DC already holds and replayed/applied them, so only the
  /// in-flight suffix travels. `scanned_end` (optional) receives the log
  /// index the scan stopped at: the sealed prefix end.
  Status RedoResend(Lsn from_lsn, DcId only_dc, bool all_dcs,
                    uint64_t dc_redo_end = 0,
                    uint64_t* scanned_end = nullptr);


  /// Ships every DC's redo stream on its own worker thread and joins
  /// them; a failing stream does not stop the others. Returns the first
  /// error in DC order.
  Status ShipRedo(const RedoIndex& index);

  /// One DC's redo stream: ordered kOperationBatch messages, each awaited
  /// (with suffix resends) before the next is sent. An unreadable or
  /// undecodable record fails the stream with Corruption.
  Status ShipDcRedo(DcId dc, const std::vector<uint64_t>& indices);

  /// True while any DC-recovering gate is closed. Caller holds out_mu_.
  bool AnyDcRecoveringLocked() const;

  TcOptions options_;
  std::vector<DcBinding> dcs_;
  Router router_;

  StableLog log_;
  std::unique_ptr<LockManager> locks_;

  std::atomic<bool> crashed_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex txn_mu_;
  std::unordered_map<TxnId, TxnState> txns_;
  TxnId next_txn_ = 1;

  using OutstandingMap = std::map<Lsn, std::shared_ptr<OutstandingOp>>;
  std::mutex out_mu_;
  OutstandingMap outstanding_;
  /// Nodes of completed ops, reused by later registrations: an op's
  /// round trip does not allocate a map node. 1024 covers a few full
  /// backpressure windows. Guarded by out_mu_.
  NodePool<OutstandingMap> outstanding_nodes_{1024};
  /// Per DC: op lsn -> the redo-log rlsn the DC acked it at
  /// (OperationReply::rlsn). Volatile (cleared by Crash — a restarted TC
  /// conservatively full-resends); pruned at checkpoints alongside the
  /// log. Guarded by out_mu_.
  std::map<DcId, std::map<Lsn, uint64_t>> acked_rlsns_;
  std::map<DcId, bool> dc_recovering_;
  /// Bumped whenever a DC-recovering gate closes, so a checkpoint can
  /// tell that a DC went down while it ran.
  uint64_t dc_gate_closes_ = 0;
  /// Signaled whenever a DC-recovering gate opens (redo finished, crash,
  /// restart): WaitDcReady blocks on this instead of sleep-polling.
  std::condition_variable dc_ready_cv_;

  std::mutex stream_mu_;
  std::map<uint64_t, std::shared_ptr<ScanStream>> streams_;
  std::atomic<uint64_t> next_stream_id_{1};

  std::mutex control_mu_;
  uint64_t next_control_seq_ = 1;
  struct PendingControl {
    Notification done;
    ControlReply reply;
  };
  std::map<uint64_t, std::shared_ptr<PendingControl>> pending_controls_;

  mutable std::mutex rssp_mu_;
  Lsn rssp_ = 1;
  /// TakeCheckpoints waiting on DC flushes; while non-zero the control
  /// daemon pushes EOSL/LWM after every log force (ControlPass).
  std::atomic<int> checkpoints_flushing_{0};

  RepeatingThread control_daemon_;
  RepeatingThread resend_daemon_;
  RepeatingThread group_commit_daemon_;

  TcStats stats_;
};

/// The async surface's handle type, hoisted for callers (Txn helpers,
/// application code) that pipeline without naming the component type.
using OpHandle = TransactionComponent::OpHandle;

}  // namespace untx
