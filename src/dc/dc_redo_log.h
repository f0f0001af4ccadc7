// DcRedoLog: the DC's ordered log of applied operations — the durable
// spine of PR 8's replication and local-recovery layer.
//
// The TC's redo-resend protocol (§5.3.2 "DC Failure") rebuilds a crashed
// DC from every TC's log; that is the one recovery path whose cost grows
// with TC count and history length. The DcRedoLog gives the DC its own
// recovery capital: every logically-completed mutating operation is
// appended (as its encoded OperationRequest) in apply order BEFORE the
// reply is released, so
//
//   * a primary with a backing file can replay itself back to its
//     pre-crash state locally (`untx_dcd --recover`), after which TCs
//     only resend unacknowledged in-flight operations;
//   * replicas subscribe to the stream and apply it continuously,
//     acking a replication LSN (rlsn) — a caught-up standby can be
//     promoted with zero full redo-resend.
//
// rlsn is 1-based and dense: entry i (0-based) has rlsn i+1; rlsn 0
// means "none". Durability mirrors wal/StableLog: [1, durable_end] is
// stable (file-backed when a path is set), (durable_end, end] is the
// volatile tail dropped by Crash(). Control entries (TC resets, LWM and
// EOSL pushes, checkpoint watermarks) interleave with ops so a replica
// can reproduce the primary's page-reset/pruning decisions by replay.
//
// When replication is on, the full log is retained from rlsn 1 (no
// prefix truncation) so a rejoining ex-primary or a fresh replica can
// always catch up from any acked position — a deliberate simplification
// over checkpoint-anchored log shipping.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace untx {

enum class RedoEntryKind : uint8_t {
  /// payload = encoded OperationRequest that logically completed.
  kOp = 1,
  /// A TC reset (kRestartBegin): tc + its declared stable log end.
  /// Replicas reproduce the page-drop semantics by cancel-filtered
  /// replay (an op entry of this TC with lsn > stable_end is lost work).
  kReset = 2,
  /// LWM push: tc + low-water-mark lsn (duplicate-filter pruning point).
  kLwm = 3,
  /// EOSL push: tc + end-of-stable-log lsn.
  kEosl = 4,
  /// DC checkpoint marker: lsn = redo end W sampled when the page flush
  /// began. Local recovery replays from the latest watermark (every op
  /// at rlsn <= W is reflected in the checkpointed pages).
  kWatermark = 5,
};

struct RedoEntry {
  RedoEntryKind kind = RedoEntryKind::kOp;
  TcId tc = 0;
  /// kOp: the operation's TC lsn (duplicated out of the payload so
  /// cancellation filtering and checkpoint clamping need not decode it);
  /// kReset: the TC's stable_end; kLwm/kEosl: the pushed lsn;
  /// kWatermark: the watermark rlsn W.
  uint64_t lsn = 0;
  /// kOp: the encoded OperationRequest, byte-identical to the wire form.
  std::string payload;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, RedoEntry* out);
};

struct DcRedoLogOptions {
  /// Non-empty: back the durable prefix with this file (appended at
  /// Force(), fflushed — survives SIGKILL like wal/StableLog's backing).
  std::string path;
};

class DcRedoLog {
 public:
  explicit DcRedoLog(DcRedoLogOptions options = {});
  ~DcRedoLog();

  /// Appends one entry to the volatile tail; returns its rlsn (1-based).
  uint64_t Append(RedoEntry entry);

  /// Makes the whole tail durable (file-backed when a path is set).
  /// Returns the new durable end rlsn.
  uint64_t Force();

  /// rlsn of the last appended entry (0 = empty log).
  uint64_t end() const;
  /// rlsn of the last durable entry.
  uint64_t durable_end() const;

  Status ReadAt(uint64_t rlsn, RedoEntry* out) const;

  /// Copies up to `max_entries` DURABLE entries starting at `from_rlsn`
  /// (inclusive) into `out`; returns the rlsn of the first copied entry
  /// (== from_rlsn clamped up), or 0 when nothing is available. Reads
  /// stop at durable_end(): a volatile entry must never ship to a
  /// replica, or a primary crash before its Force() would leave the
  /// replica with a divergent suffix the primary's own recovery cannot
  /// reproduce.
  uint64_t ReadFrom(uint64_t from_rlsn, uint32_t max_entries,
                    std::vector<RedoEntry>* out) const;

  /// Blocks until durable_end() > after_rlsn or the timeout elapses.
  /// Shipper threads park here instead of spinning on ReadFrom.
  bool WaitDurable(uint64_t after_rlsn, uint32_t timeout_ms) const;

  /// Smallest TC-lsn among kOp entries of `tc` with rlsn > after_rlsn
  /// (UINT64_MAX when none). The checkpoint clamp: a TC may not truncate
  /// its log below an op the slowest replica has not acked, else a later
  /// failover could not re-drive it.
  uint64_t MinOpLsnAfter(uint64_t after_rlsn, TcId tc) const;

  /// Drops the volatile tail (the DC crash).
  void Crash();

  /// Drops every entry with rlsn >= `rlsn` — durable or not — and
  /// rewrites the backing file. Used when an ex-primary rejoins as a
  /// replica: its suffix past the promotion base diverged from the new
  /// primary's history.
  void TruncateFrom(uint64_t rlsn);

  /// Largest watermark W recorded by a kWatermark entry at or below the
  /// current end (0 = none; local recovery then replays from rlsn 1).
  uint64_t latest_watermark() const;

  /// True if any retained entry is a kReset — the durable pages may be
  /// ahead of a cancel-filtered history, so local recovery must replay
  /// the full cancel-filtered log from rlsn 1, not just the suffix past
  /// the watermark.
  bool has_reset() const;

  /// The replay set, in rlsn order: every entry except kReset markers
  /// and cancelled ops. An op entry e (of TC t, lsn l) is cancelled iff
  /// a LATER kReset entry r has r.tc == t and l > r.lsn (the TC
  /// declared it lost). Control entries (LWM/EOSL/watermark) are kept
  /// so a long replay reproduces the primary's flush-eligibility and
  /// pruning cadence instead of jamming the pool on unflushable dirt.
  void SnapshotSurvivingOps(std::vector<RedoEntry>* out) const;

  // -- Replication bookkeeping (primary side) ---------------------------------
  void set_replication_enabled(bool on);
  bool replication_enabled() const;

  /// Records replica `replica_id`'s acked rlsn (monotonic per replica).
  void RecordReplicaAck(uint32_t replica_id, uint64_t rlsn);
  void ForgetReplica(uint32_t replica_id);
  /// Smallest acked rlsn over registered replicas; end() when none are
  /// registered (no clamp).
  uint64_t MinReplicaAck() const;
  /// end() - MinReplicaAck(): how far the slowest replica trails.
  uint64_t MaxReplicaLag() const;
  std::map<uint32_t, uint64_t> ReplicaAcks() const;

  uint64_t bytes_appended() const;

 private:
  void LoadFile();
  /// Appends entries (durable_end_, upto] to the backing file. mu_ held.
  void PersistRangeLocked(uint64_t upto);
  /// Rewrites the backing file with the retained entries. mu_ held.
  void RewriteFileLocked();
  void RecomputeDerivedLocked();

  DcRedoLogOptions options_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  mutable std::condition_variable durable_cv_;
  std::vector<RedoEntry> entries_;  // entries_[i] has rlsn i+1
  uint64_t durable_end_ = 0;
  uint64_t latest_watermark_ = 0;
  bool has_reset_ = false;
  bool replication_enabled_ = false;
  std::map<uint32_t, uint64_t> replica_acks_;
  uint64_t bytes_appended_ = 0;
};

// -- Replication wire messages -------------------------------------------------
//
// Shipped as net/frame.h frames with the kReplica* MessageKinds
// (dc/dc_api.h). A replica session sends one subscribe, the primary
// streams entry batches, the replica acks its applied rlsn.

struct ReplicaSubscribeRequest {
  uint32_t replica_id = 0;
  /// First rlsn the replica wants (its own end + 1).
  uint64_t from_rlsn = 1;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ReplicaSubscribeRequest* out);
};

struct ReplicaEntriesMessage {
  /// rlsn of entries[0]; dense from there.
  uint64_t from_rlsn = 0;
  /// Primary's current end, so the replica can expose lag even when the
  /// batch is a partial catch-up.
  uint64_t primary_end = 0;
  std::vector<RedoEntry> entries;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ReplicaEntriesMessage* out);
};

struct ReplicaAckMessage {
  uint32_t replica_id = 0;
  /// Every entry with rlsn <= acked is applied and durable at the
  /// replica (per its own force policy).
  uint64_t acked_rlsn = 0;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ReplicaAckMessage* out);
};

}  // namespace untx
