// The TC:DC interface (§4.2.1): perform_operation, end_of_stable_log,
// checkpoint, low_water_mark, restart — expressed as serializable message
// structs so the same API runs over a direct call path (multi-core
// deployment) or over simulated cloud channels (asynchronous messages).
//
// An operation request deliberately carries NO transaction identity: "the
// information given to DC does not carry any information about the user
// transaction of which it is a part, nor does DC know whether this
// operation is done as forward activity, or as an inverse during rollback".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace untx {

/// A logical record operation from a TC. (tc_id, lsn) is the globally
/// unique request id; resends reuse it (§4.2 "Unique request IDs").
struct OperationRequest {
  TcId tc_id = 0;
  Lsn lsn = kInvalidLsn;
  OpType op = OpType::kRead;
  TableId table_id = kInvalidTableId;
  std::string key;
  std::string value;
  ReadFlavor read_flavor = ReadFlavor::kOwn;
  /// kProbeNext / kScanRange: max number of keys to return.
  uint32_t limit = 0;
  /// kScanRange: exclusive upper bound; empty = unbounded.
  std::string end_key;
  /// Writes: keep a before-version for cross-TC read committed (§6.2.2).
  bool versioned = false;
  /// Set on recovery resends: the TC only needs an ack, not undo info.
  bool recovery_resend = false;
  /// kProbeNext / kScanRange: `key` itself is excluded from the result —
  /// the resume discipline of streamed / windowed scans.
  bool exclusive_start = false;
  /// kUpsert: apply only if the key is physically present (a tombstone
  /// counts). An absent key is refused with OperationReply::absent and
  /// the gap's next key, so the TC can lock the gap before a plain
  /// upsert creates the key (§3.1 fetch-ahead phantom protection).
  bool if_present = false;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, OperationRequest* out);
};

/// Reply to one OperationRequest, correlated by (tc_id, lsn).
struct OperationReply {
  TcId tc_id = 0;
  Lsn lsn = kInvalidLsn;
  Status status;
  /// Read: the value. Update/Delete/Upsert: the before-value (undo info).
  std::string value;
  /// True if `value` carries a meaningful before-image.
  bool has_before = false;
  /// True if the DC detected the request as already applied (idempotence
  /// hit) rather than executing it now. Diagnostic only.
  bool was_duplicate = false;
  /// An if_present upsert found no record: nothing was applied, status is
  /// NotFound, and `keys` holds the next key after the gap (empty = EOF).
  bool absent = false;
  /// kProbeNext / kScanRange results.
  std::vector<std::string> keys;
  std::vector<std::string> values;
  /// DC redo-log position (1-based) of this operation's applied entry;
  /// 0 when the DC keeps no redo log or the op mutated nothing. A TC
  /// that records it can skip the op during DC recovery whenever the
  /// revived DC (or a promoted standby) already holds that rlsn — the
  /// suffix-only resend of PR 8.
  uint64_t rlsn = 0;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, OperationReply* out);
};

/// Control verbs of the TC:DC contract.
enum class ControlType : uint8_t {
  kEndOfStableLog = 1,  ///< EOSL: TC log stable through this LSN (WAL).
  kLowWaterMark = 2,    ///< LWM: TC has replies for all LSNs <= arg (§5.1.2).
  kCheckpoint = 3,      ///< newRSSP: flush pages with ops below it (§4.2.1).
  /// TC restart: arg = LSNst (stable TC log end). The DC resets the
  /// TC's lost effects and answers with the TC's redo epoch, plus
  /// redo_intact when its pages already hold every op of that stable
  /// log: the TC was settled (below) and the reset reverted nothing. The
  /// TC then ships no redo to this DC.
  kRestartBegin = 4,
  /// A redo pass finished; resume normal service (re-arms the TC's LWM).
  /// A request echoing the redo epoch the pass began under marks the TC
  /// settled at this DC, but only while that epoch is still current.
  /// redo_epoch 0 (a fresh Start(), a pass that may have missed an op)
  /// settles nothing.
  kRestartEnd = 5,
  kDcCheckpoint = 6,    ///< Ask the DC to take a local checkpoint.
  /// Does the DC keep a redo log, and how far does it reach? The reply
  /// carries replication_enabled + rlsn (the DC's applied end). A TC
  /// recovering this DC asks first: a positive answer turns the full
  /// redo-resend into a suffix-only resend. The reply also carries the
  /// TC's redo epoch, which the TC echoes in the kRestartEnd that closes
  /// its redo pass.
  kQueryReplication = 7,
};

struct ControlRequest {
  ControlType type = ControlType::kEndOfStableLog;
  TcId tc_id = 0;
  Lsn lsn = kInvalidLsn;  ///< EOSL / LWM / newRSSP / LSNst, per type.
  uint64_t seq = 0;       ///< Correlation id for the reply.
  /// kRestartEnd: the redo epoch the finished pass began under (from the
  /// kRestartBegin or kQueryReplication reply); 0 = settle nothing.
  uint64_t redo_epoch = 0;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ControlRequest* out);
};

struct ControlReply {
  ControlType type = ControlType::kEndOfStableLog;
  TcId tc_id = 0;
  uint64_t seq = 0;
  Status status;
  /// kRestartBegin: TCs whose pages had to be dropped during the failed
  /// TC's reset and therefore must also resend from their RSSP (the
  /// escalation case of §6.1.2; normally empty).
  std::vector<TcId> escalate_tcs;
  /// kQueryReplication: whether this DC keeps a redo log (and ships it).
  bool replication_enabled = false;
  /// kQueryReplication: the DC's applied redo end. kCheckpoint: the
  /// GRANTED checkpoint lsn — the DC may clamp the TC's requested RSSP
  /// below the oldest op a lagging replica still needs, so log pruning
  /// never outruns the slowest standby.
  uint64_t rlsn = 0;
  /// kRestartBegin / kQueryReplication: the TC's redo epoch at this DC.
  /// The DC moves to a new epoch whenever it may have lost the TC's
  /// effects (a crash, a promotion, a reset that reverted any of them).
  uint64_t redo_epoch = 0;
  /// kRestartBegin: this DC's pages hold every op of the TC's stable log,
  /// so its redo can be skipped. Travels in bit 1 of the byte that
  /// carries replication_enabled.
  bool redo_intact = false;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ControlReply* out);
};

/// Several OperationRequests travelling as ONE channel message. The §4.2
/// contract is unchanged — each operation keeps its own (tc_id, lsn)
/// request id and gets its own reply — but a pipelining TC amortizes the
/// per-message channel cost across the batch (§7: the unbundling overhead
/// is per-message, so fewer messages is the lever).
struct OperationBatch {
  std::vector<OperationRequest> ops;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, OperationBatch* out);
};

/// Replies for one OperationBatch, in request order. A crashed DC omits
/// replies (they die with it), so the vector may be shorter than the
/// batch that provoked it; correlation stays per-op via (tc_id, lsn).
struct OperationBatchReply {
  std::vector<OperationReply> replies;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, OperationBatchReply* out);
};

/// One streamed scan: the DC answers a single request with a SEQUENCE of
/// kScanStreamChunk replies instead of the TC paying one blocking
/// round trip per window (§3.1 / §5.1 — TC↔DC messages are *the* cost of
/// unbundling, and scans were still paying one per window). `base.lsn`
/// is a TC-chosen stream id, NOT a log LSN: scans are read-only, so a
/// lost chunk is recovered by re-issuing the stream from the last
/// delivered key (exclusive_start) under a fresh id — no idempotence
/// machinery needed.
struct ScanStreamRequest {
  /// op must be kScanRange; key/end_key/limit/read_flavor as usual.
  OperationRequest base;
  /// Rows per chunk reply (0 = the DC-side default).
  uint32_t chunk_rows = 0;
  /// Flow control, >= 1: the DC may emit chunks [0, credit_chunks) and
  /// must then pause until a kScanCredit raises the window — so the
  /// reply channel never holds more than the credit window of chunks, no
  /// matter how large the scan. 0 is malformed (InvalidArgument).
  uint32_t credit_chunks = 0;
  /// Fetch-ahead probe mode (§3.1 fold): chunks report EVERY physical
  /// key (probe semantics, so the TC can lock tombstoned records too)
  /// plus the fencepost in `next_key`; invisible rows carry an empty
  /// value and are listed in `invisible`. Plain scans report visible
  /// rows only.
  bool probe_rows = false;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ScanStreamRequest* out);
};

/// Credit / window control for one open scan stream, correlated by
/// (tc_id, stream_id). Every field is ABSOLUTE so the lossy channel is
/// harmless: duplicated credits fold with max(), a lost credit is
/// recovered by resending the latest value, and a rewind applies only
/// while `expect_chunk` still names the cursor's next index.
struct ScanCreditRequest {
  TcId tc_id = 0;
  uint64_t stream_id = 0;
  /// Chunks [0, allowed_chunks) may be produced.
  uint32_t allowed_chunks = 0;
  /// The stream is finished (limit hit / abandoned): the DC may evict
  /// its cursor now instead of waiting for the idle TTL.
  bool close = false;
  /// Validated-window rewind (the fetch-ahead fold): when set and the
  /// cursor's next chunk index equals expect_chunk, the cursor seeks
  /// back to (rewind_key, rewind_exclusive) and re-reads up to
  /// rewind_upto (exclusive; empty = the stream's end bound) as the
  /// next chunk — window k's validated read served from the same cursor
  /// that probed it — then resumes from rewind_upto inclusively.
  bool rewind = false;
  uint32_t expect_chunk = 0;
  std::string rewind_key;
  bool rewind_exclusive = false;
  std::string rewind_upto;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ScanCreditRequest* out);
};

/// One chunk of a streamed scan, correlated by (tc_id, stream_id).
/// Chunks are emitted in chunk_index order but the channel may reorder,
/// drop or duplicate them; the TC reassembles in order and filters
/// already-delivered keys, so any interleaving of stream executions
/// still delivers every stable key exactly once.
struct ScanStreamChunk {
  TcId tc_id = 0;
  uint64_t stream_id = 0;
  uint32_t chunk_index = 0;
  /// Final chunk of this stream execution (range exhausted or error).
  bool done = false;
  /// The resume position this chunk was produced from: the request key
  /// for chunk 0, the previous chunk's last key (exclusive) after. The
  /// TC validates continuity against what it actually consumed, so two
  /// interleaved executions of a duplicated stream request (whose chunk
  /// boundaries diverged under concurrent writes) can never splice a
  /// gap into the result — a discontinuous chunk forces a restart.
  std::string resume_key;
  bool resume_exclusive = false;
  Status status;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  /// probe_rows streams: the first key after this chunk's rows — the
  /// fetch-ahead fencepost. Empty = the range ends with this chunk.
  std::string next_key;
  /// probe_rows streams: indices into `keys` whose record is not
  /// visible under the request's read flavor (their values[] slot is
  /// empty). The TC locks them but does not emit them.
  std::vector<uint32_t> invisible;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, ScanStreamChunk* out);
};

/// Transport envelope: one byte of message kind, then the body.
enum class MessageKind : uint8_t {
  kOperationRequest = 1,
  kOperationReply = 2,
  kControlRequest = 3,
  kControlReply = 4,
  kOperationBatch = 5,
  kOperationBatchReply = 6,
  kScanStreamRequest = 7,
  kScanStreamChunk = 8,
  kScanCredit = 9,
  /// Redo-log shipping (PR 8): a replica DC subscribes to a primary's
  /// applied-op stream, the primary pushes entry batches, the replica
  /// acks its applied rlsn. Bodies are the Replica* structs of
  /// dc/dc_redo_log.h.
  kReplicaSubscribe = 10,
  kReplicaEntries = 11,
  kReplicaAck = 12,
};

std::string WrapMessage(MessageKind kind, const std::string& body);
bool UnwrapMessage(const std::string& wire, MessageKind* kind, Slice* body);

/// Server-side view of a DC the TC can talk to. Implemented by
/// dc::DataComponent (direct) and by kernel transports (channels).
class DcService {
 public:
  virtual ~DcService() = default;
  virtual OperationReply Perform(const OperationRequest& req) = 0;
  virtual ControlReply Control(const ControlRequest& req) = 0;

  /// Performs a batch, one reply per request in order. The default just
  /// loops; DataComponent overrides it to force its redo log once for
  /// the whole batch.
  virtual std::vector<OperationReply> PerformBatch(
      const std::vector<OperationRequest>& reqs) {
    std::vector<OperationReply> replies;
    replies.reserve(reqs.size());
    for (const auto& req : reqs) replies.push_back(Perform(req));
    return replies;
  }

  using ScanChunkEmitter = std::function<void(const ScanStreamChunk&)>;

  /// Streams a scan as ordered chunks through `emit`, resuming each
  /// chunk after the previous one's last key. Emits a final chunk with
  /// done=true when the range (or the request limit) is exhausted, or
  /// when an operation fails (the chunk carries the status). Streams
  /// are credited and need a DC-side cursor, so the default answers one
  /// done chunk carrying NotSupported; DataComponent overrides it.
  virtual void PerformScanStream(const ScanStreamRequest& req,
                                 const ScanChunkEmitter& emit);

  /// Raises (or rewinds / closes) the chunk window of an open credited
  /// stream; a paused cursor resumes production through `emit`. Credits
  /// for unknown streams are ignored (the TC restarts on stall). The
  /// default is a no-op — the base driver above opens no stream.
  virtual void ScanCredit(const ScanCreditRequest& /*req*/,
                          const ScanChunkEmitter& /*emit*/) {}
};

}  // namespace untx
