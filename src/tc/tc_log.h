// TC log records (§4.1.1(3)): logical undo AND redo information, no page
// identifiers anywhere.
//
// "Undo logging in the TC will enable rollback of a user transaction, by
// providing information TC can use to submit inverse logical operations
// to DC. Redo logging in TC allows TC to resubmit logical operations when
// it needs to, following a crash of DC."
//
// An operation's LSN is its log index + 1, reserved *before* dispatch
// (§5.1); the record is sealed with its undo image when the DC reply
// arrives. Force() therefore stops at the first outstanding operation —
// the stable prefix is exactly the completed prefix, which doubles as the
// low-water mark the TC pushes to DCs.
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/dc_api.h"

namespace untx {

enum class TcLogRecordType : uint8_t {
  kBegin = 1,       ///< Transaction begin.
  kOperation = 2,   ///< Logical operation with redo (+undo) info.
  kCommit = 3,      ///< Commit point (forced for durability).
  kAbort = 4,       ///< Rollback complete.
  kClr = 5,         ///< Compensation: inverse op sent during undo.
  kCheckpoint = 6,  ///< Carries the redo scan start point (RSSP).
  kTxnEnd = 7,      ///< Versioned commit fully promoted (§6.2.2 cleanup).
};

struct TcLogRecord {
  TcLogRecordType type = TcLogRecordType::kBegin;
  TxnId txn = kInvalidTxnId;

  // kOperation / kClr payload.
  OpType op = OpType::kRead;
  TableId table_id = kInvalidTableId;
  std::string key;
  std::string value;    ///< redo argument
  std::string before;   ///< undo image (from the DC reply)
  bool has_before = false;
  bool versioned = false;
  /// True iff the DC applied the operation (logical failures like
  /// NotFound log applied=false and need no undo).
  bool applied = false;
  /// kClr: the LSN of the operation this compensation undoes. Recovery
  /// undo skips operations with a stable CLR.
  Lsn undo_target = kInvalidLsn;

  // kCheckpoint payload.
  Lsn rssp = kInvalidLsn;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, TcLogRecord* out);
};

/// A decoded record whose key, value and before-image are slices of the
/// encoded payload, valid only while that payload is. Recovery scans
/// decode every record into one of these instead of copying its images.
struct TcLogRecordView {
  TcLogRecordType type = TcLogRecordType::kBegin;
  TxnId txn = kInvalidTxnId;
  OpType op = OpType::kRead;
  TableId table_id = kInvalidTableId;
  Slice key;
  Slice value;
  Slice before;
  bool has_before = false;
  bool versioned = false;
  bool applied = false;
  Lsn undo_target = kInvalidLsn;
  Lsn rssp = kInvalidLsn;

  static bool DecodeFrom(Slice* input, TcLogRecordView* out);
};

/// Encodes the kOperation or kClr record of a completed operation
/// straight from its request and reply: the same bytes as EncodeTo of a
/// TcLogRecord holding the request's op, table, key and versioned flag,
/// `applied` = a write answered OK and, for a write only, the request's
/// value and the reply's before-image and has_before. A read's result
/// never reaches the log (undo and redo skip reads).
void EncodeOperationRecord(TcLogRecordType type, TxnId txn,
                           const OperationRequest& req,
                           const OperationReply& reply, Lsn undo_target,
                           std::string* dst);

}  // namespace untx
