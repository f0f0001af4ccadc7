#include "tc/tc_log.h"

#include "common/coding.h"

namespace untx {

namespace {

/// The one record layout: every encoder writes through here, so the
/// direct operation encoder stays byte-identical to EncodeTo.
void EncodeFields(TcLogRecordType type, TxnId txn, OpType op,
                  TableId table_id, const Slice& key, const Slice& value,
                  const Slice& before, bool has_before, bool versioned,
                  bool applied, Lsn undo_target, Lsn rssp, std::string* dst) {
  // Reserve the final size once instead of growing field by field; the
  // 3 counts the type, op and flags bytes.
  dst->reserve(dst->size() + 3 + VarintLength(txn) + VarintLength(table_id) +
               VarintLength(key.size()) + key.size() +
               VarintLength(value.size()) + value.size() +
               VarintLength(before.size()) + before.size() +
               VarintLength(undo_target) + VarintLength(rssp));
  dst->push_back(static_cast<char>(type));
  PutVarint64(dst, txn);
  dst->push_back(static_cast<char>(op));
  PutVarint32(dst, table_id);
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
  PutLengthPrefixedSlice(dst, before);
  dst->push_back(static_cast<char>((has_before ? 1 : 0) |
                                   (versioned ? 2 : 0) | (applied ? 4 : 0)));
  PutVarint64(dst, undo_target);
  PutVarint64(dst, rssp);
}

}  // namespace

void TcLogRecord::EncodeTo(std::string* dst) const {
  EncodeFields(type, txn, op, table_id, key, value, before, has_before,
               versioned, applied, undo_target, rssp, dst);
}

void EncodeOperationRecord(TcLogRecordType type, TxnId txn,
                           const OperationRequest& req,
                           const OperationReply& reply, Lsn undo_target,
                           std::string* dst) {
  const bool is_write = IsWriteOp(req.op);
  EncodeFields(type, txn, req.op, req.table_id, req.key,
               is_write ? Slice(req.value) : Slice(),
               is_write ? Slice(reply.value) : Slice(),
               is_write && reply.has_before, req.versioned,
               is_write && reply.status.ok(), undo_target, kInvalidLsn, dst);
}

bool TcLogRecordView::DecodeFrom(Slice* input, TcLogRecordView* out) {
  if (input->empty()) return false;
  out->type = static_cast<TcLogRecordType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &out->txn)) return false;
  if (input->empty()) return false;
  out->op = static_cast<OpType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint32(input, &out->table_id)) return false;
  if (!GetLengthPrefixedSlice(input, &out->key)) return false;
  if (!GetLengthPrefixedSlice(input, &out->value)) return false;
  if (!GetLengthPrefixedSlice(input, &out->before)) return false;
  if (input->empty()) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &out->undo_target)) return false;
  if (!GetVarint64(input, &out->rssp)) return false;
  out->has_before = (flags & 1) != 0;
  out->versioned = (flags & 2) != 0;
  out->applied = (flags & 4) != 0;
  return true;
}

bool TcLogRecord::DecodeFrom(Slice* input, TcLogRecord* out) {
  TcLogRecordView view;
  if (!TcLogRecordView::DecodeFrom(input, &view)) return false;
  out->type = view.type;
  out->txn = view.txn;
  out->op = view.op;
  out->table_id = view.table_id;
  out->key = view.key.ToString();
  out->value = view.value.ToString();
  out->before = view.before.ToString();
  out->has_before = view.has_before;
  out->versioned = view.versioned;
  out->applied = view.applied;
  out->undo_target = view.undo_target;
  out->rssp = view.rssp;
  return true;
}

}  // namespace untx
