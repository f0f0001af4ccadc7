#include "tc/tc_log.h"

#include "common/coding.h"

namespace untx {

void TcLogRecord::EncodeTo(std::string* dst) const {
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

bool TcLogRecord::DecodeFrom(Slice* input, TcLogRecord* out) {
  if (input->empty()) return false;
  out->type = static_cast<TcLogRecordType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &out->txn)) return false;
  if (input->empty()) return false;
  out->op = static_cast<OpType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint32(input, &out->table_id)) return false;
  Slice key, value, before;
  if (!GetLengthPrefixedSlice(input, &key)) return false;
  if (!GetLengthPrefixedSlice(input, &value)) return false;
  if (!GetLengthPrefixedSlice(input, &before)) return false;
  if (input->empty()) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint64(input, &out->undo_target)) return false;
  if (!GetVarint64(input, &out->rssp)) return false;
  out->key = key.ToString();
  out->value = value.ToString();
  out->before = before.ToString();
  out->has_before = (flags & 1) != 0;
  out->versioned = (flags & 2) != 0;
  out->applied = (flags & 4) != 0;
  return true;
}

}  // namespace untx
