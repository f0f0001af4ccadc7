#include "dc/dc_api.h"

#include "common/coding.h"
#include "net/frame.h"

namespace untx {

void OperationRequest::EncodeTo(std::string* dst) const {
  PutFixed16(dst, tc_id);
  PutVarint64(dst, lsn);
  dst->push_back(static_cast<char>(op));
  PutVarint32(dst, table_id);
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
  dst->push_back(static_cast<char>(read_flavor));
  PutVarint32(dst, limit);
  PutLengthPrefixedSlice(dst, end_key);
  dst->push_back(static_cast<char>((versioned ? 1 : 0) |
                                   (recovery_resend ? 2 : 0) |
                                   (exclusive_start ? 4 : 0) |
                                   (if_present ? 8 : 0)));
}

bool OperationRequest::DecodeFrom(Slice* input, OperationRequest* out) {
  uint16_t tc;
  uint64_t lsn;
  uint32_t table;
  Slice key, value, end_key;
  if (!GetFixed16(input, &tc)) return false;
  if (!GetVarint64(input, &lsn)) return false;
  if (input->empty()) return false;
  out->op = static_cast<OpType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint32(input, &table)) return false;
  if (!GetLengthPrefixedSlice(input, &key)) return false;
  if (!GetLengthPrefixedSlice(input, &value)) return false;
  if (input->empty()) return false;
  out->read_flavor = static_cast<ReadFlavor>((*input)[0]);
  input->remove_prefix(1);
  if (!GetVarint32(input, &out->limit)) return false;
  if (!GetLengthPrefixedSlice(input, &end_key)) return false;
  if (input->empty()) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  out->tc_id = tc;
  out->lsn = lsn;
  out->table_id = table;
  out->key = key.ToString();
  out->value = value.ToString();
  out->end_key = end_key.ToString();
  out->versioned = (flags & 1) != 0;
  out->recovery_resend = (flags & 2) != 0;
  out->exclusive_start = (flags & 4) != 0;
  out->if_present = (flags & 8) != 0;
  return true;
}

void OperationReply::EncodeTo(std::string* dst) const {
  PutFixed16(dst, tc_id);
  PutVarint64(dst, lsn);
  dst->push_back(static_cast<char>(StatusCodeToByte(status.code())));
  PutLengthPrefixedSlice(dst, status.message());
  PutLengthPrefixedSlice(dst, value);
  dst->push_back(static_cast<char>((has_before ? 1 : 0) |
                                   (was_duplicate ? 2 : 0) |
                                   (absent ? 4 : 0)));
  PutVarint32(dst, static_cast<uint32_t>(keys.size()));
  for (const auto& k : keys) PutLengthPrefixedSlice(dst, k);
  PutVarint32(dst, static_cast<uint32_t>(values.size()));
  for (const auto& v : values) PutLengthPrefixedSlice(dst, v);
  PutVarint64(dst, rlsn);
}

bool OperationReply::DecodeFrom(Slice* input, OperationReply* out) {
  uint16_t tc;
  uint64_t lsn;
  if (!GetFixed16(input, &tc)) return false;
  if (!GetVarint64(input, &lsn)) return false;
  if (input->empty()) return false;
  const uint8_t code = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  Slice msg, value;
  if (!GetLengthPrefixedSlice(input, &msg)) return false;
  if (!GetLengthPrefixedSlice(input, &value)) return false;
  if (input->empty()) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  uint32_t nkeys;
  if (!GetVarint32(input, &nkeys)) return false;
  out->keys.clear();
  out->keys.reserve(nkeys);
  for (uint32_t i = 0; i < nkeys; ++i) {
    Slice k;
    if (!GetLengthPrefixedSlice(input, &k)) return false;
    out->keys.push_back(k.ToString());
  }
  uint32_t nvalues;
  if (!GetVarint32(input, &nvalues)) return false;
  out->values.clear();
  out->values.reserve(nvalues);
  for (uint32_t i = 0; i < nvalues; ++i) {
    Slice v;
    if (!GetLengthPrefixedSlice(input, &v)) return false;
    out->values.push_back(v.ToString());
  }
  if (!GetVarint64(input, &out->rlsn)) return false;
  out->tc_id = tc;
  out->lsn = lsn;
  out->status = StatusFromByte(code, msg.ToString());
  out->value = value.ToString();
  out->has_before = (flags & 1) != 0;
  out->was_duplicate = (flags & 2) != 0;
  out->absent = (flags & 4) != 0;
  return true;
}

void OperationBatch::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(ops.size()));
  for (const auto& op : ops) op.EncodeTo(dst);
}

bool OperationBatch::DecodeFrom(Slice* input, OperationBatch* out) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return false;
  out->ops.clear();
  out->ops.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OperationRequest op;
    if (!OperationRequest::DecodeFrom(input, &op)) return false;
    out->ops.push_back(std::move(op));
  }
  return true;
}

void OperationBatchReply::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(replies.size()));
  for (const auto& reply : replies) reply.EncodeTo(dst);
}

bool OperationBatchReply::DecodeFrom(Slice* input, OperationBatchReply* out) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return false;
  out->replies.clear();
  out->replies.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OperationReply reply;
    if (!OperationReply::DecodeFrom(input, &reply)) return false;
    out->replies.push_back(std::move(reply));
  }
  return true;
}

void ScanStreamRequest::EncodeTo(std::string* dst) const {
  base.EncodeTo(dst);
  PutVarint32(dst, chunk_rows);
  PutVarint32(dst, credit_chunks);
  dst->push_back(static_cast<char>(probe_rows ? 1 : 0));
}

bool ScanStreamRequest::DecodeFrom(Slice* input, ScanStreamRequest* out) {
  if (!OperationRequest::DecodeFrom(input, &out->base)) return false;
  if (!GetVarint32(input, &out->chunk_rows)) return false;
  if (!GetVarint32(input, &out->credit_chunks)) return false;
  if (input->empty()) return false;
  out->probe_rows = ((*input)[0] & 1) != 0;
  input->remove_prefix(1);
  return true;
}

void ScanCreditRequest::EncodeTo(std::string* dst) const {
  PutFixed16(dst, tc_id);
  PutVarint64(dst, stream_id);
  PutVarint32(dst, allowed_chunks);
  dst->push_back(static_cast<char>((close ? 1 : 0) | (rewind ? 2 : 0) |
                                   (rewind_exclusive ? 4 : 0)));
  PutVarint32(dst, expect_chunk);
  PutLengthPrefixedSlice(dst, rewind_key);
  PutLengthPrefixedSlice(dst, rewind_upto);
}

bool ScanCreditRequest::DecodeFrom(Slice* input, ScanCreditRequest* out) {
  if (!GetFixed16(input, &out->tc_id)) return false;
  if (!GetVarint64(input, &out->stream_id)) return false;
  if (!GetVarint32(input, &out->allowed_chunks)) return false;
  if (input->empty()) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  out->close = (flags & 1) != 0;
  out->rewind = (flags & 2) != 0;
  out->rewind_exclusive = (flags & 4) != 0;
  if (!GetVarint32(input, &out->expect_chunk)) return false;
  Slice key, upto;
  if (!GetLengthPrefixedSlice(input, &key)) return false;
  if (!GetLengthPrefixedSlice(input, &upto)) return false;
  out->rewind_key = key.ToString();
  out->rewind_upto = upto.ToString();
  return true;
}

void ScanStreamChunk::EncodeTo(std::string* dst) const {
  PutFixed16(dst, tc_id);
  PutVarint64(dst, stream_id);
  PutVarint32(dst, chunk_index);
  dst->push_back(static_cast<char>((done ? 1 : 0) |
                                   (resume_exclusive ? 2 : 0)));
  PutLengthPrefixedSlice(dst, resume_key);
  dst->push_back(static_cast<char>(StatusCodeToByte(status.code())));
  PutLengthPrefixedSlice(dst, status.message());
  PutVarint32(dst, static_cast<uint32_t>(keys.size()));
  for (const auto& k : keys) PutLengthPrefixedSlice(dst, k);
  PutVarint32(dst, static_cast<uint32_t>(values.size()));
  for (const auto& v : values) PutLengthPrefixedSlice(dst, v);
  PutLengthPrefixedSlice(dst, next_key);
  PutVarint32(dst, static_cast<uint32_t>(invisible.size()));
  for (uint32_t i : invisible) PutVarint32(dst, i);
}

bool ScanStreamChunk::DecodeFrom(Slice* input, ScanStreamChunk* out) {
  if (!GetFixed16(input, &out->tc_id)) return false;
  if (!GetVarint64(input, &out->stream_id)) return false;
  if (!GetVarint32(input, &out->chunk_index)) return false;
  if (input->empty()) return false;
  const uint8_t flags = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  out->done = (flags & 1) != 0;
  out->resume_exclusive = (flags & 2) != 0;
  Slice resume;
  if (!GetLengthPrefixedSlice(input, &resume)) return false;
  out->resume_key = resume.ToString();
  if (input->empty()) return false;
  const uint8_t code = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixedSlice(input, &msg)) return false;
  out->status = StatusFromByte(code, msg.ToString());
  uint32_t nkeys;
  if (!GetVarint32(input, &nkeys)) return false;
  out->keys.clear();
  out->keys.reserve(nkeys);
  for (uint32_t i = 0; i < nkeys; ++i) {
    Slice k;
    if (!GetLengthPrefixedSlice(input, &k)) return false;
    out->keys.push_back(k.ToString());
  }
  uint32_t nvalues;
  if (!GetVarint32(input, &nvalues)) return false;
  out->values.clear();
  out->values.reserve(nvalues);
  for (uint32_t i = 0; i < nvalues; ++i) {
    Slice v;
    if (!GetLengthPrefixedSlice(input, &v)) return false;
    out->values.push_back(v.ToString());
  }
  Slice next;
  if (!GetLengthPrefixedSlice(input, &next)) return false;
  out->next_key = next.ToString();
  uint32_t ninvisible;
  if (!GetVarint32(input, &ninvisible)) return false;
  out->invisible.clear();
  out->invisible.reserve(ninvisible);
  for (uint32_t i = 0; i < ninvisible; ++i) {
    uint32_t idx;
    if (!GetVarint32(input, &idx)) return false;
    out->invisible.push_back(idx);
  }
  return true;
}

void DcService::PerformScanStream(const ScanStreamRequest& req,
                                  const ScanChunkEmitter& emit) {
  ScanStreamChunk chunk;
  chunk.tc_id = req.base.tc_id;
  chunk.stream_id = req.base.lsn;
  chunk.done = true;
  chunk.status = Status::NotSupported("scan streams need a DataComponent");
  emit(chunk);
}

void ControlRequest::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutFixed16(dst, tc_id);
  PutVarint64(dst, lsn);
  PutVarint64(dst, seq);
  PutVarint64(dst, redo_epoch);
}

bool ControlRequest::DecodeFrom(Slice* input, ControlRequest* out) {
  if (input->empty()) return false;
  out->type = static_cast<ControlType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetFixed16(input, &out->tc_id)) return false;
  if (!GetVarint64(input, &out->lsn)) return false;
  if (!GetVarint64(input, &out->seq)) return false;
  if (!GetVarint64(input, &out->redo_epoch)) return false;
  return true;
}

void ControlReply::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type));
  PutFixed16(dst, tc_id);
  PutVarint64(dst, seq);
  dst->push_back(static_cast<char>(StatusCodeToByte(status.code())));
  PutLengthPrefixedSlice(dst, status.message());
  PutVarint32(dst, static_cast<uint32_t>(escalate_tcs.size()));
  for (TcId tc : escalate_tcs) PutFixed16(dst, tc);
  dst->push_back(static_cast<char>((replication_enabled ? 1 : 0) |
                                   (redo_intact ? 2 : 0)));
  PutVarint64(dst, rlsn);
  PutVarint64(dst, redo_epoch);
}

bool ControlReply::DecodeFrom(Slice* input, ControlReply* out) {
  if (input->empty()) return false;
  out->type = static_cast<ControlType>((*input)[0]);
  input->remove_prefix(1);
  if (!GetFixed16(input, &out->tc_id)) return false;
  if (!GetVarint64(input, &out->seq)) return false;
  if (input->empty()) return false;
  const uint8_t code = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixedSlice(input, &msg)) return false;
  out->status = StatusFromByte(code, msg.ToString());
  uint32_t n;
  if (!GetVarint32(input, &n)) return false;
  out->escalate_tcs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint16_t tc;
    if (!GetFixed16(input, &tc)) return false;
    out->escalate_tcs.push_back(tc);
  }
  if (input->empty()) return false;
  out->replication_enabled = ((*input)[0] & 1) != 0;
  out->redo_intact = ((*input)[0] & 2) != 0;
  input->remove_prefix(1);
  if (!GetVarint64(input, &out->rlsn)) return false;
  if (!GetVarint64(input, &out->redo_epoch)) return false;
  return true;
}

std::string WrapMessage(MessageKind kind, const std::string& body) {
  return EncodeFrame(static_cast<uint8_t>(kind), body);
}

bool UnwrapMessage(const std::string& wire, MessageKind* kind, Slice* body) {
  uint8_t raw_kind = 0;
  size_t consumed = 0;
  if (DecodeFrame(wire.data(), wire.size(), &raw_kind, body, &consumed) !=
          FrameDecode::kOk ||
      consumed != wire.size()) {
    return false;
  }
  *kind = static_cast<MessageKind>(raw_kind);
  return true;
}

}  // namespace untx
