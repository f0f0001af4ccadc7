#include "dc/record_format.h"

#include "common/coding.h"

namespace untx {

void EncodeLeafRecord(const Slice& key, TcId last_writer_tc, uint8_t flags,
                      const Slice& value, const Slice& before,
                      std::string* dst) {
  const bool has_before = (flags & LeafRecord::kHasBefore) != 0;
  dst->clear();
  dst->reserve(VarintLength(key.size()) + key.size() + 3 +
               VarintLength(value.size()) + value.size() +
               (has_before ? VarintLength(before.size()) + before.size()
                           : 0));
  PutLengthPrefixedSlice(dst, key);
  PutFixed16(dst, last_writer_tc);
  dst->push_back(static_cast<char>(flags));
  PutLengthPrefixedSlice(dst, value);
  if (has_before) PutLengthPrefixedSlice(dst, before);
}

bool LeafRecordView::Decode(Slice payload, LeafRecordView* out) {
  if (!GetLengthPrefixedSlice(&payload, &out->key)) return false;
  if (!GetFixed16(&payload, &out->last_writer_tc)) return false;
  if (payload.empty()) return false;
  out->flags = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (!GetLengthPrefixedSlice(&payload, &out->value)) return false;
  out->before.clear();
  if (out->has_before()) {
    if (!GetLengthPrefixedSlice(&payload, &out->before)) return false;
  }
  return true;
}

std::string LeafRecord::Encode() const {
  std::string out;
  EncodeLeafRecord(key, last_writer_tc, flags, value, before, &out);
  return out;
}

bool LeafRecord::Decode(Slice payload, LeafRecord* out) {
  LeafRecordView view;
  if (!LeafRecordView::Decode(payload, &view)) return false;
  out->key = view.key.ToString();
  out->last_writer_tc = view.last_writer_tc;
  out->flags = view.flags;
  out->value = view.value.ToString();
  out->before = view.before.ToString();
  return true;
}

bool LeafRecord::DecodeKey(Slice payload, Slice* key) {
  return GetLengthPrefixedSlice(&payload, key);
}

std::string InternalEntry::Encode() const {
  std::string out;
  PutLengthPrefixedSlice(&out, separator);
  PutFixed32(&out, child);
  return out;
}

bool InternalEntry::Decode(Slice payload, InternalEntry* out) {
  Slice sep;
  if (!GetLengthPrefixedSlice(&payload, &sep)) return false;
  uint32_t child;
  if (!GetFixed32(&payload, &child)) return false;
  out->separator = sep.ToString();
  out->child = child;
  return true;
}

bool InternalEntry::DecodeKey(Slice payload, Slice* key) {
  return GetLengthPrefixedSlice(&payload, key);
}

}  // namespace untx
