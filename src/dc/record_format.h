// On-page record encodings for B-tree leaf and internal nodes.
//
// Leaf payload:
//   varint key_len, key bytes
//   u16    last_writer_tc        (for per-TC page reset, §6.1.2)
//   u8     flags                 (versioning state, §6.2.2)
//   varint value_len, value bytes
//   [varint before_len, before]  iff kHasBefore
//
// Versioning states (§6.2.2):
//   plain committed record:            flags = 0
//   uncommitted update:                kHasBefore; before = old committed
//   uncommitted insert:                kHasBefore | kBeforeIsNull
//   uncommitted delete:                kHasBefore | kCurrentIsTombstone
//
// Internal payload:
//   varint key_len, key bytes   (separator; entry 0 uses the empty key)
//   u32    child page id
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/types.h"

namespace untx {

struct LeafRecord {
  static constexpr uint8_t kHasBefore = 0x1;
  static constexpr uint8_t kBeforeIsNull = 0x2;
  static constexpr uint8_t kCurrentIsTombstone = 0x4;

  std::string key;
  TcId last_writer_tc = 0;
  uint8_t flags = 0;
  std::string value;
  std::string before;

  bool has_before() const { return (flags & kHasBefore) != 0; }
  bool before_is_null() const { return (flags & kBeforeIsNull) != 0; }
  bool is_tombstone() const { return (flags & kCurrentIsTombstone) != 0; }

  std::string Encode() const;
  static bool Decode(Slice payload, LeafRecord* out);

  /// Extracts just the key without materializing the rest (hot path of
  /// the in-page binary search).
  static bool DecodeKey(Slice payload, Slice* key);
};

/// A leaf record read in place: key, value and before-image are slices of
/// the page payload, valid until the page changes. The write and read
/// paths decode stored records this way and copy only what they return.
struct LeafRecordView {
  Slice key;
  TcId last_writer_tc = 0;
  uint8_t flags = 0;
  Slice value;
  Slice before;  ///< empty unless has_before()

  bool has_before() const { return (flags & LeafRecord::kHasBefore) != 0; }
  bool before_is_null() const {
    return (flags & LeafRecord::kBeforeIsNull) != 0;
  }
  bool is_tombstone() const {
    return (flags & LeafRecord::kCurrentIsTombstone) != 0;
  }

  static bool Decode(Slice payload, LeafRecordView* out);
};

/// Replaces *dst with the leaf payload of one record; `before` is written
/// iff `flags` has kHasBefore. No argument may point into *dst.
void EncodeLeafRecord(const Slice& key, TcId last_writer_tc, uint8_t flags,
                      const Slice& value, const Slice& before,
                      std::string* dst);

struct InternalEntry {
  std::string separator;  // child covers keys in [separator, next separator)
  PageId child = kInvalidPageId;

  std::string Encode() const;
  static bool Decode(Slice payload, InternalEntry* out);
  static bool DecodeKey(Slice payload, Slice* key);
};

}  // namespace untx
