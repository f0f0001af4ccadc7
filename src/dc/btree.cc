#include "dc/btree.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "storage/page.h"

namespace untx {

namespace {

// Catalog record in the meta page: fixed32 table id + fixed32 root pid.
std::string EncodeCatalogEntry(TableId table, PageId root) {
  std::string out;
  PutFixed32(&out, table);
  PutFixed32(&out, root);
  return out;
}

bool DecodeCatalogEntry(Slice payload, TableId* table, PageId* root) {
  if (!GetFixed32(&payload, table)) return false;
  if (!GetFixed32(&payload, root)) return false;
  return true;
}

// Lower bound over catalog entries by table id.
uint16_t CatalogLowerBound(const SlottedPage& page, TableId table,
                           bool* found) {
  uint16_t lo = 0, hi = page.slot_count();
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    TableId t;
    PageId r;
    DecodeCatalogEntry(page.PayloadAt(mid), &t, &r);
    if (t < table) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = false;
  if (lo < page.slot_count()) {
    TableId t;
    PageId r;
    DecodeCatalogEntry(page.PayloadAt(lo), &t, &r);
    *found = (t == table);
  }
  return lo;
}

// Stamps a frame's page dLSN and records the first-since-clean dLSN used
// to bound DC-log truncation. Caller holds the exclusive latch.
void StampDlsn(SlottedPage page, Frame* frame, DLsn dlsn) {
  page.set_dlsn(dlsn);
  if (frame->rec_dlsn == 0) frame->rec_dlsn = dlsn;
}

}  // namespace

BTree::BTree(StableStore* store, BufferPool* pool, DcLog* dc_log,
             BTreeOptions options)
    : store_(store), pool_(pool), dc_log_(dc_log), options_(options) {}

Status BTree::Bootstrap() {
  meta_pid_ = store_->Allocate();
  std::vector<char> buf(pool_->page_size(), 0);
  SlottedPage meta(buf.data(), pool_->page_size(), pool_->trailer_capacity());
  meta.Init(meta_pid_, PageType::kMeta, 0, kInvalidTableId);
  Status s = store_->Write(meta_pid_, buf.data());
  if (s.ok()) {
    // A bootstrap on a reset store (replica reset-by-replay) must not
    // leave roots of the wiped catalog behind: the replayed CreateTable
    // is idempotent and would trust them.
    std::lock_guard<std::mutex> guard(root_mu_);
    root_cache_.clear();
  }
  return s;
}

Status BTree::RebuildRootCache() {
  if (meta_pid_ == kInvalidPageId) {
    // Recovery path: the meta page is by convention the store's first
    // allocation.
    meta_pid_ = 1;
  }
  return LoadRootCache();
}

Status BTree::LoadRootCache() {
  Frame* meta = nullptr;
  Status s = pool_->Fetch(meta_pid_, &meta);
  if (!s.ok()) return s;
  PinGuard pin(pool_, meta);
  SharedLatchGuard latch(&meta->latch);
  SlottedPage page = PageOf(meta);
  std::lock_guard<std::mutex> guard(root_mu_);
  root_cache_.clear();
  for (uint16_t i = 0; i < page.slot_count(); ++i) {
    TableId table;
    PageId root;
    if (DecodeCatalogEntry(page.PayloadAt(i), &table, &root)) {
      root_cache_[table] = root;
    }
  }
  return Status::OK();
}

StatusOr<PageId> BTree::GetRoot(TableId table) const {
  std::lock_guard<std::mutex> guard(root_mu_);
  auto it = root_cache_.find(table);
  if (it == root_cache_.end()) {
    return Status::NotFound("table not in catalog");
  }
  return it->second;
}

uint16_t BTree::LeafLowerBound(const SlottedPage& page, Slice key,
                               bool* found) {
  uint16_t lo = 0, hi = page.slot_count();
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    Slice mid_key;
    LeafRecord::DecodeKey(page.PayloadAt(mid), &mid_key);
    if (mid_key.compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = false;
  if (lo < page.slot_count()) {
    Slice k;
    LeafRecord::DecodeKey(page.PayloadAt(lo), &k);
    *found = (k == key);
  }
  return lo;
}

uint16_t BTree::InternalChildIdx(const SlottedPage& page, Slice key) {
  // Last entry whose separator <= key. Entry 0 has the empty separator,
  // so the answer always exists.
  assert(page.slot_count() > 0);
  uint16_t lo = 0, hi = page.slot_count();
  while (lo + 1 < hi) {
    const uint16_t mid = (lo + hi) / 2;
    Slice sep;
    InternalEntry::DecodeKey(page.PayloadAt(mid), &sep);
    if (sep.compare(key) <= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BTree::LocateLeaf(TableId table, Slice key, bool exclusive,
                         Frame** out) {
  bool root_leaf_hint = false;
  for (int attempt = 0; attempt < 256; ++attempt) {
    StatusOr<PageId> root = GetRoot(table);
    if (!root.ok()) return root.status();

    Frame* cur = nullptr;
    Status s = pool_->Fetch(*root, &cur);
    if (s.IsNotFound()) continue;  // root changed under us; retry
    if (!s.ok()) return s;

    bool cur_exclusive = exclusive && root_leaf_hint;
    if (cur_exclusive) {
      cur->latch.LockExclusive();
    } else {
      cur->latch.LockShared();
    }
    // A root split publishes the new root before it releases the old
    // root's latch. A descent that read the old pid before the split and
    // latched it after would search only the old root's left half and
    // could place or look up a key in the wrong leaf.
    StatusOr<PageId> current = GetRoot(table);
    if (!current.ok() || *current != *root) {
      if (cur_exclusive) {
        cur->latch.UnlockExclusive();
      } else {
        cur->latch.UnlockShared();
      }
      pool_->Unpin(cur);
      continue;
    }

    for (;;) {
      if (cur->retired) {
        if (cur_exclusive) {
          cur->latch.UnlockExclusive();
        } else {
          cur->latch.UnlockShared();
        }
        pool_->Unpin(cur);
        cur = nullptr;
        break;  // restart descend
      }
      SlottedPage page = PageOf(cur);
      if (page.type() == PageType::kLeaf) {
        if (exclusive && !cur_exclusive) {
          // We reached a leaf holding only a shared latch (the root was
          // a leaf and we had no hint). Restart with the exclusive hint;
          // upgrading in place could deadlock with a concurrent SMO.
          cur->latch.UnlockShared();
          pool_->Unpin(cur);
          cur = nullptr;
          root_leaf_hint = true;
          break;
        }
        *out = cur;
        return Status::OK();
      }
      // Internal node: crab down.
      const uint16_t idx = InternalChildIdx(page, key);
      InternalEntry entry;
      InternalEntry::Decode(page.PayloadAt(idx), &entry);
      const bool child_is_leaf = (page.level() == 1);

      Frame* child = nullptr;
      s = pool_->Fetch(entry.child, &child);
      if (!s.ok()) {
        // Should not happen under correct crabbing; retry defensively.
        if (cur_exclusive) {
          cur->latch.UnlockExclusive();
        } else {
          cur->latch.UnlockShared();
        }
        pool_->Unpin(cur);
        cur = nullptr;
        break;
      }
      const bool child_exclusive = exclusive && child_is_leaf;
      if (child_exclusive) {
        child->latch.LockExclusive();
      } else {
        child->latch.LockShared();
      }
      if (cur_exclusive) {
        cur->latch.UnlockExclusive();
      } else {
        cur->latch.UnlockShared();
      }
      pool_->Unpin(cur);
      cur = child;
      cur_exclusive = child_exclusive;
    }
    // fall through: retry
  }
  return Status::Busy("btree descend kept racing structure changes");
}

Status BTree::DescendExclusive(TableId table, Slice key,
                               std::vector<PathEntry>* path, Frame** leaf) {
  path->clear();
  StatusOr<PageId> root = GetRoot(table);
  if (!root.ok()) return root.status();

  Frame* cur = nullptr;
  Status s = pool_->Fetch(*root, &cur);
  if (!s.ok()) return s;
  cur->latch.LockExclusive();

  for (;;) {
    SlottedPage page = PageOf(cur);
    if (page.type() == PageType::kLeaf) {
      *leaf = cur;
      return Status::OK();
    }
    const uint16_t idx = InternalChildIdx(page, key);
    InternalEntry entry;
    InternalEntry::Decode(page.PayloadAt(idx), &entry);
    Frame* child = nullptr;
    s = pool_->Fetch(entry.child, &child);
    if (!s.ok()) {
      cur->latch.UnlockExclusive();
      pool_->Unpin(cur);
      ReleasePath(path);
      return s;
    }
    child->latch.LockExclusive();
    path->push_back({cur, idx});
    cur = child;
  }
}

void BTree::ReleasePath(std::vector<PathEntry>* path) {
  for (auto it = path->rbegin(); it != path->rend(); ++it) {
    it->frame->latch.UnlockExclusive();
    pool_->Unpin(it->frame);
  }
  path->clear();
}

DcLogRecord BTree::MakeImageRecord(Frame* frame) const {
  DcLogRecord rec;
  rec.type = DcLogRecordType::kPageImage;
  rec.pid = frame->pid;
  rec.body.assign(frame->data.data(), frame->data.size());
  rec.ablsn = frame->ablsn;
  return rec;
}

void BTree::FoldFloor(const PageAbLsn& ablsn, std::map<TcId, Lsn>* floor) {
  for (const auto& [tc, ab] : ablsn.entries()) {
    Lsn& f = (*floor)[tc];
    if (ab.MaxCovered() > f) f = ab.MaxCovered();
  }
}

Status BTree::SetRootInMeta(TableId table, PageId root,
                            std::vector<DcLogRecord>* recs,
                            std::map<TcId, Lsn>* floor) {
  Frame* meta = nullptr;
  Status s = pool_->Fetch(meta_pid_, &meta);
  if (!s.ok()) return s;
  ExclusiveLatchGuard latch(&meta->latch);
  SlottedPage page = PageOf(meta);
  bool found;
  const uint16_t slot = CatalogLowerBound(page, table, &found);
  const std::string entry = EncodeCatalogEntry(table, root);
  if (found) {
    s = page.ReplaceAt(slot, entry);
  } else {
    s = page.InsertAt(slot, entry);
  }
  if (!s.ok()) {
    pool_->Unpin(meta);
    return s;  // meta page full: ~500 tables at 8K pages
  }
  meta->dirty = true;
  recs->push_back(MakeImageRecord(meta));
  FoldFloor(meta->ablsn, floor);
  {
    std::lock_guard<std::mutex> guard(root_mu_);
    root_cache_[table] = root;
  }
  latch.Release();
  pool_->Unpin(meta);
  return Status::OK();
}

Status BTree::CreateTable(TableId table) {
  std::lock_guard<std::mutex> smo(smo_mu_);
  {
    std::lock_guard<std::mutex> guard(root_mu_);
    if (root_cache_.count(table) > 0) {
      return Status::AlreadyExists("table exists");
    }
  }
  const PageId root_pid = store_->Allocate();
  Frame* root = pool_->Create(root_pid);
  {
    ExclusiveLatchGuard latch(&root->latch);
    SlottedPage page = PageOf(root);
    page.Init(root_pid, PageType::kLeaf, 0, table);
  }

  std::vector<DcLogRecord> recs;
  std::map<TcId, Lsn> floor;
  recs.push_back(MakeImageRecord(root));
  Status s = SetRootInMeta(table, root_pid, &recs, &floor);
  if (!s.ok()) {
    pool_->Unpin(root);
    return s;
  }
  dc_log_->AppendBatch(&recs, floor);
  // Stamp dlsns: recs[0] is the root image, recs[1] the meta image.
  {
    ExclusiveLatchGuard latch(&root->latch);
    StampDlsn(PageOf(root), root, recs[0].dlsn);
  }
  Frame* meta = nullptr;
  if (pool_->Fetch(meta_pid_, &meta).ok()) {
    ExclusiveLatchGuard latch(&meta->latch);
    StampDlsn(PageOf(meta), meta, recs[1].dlsn);
    latch.Release();
    pool_->Unpin(meta);
  }
  pool_->Unpin(root);
  return Status::OK();
}

Status BTree::SplitForInsert(TableId table, Slice key, size_t needed) {
  std::lock_guard<std::mutex> smo(smo_mu_);
  std::vector<PathEntry> path;
  Frame* leaf = nullptr;
  Status s = DescendExclusive(table, key, &path, &leaf);
  if (!s.ok()) return s;

  SlottedPage leaf_page = PageOf(leaf);
  if (leaf_page.HasSpaceFor(static_cast<uint32_t>(needed))) {
    // A concurrent split (before we took the SMO mutex) made room.
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    ReleasePath(&path);
    return Status::OK();
  }
  if (leaf_page.slot_count() < 2) {
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    ReleasePath(&path);
    return Status::InvalidArgument("payload too large to ever fit");
  }

  ++stats_.splits;

  std::vector<DcLogRecord> recs;
  std::map<TcId, Lsn> floor;
  std::vector<Frame*> extra_frames;  // created/pinned beyond path+leaf

  // ---- Split the leaf -------------------------------------------------
  // Split point: first slot where the cumulative payload passes half.
  const uint16_t count = leaf_page.slot_count();
  uint32_t total = 0;
  for (uint16_t i = 0; i < count; ++i) {
    total += static_cast<uint32_t>(leaf_page.PayloadAt(i).size());
  }
  uint32_t acc = 0;
  uint16_t split_slot = 1;
  for (uint16_t i = 0; i < count - 1; ++i) {
    acc += static_cast<uint32_t>(leaf_page.PayloadAt(i).size());
    if (acc >= total / 2) {
      split_slot = i + 1;
      break;
    }
  }
  Slice split_key_slice;
  LeafRecord::DecodeKey(leaf_page.PayloadAt(split_slot), &split_key_slice);
  const std::string split_key = split_key_slice.ToString();

  const PageId new_pid = store_->Allocate();
  Frame* new_leaf = pool_->Create(new_pid);
  extra_frames.push_back(new_leaf);
  SlottedPage new_page = PageOf(new_leaf);
  new_page.Init(new_pid, PageType::kLeaf, 0, table);
  for (uint16_t i = split_slot; i < count; ++i) {
    Status ins = new_page.InsertAt(i - split_slot, leaf_page.PayloadAt(i));
    assert(ins.ok());
    (void)ins;
  }
  while (leaf_page.slot_count() > split_slot) {
    leaf_page.RemoveAt(leaf_page.slot_count() - 1);
  }
  new_page.set_next_page(leaf_page.next_page());
  leaf_page.set_next_page(new_pid);
  // §5.2.2(1): the new page's image captures the abLSN at split time.
  new_leaf->ablsn = leaf->ablsn;
  new_leaf->dirty = true;
  leaf->dirty = true;

  DcLogRecord split_old;
  split_old.type = DcLogRecordType::kSplitOld;
  split_old.pid = leaf->pid;
  split_old.split_key = split_key;
  split_old.aux_pid = new_pid;
  recs.push_back(std::move(split_old));
  const size_t split_old_idx = recs.size() - 1;

  // ---- Propagate the separator up the tree ----------------------------
  // Pages whose physical images must be logged (after all mutation).
  std::vector<Frame*> imaged = {new_leaf};

  std::string sep = split_key;
  PageId sep_child = new_pid;
  int level_idx = static_cast<int>(path.size()) - 1;
  bool root_changed = false;
  PageId new_root_pid = kInvalidPageId;

  for (;;) {
    if (level_idx < 0) {
      // Root split: the old root (leaf or internal) gains a new parent.
      const PageId old_root_pid =
          path.empty() ? leaf->pid : path.front().frame->pid;
      const uint16_t old_root_level =
          path.empty() ? 0 : PageOf(path.front().frame).level();
      new_root_pid = store_->Allocate();
      Frame* new_root = pool_->Create(new_root_pid);
      extra_frames.push_back(new_root);
      SlottedPage root_page = PageOf(new_root);
      root_page.Init(new_root_pid, PageType::kInternal,
                     static_cast<uint16_t>(old_root_level + 1), table);
      InternalEntry left_entry{"", old_root_pid};
      InternalEntry right_entry{sep, sep_child};
      Status i1 = root_page.InsertAt(0, left_entry.Encode());
      Status i2 = root_page.InsertAt(1, right_entry.Encode());
      assert(i1.ok() && i2.ok());
      (void)i1;
      (void)i2;
      new_root->dirty = true;
      imaged.push_back(new_root);
      root_changed = true;
      ++stats_.root_splits;
      break;
    }
    Frame* parent = path[level_idx].frame;
    SlottedPage parent_page = PageOf(parent);
    InternalEntry entry{sep, sep_child};
    const uint16_t at = path[level_idx].child_idx + 1;
    Status ins = parent_page.InsertAt(at, entry.Encode());
    if (ins.ok()) {
      parent->dirty = true;
      imaged.push_back(parent);
      break;
    }
    // Parent full: split it, then place the entry in the proper half.
    const uint16_t pcount = parent_page.slot_count();
    const uint16_t mid = pcount / 2;
    InternalEntry mid_entry;
    InternalEntry::Decode(parent_page.PayloadAt(mid), &mid_entry);
    const std::string promoted = mid_entry.separator;

    const PageId new_int_pid = store_->Allocate();
    Frame* new_int = pool_->Create(new_int_pid);
    extra_frames.push_back(new_int);
    SlottedPage new_int_page = PageOf(new_int);
    new_int_page.Init(new_int_pid, PageType::kInternal, parent_page.level(),
                      table);
    // Entry `mid` becomes the new page's leftmost entry (empty separator).
    InternalEntry first{"", mid_entry.child};
    Status i0 = new_int_page.InsertAt(0, first.Encode());
    assert(i0.ok());
    (void)i0;
    for (uint16_t i = mid + 1; i < pcount; ++i) {
      Status im = new_int_page.InsertAt(new_int_page.slot_count(),
                                        parent_page.PayloadAt(i));
      assert(im.ok());
      (void)im;
    }
    while (parent_page.slot_count() > mid) {
      parent_page.RemoveAt(parent_page.slot_count() - 1);
    }
    // Place the pending entry.
    SlottedPage* target =
        Slice(sep).compare(promoted) < 0 ? &parent_page : &new_int_page;
    const uint16_t tidx = InternalChildIdx(*target, sep);
    Status ip = target->InsertAt(tidx + 1, entry.Encode());
    assert(ip.ok());
    (void)ip;
    parent->dirty = true;
    new_int->dirty = true;
    imaged.push_back(parent);
    imaged.push_back(new_int);

    sep = promoted;
    sep_child = new_int_pid;
    --level_idx;
  }

  // ---- Log the batch ---------------------------------------------------
  // Dedup imaged frames, preserving order of final capture.
  std::vector<Frame*> unique_imaged;
  for (Frame* f : imaged) {
    bool seen = false;
    for (Frame* u : unique_imaged) {
      if (u == f) {
        seen = true;
        break;
      }
    }
    if (!seen) unique_imaged.push_back(f);
  }
  std::vector<size_t> image_rec_idx;
  for (Frame* f : unique_imaged) {
    recs.push_back(MakeImageRecord(f));
    image_rec_idx.push_back(recs.size() - 1);
    FoldFloor(f->ablsn, &floor);
  }
  Status meta_status = Status::OK();
  if (root_changed) {
    meta_status = SetRootInMeta(table, new_root_pid, &recs, &floor);
    assert(meta_status.ok());
  }
  dc_log_->AppendBatch(&recs, floor);

  // Stamp dlsns while still latched.
  StampDlsn(leaf_page, leaf, recs[split_old_idx].dlsn);
  for (size_t i = 0; i < unique_imaged.size(); ++i) {
    StampDlsn(PageOf(unique_imaged[i]), unique_imaged[i],
              recs[image_rec_idx[i]].dlsn);
  }
  if (root_changed) {
    Frame* meta = nullptr;
    if (pool_->Fetch(meta_pid_, &meta).ok()) {
      ExclusiveLatchGuard latch(&meta->latch);
      StampDlsn(PageOf(meta), meta, recs.back().dlsn);
      latch.Release();
      pool_->Unpin(meta);
    }
  }

  // ---- Release ----------------------------------------------------------
  leaf->latch.UnlockExclusive();
  pool_->Unpin(leaf);
  ReleasePath(&path);
  for (Frame* f : extra_frames) pool_->Unpin(f);
  return meta_status;
}

Status BTree::TryConsolidate(TableId table, Slice key) {
  std::lock_guard<std::mutex> smo(smo_mu_);
  std::vector<PathEntry> path;
  Frame* leaf = nullptr;
  Status s = DescendExclusive(table, key, &path, &leaf);
  if (!s.ok()) return s;

  auto release_all = [&]() {
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    ReleasePath(&path);
  };

  if (path.empty()) {
    // Leaf is the root: nothing to merge with.
    release_all();
    return Status::OK();
  }
  SlottedPage leaf_page = PageOf(leaf);
  if (leaf_page.FillFraction() >= options_.consolidate_threshold) {
    release_all();
    return Status::OK();
  }

  Frame* parent = path.back().frame;
  SlottedPage parent_page = PageOf(parent);
  const uint16_t idx = path.back().child_idx;

  // Height shrink: the root has a single child — promote the child.
  if (parent_page.slot_count() == 1 && path.size() == 1) {
    std::vector<DcLogRecord> recs;
    std::map<TcId, Lsn> floor;
    Status ms = SetRootInMeta(table, leaf->pid, &recs, &floor);
    if (!ms.ok()) {
      release_all();
      return ms;
    }
    DcLogRecord free_rec;
    free_rec.type = DcLogRecordType::kPageFree;
    free_rec.pid = parent->pid;
    recs.push_back(std::move(free_rec));
    dc_log_->AppendBatch(&recs, floor, {parent->pid});
    parent->retired = true;
    parent->dirty = false;
    ++stats_.height_shrinks;
    Frame* meta = nullptr;
    if (pool_->Fetch(meta_pid_, &meta).ok()) {
      ExclusiveLatchGuard latch(&meta->latch);
      StampDlsn(PageOf(meta), meta, recs[0].dlsn);
      latch.Release();
      pool_->Unpin(meta);
    }
    release_all();
    pool_->ForceDcLog();
    return Status::OK();
  }

  // Pick merge partners (left absorbs right).
  Frame* left = nullptr;
  Frame* right = nullptr;
  uint16_t right_idx = 0;  // slot of `right` in parent
  Frame* fetched_sibling = nullptr;
  bool sibling_latched = false;

  if (idx + 1 < parent_page.slot_count()) {
    InternalEntry e;
    InternalEntry::Decode(parent_page.PayloadAt(idx + 1), &e);
    if (pool_->Fetch(e.child, &fetched_sibling).ok()) {
      fetched_sibling->latch.LockExclusive();  // left-to-right order: safe
      sibling_latched = true;
      left = leaf;
      right = fetched_sibling;
      right_idx = idx + 1;
    }
  } else if (idx > 0) {
    InternalEntry e;
    InternalEntry::Decode(parent_page.PayloadAt(idx - 1), &e);
    if (pool_->Fetch(e.child, &fetched_sibling).ok()) {
      // Latching right-to-left can deadlock with forward scans; only try.
      if (fetched_sibling->latch.TryLockExclusive()) {
        sibling_latched = true;
        left = fetched_sibling;
        right = leaf;
        right_idx = idx;
      }
    }
  }
  if (left == nullptr || right == nullptr) {
    if (fetched_sibling != nullptr) {
      if (sibling_latched) fetched_sibling->latch.UnlockExclusive();
      pool_->Unpin(fetched_sibling);
    }
    release_all();
    return Status::OK();
  }

  SlottedPage left_page = PageOf(left);
  SlottedPage right_page = PageOf(right);

  // Does the merge fit?
  uint32_t right_bytes = 0;
  for (uint16_t i = 0; i < right_page.slot_count(); ++i) {
    right_bytes += static_cast<uint32_t>(right_page.PayloadAt(i).size()) +
                   kSlotEntrySize;
  }
  if (right_bytes > left_page.TotalFree()) {
    fetched_sibling->latch.UnlockExclusive();
    pool_->Unpin(fetched_sibling);
    release_all();
    return Status::OK();
  }

  ++stats_.consolidates;

  // Move records; all right keys sort after all left keys.
  for (uint16_t i = 0; i < right_page.slot_count(); ++i) {
    Status ins =
        left_page.InsertAt(left_page.slot_count(), right_page.PayloadAt(i));
    assert(ins.ok());
    (void)ins;
  }
  left_page.set_next_page(right_page.next_page());
  // §5.2.2 "Page Deletes": the survivor's abLSN is the max (union).
  left->ablsn.MergeFrom(right->ablsn);
  left->dirty = true;
  parent_page.RemoveAt(right_idx);
  parent->dirty = true;

  right->retired = true;
  right->dirty = false;
  const PageId right_pid = right->pid;

  std::vector<DcLogRecord> recs;
  std::map<TcId, Lsn> floor;
  recs.push_back(MakeImageRecord(left));
  FoldFloor(left->ablsn, &floor);
  recs.push_back(MakeImageRecord(parent));
  FoldFloor(parent->ablsn, &floor);
  DcLogRecord free_rec;
  free_rec.type = DcLogRecordType::kPageFree;
  free_rec.pid = right_pid;
  recs.push_back(std::move(free_rec));
  dc_log_->AppendBatch(&recs, floor, {right_pid});

  StampDlsn(left_page, left, recs[0].dlsn);
  StampDlsn(parent_page, parent, recs[1].dlsn);

  fetched_sibling->latch.UnlockExclusive();
  pool_->Unpin(fetched_sibling);
  release_all();
  // Try to make the free effective promptly.
  pool_->ForceDcLog();
  return Status::OK();
}

Status BTree::ReplayStableSmoBatches() {
  const std::vector<DcLogBatch> batches = dc_log_->ReadStableBatches();
  for (const DcLogBatch& batch : batches) {
    for (const DcLogRecord& rec : batch.records) {
      switch (rec.type) {
        case DcLogRecordType::kPageImage: {
          Frame* frame = nullptr;
          Status s = pool_->Fetch(rec.pid, &frame);
          if (s.ok()) {
            ExclusiveLatchGuard latch(&frame->latch);
            if (PageOf(frame).dlsn() < rec.dlsn) {
              memcpy(frame->data.data(), rec.body.data(),
                     frame->data.size());
              frame->ablsn = rec.ablsn;
              StampDlsn(PageOf(frame), frame, rec.dlsn);
              frame->dirty = true;
            }
            latch.Release();
            pool_->Unpin(frame);
          } else if (s.IsNotFound()) {
            Frame* created = pool_->Create(rec.pid);
            ExclusiveLatchGuard latch(&created->latch);
            memcpy(created->data.data(), rec.body.data(),
                   created->data.size());
            created->ablsn = rec.ablsn;
            StampDlsn(PageOf(created), created, rec.dlsn);
            created->dirty = true;
            latch.Release();
            pool_->Unpin(created);
          } else {
            return s;
          }
          break;
        }
        case DcLogRecordType::kSplitOld: {
          Frame* frame = nullptr;
          Status s = pool_->Fetch(rec.pid, &frame);
          if (s.IsNotFound()) break;  // re-created later in this replay
          if (!s.ok()) return s;
          ExclusiveLatchGuard latch(&frame->latch);
          SlottedPage page = PageOf(frame);
          if (page.dlsn() < rec.dlsn) {
            // Remove keys >= split_key; they belong to the new sibling.
            while (page.slot_count() > 0) {
              Slice last_key;
              LeafRecord::DecodeKey(page.PayloadAt(page.slot_count() - 1),
                                    &last_key);
              if (last_key.compare(rec.split_key) < 0) break;
              page.RemoveAt(page.slot_count() - 1);
            }
            page.set_next_page(rec.aux_pid);
            StampDlsn(page, frame, rec.dlsn);
            frame->dirty = true;
          }
          latch.Release();
          pool_->Unpin(frame);
          break;
        }
        case DcLogRecordType::kPageFree: {
          Frame* frame = nullptr;
          Status s = pool_->Fetch(rec.pid, &frame);
          if (s.ok()) {
            frame->latch.LockExclusive();
            const bool stale = PageOf(frame).dlsn() < rec.dlsn;
            if (stale) {
              frame->retired = true;
              frame->dirty = false;
            }
            frame->latch.UnlockExclusive();
            pool_->Unpin(frame);
            if (stale) pool_->FreePage(rec.pid, rec.dlsn);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return RebuildRootCache();
}

Status BTree::CheckInvariants(TableId table) const {
  StatusOr<PageId> root = GetRoot(table);
  if (!root.ok()) return root.status();

  // Iterative DFS carrying (pid, lower_bound, upper_bound).
  struct Item {
    PageId pid;
    std::string lo;  // inclusive; "" = -inf
    std::string hi;  // exclusive; "" = +inf
  };
  std::vector<Item> stack{{*root, "", ""}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    Frame* frame = nullptr;
    Status s = pool_->Fetch(item.pid, &frame);
    if (!s.ok()) return Status::Corruption("unreachable page in tree");
    SharedLatchGuard latch(&frame->latch);
    SlottedPage page = const_cast<Frame*>(frame)->Page(
        pool_->page_size(), pool_->trailer_capacity());
    Status v = page.Validate();
    if (!v.ok()) {
      latch.Release();
      pool_->Unpin(frame);
      return v;
    }
    std::string prev;
    bool have_prev = false;
    for (uint16_t i = 0; i < page.slot_count(); ++i) {
      std::string k;
      if (page.type() == PageType::kLeaf) {
        Slice key;
        LeafRecord::DecodeKey(page.PayloadAt(i), &key);
        k = key.ToString();
      } else {
        Slice key;
        InternalEntry::DecodeKey(page.PayloadAt(i), &key);
        k = key.ToString();
      }
      if (have_prev && k <= prev && !(i == 0)) {
        latch.Release();
        pool_->Unpin(frame);
        return Status::Corruption("keys out of order in page");
      }
      // Range check (internal entry 0 has the empty separator and is
      // exempt from the lower-bound check).
      if (!(page.type() == PageType::kInternal && i == 0)) {
        if (!item.lo.empty() && k < item.lo) {
          latch.Release();
          pool_->Unpin(frame);
          return Status::Corruption("key below subtree lower bound");
        }
      }
      if (!item.hi.empty() && k >= item.hi && !k.empty()) {
        latch.Release();
        pool_->Unpin(frame);
        return Status::Corruption("key above subtree upper bound");
      }
      prev = k;
      have_prev = true;
    }
    if (page.type() == PageType::kInternal) {
      if (page.slot_count() == 0) {
        latch.Release();
        pool_->Unpin(frame);
        return Status::Corruption("empty internal node");
      }
      for (uint16_t i = 0; i < page.slot_count(); ++i) {
        InternalEntry e;
        InternalEntry::Decode(page.PayloadAt(i), &e);
        std::string lo = i == 0 ? item.lo : e.separator;
        std::string hi = item.hi;
        if (i + 1 < page.slot_count()) {
          InternalEntry next;
          InternalEntry::Decode(page.PayloadAt(i + 1), &next);
          hi = next.separator;
        }
        stack.push_back({e.child, std::move(lo), std::move(hi)});
      }
    }
    latch.Release();
    pool_->Unpin(frame);
  }
  return Status::OK();
}

}  // namespace untx
