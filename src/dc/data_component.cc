#include "dc/data_component.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/coding.h"

namespace untx {

namespace {

/// How long a TC reset waits for a racing reader to unpin a page it must
/// drop. Past it the reset fails rather than leave the stale page cached.
constexpr uint32_t kResetDropTimeoutMs = 100;

/// Recovery-path tracing (chaos-test forensics): set UNTX_TRACE=1.
bool TraceEnabled() {
  static const bool enabled = getenv("UNTX_TRACE") != nullptr;
  return enabled;
}

/// Visibility of one record under a read flavor (§6.2): the visible
/// value as a slice of the record, or false if no version is visible.
bool VisibleValue(const LeafRecordView& rec, ReadFlavor flavor, Slice* out) {
  switch (flavor) {
    case ReadFlavor::kOwn:
    case ReadFlavor::kDirty:
      // Latest state; a tombstone is an (uncommitted) delete.
      if (rec.is_tombstone()) return false;
      *out = rec.value;
      return true;
    case ReadFlavor::kReadCommitted:
      if (rec.has_before()) {
        if (rec.before_is_null()) return false;  // uncommitted insert
        *out = rec.before;
        return true;
      }
      if (rec.is_tombstone()) return false;
      *out = rec.value;
      return true;
  }
  return false;
}

}  // namespace

DataComponent::DataComponent(StableStore* store, DataComponentOptions options)
    : store_(store), options_(options) {
  dc_log_ = std::make_unique<DcLog>(options_.dc_log);
  pool_ = std::make_unique<BufferPool>(store_, dc_log_.get(),
                                       options_.buffer_pool);
  btree_ = std::make_unique<BTree>(store_, pool_.get(), dc_log_.get(),
                                   options_.btree);
  if (options_.redo_log_enabled) {
    redo_log_ = std::make_unique<DcRedoLog>(options_.redo_log);
    // A log loaded from a backing file is ahead of the (still empty or
    // stable-store-restored) state until someone replays it.
    if (redo_log_->end() > 0) redo_state_current_.store(false);
  }
}

DataComponent::~DataComponent() = default;

Status DataComponent::Initialize() { return btree_->Bootstrap(); }

Status DataComponent::Recover() {
  // Phase 1 of unbundled recovery: restore well-formed search structures
  // from the DC log, before the TC sends any redo (§5.2.2).
  return btree_->ReplayStableSmoBatches();
}

void DataComponent::EndActiveOp() {
  if (active_ops_.fetch_sub(1) != 1) return;
  // Notify under quiesce_mu_: a Crash() that has just seen a non-zero
  // count but not yet blocked would otherwise miss this wakeup for good.
  std::lock_guard<std::mutex> guard(quiesce_mu_);
  quiesce_cv_.notify_all();
}

void DataComponent::Crash() {
  crashed_.store(true);
  // Wait for in-flight operations to drain; their volatile effects are
  // about to vanish with the cache, and their replies are suppressed.
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] { return active_ops_.load() == 0; });
  pool_->Clear();
  {
    // The cache they were stale in is gone.
    std::lock_guard<std::mutex> guard(reset_mu_);
    reset_undropped_.clear();
  }
  dc_log_->Crash();
  if (redo_log_) {
    redo_log_->Crash();
    // Post-crash state (whatever a restore rebuilds from stable pages)
    // may lag the durable redo prefix until it is replayed.
    redo_state_current_.store(false);
  }
  filter_.Clear();
  {
    // Every TC's next redo pass starts fresh against the reverted state.
    std::lock_guard<std::mutex> guard(redo_mu_);
    BumpAllRedoEpochsLocked();
  }
  ClearScanCursors();
}

void DataComponent::Restore() { crashed_.store(false); }

uint64_t DataComponent::RedoEpochLocked(TcId tc) const {
  auto it = redo_tcs_.find(tc);
  return it == redo_tcs_.end()
             ? redo_epoch_floor_
             : std::max(redo_epoch_floor_, it->second.epoch);
}

void DataComponent::BumpRedoEpochLocked(TcId tc) {
  redo_tcs_[tc] = TcRedo{0, ++redo_epoch_clock_, false};
}

void DataComponent::BumpAllRedoEpochsLocked() {
  redo_epoch_floor_ = ++redo_epoch_clock_;
  redo_tcs_.clear();
}

bool DataComponent::RedoSettled(TcId tc) const {
  std::lock_guard<std::mutex> guard(redo_mu_);
  auto it = redo_tcs_.find(tc);
  return it != redo_tcs_.end() && it->second.settled;
}

OperationReply DataComponent::Perform(const OperationRequest& req) {
  if (role_.load() == DcRole::kReplica) {
    // A replica is not in any TC's routing table; answer stray traffic
    // like a down DC so a misrouted TC resends rather than misbehaves.
    OperationReply reply;
    reply.tc_id = req.tc_id;
    reply.lsn = req.lsn;
    reply.status = Status::Crashed("dc is a replica");
    return reply;
  }
  return PerformImpl(req, /*record_redo=*/true, /*defer_redo_force=*/false);
}

OperationReply DataComponent::PerformImpl(const OperationRequest& req,
                                          bool record_redo,
                                          bool defer_redo_force) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  if (crashed_.load()) {
    reply.status = Status::Crashed("dc is down");
    return reply;
  }
  active_ops_.fetch_add(1);
  struct OpGuard {
    DataComponent* dc;
    ~OpGuard() { dc->EndActiveOp(); }
  } guard{this};

  stats_.ops.fetch_add(1);
  if (req.value.size() > options_.max_value_size) {
    reply.status = Status::InvalidArgument("value exceeds max_value_size");
    return reply;
  }

  // Redo must repeat history IN ORDER: serialize recovery executions so
  // a duplicated redo message can't interleave with the original on
  // another server thread (recursive: the batch path already holds it).
  std::unique_lock<std::recursive_mutex> recovery_serial;
  if (req.recovery_resend) {
    recovery_serial =
        std::unique_lock<std::recursive_mutex>(recovery_serial_mu_);
  }

  const bool is_write = IsWriteOp(req.op);
  if (is_write) {
    stats_.writes.fetch_add(1);
  } else {
    stats_.reads.fetch_add(1);
  }
  // Idempotence: a write holds its filter slot until its reply is
  // stored, and every copy of it (channel duplicate or TC resend) gets
  // that reply. So a copy can neither re-execute against a later state
  // nor hand the TC a reply without the original's undo image.
  //
  // Recovery resends never get a stored reply: a redo stream
  // re-establishes page state after a regression (DC crash revert,
  // TC-reset page drop/merge), and the stored replies describe
  // executions against the PRE-regression state. Worse, LWM pruning
  // drops a PREFIX, so the filter can hold a CLR's reply while the
  // forward op it compensates is gone — answering the CLR while the
  // forward op re-executes resurrects aborted writes. Redo is judged
  // solely by the page abLSN, which is causally tied to the page content.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // A copy that waited for its original and then enters (the original
  // did not complete) meets the crash check at the top of the loop below.
  DuplicateFilter::Ticket ticket;
  if (is_write) {
    switch (filter_.Admit(req, deadline, &reply, &ticket)) {
      case DuplicateFilter::Verdict::kEnter:
        break;
      case DuplicateFilter::Verdict::kAnswered:
        stats_.reply_cache_hits.fetch_add(1);
        return reply;
      case DuplicateFilter::Verdict::kBelowFloor:
        stats_.duplicate_hits.fetch_add(1);
        return reply;
      case DuplicateFilter::Verdict::kConflict:
        stats_.conflicts_detected.fetch_add(1);
        return reply;
      case DuplicateFilter::Verdict::kTimedOut:
        return reply;
    }
  }

  for (;;) {
    if (crashed_.load()) {
      reply.status = Status::Crashed("dc went down mid-operation");
      break;
    }
    ApplyOutcome outcome;
    reply = ApplyOnce(req, &outcome);
    if (outcome.need_split) {
      Status s = btree_->SplitForInsert(
          req.table_id, req.key,
          req.key.size() + req.value.size() + 64);
      if (!s.ok() && !s.IsBusy()) {
        reply.status = s;
        break;
      }
      continue;
    }
    if (outcome.need_flush_wait || outcome.need_retry) {
      if (std::chrono::steady_clock::now() > deadline) {
        reply.status = Status::TimedOut("operation kept deferring");
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (outcome.maybe_consolidate && pool_->ConsolidationSafe()) {
      // Consolidation is deferred while any TC's redo resend is still
      // incomplete: replayed SMO images can be time-skewed (a split-
      // copied abLSN legitimately over-covers sibling-range keys), and
      // merging such pages mid-redo would fold that over-coverage into
      // the page the keys route to — making un-reapplied operations
      // look applied. Once every TC has re-armed (restart-end), each
      // page again covers exactly what redo has re-established, and the
      // Â§5.2.2 max/union rule is sound.
      btree_->TryConsolidate(req.table_id, outcome.consolidate_key);
    }
    break;
  }

  if (!is_write) return reply;
  if (reply.status.IsBusy() || reply.status.IsCrashed()) {
    filter_.Abandon(ticket);  // not executed: a copy may execute instead
    return reply;
  }
  // Redo append + force BEFORE the reply escapes: every op the TC has
  // seen acked is in the durable redo log, so a replica promoted (or a
  // --recover restart) only ever misses ops the TC still counts as
  // in-flight and will resend.
  MaybeAppendRedo(req, &reply, record_redo, defer_redo_force);
  filter_.Answer(ticket, reply);
  return reply;
}

void DataComponent::MaybeAppendRedo(const OperationRequest& req,
                                    OperationReply* reply, bool record,
                                    bool defer_force) {
  if (!record || redo_log_ == nullptr) return;
  if (!IsWriteOp(req.op) || reply->was_duplicate) return;
  // Only logical completions advance the abLSN (ok / NotFound /
  // AlreadyExists — see ApplyOnce); anything else did not apply and
  // must not replicate. An abLSN-covered duplicate (stored reply already
  // pruned) is NOT re-appended: its reply carries rlsn 0, so the TC
  // keeps no replication record for it and re-drives it on failover.
  if (!(reply->status.ok() || reply->status.IsNotFound() ||
        reply->status.IsAlreadyExists())) {
    return;
  }
  RedoEntry entry;
  entry.kind = RedoEntryKind::kOp;
  entry.tc = req.tc_id;
  entry.lsn = req.lsn;
  req.EncodeTo(&entry.payload);
  reply->rlsn = redo_log_->Append(std::move(entry));
  stats_.redo_entries_appended.fetch_add(1);
  if (!defer_force) redo_log_->Force();
}

void DataComponent::AppendRedoControl(RedoEntryKind kind, TcId tc,
                                      uint64_t lsn) {
  if (redo_log_ == nullptr || role_.load() != DcRole::kPrimary) return;
  RedoEntry entry;
  entry.kind = kind;
  entry.tc = tc;
  entry.lsn = lsn;
  redo_log_->Append(std::move(entry));
  redo_log_->Force();
}

OperationReply DataComponent::ApplyOnce(const OperationRequest& req,
                                        ApplyOutcome* out) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;

  if (req.op == OpType::kCreateTable) {
    reply.status = btree_->CreateTable(req.table_id);
    if (reply.status.IsAlreadyExists()) {  // an idempotent resend
      reply.status = Status::OK();
      reply.was_duplicate = true;
    }
    return reply;
  }
  if (!IsWriteOp(req.op)) {
    switch (req.op) {
      case OpType::kRead:
        return DoRead(req);
      case OpType::kProbeNext:
      case OpType::kScanRange:
        return DoScan(req);
      default:
        reply.status = Status::InvalidArgument("unknown read op");
        return reply;
    }
  }

  // Write path; PerformImpl has admitted it through the duplicate filter.
  Frame* leaf = nullptr;
  Status s = btree_->LocateLeaf(req.table_id, req.key, /*exclusive=*/true,
                                &leaf);
  if (!s.ok()) {
    reply.status = s;
    return reply;
  }

  // Idempotence test (§5.1.2): Operation LSN <= Page abLSN.
  bool covered = leaf->ablsn.Covers(req.tc_id, req.lsn);
  const bool redo_in_progress =
      req.recovery_resend && !pool_->LwmAllowed(req.tc_id);
  if (covered && redo_in_progress) {
    // Post-regression redo (the TC has not re-armed at this DC): page
    // state was reverted, and a STALE coverage claim can be a
    // split-copied / merge-unioned abLSN that legitimately over-covers
    // keys whose effects the revert just discarded — trusting it would
    // silently skip the re-establishment this redo exists for. Only
    // coverage created by the current pass itself (a duplicated redo
    // batch re-delivering lsns at or below the pass's high-water mark)
    // is trusted; everything else re-executes. Redo re-execution is
    // safe: the stream carries only logically-applied ops, in LSN
    // order, and record writes are value-idempotent.
    std::lock_guard<std::mutex> guard(redo_mu_);
    auto it = redo_tcs_.find(req.tc_id);
    if (it == redo_tcs_.end() || req.lsn > it->second.fresh_max) {
      covered = false;
      stats_.redo_stale_coverage_overrides.fetch_add(1);
      if (TraceEnabled()) {
        fprintf(stderr, "[dc] OVERRIDE tc=%u lsn=%llu t=%u key=%s pid=%u\n",
                req.tc_id, (unsigned long long)req.lsn, req.table_id,
                req.key.c_str(), leaf->pid);
      }
    }
  }
  if (covered) {
    if (req.recovery_resend && TraceEnabled()) {
      fprintf(stderr, "[dc] SKIP-COVERED tc=%u lsn=%llu t=%u key=%s pid=%u\n",
              req.tc_id, (unsigned long long)req.lsn, req.table_id,
              req.key.c_str(), leaf->pid);
    }
    stats_.duplicate_hits.fetch_add(1);
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    reply.status = Status::OK();
    reply.was_duplicate = true;
    return reply;
  }

  // Page-sync strategy 1 (§5.1.2): while a flush waits for the abLSN to
  // collapse, refuse operations with LSNs beyond the current in-set.
  if (leaf->flush_waiting &&
      req.lsn > leaf->ablsn.MaxCoveredAll()) {
    leaf->latch.UnlockExclusive();
    pool_->Unpin(leaf);
    out->need_flush_wait = true;
    reply.status = Status::Busy("page flush pending");
    return reply;
  }

  reply = ApplyWriteOnLeaf(req, leaf, out);

  // Record the operation in the abstract LSN on every LOGICAL completion
  // — including failures (NotFound / AlreadyExists). A failed op's
  // "effect" is no-effect, and that too must be exactly-once: if it were
  // re-executed during recovery against a state where APPLIED ops are
  // skipped by the abLSN test (e.g. after a consolidation whose merged
  // abLSN covers them), it could succeed the second time and resurrect
  // or clobber data. Transient refusals (Busy: page full, flush wait)
  // are NOT recorded — they retry with the same LSN.
  const bool logical_completion = reply.status.ok() ||
                                  reply.status.IsNotFound() ||
                                  reply.status.IsAlreadyExists();
  if (logical_completion) {
    leaf->ablsn.Add(req.tc_id, req.lsn);
    if (redo_in_progress) {
      // Advance the pass's high-water mark: lsns at or below it are now
      // re-established, so a duplicated redo batch must not re-apply
      // them over later re-executed ops.
      std::lock_guard<std::mutex> guard(redo_mu_);
      Lsn& fresh = redo_tcs_[req.tc_id].fresh_max;
      if (req.lsn > fresh) fresh = req.lsn;
    }
  }
  if (reply.status.ok()) {
    leaf->dirty = true;
    if (leaf->first_op_lsn == 0 || req.lsn < leaf->first_op_lsn) {
      leaf->first_op_lsn = req.lsn;
    }
  }
  leaf->latch.UnlockExclusive();
  pool_->Unpin(leaf);
  return reply;
}

OperationReply DataComponent::ApplyWriteOnLeaf(const OperationRequest& req,
                                               Frame* leaf,
                                               ApplyOutcome* out) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  reply.status = Status::OK();

  SlottedPage page = leaf->Page(pool_->page_size(), pool_->trailer_capacity());
  bool found;
  const uint16_t slot = BTree::LeafLowerBound(page, req.key, &found);
  // The stored record is read in place; only the before-image is copied,
  // once, into the reply.
  LeafRecordView rec;
  if (found) {
    LeafRecordView::Decode(page.PayloadAt(slot), &rec);
  }

  // The new record is encoded into a per-thread buffer before it replaces
  // the old one: its value or before-image may be a slice of that record.
  thread_local std::string encoded;
  // A full page is not an error: the caller splits the leaf and retries.
  auto finish = [&](const Status& s) {
    if (s.IsBusy()) {
      out->need_split = true;
      reply.status = Status::Busy("page full");
      return;
    }
    reply.status = s;
  };
  auto replace = [&](TcId writer, uint8_t flags, const Slice& value,
                     const Slice& before) {
    EncodeLeafRecord(req.key, writer, flags, value, before, &encoded);
    finish(page.ReplaceAt(slot, encoded));
  };
  auto return_before = [&] {
    reply.value.assign(rec.value.data(), rec.value.size());
    reply.has_before = true;
  };
  // A versioned write keeps the committed version as the before-image
  // unless the record already has one (§6.2.2).
  auto versioned_before = [&](uint8_t* flags) {
    if (!req.versioned || rec.has_before()) return rec.before;
    *flags |= LeafRecord::kHasBefore;
    return rec.value;
  };

  switch (req.op) {
    case OpType::kInsert:
    case OpType::kUpsert: {
      if (!found && req.op == OpType::kUpsert && req.if_present) {
        // Refused in-place upsert: a logical no-effect completion, like
        // NotFound, so the caller records it in the abLSN, the reply
        // cache and the redo log. The next key is resolved first — an
        // empty list must mean EOF, never "could not read".
        if (!NextKeyAfterGap(leaf, slot, &reply.keys)) {
          out->need_retry = true;
          reply.status = Status::Busy("next key unreadable");
          return reply;
        }
        reply.status = Status::NotFound("upsert of absent key");
        reply.absent = true;
        return reply;
      }
      if (found && !(rec.is_tombstone() && req.versioned &&
                     rec.last_writer_tc == req.tc_id)) {
        if (req.op == OpType::kInsert && !rec.is_tombstone()) {
          reply.status = Status::AlreadyExists("key present");
          return reply;
        }
        if (req.op == OpType::kInsert && rec.is_tombstone()) {
          // Non-versioned tombstone cannot exist; versioned tombstone of
          // another TC conflicts — surface as AlreadyExists.
          reply.status = Status::AlreadyExists("key tombstoned");
          return reply;
        }
        // Upsert over an existing record behaves as update.
        return_before();
        uint8_t flags = rec.flags;
        const Slice before = versioned_before(&flags);
        flags &= ~LeafRecord::kCurrentIsTombstone;
        replace(req.tc_id, flags, req.value, before);
        return reply;
      }
      if (found) {
        // Versioned insert over our own uncommitted delete: revive the
        // record, keeping the original committed before-version.
        replace(req.tc_id, rec.flags & ~LeafRecord::kCurrentIsTombstone,
                req.value, rec.before);
        return reply;
      }
      // §6.2.2: a versioned insert provides a "null" before version.
      EncodeLeafRecord(req.key, req.tc_id,
                       req.versioned ? LeafRecord::kHasBefore |
                                           LeafRecord::kBeforeIsNull
                                     : 0,
                       req.value, Slice(), &encoded);
      finish(page.InsertAt(slot, encoded));
      return reply;
    }

    case OpType::kUpdate: {
      if (!found || rec.is_tombstone()) {
        reply.status = Status::NotFound("update of missing key");
        return reply;
      }
      return_before();  // the TC's undo information
      uint8_t flags = rec.flags;
      const Slice before = versioned_before(&flags);
      replace(req.tc_id, flags, req.value, before);
      return reply;
    }

    case OpType::kDelete: {
      if (!found || rec.is_tombstone()) {
        reply.status = Status::NotFound("delete of missing key");
        return reply;
      }
      return_before();
      if (req.versioned) {
        uint8_t flags = rec.flags;
        const Slice before = versioned_before(&flags);
        replace(req.tc_id, flags | LeafRecord::kCurrentIsTombstone, Slice(),
                before);
      } else {
        page.RemoveAt(slot);
      }
      if (page.FillFraction() < 0.2) {
        out->maybe_consolidate = true;
        out->consolidate_key = req.key;
      }
      return reply;
    }

    case OpType::kPromoteVersion: {
      // Commit-time cleanup (§6.2.2): drop the before version, making the
      // later version the committed one. Idempotent by construction.
      if (!found) return reply;
      if (rec.is_tombstone()) {
        page.RemoveAt(slot);
        if (page.FillFraction() < 0.2) {
          out->maybe_consolidate = true;
          out->consolidate_key = req.key;
        }
        return reply;
      }
      if (rec.has_before()) {
        replace(rec.last_writer_tc,
                rec.flags & ~(LeafRecord::kHasBefore |
                              LeafRecord::kBeforeIsNull),
                rec.value, Slice());
      }
      return reply;
    }

    case OpType::kRollbackVersion: {
      // Abort-time cleanup (§6.2.2): remove the latest version.
      if (!found) return reply;
      if (rec.has_before()) {
        if (rec.before_is_null()) {
          page.RemoveAt(slot);  // undo an uncommitted insert
        } else {
          replace(rec.last_writer_tc,
                  rec.flags & ~(LeafRecord::kHasBefore |
                                LeafRecord::kBeforeIsNull |
                                LeafRecord::kCurrentIsTombstone),
                  rec.before, Slice());
        }
      }
      return reply;
    }

    default:
      reply.status = Status::InvalidArgument("unknown write op");
      return reply;
  }
}

bool DataComponent::NextKeyAfterGap(Frame* leaf, uint16_t slot,
                                    std::vector<std::string>* keys) {
  SlottedPage page = leaf->Page(pool_->page_size(), pool_->trailer_capacity());
  Slice next_key;
  if (slot < page.slot_count()) {
    LeafRecord::DecodeKey(page.PayloadAt(slot), &next_key);
    keys->push_back(next_key.ToString());
    return true;
  }
  bool ok = true;
  Frame* held = nullptr;
  for (PageId next = page.next_page(); next != kInvalidPageId;) {
    Frame* frame = nullptr;
    if (!pool_->Fetch(next, &frame).ok()) {
      ok = false;
      break;
    }
    frame->latch.LockShared();
    if (held != nullptr) {
      held->latch.UnlockShared();
      pool_->Unpin(held);
    }
    held = frame;
    if (frame->retired) {
      ok = false;
      break;
    }
    SlottedPage sibling =
        frame->Page(pool_->page_size(), pool_->trailer_capacity());
    if (sibling.slot_count() > 0) {
      LeafRecord::DecodeKey(sibling.PayloadAt(0), &next_key);
      keys->push_back(next_key.ToString());
      break;
    }
    next = sibling.next_page();
  }
  if (held != nullptr) {
    held->latch.UnlockShared();
    pool_->Unpin(held);
  }
  return ok;
}

OperationReply DataComponent::DoRead(const OperationRequest& req) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  Frame* leaf = nullptr;
  Status s =
      btree_->LocateLeaf(req.table_id, req.key, /*exclusive=*/false, &leaf);
  if (!s.ok()) {
    reply.status = s;
    return reply;
  }
  SlottedPage page = leaf->Page(pool_->page_size(), pool_->trailer_capacity());
  bool found;
  const uint16_t slot = BTree::LeafLowerBound(page, req.key, &found);
  if (!found) {
    reply.status = Status::NotFound("key absent");
  } else {
    LeafRecordView rec;
    LeafRecordView::Decode(page.PayloadAt(slot), &rec);
    Slice value;
    if (VisibleValue(rec, req.read_flavor, &value)) {
      reply.status = Status::OK();
      reply.value.assign(value.data(), value.size());
    } else {
      reply.status = Status::NotFound("no visible version");
    }
  }
  leaf->latch.UnlockShared();
  pool_->Unpin(leaf);
  return reply;
}

OperationReply DataComponent::DoScan(const OperationRequest& req) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  reply.status = Status::OK();
  const uint32_t limit =
      req.limit == 0 ? options_.default_scan_limit : req.limit;
  const bool probe = (req.op == OpType::kProbeNext);

  std::string resume_key = req.key;
  // Streamed/windowed resumes exclude the start key itself; the flag is
  // also flipped internally after a retired page forces a restart.
  bool skip_equal = req.exclusive_start;

  for (int restart = 0; restart < 64; ++restart) {
    Frame* leaf = nullptr;
    Status s = btree_->LocateLeaf(req.table_id, resume_key,
                                  /*exclusive=*/false, &leaf);
    if (!s.ok()) {
      reply.status = s;
      return reply;
    }
    for (;;) {
      SlottedPage page =
          leaf->Page(pool_->page_size(), pool_->trailer_capacity());
      bool found;
      uint16_t slot = BTree::LeafLowerBound(page, resume_key, &found);
      if (found && skip_equal) ++slot;
      for (uint16_t i = slot; i < page.slot_count(); ++i) {
        LeafRecordView rec;
        LeafRecordView::Decode(page.PayloadAt(i), &rec);
        if (!req.end_key.empty() && rec.key.compare(req.end_key) >= 0) {
          leaf->latch.UnlockShared();
          pool_->Unpin(leaf);
          return reply;
        }
        if (probe) {
          // Probes report every key (locking needs the full picture).
          reply.keys.push_back(rec.key.ToString());
        } else {
          Slice value;
          if (VisibleValue(rec, req.read_flavor, &value)) {
            reply.keys.push_back(rec.key.ToString());
            reply.values.push_back(value.ToString());
          }
        }
        resume_key.assign(rec.key.data(), rec.key.size());
        skip_equal = true;
        if (reply.keys.size() >= limit) {
          leaf->latch.UnlockShared();
          pool_->Unpin(leaf);
          return reply;
        }
      }
      // Advance to the right sibling with latch coupling.
      const PageId next = page.next_page();
      if (next == kInvalidPageId) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        return reply;
      }
      Frame* next_frame = nullptr;
      s = pool_->Fetch(next, &next_frame);
      if (!s.ok()) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        break;  // structure changed; restart from resume_key
      }
      next_frame->latch.LockShared();
      leaf->latch.UnlockShared();
      pool_->Unpin(leaf);
      leaf = next_frame;
      if (leaf->retired) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        break;  // restart from resume_key
      }
    }
  }
  return reply;
}

// ---- Credited scan streams with DC-side cursors (PR 4) -----------------------

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void DataComponent::ReadScanWindow(ScanCursor* cursor, std::string start,
                                   bool start_exclusive,
                                   const std::string& end_bound,
                                   uint32_t max_rows, bool peek_next,
                                   ScanStreamChunk* chunk, bool* exhausted) {
  *exhausted = false;
  chunk->status = Status::OK();
  const bool probe = cursor->req.probe_rows;
  const ReadFlavor flavor = cursor->req.base.read_flavor;
  const TableId table = cursor->req.base.table_id;
  // Probe windows read one extra physical key — the fencepost the TC
  // locks for phantom safety — folded into next_key below.
  const uint32_t target = max_rows + (probe && peek_next ? 1 : 0);
  std::string resume = start;
  bool skip_equal = start_exclusive;
  bool range_ended = false;
  bool complete = false;

  for (int restart = 0; restart < 64 && !complete; ++restart) {
    Frame* leaf = nullptr;
    // The cursor's leaf hint first: a still-valid hint resumes the scan
    // without the root-to-leaf descent PR 3 paid per chunk. An SMO
    // invalidates it via the retired flag (consolidation) or by moving
    // the resume position past the leaf (split — keys only move right,
    // so first_key <= resume keeps the forward chain correct).
    if (cursor->leaf_hint != kInvalidPageId) {
      Frame* f = nullptr;
      if (pool_->Fetch(cursor->leaf_hint, &f).ok()) {
        f->latch.LockShared();
        SlottedPage p =
            f->Page(pool_->page_size(), pool_->trailer_capacity());
        bool valid = !f->retired && p.type() == PageType::kLeaf &&
                     p.table_id() == table && p.slot_count() > 0;
        if (valid) {
          Slice first;
          LeafRecord::DecodeKey(p.PayloadAt(0), &first);
          valid = first.compare(resume) <= 0;
        }
        if (valid) {
          leaf = f;
          stats_.scan_cursor_hint_hits.fetch_add(1);
        } else {
          f->latch.UnlockShared();
          pool_->Unpin(f);
        }
      }
      if (leaf == nullptr) cursor->leaf_hint = kInvalidPageId;
    }
    if (leaf == nullptr) {
      Status s =
          btree_->LocateLeaf(table, resume, /*exclusive=*/false, &leaf);
      if (!s.ok()) {
        chunk->status = s;
        return;
      }
      stats_.scan_cursor_descends.fetch_add(1);
    }
    // Walk the leaf chain with latch coupling, collecting the window.
    while (leaf != nullptr) {
      SlottedPage page =
          leaf->Page(pool_->page_size(), pool_->trailer_capacity());
      bool found;
      uint16_t slot = BTree::LeafLowerBound(page, resume, &found);
      if (found && skip_equal) ++slot;
      for (uint16_t i = slot; i < page.slot_count(); ++i) {
        LeafRecordView rec;
        LeafRecordView::Decode(page.PayloadAt(i), &rec);
        if (!end_bound.empty() && rec.key.compare(end_bound) >= 0) {
          range_ended = true;
          break;
        }
        Slice value;
        const bool visible = VisibleValue(rec, flavor, &value);
        if (probe) {
          // Probe semantics (§3.1): every physical key is reported so
          // the TC can lock tombstoned records too; invisible rows are
          // marked and carry an empty value.
          if (!visible) {
            chunk->invisible.push_back(
                static_cast<uint32_t>(chunk->keys.size()));
            value.clear();
          }
          chunk->keys.push_back(rec.key.ToString());
          chunk->values.push_back(value.ToString());
        } else if (visible) {
          chunk->keys.push_back(rec.key.ToString());
          chunk->values.push_back(value.ToString());
        }
        resume.assign(rec.key.data(), rec.key.size());
        skip_equal = true;
        if (chunk->keys.size() >= target) break;
      }
      if (range_ended || chunk->keys.size() >= target) {
        cursor->leaf_hint = leaf->pid;
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        complete = true;
        break;
      }
      const PageId next = page.next_page();
      if (next == kInvalidPageId) {
        range_ended = true;
        cursor->leaf_hint = leaf->pid;
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        complete = true;
        break;
      }
      Frame* next_frame = nullptr;
      Status s = pool_->Fetch(next, &next_frame);
      if (!s.ok()) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        break;  // structure changed; restart from resume
      }
      next_frame->latch.LockShared();
      leaf->latch.UnlockShared();
      pool_->Unpin(leaf);
      leaf = next_frame;
      if (leaf->retired) {
        leaf->latch.UnlockShared();
        pool_->Unpin(leaf);
        leaf = nullptr;
        break;  // restart from resume
      }
    }
  }
  // 64 restarts without completing: return the partial window (the
  // stream resumes after it) rather than erroring, like DoScan.

  if (probe && peek_next && chunk->keys.size() == target) {
    // Fold the peeked row into the fencepost: the next window starts AT
    // it (inclusive), exactly the PR 3 fetch-ahead resume discipline.
    chunk->next_key = chunk->keys.back();
    chunk->keys.pop_back();
    chunk->values.pop_back();
    if (!chunk->invisible.empty() &&
        chunk->invisible.back() ==
            static_cast<uint32_t>(chunk->keys.size())) {
      chunk->invisible.pop_back();
    }
    cursor->resume_key = chunk->next_key;
    cursor->resume_exclusive = false;
  } else {
    cursor->resume_key = resume;
    cursor->resume_exclusive = skip_equal;
  }
  *exhausted = range_ended;
}

void DataComponent::ProduceScanChunks(
    const std::shared_ptr<ScanCursor>& cursor, const ScanChunkEmitter& emit,
    const ScanCreditRequest* credit) {
  std::lock_guard<std::mutex> cursor_guard(cursor->mu);
  active_ops_.fetch_add(1);
  struct OpGuard {
    DataComponent* dc;
    ~OpGuard() { dc->EndActiveOp(); }
  } guard{this};

  cursor->last_active_ms.store(SteadyNowMs());
  if (credit != nullptr) {
    cursor->allowed = std::max(cursor->allowed, credit->allowed_chunks);
  }
  const uint32_t chunk_rows =
      cursor->req.chunk_rows == 0 ? 128 : cursor->req.chunk_rows;
  const uint64_t total = cursor->req.base.limit;  // 0 = unbounded

  auto make_chunk = [&](const std::string& from, bool exclusive) {
    ScanStreamChunk chunk;
    chunk.tc_id = cursor->req.base.tc_id;
    chunk.stream_id = cursor->req.base.lsn;
    chunk.chunk_index = cursor->next_chunk;
    chunk.resume_key = from;
    chunk.resume_exclusive = exclusive;
    return chunk;
  };

  // A rewind applies even to an exhausted cursor: the final window's
  // validated read re-reads [rewind_key, end) after the done chunk.
  if (credit != nullptr && credit->rewind &&
      credit->expect_chunk == cursor->next_chunk && !crashed_.load()) {
    // Validated-window rewind: serve window k's post-lock read from the
    // same cursor that probed it. The window is re-read in full — its
    // size is bounded by the locked key set plus whatever slipped in
    // before the locks, never by chunk_rows.
    stats_.scan_rewinds.fetch_add(1);
    const std::string& upto = credit->rewind_upto;
    const std::string& end_bound =
        upto.empty() ? cursor->req.base.end_key : upto;
    ScanStreamChunk chunk =
        make_chunk(credit->rewind_key, credit->rewind_exclusive);
    bool window_ended = false;
    ReadScanWindow(cursor.get(), credit->rewind_key,
                   credit->rewind_exclusive, end_bound,
                   /*max_rows=*/1u << 20, /*peek_next=*/false, &chunk,
                   &window_ended);
    if (chunk.status.ok() && !window_ended) {
      // The re-read gave up mid-window (64 SMO-race restarts): a
      // validated read MUST cover the whole locked window or rows
      // would silently vanish from a serializable scan. Surface a
      // retryable failure; the TC restarts the stream.
      chunk.status = Status::Busy("rewind window kept racing SMOs");
      chunk.keys.clear();
      chunk.values.clear();
      chunk.invisible.clear();
    }
    if (!chunk.status.ok()) {
      cursor->exhausted.store(true);
    } else if (upto.empty()) {
      // The re-read ran to the stream's end bound: nothing follows.
      cursor->exhausted.store(true);
      chunk.done = true;
    } else {
      cursor->resume_key = upto;
      cursor->resume_exclusive = false;
      cursor->exhausted.store(false);
    }
    ++cursor->next_chunk;
    stats_.scan_chunks_emitted.fetch_add(1);
    emit(chunk);
  }

  while (!cursor->exhausted.load() && cursor->next_chunk < cursor->allowed) {
    if (crashed_.load()) return;  // chunks die with the DC; TC restarts
    uint32_t want = chunk_rows;
    if (total != 0) {
      if (cursor->emitted_rows >= total) {
        cursor->exhausted.store(true);
        break;
      }
      want = static_cast<uint32_t>(
          std::min<uint64_t>(chunk_rows, total - cursor->emitted_rows));
    }
    ScanStreamChunk chunk =
        make_chunk(cursor->resume_key, cursor->resume_exclusive);
    bool window_ended = false;
    ReadScanWindow(cursor.get(), cursor->resume_key,
                   cursor->resume_exclusive, cursor->req.base.end_key, want,
                   /*peek_next=*/true, &chunk, &window_ended);
    cursor->emitted_rows += chunk.keys.size();
    const bool limit_hit = total != 0 && cursor->emitted_rows >= total;
    chunk.done = !chunk.status.ok() || window_ended || limit_hit;
    if (chunk.done) {
      cursor->exhausted.store(true);
      // A finished plain stream leaves the table BEFORE its done chunk
      // does, so a TC that has seen the end never finds it registered.
      // Probe cursors stay until the TC's close: the last window's
      // rewind still reads from them.
      if (!cursor->req.probe_rows) {
        std::lock_guard<std::mutex> guard(cursor_mu_);
        auto it = cursors_.find(
            std::make_pair(cursor->req.base.tc_id, cursor->req.base.lsn));
        if (it != cursors_.end() && it->second == cursor) cursors_.erase(it);
      }
    }
    ++cursor->next_chunk;
    stats_.scan_chunks_emitted.fetch_add(1);
    emit(chunk);
    if (!chunk.status.ok()) break;
  }
  if (!cursor->exhausted.load() && cursor->next_chunk >= cursor->allowed) {
    stats_.scan_stream_pauses.fetch_add(1);
  }
  cursor->last_active_ms.store(SteadyNowMs());
}

void DataComponent::PerformScanStream(const ScanStreamRequest& req,
                                      const ScanChunkEmitter& emit) {
  auto fail = [&](Status status) {
    ScanStreamChunk chunk;
    chunk.tc_id = req.base.tc_id;
    chunk.stream_id = req.base.lsn;
    chunk.done = true;
    chunk.status = std::move(status);
    emit(chunk);
  };
  if (crashed_.load()) return fail(Status::Crashed("dc is down"));
  if (role_.load() == DcRole::kReplica) {
    return fail(Status::Crashed("dc is a replica"));
  }
  // Every stream is credited: a zero window could never produce a chunk.
  if (req.credit_chunks == 0) {
    return fail(Status::InvalidArgument("scan stream with zero credit"));
  }
  EvictIdleScanCursors();
  stats_.scan_streams.fetch_add(1);
  auto cursor = std::make_shared<ScanCursor>();
  cursor->req = req;
  cursor->resume_key = req.base.key;
  cursor->resume_exclusive = req.base.exclusive_start;
  cursor->allowed = req.credit_chunks;
  cursor->last_active_ms.store(SteadyNowMs());
  {
    std::lock_guard<std::mutex> guard(cursor_mu_);
    auto inserted = cursors_.try_emplace(
        std::make_pair(req.base.tc_id, req.base.lsn), cursor);
    // A duplicated stream request must not fork a second execution: the
    // first arrival owns the cursor; the duplicate's chunks would be
    // dropped by the TC's index dedup anyway.
    if (!inserted.second) return;
  }
  ProduceScanChunks(cursor, emit, nullptr);
}

void DataComponent::ScanCredit(const ScanCreditRequest& req,
                               const ScanChunkEmitter& emit) {
  if (crashed_.load() || role_.load() == DcRole::kReplica) return;
  EvictIdleScanCursors();
  std::shared_ptr<ScanCursor> cursor;
  {
    std::lock_guard<std::mutex> guard(cursor_mu_);
    auto it = cursors_.find(std::make_pair(req.tc_id, req.stream_id));
    if (it == cursors_.end()) return;  // unknown/stale stream: TC restarts
    if (req.close) {
      cursors_.erase(it);
      return;
    }
    cursor = it->second;
  }
  ProduceScanChunks(cursor, emit, &req);
}

size_t DataComponent::ScanCursorCount() const {
  std::lock_guard<std::mutex> guard(cursor_mu_);
  return cursors_.size();
}

size_t DataComponent::EvictIdleScanCursors() {
  const int64_t now = SteadyNowMs();
  const int64_t ttl = static_cast<int64_t>(options_.scan_cursor_ttl_ms);
  std::lock_guard<std::mutex> guard(cursor_mu_);
  size_t evicted = 0;
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (now - it->second->last_active_ms.load() > ttl) {
      it = cursors_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  stats_.scan_cursors_evicted.fetch_add(evicted);
  return evicted;
}

void DataComponent::EvictScanCursorsForTc(TcId tc) {
  std::lock_guard<std::mutex> guard(cursor_mu_);
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->first.first == tc) {
      it = cursors_.erase(it);
      stats_.scan_cursors_evicted.fetch_add(1);
    } else {
      ++it;
    }
  }
}

void DataComponent::OnTcDisconnect(TcId tc) { EvictScanCursorsForTc(tc); }

void DataComponent::ClearScanCursors() {
  std::lock_guard<std::mutex> guard(cursor_mu_);
  cursors_.clear();
}

ControlReply DataComponent::Control(const ControlRequest& req) {
  ControlReply reply;
  reply.type = req.type;
  reply.tc_id = req.tc_id;
  reply.seq = req.seq;
  if (crashed_.load()) {
    reply.status = Status::Crashed("dc is down");
    return reply;
  }
  if (role_.load() == DcRole::kReplica) {
    reply.status = Status::Crashed("dc is a replica");
    return reply;
  }
  switch (req.type) {
    case ControlType::kEndOfStableLog:
      pool_->OnEndOfStableLog(req.tc_id, req.lsn);
      AppendRedoControl(RedoEntryKind::kEosl, req.tc_id, req.lsn);
      reply.status = Status::OK();
      break;
    case ControlType::kLowWaterMark:
      filter_.Advance(req.tc_id, req.lsn,
                      pool_->OnLowWaterMark(req.tc_id, req.lsn));
      AppendRedoControl(RedoEntryKind::kLwm, req.tc_id, req.lsn);
      reply.status = Status::OK();
      break;
    case ControlType::kCheckpoint: {
      // Replica clamp: the TC may not truncate its log below an op the
      // slowest registered replica has not acked — after a failover to
      // that replica the TC must still be able to re-drive it.
      Lsn granted = req.lsn;
      if (redo_log_ != nullptr && redo_log_->replication_enabled()) {
        const uint64_t floor =
            redo_log_->MinOpLsnAfter(redo_log_->MinReplicaAck(), req.tc_id);
        if (floor < granted) granted = static_cast<Lsn>(floor);
      }
      reply.status = DoTcCheckpoint(req.tc_id, granted);
      reply.rlsn = granted;  // the GRANTED (possibly clamped) truncation point
      break;
    }
    case ControlType::kRestartBegin: {
      // The failed TC's open streams died with it: drop their cursors.
      EvictScanCursorsForTc(req.tc_id);
      std::vector<TcId> escalate;
      reply.status = DoReset(req.tc_id, req.lsn, &escalate);
      reply.escalate_tcs = std::move(escalate);
      if (reply.status.ok()) {
        // Replicas reproduce the page-reset semantics by cancel-filtered
        // replay keyed off this entry.
        AppendRedoControl(RedoEntryKind::kReset, req.tc_id, req.lsn);
        if (redo_log_ != nullptr) {
          // The reset reverted pages to OUR stable images, but on a
          // promoted standby those need not cover everything below the
          // TCs' RSSPs — the checkpoint clamp negotiated page stability
          // with the old primary, and escalation resends cannot reach
          // below a truncated TC log. Our own redo log holds the full
          // applied history (the kReset above cancel-filters the lost
          // tail), so re-derive the post-reset truth locally.
          uint64_t replayed = 0;
          Status rs = RecoverFromLocalLog(&replayed);
          if (TraceEnabled()) {
            fprintf(stderr,
                    "[dc %p] RESTART tc=%u stable_end=%llu esc=%zu replay=%s "
                    "ops=%llu end=%llu\n",
                    (void*)this, req.tc_id, (unsigned long long)req.lsn,
                    reply.escalate_tcs.size(), rs.ToString().c_str(),
                    (unsigned long long)replayed,
                    (unsigned long long)redo_log_->end());
          }
          if (!rs.ok()) reply.status = rs;
        }
      }
      std::lock_guard<std::mutex> guard(redo_mu_);
      // The local replay above may re-execute the TC's ops: treat it as
      // a revert.
      if (redo_log_ != nullptr) BumpRedoEpochLocked(req.tc_id);
      // Settled before this reset and nothing reverted since (a revert,
      // here or by a concurrent escalation, clears `settled`).
      auto it = redo_tcs_.find(req.tc_id);
      reply.redo_intact = reply.status.ok() && it != redo_tcs_.end() &&
                          it->second.settled;
      reply.redo_epoch = RedoEpochLocked(req.tc_id);
      if (reply.redo_intact) stats_.resets_intact.fetch_add(1);
      break;
    }
    case ControlType::kRestartEnd: {
      // The TC finished its redo resend: its LWM is trustworthy again,
      // and the page abLSNs are once more the coverage authority.
      pool_->AllowLwm(req.tc_id);
      std::lock_guard<std::mutex> guard(redo_mu_);
      const uint64_t epoch = RedoEpochLocked(req.tc_id);
      TcRedo& redo = redo_tcs_[req.tc_id];
      redo.fresh_max = 0;
      // The pass re-established everything only if nothing was lost
      // since it began: a stale or missing epoch settles nothing.
      if (req.redo_epoch != 0 && req.redo_epoch == epoch) {
        redo.epoch = epoch;
        redo.settled = true;
      }
      reply.status = Status::OK();
      break;
    }
    case ControlType::kDcCheckpoint:
      reply.status = DoDcCheckpoint();
      break;
    case ControlType::kQueryReplication:
      // "Can you recover locally / do you hold an applied-op log?" The
      // TC's restart path uses rlsn (our applied end) to resend only the
      // suffix its acked-rlsn records say we never durably applied.
      reply.replication_enabled = redo_log_ != nullptr;
      // rlsn 0 unless the state provably reflects the whole log (fresh
      // operation, a finished local replay, or replica apply) — a loaded
      // but unreplayed prefix must not suppress the TC's resend.
      reply.rlsn = redo_log_ != nullptr && redo_state_current_.load()
                       ? redo_log_->end()
                       : 0;
      {
        std::lock_guard<std::mutex> guard(redo_mu_);
        reply.redo_epoch = RedoEpochLocked(req.tc_id);
      }
      reply.status = Status::OK();
      break;
    default:
      reply.status = Status::InvalidArgument("unknown control type");
      break;
  }
  return reply;
}

Status DataComponent::DoTcCheckpoint(TcId /*tc*/, Lsn new_rssp) {
  // "DC will reply once it has made stable all pages that contain
  // operations whose LSN is below newRSSP" (§4.2.1). The filter uses the
  // page-global first-op LSN: over-flushing other TCs' pages is harmless.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    pool_->FlushAllEligible();
    bool remaining = false;
    for (PageId pid : pool_->CachedPages()) {
      Frame* frame = nullptr;
      if (!pool_->Fetch(pid, &frame).ok()) continue;
      const bool blocking = frame->dirty && frame->first_op_lsn != 0 &&
                            frame->first_op_lsn < new_rssp;
      pool_->Unpin(frame);
      if (blocking) {
        remaining = true;
        break;
      }
    }
    if (!remaining) return Status::OK();
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("checkpoint could not flush all pages");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status DataComponent::DoDcCheckpoint() {
  const uint64_t watermark = redo_log_ != nullptr ? redo_log_->end() : 0;
  pool_->FlushAllEligible();
  // The DC log can be truncated below the earliest system-transaction
  // record still needed by a dirty page.
  DLsn min_rec = dc_log_->stable_dlsn_end();
  for (PageId pid : pool_->CachedPages()) {
    Frame* frame = nullptr;
    if (!pool_->Fetch(pid, &frame).ok()) continue;
    if (frame->dirty && frame->rec_dlsn != 0 && frame->rec_dlsn < min_rec) {
      min_rec = frame->rec_dlsn;
    }
    pool_->Unpin(frame);
  }
  const DLsn pending_free = pool_->OldestPendingFreeDlsn();
  if (pending_free != kInvalidDLsn && pending_free < min_rec) {
    min_rec = pending_free;
  }
  dc_log_->TruncateBelow(min_rec);
  // Checkpoint marker: advisory for local recovery (EOSL-ineligible
  // pages may hold back ops <= W, so replay still starts at rlsn 1 and
  // leans on abLSN duplicate skips), but it propagates the checkpoint
  // cadence to replicas, which flush their own pages on seeing it.
  if (redo_log_ != nullptr) {
    AppendRedoControl(RedoEntryKind::kWatermark, 0, watermark);
  }
  return Status::OK();
}

Status DataComponent::DoReset(TcId tc, Lsn stable_end,
                              std::vector<TcId>* escalate) {
  // §5.3.2 / §6.1.2: drop exactly the cached pages whose abLSN includes
  // operations beyond the failed TC's stable log; on shared pages, reset
  // only the failed TC's records.
  std::vector<TcId> escalate_set;
  // Whether the reset may have reverted any of the failed TC's effects.
  bool reverted = false;
  // Pages a reader held past the drop deadline: they stay cached, marked
  // reset_stale (never flushed), and the next reset drops them first.
  std::vector<PageId> undropped;
  auto drop = [&](PageId pid) {
    if (pool_->Drop(pid, kResetDropTimeoutMs).ok()) return true;
    undropped.push_back(pid);
    return false;
  };
  // Reverts pid to its stable version by dropping the cached frame; every
  // other TC with effects on it must resend them (escalation).
  auto revert_page = [&](PageId pid) {
    Frame* frame = nullptr;
    if (!pool_->Fetch(pid, &frame).ok()) return;
    frame->latch.LockExclusive();
    for (const auto& [other_tc, ab] : frame->ablsn.entries()) {
      if (other_tc != tc) escalate_set.push_back(other_tc);
    }
    frame->reset_stale = true;
    frame->latch.UnlockExclusive();
    pool_->Unpin(frame);
    if (drop(pid)) stats_.pages_reset_dropped.fetch_add(1);
  };

  // Pre-pass: settle the DC log. Batches whose causality floors are met
  // become stable (their structure survives the reset via replay); the
  // rest may embed operations the failed TC lost and can never be forced
  // — discard them AND every cached page they touched, reverting those
  // pages to their stable versions. Healthy TCs with data on such pages
  // must resend from their RSSP (escalation).
  pool_->ForceDcLog();
  pool_->DisallowLwm(tc);  // re-armed by the TC's restart-end
  {
    // Only a reset that drops them can repair pages an earlier reset had
    // to leave cached: their discarded batches are gone from the DC log.
    std::set<PageId> carried;
    {
      std::lock_guard<std::mutex> guard(reset_mu_);
      carried.swap(reset_undropped_);
    }
    if (!carried.empty()) reverted = true;
    for (PageId pid : pool_->CachedPages()) {
      if (carried.count(pid) > 0) revert_page(pid);
    }
  }
  const std::vector<DcLog::PendingBatchInfo> discarded =
      dc_log_->DiscardPending();
  if (!discarded.empty()) reverted = true;
  for (const auto& batch : discarded) {
    for (const auto& [other_tc, floor_lsn] : batch.floor) {
      if (other_tc != tc) escalate_set.push_back(other_tc);
    }
    for (PageId pid : batch.pids) revert_page(pid);
  }
  for (PageId pid : pool_->CachedPages()) {
    Frame* frame = nullptr;
    if (!pool_->Fetch(pid, &frame).ok()) continue;
    frame->latch.LockExclusive();
    const Lsn max_for_tc = frame->ablsn.MaxCoveredFor(tc);
    if (max_for_tc <= stable_end) {
      frame->latch.UnlockExclusive();
      pool_->Unpin(frame);
      continue;
    }
    if (TraceEnabled()) {
      fprintf(stderr, "[dc] RESET pid=%u tc=%u maxfor=%llu stable_end=%llu tccount=%zu\n",
              pid, tc, (unsigned long long)max_for_tc,
              (unsigned long long)stable_end,
              (size_t)frame->ablsn.TcCount());
    }
    reverted = true;  // the page is dropped or merged below
    const bool single_tc = frame->ablsn.TcCount() <= 1;
    bool drop_frame = single_tc;
    if (!single_tc) {
      // Multi-TC page: try the per-record merge against the stable
      // version; fall back to dropping + escalation.
      std::vector<char> stable(store_->page_size());
      Status rs = store_->Read(pid, stable.data());
      bool merged = false;
      if (rs.ok()) {
        SlottedPage stable_page(stable.data(), pool_->page_size(),
                                pool_->trailer_capacity());
        SlottedPage cached = frame->Page(pool_->page_size(),
                                         pool_->trailer_capacity());
        if (stable_page.dlsn() == cached.dlsn()) {
          merged = MergeResetLocked(frame, tc, stable);
        }
      }
      if (merged) {
        if (TraceEnabled()) fprintf(stderr, "[dc] RESET-MERGED pid=%u\n", pid);
        stats_.pages_reset_merged.fetch_add(1);
      } else {
        drop_frame = true;
        stats_.reset_escalations.fetch_add(1);
        for (const auto& [other_tc, ab] : frame->ablsn.entries()) {
          if (other_tc != tc) escalate_set.push_back(other_tc);
        }
      }
    }
    if (drop_frame) frame->reset_stale = true;
    frame->latch.UnlockExclusive();
    pool_->Unpin(frame);
    // The frame may be briefly pinned by a racing read.
    if (drop_frame && drop(pid) && single_tc) {
      stats_.pages_reset_dropped.fetch_add(1);
    }
  }
  // Evicted structure pages whose SMOs are on the stable DC log must be
  // brought back before the TC resends (§5.2.2 ordering).
  size_t smo_rewritten = 0;
  Status s = btree_->ReplayStableSmoBatches(&smo_rewritten);
  if (smo_rewritten > 0) reverted = true;

  std::sort(escalate_set.begin(), escalate_set.end());
  escalate_set.erase(std::unique(escalate_set.begin(), escalate_set.end()),
                     escalate_set.end());

  // Invalidate state that describes pre-reset executions: the failed
  // TC's filter window and floor (its log tail is gone, and its next
  // incarnation reuses LSNs past its stable end, which its LWM could
  // pass) and, for every escalated TC, both the window and the LWM
  // (their page effects were dropped — stale replies or LWM folding
  // would silently skip their resends). This runs even when the reset
  // fails: the pages it did drop are gone.
  for (TcId victim : escalate_set) pool_->DisallowLwm(victim);
  filter_.Forget(tc);
  for (TcId victim : escalate_set) filter_.Forget(victim);
  {
    // A NEW regression: the failed TC's and every escalated TC's next
    // redo pass must re-establish state from scratch, and a TC that may
    // have lost effects here moves to a new redo epoch.
    std::lock_guard<std::mutex> guard(redo_mu_);
    if (reverted) {
      BumpRedoEpochLocked(tc);
    } else {
      redo_tcs_[tc].fresh_max = 0;
    }
    for (TcId victim : escalate_set) BumpRedoEpochLocked(victim);
  }
  *escalate = std::move(escalate_set);
  if (!undropped.empty()) {
    {
      std::lock_guard<std::mutex> guard(reset_mu_);
      reset_undropped_.insert(undropped.begin(), undropped.end());
    }
    // A stale page left cached would defeat the reset, so this is an
    // error the TC sees, never a silent fall-through.
    return Status::TimedOut(std::to_string(undropped.size()) +
                            " page(s) stayed pinned past the reset "
                            "deadline; a retried reset drops them");
  }
  return s;
}

bool DataComponent::MergeResetLocked(Frame* frame, TcId tc,
                                     const std::vector<char>& stable) {
  SlottedPage cached =
      frame->Page(pool_->page_size(), pool_->trailer_capacity());
  SlottedPage stable_page(const_cast<char*>(stable.data()),
                          pool_->page_size(), pool_->trailer_capacity());

  // Index the stable records.
  std::map<std::string, LeafRecord> stable_recs;
  for (uint16_t i = 0; i < stable_page.slot_count(); ++i) {
    LeafRecord rec;
    if (LeafRecord::Decode(stable_page.PayloadAt(i), &rec)) {
      stable_recs[rec.key] = std::move(rec);
    }
  }

  // Pass 1: records last written by the failed TC revert to (or vanish
  // into) their stable state.
  for (uint16_t i = 0; i < cached.slot_count();) {
    LeafRecord rec;
    LeafRecord::Decode(cached.PayloadAt(i), &rec);
    if (rec.last_writer_tc != tc) {
      ++i;
      continue;
    }
    auto it = stable_recs.find(rec.key);
    if (it == stable_recs.end()) {
      cached.RemoveAt(i);
      continue;  // same index now holds the next slot
    }
    if (!cached.ReplaceAt(i, it->second.Encode()).ok()) {
      return false;  // no space — caller escalates
    }
    ++i;
  }
  // Pass 2: stable records of the failed TC missing from the cache
  // (a delete whose log record was lost) come back.
  for (const auto& [key, rec] : stable_recs) {
    if (rec.last_writer_tc != tc) continue;
    bool found;
    const uint16_t slot = BTree::LeafLowerBound(cached, key, &found);
    if (!found) {
      if (!cached.InsertAt(slot, rec.Encode()).ok()) {
        return false;
      }
    }
  }

  // The failed TC's abstract LSN reverts to what the stable page records.
  Slice trailer = stable_page.ReadTrailer();
  PageAbLsn stable_ab;
  if (!trailer.empty()) PageAbLsn::DecodeFrom(&trailer, &stable_ab);
  const AbstractLsn* stable_entry = stable_ab.Find(tc);
  if (stable_entry != nullptr) {
    frame->ablsn.Set(tc, *stable_entry);
  } else {
    frame->ablsn.Erase(tc);
  }
  frame->dirty = true;
  return true;
}

std::vector<OperationReply> DataComponent::PerformBatch(
    const std::vector<OperationRequest>& reqs) {
  stats_.batches.fetch_add(1);
  stats_.batched_ops.fetch_add(reqs.size());
  std::vector<OperationReply> replies;
  replies.reserve(reqs.size());
  if (role_.load() == DcRole::kReplica) {
    for (const auto& req : reqs) replies.push_back(Perform(req));  // refused
    return replies;
  }
  // A batch carrying recovery resends executes as ONE serial unit (see
  // Perform): duplicated copies of the same redo message must not
  // interleave their re-executions across server threads.
  std::unique_lock<std::recursive_mutex> recovery_serial;
  if (std::any_of(reqs.begin(), reqs.end(),
                  [](const auto& req) { return req.recovery_resend; })) {
    recovery_serial =
        std::unique_lock<std::recursive_mutex>(recovery_serial_mu_);
  }
  for (const auto& req : reqs) {
    replies.push_back(PerformImpl(req, /*record_redo=*/true,
                                  /*defer_redo_force=*/true));
  }
  // One redo force for the whole batch (group commit): no reply leaves
  // this message handler before its entry is durable.
  if (redo_log_ != nullptr) redo_log_->Force();
  return replies;
}

// -- Replication & local recovery (PR 8) --------------------------------------

void DataComponent::StartAsReplica() {
  if (redo_log_ == nullptr) {
    redo_log_ = std::make_unique<DcRedoLog>(options_.redo_log);
    if (redo_log_->end() > 0) redo_state_current_.store(false);
  }
  role_.store(DcRole::kReplica);
}

void DataComponent::Promote(uint64_t epoch) {
  if (TraceEnabled()) {
    fprintf(stderr, "[dc %p] PROMOTE epoch=%llu log_end=%llu\n", (void*)this,
            (unsigned long long)epoch,
            (unsigned long long)(redo_log_ ? redo_log_->end() : 0));
  }
  // Record the fence point BEFORE opening for traffic: anything a
  // rejoining ex-primary holds past this rlsn is divergent history.
  promotion_epoch_.store(epoch);
  promotion_base_.store(redo_log_ != nullptr ? redo_log_->end() : 0);
  {
    // No TC has run a redo pass against this DC's state as a primary.
    std::lock_guard<std::mutex> guard(redo_mu_);
    BumpAllRedoEpochsLocked();
  }
  role_.store(DcRole::kPrimary);
  stats_.promotions.fetch_add(1);
}

Status DataComponent::RejoinAsReplica(uint64_t promotion_base) {
  if (redo_log_ == nullptr) {
    return Status::InvalidArgument("dc has no redo log");
  }
  if (TraceEnabled()) {
    fprintf(stderr, "[dc %p] REJOIN promotion_base=%llu log_end=%llu\n",
            (void*)this, (unsigned long long)promotion_base,
            (unsigned long long)redo_log_->end());
  }
  // Replica role first: no TC traffic may append past the truncation.
  role_.store(DcRole::kReplica);
  redo_log_->set_replication_enabled(false);
  redo_log_->TruncateFrom(promotion_base + 1);
  // Pages may still hold effects of the dropped suffix. That is safe:
  // every such op is either re-shipped by the new primary (identical
  // content, absorbed as an abLSN duplicate) or cancelled by a TC reset
  // in the stream, which rebuilds this replica from scratch anyway.
  return Status::OK();
}

Status DataComponent::ApplyOneReplicated(const RedoEntry& entry) {
  switch (entry.kind) {
    case RedoEntryKind::kOp: {
      OperationRequest req;
      Slice in(entry.payload);
      if (!OperationRequest::DecodeFrom(&in, &req)) {
        return Status::Corruption("bad replicated op entry");
      }
      // A replayed op is recovery redo regardless of how it was first
      // delivered: the payload snapshots the ORIGINAL send's flag, but
      // here the op re-establishes page state after a regression. The
      // flag matters — a page the reset just reverted can still carry a
      // folded-LWM abLSN that over-covers this op (the fold only claimed
      // "the TC will never resend below here", which replay violates by
      // design), and only the recovery path distrusts such coverage.
      req.recovery_resend = true;
      OperationReply r = PerformImpl(req, /*record_redo=*/false,
                                     /*defer_redo_force=*/true);
      if (r.status.IsBusy()) {
        // The stream applies in strict rlsn order with no competing
        // traffic, so a parked strategy-1 flush can refuse this op
        // forever — the collapsing control may sit behind it in the
        // stream (cancel-filtered in-sets cover less than live history
        // did). Abandon the parked flushes and try again.
        pool_->AbandonParkedFlushes();
        r = PerformImpl(req, /*record_redo=*/false,
                        /*defer_redo_force=*/true);
      }
      if (r.status.IsBusy() || r.status.IsCrashed() ||
          r.status.IsTimedOut()) {
        if (TraceEnabled()) {
          fprintf(stderr, "[dc %p] REPLICA-DEFER %s op=%d tc=%u lsn=%llu\n",
                  (void*)this, r.status.ToString().c_str(), (int)req.op,
                  req.tc_id, (unsigned long long)req.lsn);
        }
        return Status::Busy("replica apply deferred");
      }
      return Status::OK();
    }
    case RedoEntryKind::kLwm:
      filter_.Advance(entry.tc, entry.lsn,
                      pool_->OnLowWaterMark(entry.tc, entry.lsn));
      return Status::OK();
    case RedoEntryKind::kEosl:
      pool_->OnEndOfStableLog(entry.tc, entry.lsn);
      return Status::OK();
    case RedoEntryKind::kWatermark:
      // The primary checkpointed here: flush our own eligible pages so
      // replica restarts replay a comparably short effective suffix and
      // the pool never jams on unflushable dirt during long catch-ups.
      pool_->FlushAllEligible();
      return Status::OK();
    case RedoEntryKind::kReset:
      return Status::OK();  // handled by the caller (reset-by-replay)
  }
  return Status::OK();
}

Status DataComponent::ReplayRedoEntries(const std::vector<RedoEntry>& entries,
                                        uint64_t* ops) {
  for (const RedoEntry& e : entries) {
    Status s = ApplyOneReplicated(e);
    // A replay runs with no competing traffic, so Busy here is a
    // transient flush/split window — retry briefly instead of failing
    // the whole recovery over it.
    for (int attempt = 0; s.IsBusy() && attempt < 200; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      s = ApplyOneReplicated(e);
    }
    if (!s.ok()) return s;
    if (e.kind == RedoEntryKind::kOp && ops != nullptr) ++*ops;
  }
  return Status::OK();
}

Status DataComponent::ApplyReplicated(const ReplicaEntriesMessage& msg) {
  if (redo_log_ == nullptr || role_.load() != DcRole::kReplica) {
    return Status::InvalidArgument("not an active replica");
  }
  if (crashed_.load()) return Status::Crashed("dc is down");
  // Serialized like recovery resends: the stream must apply in order.
  std::lock_guard<std::recursive_mutex> serial(recovery_serial_mu_);
  if (msg.from_rlsn > redo_log_->end() + 1) {
    return Status::InvalidArgument("replication gap; resubscribe");
  }
  for (size_t i = 0; i < msg.entries.size(); ++i) {
    const uint64_t rlsn = msg.from_rlsn + i;
    if (rlsn <= redo_log_->end()) continue;  // overlap: already applied
    const RedoEntry& e = msg.entries[i];
    if (e.kind == RedoEntryKind::kReset) {
      // Append BEFORE rebuilding: the rebuild's cancellation filter
      // keys off this entry's position in the retained log.
      redo_log_->Append(e);
      redo_log_->Force();
      Status s = ReplicaResetByReplay();
      if (!s.ok()) return s;
    } else {
      Status s = ApplyOneReplicated(e);
      if (!s.ok()) {
        // Transient (busy/flush-wait): force what we have; the link
        // retries from our end + 1.
        redo_log_->Force();
        return s;
      }
      redo_log_->Append(e);
    }
    stats_.replica_entries_applied.fetch_add(1);
  }
  redo_log_->Force();
  return Status::OK();
}

Status DataComponent::ReplicaResetByReplay() {
  stats_.replica_resets_replayed.fetch_add(1);
  // Snapshot the replay set first (the wipe never touches the redo log).
  std::vector<RedoEntry> survivors;
  redo_log_->SnapshotSurvivingOps(&survivors);
  // Full wipe: pool, caches, SMO log, store, tree format. Mirrors
  // Crash() + a store/SMO-log clear, then a fresh Bootstrap.
  crashed_.store(true);
  {
    std::unique_lock<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.wait(lock, [this] { return active_ops_.load() == 0; });
  }
  pool_->Clear();
  dc_log_->Clear();
  {
    std::lock_guard<std::mutex> guard(reset_mu_);
    reset_undropped_.clear();
  }
  filter_.Clear();
  {
    std::lock_guard<std::mutex> guard(redo_mu_);
    BumpAllRedoEpochsLocked();
  }
  ClearScanCursors();
  store_->Reset();
  crashed_.store(false);
  Status s = btree_->Bootstrap();
  if (s.ok()) s = ReplayRedoEntries(survivors, nullptr);
  if (!s.ok()) {
    // A half-rebuilt replica must never be promoted.
    crashed_.store(true);
  } else {
    redo_state_current_.store(true);
  }
  return s;
}

Status DataComponent::RecoverFromLocalLog(uint64_t* replayed_out) {
  if (redo_log_ == nullptr) {
    return Status::InvalidArgument("dc has no redo log");
  }
  if (crashed_.load()) return Status::Crashed("dc is down");
  std::lock_guard<std::recursive_mutex> serial(recovery_serial_mu_);
  // Always the full cancel-filtered set from rlsn 1: checkpoint
  // watermarks cannot promise every op <= W reached a stable page
  // (EOSL-ineligible pages hold ops back), but abLSN duplicate
  // detection makes re-offering already-reflected ops cheap.
  std::vector<RedoEntry> entries;
  redo_log_->SnapshotSurvivingOps(&entries);
  uint64_t ops = 0;
  Status s = ReplayRedoEntries(entries, &ops);
  stats_.local_recovery_ops.fetch_add(ops);
  if (replayed_out != nullptr) *replayed_out = ops;
  if (s.ok()) redo_state_current_.store(true);
  return s;
}

}  // namespace untx
