#include "dc/buffer_pool.h"

#include <cassert>
#include <chrono>

namespace untx {

BufferPool::BufferPool(StableStore* store, DcLog* dc_log,
                       BufferPoolOptions options)
    : store_(store), dc_log_(dc_log), options_(options) {}

Status BufferPool::Fetch(PageId pid, Frame** out) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    ++stats_.fetches;
    auto it = frames_.find(pid);
    if (it != frames_.end()) {
      ++stats_.hits;
      Frame* frame = it->second.get();
      PinLocked(frame, /*touch=*/true);
      *out = frame;
      return Status::OK();
    }
  }
  // Miss: read outside the pool mutex.
  std::vector<char> data(store_->page_size());
  Status s = store_->Read(pid, data.data());
  if (!s.ok()) return s;

  std::lock_guard<std::mutex> guard(mu_);
  // Another thread may have raced the load.
  auto it = frames_.find(pid);
  if (it != frames_.end()) {
    Frame* frame = it->second.get();
    PinLocked(frame, /*touch=*/true);
    *out = frame;
    return Status::OK();
  }
  auto frame = std::make_unique<Frame>();
  frame->pid = pid;
  frame->data = std::move(data);
  // Recover the in-memory abLSN from the page-sync trailer.
  SlottedPage page = frame->Page(page_size(), trailer_capacity());
  Slice trailer = page.ReadTrailer();
  if (!trailer.empty()) {
    PageAbLsn ab;
    if (PageAbLsn::DecodeFrom(&trailer, &ab)) {
      frame->ablsn = std::move(ab);
    }
  }
  Frame* raw = frame.get();
  PinLocked(raw, /*touch=*/true);
  frames_[pid] = std::move(frame);
  MaybeEvictLocked();
  *out = raw;
  return Status::OK();
}

Frame* BufferPool::Create(PageId pid) {
  std::lock_guard<std::mutex> guard(mu_);
  auto frame = std::make_unique<Frame>();
  frame->pid = pid;
  frame->data.assign(store_->page_size(), 0);
  frame->dirty = true;
  Frame* raw = frame.get();
  PinLocked(raw, /*touch=*/true);
  // A recycled pid may still have a stale clean frame cached; it must not
  // be pinned (FreePage frees a pid only once its frame is gone).
  auto it = frames_.find(pid);
  if (it != frames_.end()) {
    assert(it->second->pins == 0);
    UnlinkCleanLocked(it->second.get());
    it->second = std::move(frame);
  } else {
    frames_.emplace(pid, std::move(frame));
  }
  MaybeEvictLocked();
  return raw;
}

void BufferPool::PinLocked(Frame* frame, bool touch) {
  if (frame->pins++ == 0) UnlinkCleanLocked(frame);
  if (touch) frame->last_use = ++use_clock_;
}

void BufferPool::Unpin(Frame* frame) {
  std::lock_guard<std::mutex> guard(mu_);
  assert(frame->pins > 0);
  if (--frame->pins > 0) return;
  if (!frame->dirty) LinkCleanLocked(frame);
  if (unpin_waiters_ > 0) unpin_cv_.notify_all();
}

void BufferPool::LinkCleanLocked(Frame* frame) {
  assert(!frame->on_clean_list);
  // Keep last_use order. A frame unpinned right after its use belongs at
  // the hot end, so the walk is O(1) unless a pool-internal pin (which
  // does not touch) flushed a frame that was last used long ago.
  Frame* prev = clean_tail_;
  while (prev != nullptr && prev->last_use > frame->last_use) {
    prev = prev->clean_prev;
  }
  Frame* next = prev != nullptr ? prev->clean_next : clean_head_;
  frame->clean_prev = prev;
  frame->clean_next = next;
  (prev != nullptr ? prev->clean_next : clean_head_) = frame;
  (next != nullptr ? next->clean_prev : clean_tail_) = frame;
  frame->on_clean_list = true;
}

void BufferPool::UnlinkCleanLocked(Frame* frame) {
  if (!frame->on_clean_list) return;
  Frame* prev = frame->clean_prev;
  Frame* next = frame->clean_next;
  (prev != nullptr ? prev->clean_next : clean_head_) = next;
  (next != nullptr ? next->clean_prev : clean_tail_) = prev;
  frame->clean_prev = frame->clean_next = nullptr;
  frame->on_clean_list = false;
}

bool BufferPool::DropLocked(PageId pid) {
  auto it = frames_.find(pid);
  if (it == frames_.end()) return true;
  if (it->second->pins != 0) return false;
  UnlinkCleanLocked(it->second.get());
  frames_.erase(it);
  return true;
}

Status BufferPool::Drop(PageId pid, uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (DropLocked(pid)) return Status::OK();
  ++unpin_waiters_;
  const bool dropped =
      unpin_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                         [this, pid] { return DropLocked(pid); });
  --unpin_waiters_;
  if (dropped) return Status::OK();
  return Status::TimedOut("page " + std::to_string(pid) +
                          " stayed pinned past the drop deadline");
}

void BufferPool::FreePageLocked(PageId pid, DLsn dlsn) {
  if (DropLocked(pid)) {
    store_->Free(pid);
  } else {
    pending_free_.emplace_back(pid, dlsn);
  }
}

void BufferPool::FreePage(PageId pid, DLsn dlsn) {
  std::lock_guard<std::mutex> guard(mu_);
  FreePageLocked(pid, dlsn);
}

DLsn BufferPool::OldestPendingFreeDlsn() const {
  std::lock_guard<std::mutex> guard(mu_);
  DLsn oldest = kInvalidDLsn;
  for (const auto& [pid, dlsn] : pending_free_) {
    if (oldest == kInvalidDLsn || dlsn < oldest) oldest = dlsn;
  }
  return oldest;
}

void BufferPool::ForceDcLog() {
  // Every batch this call forces starts at or after the stable end read
  // here, so it bounds the dLSN of each free the force releases.
  const DLsn forced_from = dc_log_->stable_dlsn_end();
  std::vector<PageId> freed;
  dc_log_->ForceEligible(eosl_map(), &freed);
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::pair<PageId, DLsn>> retry;
  retry.swap(pending_free_);
  for (const auto& [pid, dlsn] : retry) FreePageLocked(pid, dlsn);
  for (PageId pid : freed) FreePageLocked(pid, forced_from);
}

Status BufferPool::TryFlushLocked(Frame* frame) {
  if (!frame->dirty) return Status::OK();
  if (frame->reset_stale) {
    return Status::Busy("page awaits a TC reset's drop");
  }
  SlottedPage page = frame->Page(page_size(), trailer_capacity());

  // Gate (1): WAL for the DC log.
  if (page.dlsn() != kInvalidDLsn &&
      page.dlsn() >= dc_log_->stable_dlsn_end()) {
    // Try to make the SMO records stable first (their causality floors
    // may now be satisfied), then re-check.
    ForceDcLog();
    if (page.dlsn() >= dc_log_->stable_dlsn_end()) {
      return Status::Busy("dc log record for page not yet stable");
    }
  }

  PageSyncStrategy strategy = options_.strategy;
  {
    std::lock_guard<std::mutex> guard(mu_);
    // Gate (2): causality — every reflected TC op must be on the stable
    // TC log. Also fold in the freshest low-water marks (§5.1.2).
    for (const auto& [tc, lwm] : lwm_) {
      frame->ablsn.AdvanceTo(tc, lwm);
    }
    for (const auto& [tc, ab] : frame->ablsn.entries()) {
      auto it = eosl_.find(tc);
      const Lsn eosl = it == eosl_.end() ? 0 : it->second;
      if (ab.MaxCovered() > eosl) {
        return Status::Busy("page reflects ops beyond stable TC log");
      }
    }
  }

  // Gate (3): page-sync the abLSN into the trailer.
  std::string trailer;
  frame->ablsn.EncodeTo(&trailer);
  bool can_sync;
  switch (strategy) {
    case PageSyncStrategy::kWaitForLwm:
      can_sync = frame->ablsn.CollapsedAll();
      break;
    case PageSyncStrategy::kStoreFull:
      can_sync = trailer.size() <= trailer_capacity();
      break;
    case PageSyncStrategy::kHybrid:
      can_sync = frame->ablsn.TotalInSetSize() <= options_.hybrid_cap &&
                 trailer.size() <= trailer_capacity();
      break;
    default:
      can_sync = false;
      break;
  }
  if (!can_sync) {
    std::lock_guard<std::mutex> guard(mu_);
    frame->flush_waiting = true;
    ++stats_.flush_deferrals;
    return Status::Busy("page sync deferred until LWM advances");
  }

  bool wrote = page.WriteTrailer(trailer);
  assert(wrote);
  (void)wrote;
  Status s = store_->Write(frame->pid, frame->data.data());
  if (!s.ok()) return s;
  frame->dirty = false;
  frame->first_op_lsn = 0;
  frame->rec_dlsn = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    frame->flush_waiting = false;
    stats_.trailer_bytes_written += trailer.size();
    ++stats_.flushes;
  }
  sync_cv_.notify_all();
  return Status::OK();
}

size_t BufferPool::FlushAllEligible() {
  ForceDcLog();
  std::vector<PageId> pids = CachedPages();
  size_t still_dirty = 0;
  for (PageId pid : pids) {
    Frame* frame = nullptr;
    {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = frames_.find(pid);
      if (it == frames_.end()) continue;
      frame = it->second.get();
      // On the clean list means clean and unpinned: nothing to flush,
      // and a pin would only churn the list.
      if (frame->on_clean_list) continue;
      PinLocked(frame, /*touch=*/false);
    }
    {
      ExclusiveLatchGuard latch(&frame->latch);
      if (frame->dirty && !TryFlushLocked(frame).ok()) {
        ++still_dirty;
      }
    }
    Unpin(frame);
  }
  return still_dirty;
}

void BufferPool::OnEndOfStableLog(TcId tc, Lsn eosl) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    Lsn& current = eosl_[tc];
    if (eosl > current) current = eosl;
  }
  ForceDcLog();
  sync_cv_.notify_all();
}

bool BufferPool::OnLowWaterMark(TcId tc, Lsn lwm) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (lwm_allowed_.count(tc) == 0) return false;  // not re-armed yet
    Lsn& current = lwm_[tc];
    if (lwm > current) current = lwm;
  }
  // Fold the new LWM into parked frames so strategy-1/3 flushes and
  // blocked writers can make progress. Try-latch only: a frame busy in an
  // operation will pick the LWM up at its next flush attempt.
  std::vector<PageId> pids = CachedPages();
  for (PageId pid : pids) {
    Frame* frame = nullptr;
    {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = frames_.find(pid);
      if (it == frames_.end()) continue;
      frame = it->second.get();
      if (!frame->flush_waiting) continue;
      PinLocked(frame, /*touch=*/false);
    }
    if (frame->latch.TryLockExclusive()) {
      frame->ablsn.AdvanceTo(tc, lwm);
      // Re-attempt the parked flush right away.
      TryFlushLocked(frame);
      frame->latch.UnlockExclusive();
    }
    Unpin(frame);
  }
  sync_cv_.notify_all();
  return true;
}

Lsn BufferPool::eosl_for(TcId tc) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = eosl_.find(tc);
  return it == eosl_.end() ? 0 : it->second;
}

Lsn BufferPool::lwm_for(TcId tc) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = lwm_.find(tc);
  return it == lwm_.end() ? 0 : it->second;
}

std::map<TcId, Lsn> BufferPool::eosl_map() const {
  std::lock_guard<std::mutex> guard(mu_);
  return eosl_;
}

void BufferPool::AbandonParkedFlushes() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [pid, frame] : frames_) frame->flush_waiting = false;
  sync_cv_.notify_all();
}

bool BufferPool::WaitWhileFlushWaiting(Frame* frame, uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return sync_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [frame] { return !frame->flush_waiting; });
}

std::vector<PageId> BufferPool::CachedPages() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<PageId> pids;
  pids.reserve(frames_.size());
  for (const auto& [pid, frame] : frames_) pids.push_back(pid);
  return pids;
}

Lsn BufferPool::MinDirtyFirstOpLsn() const {
  std::lock_guard<std::mutex> guard(mu_);
  Lsn min = kMaxLsn;
  for (const auto& [pid, frame] : frames_) {
    if (frame->dirty && frame->first_op_lsn != 0 &&
        frame->first_op_lsn < min) {
      min = frame->first_op_lsn;
    }
  }
  return min;
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
#ifndef NDEBUG
  for (const auto& [pid, frame] : frames_) assert(frame->pins == 0);
#endif
  frames_.clear();
  clean_head_ = clean_tail_ = nullptr;
  // Volatile, like the cache. DC-log replay re-executes these frees: a DC
  // checkpoint keeps their batches (OldestPendingFreeDlsn).
  pending_free_.clear();
  eosl_.clear();
  lwm_.clear();
  // Crash-revert: every TC must re-arm its LWM after redo resend.
  lwm_allowed_.clear();
}

void BufferPool::AllowLwm(TcId tc) {
  std::lock_guard<std::mutex> guard(mu_);
  lwm_allowed_.insert(tc);
}

void BufferPool::DisallowLwm(TcId tc) {
  std::lock_guard<std::mutex> guard(mu_);
  lwm_allowed_.erase(tc);
  lwm_.erase(tc);
}

bool BufferPool::LwmAllowed(TcId tc) const {
  std::lock_guard<std::mutex> guard(mu_);
  return lwm_allowed_.count(tc) > 0;
}

bool BufferPool::ConsolidationSafe() const {
  std::lock_guard<std::mutex> guard(mu_);
  // Every TC this DC has heard from must have completed (re-armed after)
  // its redo; otherwise page merges could union time-skewed abLSNs.
  for (const auto& [tc, eosl] : eosl_) {
    if (lwm_allowed_.count(tc) == 0) return false;
  }
  for (const auto& [tc, lwm] : lwm_) {
    if (lwm_allowed_.count(tc) == 0) return false;
  }
  return true;
}

size_t BufferPool::FrameCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  return frames_.size();
}

size_t BufferPool::DirtyCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = 0;
  for (const auto& [pid, frame] : frames_) {
    if (frame->dirty) ++n;
  }
  return n;
}

void BufferPool::MaybeEvictLocked() {
  if (frames_.size() <= options_.capacity) return;
  // Victim: the least-recently-used unpinned clean frame, i.e. the cold
  // end of the clean list.
  if (clean_head_ != nullptr) {
    ++stats_.evictions;
    DropLocked(clean_head_->pid);
    return;
  }
  // All candidates dirty or pinned: record the overflow; a later
  // FlushAllEligible pass will create clean victims.
  ++stats_.overflows;
}

}  // namespace untx
