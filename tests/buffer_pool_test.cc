// BufferPool unit tests: the three flush gates (DC-log WAL, TC-log
// causality, page-sync strategy), LWM folding, the trailer round trip,
// and the LWM-validity arming protocol — exercised directly, without a
// DataComponent on top.
#include "dc/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "dc/dc_log.h"
#include "storage/stable_store.h"

namespace untx {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : store_(), dc_log_() {}

  BufferPool MakePool(PageSyncStrategy strategy,
                      uint32_t hybrid_cap = 4) {
    BufferPoolOptions options;
    options.strategy = strategy;
    options.hybrid_cap = hybrid_cap;
    return BufferPool(&store_, &dc_log_, options);
  }

  /// Creates a formatted, dirty page with one op from tc at lsn.
  Frame* MakeDirtyPage(BufferPool* pool, PageId pid, TcId tc, Lsn lsn) {
    Frame* frame = pool->Create(pid);
    SlottedPage page = frame->Page(pool->page_size(),
                                   pool->trailer_capacity());
    page.Init(pid, PageType::kLeaf, 0, 1);
    frame->ablsn.Add(tc, lsn);
    frame->first_op_lsn = lsn;
    return frame;  // still pinned
  }

  /// A pool of `capacity` frames whose TC 1 ops up to 1000 are stable,
  /// so any page can be flushed clean.
  std::unique_ptr<BufferPool> MakeSmallPool(size_t capacity) {
    BufferPoolOptions options;
    options.capacity = capacity;
    options.strategy = PageSyncStrategy::kStoreFull;
    auto pool = std::make_unique<BufferPool>(&store_, &dc_log_, options);
    pool->OnEndOfStableLog(1, 1000);
    return pool;
  }

  /// Creates a page, flushes it clean and returns it still pinned.
  Frame* MakeCleanPinned(BufferPool* pool, PageId pid) {
    Frame* frame = MakeDirtyPage(pool, pid, 1, 10);
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool->TryFlushLocked(frame).ok());
    return frame;
  }

  /// Creates a page, flushes it clean and unpins it.
  PageId MakeCleanPage(BufferPool* pool) {
    const PageId pid = store_.Allocate();
    pool->Unpin(MakeCleanPinned(pool, pid));
    return pid;
  }

  static bool Cached(const BufferPool& pool, PageId pid) {
    const std::vector<PageId> pids = pool.CachedPages();
    return std::find(pids.begin(), pids.end(), pid) != pids.end();
  }

  static void Touch(BufferPool* pool, PageId pid) {
    Frame* frame = nullptr;
    ASSERT_TRUE(pool->Fetch(pid, &frame).ok());
    pool->Unpin(frame);
  }

  StableStore store_;
  DcLog dc_log_;
};

TEST_F(BufferPoolTest, CausalityGateBlocksUntilEosl) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, /*tc=*/1, /*lsn=*/10);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
        << "op 10 is beyond the (empty) stable TC log";
  }
  pool.OnEndOfStableLog(1, 9);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy()) << "EOSL 9 < op 10";
  }
  pool.OnEndOfStableLog(1, 10);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  EXPECT_FALSE(frame->dirty);
  EXPECT_TRUE(store_.Exists(pid));
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, ResetStaleFrameIsNeverFlushed) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, /*tc=*/1, /*lsn=*/10);
  pool.OnEndOfStableLog(1, 10);
  ExclusiveLatchGuard latch(&frame->latch);
  frame->reset_stale = true;
  EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
      << "every gate passes, but a reset still has to drop this image";
  EXPECT_TRUE(frame->dirty);
  EXPECT_FALSE(store_.Exists(pid));
  latch.Release();
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, CausalityGateIsPerTc) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  frame->ablsn.Add(2, 20);  // second TC on the same page (§6.1.1)
  pool.OnEndOfStableLog(1, 100);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
        << "tc 2's op 20 is not on tc 2's stable log";
  }
  pool.OnEndOfStableLog(2, 20);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, WalGateBlocksUntilDcLogStable) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 5);
  // Stamp a page dLSN for an SMO whose batch cannot be forced yet
  // (causality floor above the TC's EOSL).
  std::vector<DcLogRecord> recs(1);
  recs[0].type = DcLogRecordType::kPageImage;
  recs[0].pid = pid;
  recs[0].body = "x";
  dc_log_.AppendBatch(&recs, {{1, 50}});
  {
    ExclusiveLatchGuard latch(&frame->latch);
    frame->Page(pool.page_size(), pool.trailer_capacity())
        .set_dlsn(recs[0].dlsn);
  }
  pool.OnEndOfStableLog(1, 5);  // op 5 stable, but the SMO floor is 50
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy())
        << "page's SMO record is not on the stable DC log";
  }
  pool.OnEndOfStableLog(1, 50);  // floor met -> batch forcible
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, WaitForLwmStrategyNeedsCollapse) {
  BufferPool pool = MakePool(PageSyncStrategy::kWaitForLwm);
  pool.AllowLwm(1);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  pool.OnEndOfStableLog(1, 10);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy());
  }
  EXPECT_TRUE(frame->flush_waiting);
  // LWM reaches the op: abLSN collapses, the parked flush completes
  // (OnLowWaterMark retries it).
  pool.OnLowWaterMark(1, 10);
  EXPECT_FALSE(frame->dirty);
  EXPECT_FALSE(frame->flush_waiting);
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, HybridStrategyRespectsCap) {
  BufferPool pool = MakePool(PageSyncStrategy::kHybrid, /*hybrid_cap=*/2);
  pool.AllowLwm(1);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  frame->ablsn.Add(1, 12);
  frame->ablsn.Add(1, 14);  // in-set size 3 > cap 2
  pool.OnEndOfStableLog(1, 14);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    EXPECT_TRUE(pool.TryFlushLocked(frame).IsBusy());
  }
  pool.OnLowWaterMark(1, 12);  // prunes to {14}: size 1 <= cap
  EXPECT_FALSE(frame->dirty);
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, TrailerRoundTripThroughStore) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 3, 77);
  frame->ablsn.Add(3, 99);
  pool.OnEndOfStableLog(3, 99);
  {
    ExclusiveLatchGuard latch(&frame->latch);
    ASSERT_TRUE(pool.TryFlushLocked(frame).ok());
  }
  pool.Unpin(frame);
  // A second pool (fresh cache) must recover the abLSN from the trailer.
  BufferPool pool2 = MakePool(PageSyncStrategy::kStoreFull);
  Frame* reloaded = nullptr;
  ASSERT_TRUE(pool2.Fetch(pid, &reloaded).ok());
  EXPECT_TRUE(reloaded->ablsn.Covers(3, 77));
  EXPECT_TRUE(reloaded->ablsn.Covers(3, 99));
  EXPECT_FALSE(reloaded->ablsn.Covers(3, 100));
  pool2.Unpin(reloaded);
}

TEST_F(BufferPoolTest, LwmIgnoredUntilArmed) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  pool.OnLowWaterMark(1, 100);
  EXPECT_EQ(pool.lwm_for(1), 0u) << "un-armed LWM must be dropped";
  pool.AllowLwm(1);
  pool.OnLowWaterMark(1, 100);
  EXPECT_EQ(pool.lwm_for(1), 100u);
  pool.DisallowLwm(1);
  EXPECT_EQ(pool.lwm_for(1), 0u) << "disarming revokes the stored LWM";
  pool.Unpin(frame);
}

TEST_F(BufferPoolTest, ConsolidationSafetyTracksArming) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  EXPECT_TRUE(pool.ConsolidationSafe()) << "no TCs known yet";
  pool.OnEndOfStableLog(1, 5);
  EXPECT_FALSE(pool.ConsolidationSafe())
      << "tc 1 has spoken but not re-armed: its redo may be in flight";
  pool.AllowLwm(1);
  EXPECT_TRUE(pool.ConsolidationSafe());
  pool.OnEndOfStableLog(2, 5);  // a second, un-armed TC appears
  EXPECT_FALSE(pool.ConsolidationSafe());
  pool.AllowLwm(2);
  EXPECT_TRUE(pool.ConsolidationSafe());
}

TEST_F(BufferPoolTest, EvictionPrefersCleanLru) {
  BufferPoolOptions options;
  options.capacity = 2;
  options.strategy = PageSyncStrategy::kStoreFull;
  BufferPool pool(&store_, &dc_log_, options);
  pool.OnEndOfStableLog(1, 100);
  // Two clean pages, then a third triggers eviction of the oldest.
  std::vector<PageId> pids;
  for (int i = 0; i < 3; ++i) {
    const PageId pid = store_.Allocate();
    pids.push_back(pid);
    Frame* frame = MakeDirtyPage(&pool, pid, 1, 10 + i);
    {
      ExclusiveLatchGuard latch(&frame->latch);
      ASSERT_TRUE(pool.TryFlushLocked(frame).ok());
    }
    pool.Unpin(frame);
  }
  EXPECT_LE(pool.FrameCount(), 2u);
  EXPECT_GT(pool.stats().evictions, 0u);
  // The evicted page is still fetchable from the store.
  Frame* back = nullptr;
  ASSERT_TRUE(pool.Fetch(pids[0], &back).ok());
  pool.Unpin(back);
}

TEST_F(BufferPoolTest, VictimIsLeastRecentlyUsedCleanUnpinnedFrame) {
  auto pool = MakeSmallPool(3);
  const PageId a = MakeCleanPage(pool.get());
  const PageId b = MakeCleanPage(pool.get());
  const PageId c = MakeCleanPage(pool.get());
  Touch(pool.get(), a);  // recency now b < c < a
  const PageId d = MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, b)) << "b was the least recently used";
  EXPECT_TRUE(Cached(*pool, a));
  EXPECT_TRUE(Cached(*pool, c));
  EXPECT_TRUE(Cached(*pool, d));
  MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, c)) << "then c";
  EXPECT_TRUE(Cached(*pool, a));
  EXPECT_EQ(pool->stats().evictions, 2u);
  EXPECT_EQ(pool->stats().overflows, 0u);
}

TEST_F(BufferPoolTest, PinnedAndDirtyFramesAreNeverEvicted) {
  auto pool = MakeSmallPool(2);
  const PageId pinned = store_.Allocate();
  Frame* pinned_frame = MakeCleanPinned(pool.get(), pinned);
  const PageId dirty = store_.Allocate();
  pool->Unpin(MakeDirtyPage(pool.get(), dirty, 1, 20));  // never flushed
  // Over capacity with no clean, unpinned frame: overflow, no eviction.
  const PageId third = MakeCleanPage(pool.get());
  EXPECT_EQ(pool->stats().evictions, 0u);
  EXPECT_EQ(pool->stats().overflows, 1u);
  EXPECT_TRUE(Cached(*pool, pinned));
  EXPECT_TRUE(Cached(*pool, dirty));
  // Only the now-clean third page is a candidate.
  MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, third));
  EXPECT_TRUE(Cached(*pool, pinned));
  EXPECT_TRUE(Cached(*pool, dirty));
  pool->Unpin(pinned_frame);
}

TEST_F(BufferPoolTest, FrameFlushedWhilePinnedBecomesCandidateAtUnpin) {
  auto pool = MakeSmallPool(2);
  const PageId older = store_.Allocate();
  Frame* frame = MakeDirtyPage(pool.get(), older, 1, 10);
  const PageId newer = MakeCleanPage(pool.get());
  {
    ExclusiveLatchGuard latch(&frame->latch);
    ASSERT_TRUE(pool->TryFlushLocked(frame).ok());
  }
  MakeCleanPage(pool.get());  // evicts `newer`: `older` is still pinned
  EXPECT_FALSE(Cached(*pool, newer));
  EXPECT_TRUE(Cached(*pool, older));
  pool->Unpin(frame);
  // `older` keeps its place in LRU order: it was used before the page
  // made above, so it is the next victim.
  MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, older));
}

TEST_F(BufferPoolTest, CheckpointFlushMakesDirtyFrameACandidate) {
  auto pool = MakeSmallPool(2);
  const PageId dirty = store_.Allocate();
  pool->Unpin(MakeDirtyPage(pool.get(), dirty, 1, 10));
  const PageId clean = MakeCleanPage(pool.get());
  EXPECT_EQ(pool->FlushAllEligible(), 0u);
  EXPECT_EQ(pool->DirtyCount(), 0u);
  // The flush's own pin is not a use: `dirty` is still the coldest.
  MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, dirty));
  EXPECT_TRUE(Cached(*pool, clean));
}

TEST_F(BufferPoolTest, DropLeavesNoStaleListEntry) {
  auto pool = MakeSmallPool(2);
  const PageId a = MakeCleanPage(pool.get());
  const PageId b = MakeCleanPage(pool.get());
  ASSERT_TRUE(pool->Drop(a, 0).ok());
  EXPECT_FALSE(Cached(*pool, a));
  EXPECT_TRUE(pool->Drop(a, 0).ok()) << "dropping an uncached page is OK";
  // Two more pages: the first fits, the second evicts b, never the
  // already-dropped a.
  MakeCleanPage(pool.get());
  MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, b));
  EXPECT_EQ(pool->FrameCount(), 2u);
  EXPECT_EQ(pool->stats().evictions, 1u);
}

TEST_F(BufferPoolTest, ClearLeavesNoStaleListEntry) {
  auto pool = MakeSmallPool(2);
  MakeCleanPage(pool.get());
  MakeCleanPage(pool.get());
  pool->Clear();
  pool->OnEndOfStableLog(1, 1000);
  const PageId a = MakeCleanPage(pool.get());
  MakeCleanPage(pool.get());
  MakeCleanPage(pool.get());
  EXPECT_FALSE(Cached(*pool, a));
  EXPECT_EQ(pool->FrameCount(), 2u);
}

TEST_F(BufferPoolTest, CreateOverRecycledPidLeavesNoStaleListEntry) {
  auto pool = MakeSmallPool(2);
  const PageId a = MakeCleanPage(pool.get());
  pool->FreePage(a, /*dlsn=*/1);
  EXPECT_FALSE(Cached(*pool, a));
  EXPECT_FALSE(store_.Exists(a));
  ASSERT_EQ(store_.Allocate(), a) << "the store recycles the freed pid";
  Frame* fresh = pool->Create(a);
  EXPECT_TRUE(fresh->dirty);
  pool->Unpin(fresh);
  // A clean frame still cached under a pid being re-created is replaced,
  // and its list entry goes with it.
  const PageId b = MakeCleanPage(pool.get());
  Frame* replaced = pool->Create(b);
  pool->Unpin(replaced);
  EXPECT_EQ(pool->FrameCount(), 2u);
  // Both frames are dirty now: a new page overflows instead of evicting
  // the replaced frame.
  MakeCleanPage(pool.get());
  EXPECT_EQ(pool->stats().evictions, 0u);
  EXPECT_TRUE(Cached(*pool, a));
  EXPECT_TRUE(Cached(*pool, b));
}

TEST_F(BufferPoolTest, FreeOfPinnedPageWaitsForUnpin) {
  auto pool = MakeSmallPool(4);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeCleanPinned(pool.get(), pid);
  EXPECT_EQ(pool->OldestPendingFreeDlsn(), kInvalidDLsn);
  pool->FreePage(pid, /*dlsn=*/7);
  EXPECT_TRUE(Cached(*pool, pid)) << "a reader still holds the frame";
  EXPECT_TRUE(store_.Exists(pid)) << "so the pid must not be recycled yet";
  EXPECT_NE(store_.Allocate(), pid);
  EXPECT_EQ(pool->OldestPendingFreeDlsn(), 7u)
      << "the free's DC-log batch must outlive a checkpoint";
  pool->ForceDcLog();
  EXPECT_TRUE(store_.Exists(pid)) << "still pinned: stays pending";
  EXPECT_EQ(pool->OldestPendingFreeDlsn(), 7u);
  pool->Unpin(frame);
  pool->ForceDcLog();
  EXPECT_FALSE(Cached(*pool, pid));
  EXPECT_FALSE(store_.Exists(pid));
  EXPECT_EQ(pool->OldestPendingFreeDlsn(), kInvalidDLsn);
}

TEST_F(BufferPoolTest, DropOfFramePinnedPastDeadlineFails) {
  auto pool = MakeSmallPool(4);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeCleanPinned(pool.get(), pid);
  EXPECT_TRUE(pool->Drop(pid, 0).IsTimedOut());
  Status s = pool->Drop(pid, 20);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_TRUE(Cached(*pool, pid)) << "a failed drop leaves the frame";
  pool->Unpin(frame);
  EXPECT_TRUE(pool->Drop(pid, 0).ok());
  EXPECT_FALSE(Cached(*pool, pid));
}

TEST_F(BufferPoolTest, DropWaitsForUnpin) {
  auto pool = MakeSmallPool(4);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeCleanPinned(pool.get(), pid);
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pool->Unpin(frame);
  });
  const auto start = std::chrono::steady_clock::now();
  Status s = pool->Drop(pid, 10000);
  const auto waited = std::chrono::steady_clock::now() - start;
  reader.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_LT(waited, std::chrono::seconds(5)) << "woken by the unpin";
  EXPECT_FALSE(Cached(*pool, pid));
}

TEST_F(BufferPoolTest, ClearDropsEverything) {
  BufferPool pool = MakePool(PageSyncStrategy::kStoreFull);
  pool.AllowLwm(1);
  pool.OnEndOfStableLog(1, 50);
  pool.OnLowWaterMark(1, 50);
  const PageId pid = store_.Allocate();
  Frame* frame = MakeDirtyPage(&pool, pid, 1, 10);
  pool.Unpin(frame);
  pool.Clear();
  EXPECT_EQ(pool.FrameCount(), 0u);
  EXPECT_EQ(pool.eosl_for(1), 0u);
  EXPECT_EQ(pool.lwm_for(1), 0u);
  EXPECT_FALSE(pool.LwmAllowed(1)) << "crash disarms every TC's LWM";
}

}  // namespace
}  // namespace untx
