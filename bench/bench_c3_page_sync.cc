// Experiment C3 (§5.1.2): the three page-sync strategies.
//
//   1 kWaitForLwm — refuse ops beyond the in-set, wait for the LWM to
//                   collapse the abLSN, store a single LSN. Delays flush.
//   2 kStoreFull  — serialize the whole abLSN into the trailer. Costs
//                   page space, flushes immediately.
//   3 kHybrid     — wait until the in-set is small, then serialize.
//
// Measured: time to drain all dirty pages (checkpoint latency), flush
// deferrals, and trailer bytes per flush, for each strategy.
//
// Also the DC miss-path stages on their own: the page CRC every store
// read and write pays (BM_Crc32cPage), and a buffer-pool miss that reads
// a page and evicts a clean victim past resident dirty frames
// (BM_PoolMissEvict).
#include <vector>

#include "bench_util.h"
#include "common/crc32c.h"
#include "dc/buffer_pool.h"
#include "dc/dc_log.h"
#include "storage/stable_store.h"

namespace untx {
namespace bench {
namespace {

constexpr TableId kTable = 1;

void BM_CheckpointDrain(benchmark::State& state) {
  const auto strategy = static_cast<PageSyncStrategy>(state.range(0));
  double trailer_per_flush = 0;
  double deferrals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    UnbundledDbOptions options = DefaultDbOptions();
    options.dc.buffer_pool.strategy = strategy;
    options.dc.buffer_pool.hybrid_cap = 8;
    options.tc.control_interval_ms = 2;  // LWM keeps flowing
    auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
    db->CreateTable(kTable);
    Load(db.get(), kTable, 1500);
    state.ResumeTiming();

    // Drain: checkpoint waits until every page with ops is stable.
    Status s = db->tc()->TakeCheckpoint();
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());

    state.PauseTiming();
    const auto& stats = db->dc(0)->pool()->stats();
    deferrals = static_cast<double>(stats.flush_deferrals);
    trailer_per_flush =
        stats.flushes == 0
            ? 0
            : static_cast<double>(stats.trailer_bytes_written) /
                  static_cast<double>(stats.flushes);
    state.ResumeTiming();
  }
  state.counters["flush_deferrals"] = deferrals;
  state.counters["trailer_bytes/flush"] = trailer_per_flush;
}
BENCHMARK(BM_CheckpointDrain)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Strategy 1's visible cost during normal running: writes that land on a
// flush-waiting page with an LSN beyond the in-set must stall (§5.1.2
// method 1 "refuse to execute operations ... with LSNs greater than the
// highest valued LSNin").
void BM_WriteWhileFlushing(benchmark::State& state) {
  const auto strategy = static_cast<PageSyncStrategy>(state.range(0));
  UnbundledDbOptions options = DefaultDbOptions();
  options.dc.buffer_pool.strategy = strategy;
  options.tc.control_interval_ms = 1;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  db->CreateTable(kTable);
  Load(db.get(), kTable, 500);
  int i = 0;
  for (auto _ : state) {
    {
      Txn txn(db->tc());
      txn.Update(kTable, Key(i % 500), "x");
      txn.Commit();
    }
    if (i % 32 == 0) {
      // Kick flushes while writes continue.
      db->dc(0)->pool()->FlushAllEligible();
    }
    ++i;
  }
  state.counters["flush_deferrals"] =
      static_cast<double>(db->dc(0)->pool()->stats().flush_deferrals);
  state.counters["flushes"] =
      static_cast<double>(db->dc(0)->pool()->stats().flushes);
}
BENCHMARK(BM_WriteWhileFlushing)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->UseRealTime();

// CRC32C over one default-size page. Arg 0: the portable byte-at-a-time
// kernel; arg 1: Extend(), the hardware kernel where the host has one
// (the `accelerated` counter says whether it did).
void BM_Crc32cPage(benchmark::State& state) {
  const bool accelerated = state.range(0) == 1;
  std::vector<char> page(kDefaultPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    const uint32_t crc =
        accelerated ? crc32c::Extend(0, page.data(), page.size())
                    : crc32c::ExtendPortable(0, page.data(), page.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
  state.counters["accelerated"] =
      accelerated && crc32c::IsAccelerated() ? 1 : 0;
}
BENCHMARK(BM_Crc32cPage)->Arg(0)->Arg(1);

// One buffer-pool miss: Fetch of an uncached page (store read + CRC
// verify) on a full 256-frame pool that also holds 150 dirty frames, so
// every miss evicts one clean victim; then Unpin.
void BM_PoolMissEvict(benchmark::State& state) {
  constexpr size_t kCapacity = 256;
  constexpr size_t kDirty = 150;
  constexpr size_t kCleanPages = 4 * kCapacity;
  StableStore store;
  DcLog dc_log;
  BufferPoolOptions options;
  options.capacity = kCapacity;
  BufferPool pool(&store, &dc_log, options);

  std::vector<char> image(store.page_size());
  std::vector<PageId> clean;
  for (size_t i = 0; i < kCleanPages; ++i) {
    const PageId pid = store.Allocate();
    SlottedPage page(image.data(), store.page_size(),
                     store.trailer_capacity());
    page.Init(pid, PageType::kLeaf, 0, 1);
    if (!store.Write(pid, image.data()).ok()) {
      state.SkipWithError("store write failed");
      return;
    }
    clean.push_back(pid);
  }
  // Dirty frames: their ops never reach a stable TC log, so they stay.
  for (size_t i = 0; i < kDirty; ++i) {
    Frame* frame = pool.Create(store.Allocate());
    frame->ablsn.Add(1, 1 + i);
    pool.Unpin(frame);
  }
  size_t next = 0;
  for (auto _ : state) {
    Frame* frame = nullptr;
    if (!pool.Fetch(clean[next], &frame).ok()) {
      state.SkipWithError("fetch failed");
      return;
    }
    pool.Unpin(frame);
    next = (next + 1) % clean.size();
  }
  const BufferPoolStats& stats = pool.stats();
  state.counters["hit_ratio"] =
      stats.fetches == 0 ? 0
                         : static_cast<double>(stats.hits) /
                               static_cast<double>(stats.fetches);
  state.counters["evictions/fetch"] =
      stats.fetches == 0 ? 0
                         : static_cast<double>(stats.evictions) /
                               static_cast<double>(stats.fetches);
  state.counters["dirty_frames"] = static_cast<double>(pool.DirtyCount());
}
BENCHMARK(BM_PoolMissEvict);

}  // namespace
}  // namespace bench
}  // namespace untx

BENCHMARK_MAIN();
