#include "wal/stable_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace untx {
namespace {

TEST(StableLogTest, AppendForceRead) {
  StableLog log;
  const uint64_t i0 = log.Append("zero");
  const uint64_t i1 = log.Append("one");
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(log.stable_end(), 0u);
  EXPECT_EQ(log.Force(), 2u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(0, &out).ok());
  EXPECT_EQ(out, "zero");
  ASSERT_TRUE(log.ReadAt(1, &out).ok());
  EXPECT_EQ(out, "one");
}

TEST(StableLogTest, CrashDropsVolatileTail) {
  StableLog log;
  log.Append("durable");
  log.Force();
  log.Append("lost");
  log.Crash();
  EXPECT_EQ(log.total_end(), 1u);
  std::string out;
  EXPECT_TRUE(log.ReadAt(1, &out).IsNotFound());
  ASSERT_TRUE(log.ReadAt(0, &out).ok());
  EXPECT_EQ(out, "durable");
}

TEST(StableLogTest, UnsealedReservationBlocksForce) {
  StableLog log;
  const uint64_t r = log.Reserve();
  log.Append("after-hole");  // sealed, but behind the reservation
  EXPECT_EQ(log.Force(), 0u) << "force must not pass an unsealed record";
  log.Seal(r, "hole-filled");
  EXPECT_EQ(log.Force(), 2u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(r, &out).ok());
  EXPECT_EQ(out, "hole-filled");
}

TEST(StableLogTest, SealedPrefixEndTracksHoles) {
  StableLog log;
  log.Append("a");
  const uint64_t hole = log.Reserve();
  log.Append("c");
  EXPECT_EQ(log.sealed_prefix_end(), 1u);
  log.Seal(hole, "b");
  EXPECT_EQ(log.sealed_prefix_end(), 3u);
}

TEST(StableLogTest, CrashDropsUnsealedReservations) {
  StableLog log;
  log.Append("keep");
  log.Force();
  log.Reserve();  // never sealed
  log.Append("volatile");
  log.Crash();
  EXPECT_EQ(log.total_end(), 1u);
  // After crash, new appends reuse the freed indices.
  EXPECT_EQ(log.Append("fresh"), 1u);
}

TEST(StableLogTest, ReadUnsealedIsBusy) {
  StableLog log;
  const uint64_t r = log.Reserve();
  std::string out;
  EXPECT_TRUE(log.ReadAt(r, &out).IsBusy());
}

// Scan visits stable and sealed-volatile records alike, in index order
// and across chunk boundaries, as slices of the stored payloads.
TEST(StableLogTest, ScanVisitsSealedRecordsAcrossChunks) {
  StableLog log;
  const uint64_t n = 3 * StableLog::kScanChunkRecords + 7;
  for (uint64_t i = 0; i < n; ++i) {
    log.Append(std::to_string(i));
    if (i == n / 2) log.Force();  // the rest stays volatile but sealed
  }
  uint64_t next = 5;
  ASSERT_TRUE(log.Scan(5, n, [&](uint64_t index, Slice payload) {
                   EXPECT_EQ(index, next);
                   EXPECT_EQ(payload.ToString(), std::to_string(index));
                   ++next;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(next, n);
  // A visitor's error stops the scan at its record.
  uint64_t visited = 0;
  Status s = log.Scan(0, n, [&](uint64_t index, Slice) {
    ++visited;
    return index == 300 ? Status::Corruption("stop") : Status::OK();
  });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(visited, 301u);
  // So does the end of the log.
  visited = 0;
  EXPECT_TRUE(log.Scan(n - 2, n + 3, [&](uint64_t, Slice) {
                   ++visited;
                   return Status::OK();
                 })
                  .IsNotFound());
  EXPECT_EQ(visited, 2u);
}

// The ReadAt rules: an unsealed record stops the scan with Busy after the
// records before it; a truncated one with NotFound.
TEST(StableLogTest, ScanStopsAtUnsealedAndTruncatedRecords) {
  StableLog log;
  log.Append("a");
  log.Append("b");
  const uint64_t hole = log.Reserve();
  log.Append("d");
  std::vector<std::string> seen;
  auto collect = [&](uint64_t, Slice payload) {
    seen.push_back(payload.ToString());
    return Status::OK();
  };
  EXPECT_TRUE(log.Scan(0, 4, collect).IsBusy());
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  log.Seal(hole, "c");
  log.Force();
  log.TruncatePrefix(1);
  seen.clear();
  EXPECT_TRUE(log.Scan(0, 4, collect).IsNotFound());
  EXPECT_TRUE(seen.empty());
  ASSERT_TRUE(log.Scan(1, 4, collect).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "c", "d"}));
}

// Truncation racing a scan lands between chunks: each scan either
// completes or stops with NotFound, and every record it did visit is the
// one stored under that index.
TEST(StableLogTest, ScanRacingTruncationSeesOnlyWholeRecords) {
  StableLog log;
  constexpr uint64_t kRecords = 20 * StableLog::kScanChunkRecords;
  for (uint64_t i = 0; i < kRecords; ++i) log.Append(std::to_string(i));
  log.Force();
  std::atomic<bool> done{false};
  std::thread truncator([&] {
    for (uint64_t cut = 0; cut < kRecords; cut += 97) {
      log.TruncatePrefix(cut);
      std::this_thread::yield();
    }
    done.store(true);
  });
  uint64_t scans = 0;
  while (!done.load() || scans == 0) {
    const uint64_t begin = log.truncated_prefix();
    uint64_t next = begin;
    Status s = log.Scan(begin, kRecords, [&](uint64_t index, Slice payload) {
      EXPECT_EQ(index, next++);
      EXPECT_EQ(payload.ToString(), std::to_string(index));
      return Status::OK();
    });
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    if (s.ok()) {
      EXPECT_EQ(next, kRecords);
    }
    ++scans;
  }
  truncator.join();
}

TEST(StableLogTest, ForceToStopsAtIndex) {
  StableLog log;
  log.Append("a");
  log.Append("b");
  log.Append("c");
  EXPECT_EQ(log.ForceTo(1), 2u);
  EXPECT_EQ(log.stable_end(), 2u);
}

TEST(StableLogTest, TruncatePrefixKeepsIndices) {
  StableLog log;
  log.Append("a");
  log.Append("b");
  log.Append("c");
  log.Force();
  log.TruncatePrefix(2);
  EXPECT_EQ(log.truncated_prefix(), 2u);
  std::string out;
  EXPECT_TRUE(log.ReadAt(0, &out).IsNotFound());
  EXPECT_TRUE(log.ReadAt(1, &out).IsNotFound());
  ASSERT_TRUE(log.ReadAt(2, &out).ok());
  EXPECT_EQ(out, "c");
  // New appends continue from the old numbering.
  EXPECT_EQ(log.Append("d"), 3u);
}

TEST(StableLogTest, TruncateNeverEntersVolatileRegion) {
  StableLog log;
  log.Append("a");
  log.Force();
  log.Append("b");           // volatile
  log.TruncatePrefix(100);   // clamped to stable_end = 1
  EXPECT_EQ(log.truncated_prefix(), 1u);
  std::string out;
  ASSERT_TRUE(log.ReadAt(1, &out).ok());
  EXPECT_EQ(out, "b");
}

// Checkpoint truncation races appenders and forcers: every record at or
// past the truncation point stays readable under its original index.
TEST(StableLogTest, TruncateWhileAppending) {
  StableLog log;
  constexpr uint64_t kRecords = 20000;
  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (uint64_t i = 0; i < kRecords; ++i) {
      const uint64_t index = log.Reserve();
      log.Seal(index, std::to_string(index));
      if (i % 64 == 0) log.Force();
      // Halfway, wait for a truncation of a non-empty prefix: on a loaded
      // host this thread could otherwise append everything before the
      // truncating loop runs once.
      if (i == kRecords / 2) {
        while (log.truncated_prefix() == 0) std::this_thread::yield();
      }
    }
    log.Force();
    done.store(true);
  });
  uint64_t truncations = 0;  // of a non-empty prefix, while appending
  while (!done.load()) {
    const uint64_t end = log.stable_end();
    log.TruncatePrefix(end);
    if (end > 0 && !done.load()) ++truncations;
  }
  appender.join();
  EXPECT_GT(truncations, 0u);
  EXPECT_GT(log.truncated_prefix(), 0u);
  EXPECT_EQ(log.total_end(), kRecords);
  std::string out;
  for (uint64_t i = log.truncated_prefix(); i < kRecords; ++i) {
    ASSERT_TRUE(log.ReadAt(i, &out).ok()) << i;
    EXPECT_EQ(out, std::to_string(i));
  }
}

TEST(StableLogTest, WaitStableThroughBlocksUntilForce) {
  StableLog log;
  const uint64_t idx = log.Append("commit-record");
  std::thread forcer([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Force();
  });
  EXPECT_TRUE(log.WaitStableThrough(idx, 1000));
  forcer.join();
}

TEST(StableLogTest, WaitStableTimesOut) {
  StableLog log;
  const uint64_t idx = log.Append("never-forced");
  EXPECT_FALSE(log.WaitStableThrough(idx, 20));
}

TEST(StableLogTest, StatsAccumulate) {
  StableLog log;
  log.Append("12345");
  log.Append("678");
  log.Force();
  EXPECT_EQ(log.bytes_appended(), 8u);
  EXPECT_EQ(log.force_count(), 1u);
  log.Force();  // nothing new: no device write
  EXPECT_EQ(log.force_count(), 1u);
}

}  // namespace
}  // namespace untx
