#include "wal/stable_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

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
