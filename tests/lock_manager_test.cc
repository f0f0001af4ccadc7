#include "tc/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "kernel/unbundled_db.h"
#include "tc/transaction_component.h"

namespace untx {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(2, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
  EXPECT_EQ(lm.HeldCount(2), 1u);
}

TEST(LockManagerTest, ExclusiveBlocksShared) {
  LockManagerOptions options;
  options.wait_timeout_ms = 50;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_TRUE(
      lm.Lock(2, RecordLockName(1, "k"), LockMode::kShared).IsTimedOut());
}

TEST(LockManagerTest, ReentrantAndModeSubsumption) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  EXPECT_EQ(lm.stats().upgrades, 1u);
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status s = lm.Lock(2, RecordLockName(1, "k"), LockMode::kExclusive);
    granted.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "a"), LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Lock(2, RecordLockName(1, "b"), LockMode::kExclusive).ok());
  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status s = lm.Lock(1, RecordLockName(1, "b"), LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    if (!s.ok()) lm.ReleaseAll(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread t2([&] {
    Status s = lm.Lock(2, RecordLockName(1, "a"), LockMode::kExclusive);
    if (s.IsDeadlock()) deadlocks.fetch_add(1);
    if (!s.ok()) lm.ReleaseAll(2);
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1) << "one member of the cycle must abort";
}

TEST(LockManagerTest, FifoFairnessNoBarging) {
  LockManagerOptions options;
  options.wait_timeout_ms = 2000;
  LockManager lm(options);
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "k"), LockMode::kExclusive).ok());
  std::atomic<bool> writer_granted{false};
  std::thread writer([&] {
    ASSERT_TRUE(lm.Lock(2, RecordLockName(1, "k"), LockMode::kExclusive).ok());
    writer_granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // A reader arriving after the queued writer must not starve it.
  std::thread reader([&] {
    Status s = lm.Lock(3, RecordLockName(1, "k"), LockMode::kShared);
    // By FIFO, the writer went first.
    EXPECT_TRUE(writer_granted.load() || !s.ok());
    lm.ReleaseAll(3);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.ReleaseAll(1);
  writer.join();
  lm.ReleaseAll(2);
  reader.join();
}

TEST(LockManagerTest, ReleaseAllDropsEverything) {
  LockManager lm;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        lm.Lock(1, RecordLockName(1, std::to_string(i)), LockMode::kShared)
            .ok());
  }
  EXPECT_EQ(lm.HeldCount(1), 10u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(1), 0u);
}

TEST(LockManagerTest, DistinctNameSpaces) {
  // Record, range, and EOF lock names must never collide.
  LockManager lm;
  ASSERT_TRUE(lm.Lock(1, RecordLockName(1, "x"), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(2, RangeLockName(1, 0), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Lock(3, TableEofLockName(1), LockMode::kExclusive).ok());
}

TEST(LockManagerTest, InstantLockReleasesOnlyANewGrant) {
  LockManagerOptions options;
  options.wait_timeout_ms = 50;
  LockManager lm(options);
  const std::string eof = TableEofLockName(1);
  // A new grant is released at once: a second txn gets it unblocked.
  ASSERT_TRUE(lm.LockInstant(1, eof, LockMode::kExclusive).ok());
  EXPECT_EQ(lm.HeldCount(1), 0u);
  ASSERT_TRUE(lm.LockInstant(2, eof, LockMode::kExclusive).ok());
  EXPECT_EQ(lm.stats().waits, 0u);

  // A lock the txn held before stays held, and so does its upgrade.
  const std::string name = RecordLockName(1, "k");
  ASSERT_TRUE(lm.Lock(3, name, LockMode::kShared).ok());
  ASSERT_TRUE(lm.LockInstant(3, name, LockMode::kExclusive).ok());
  EXPECT_EQ(lm.HeldCount(3), 1u);
  EXPECT_TRUE(lm.Lock(4, name, LockMode::kShared).IsTimedOut());

  // The conflict check still runs: a held X blocks the instant lock.
  EXPECT_TRUE(lm.LockInstant(5, name, LockMode::kExclusive).IsTimedOut());
}

/// One thread of a txn instant-locks a name while another thread of the
/// same txn locks it to commit: whichever is granted first, the lasting
/// lock stays held, also when both first wait behind another txn.
TEST(LockManagerTest, InstantLockKeepsTheSameTxnsLastingLock) {
  LockManagerOptions options;
  options.wait_timeout_ms = 1000;
  const std::string name = RecordLockName(1, "k2");
  for (int round = 0; round < 200; ++round) {
    LockManager lm(options);
    const bool blocked = round % 2 == 1;
    if (blocked) ASSERT_TRUE(lm.Lock(1, name, LockMode::kExclusive).ok());
    std::atomic<bool> go{false};
    Status instant;
    Status lasting;
    std::thread a([&] {
      while (!go.load()) {
      }
      instant = lm.LockInstant(2, name, LockMode::kExclusive);
    });
    std::thread b([&] {
      while (!go.load()) {
      }
      lasting = lm.Lock(2, name, LockMode::kExclusive);
    });
    go.store(true);
    if (blocked) lm.ReleaseAll(1);
    a.join();
    b.join();
    ASSERT_TRUE(instant.ok()) << round << ": " << instant.ToString();
    ASSERT_TRUE(lasting.ok()) << round << ": " << lasting.ToString();
    ASSERT_EQ(lm.HeldCount(2), 1u) << round;
    if (round >= 198) {
      // The lock table agrees: another txn cannot pass.
      EXPECT_TRUE(lm.LockInstant(3, name, LockMode::kShared).IsTimedOut());
    }
  }
}

/// Two open txns that both insert past a table's last key take the
/// table's EOF lock only for an instant: neither waits for the other.
TEST(LockManagerTest, ConcurrentInsertsPastEofDoNotWait) {
  UnbundledDbOptions options;
  options.tc.locks.wait_timeout_ms = 2000;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(1).ok());
  Txn first(db->tc());
  ASSERT_TRUE(first.Insert(1, "k1", "v1").ok());
  Txn second(db->tc());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(second.Insert(1, "k2", "v2").ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  ASSERT_TRUE(second.Commit().ok());
  ASSERT_TRUE(first.Commit().ok());
  Txn reader(db->tc());
  std::string value;
  ASSERT_TRUE(reader.Read(1, "k1", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(reader.Read(1, "k2", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(reader.Commit().ok());
}

TEST(LockManagerTest, StressManyThreadsManyKeys) {
  LockManager lm;
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&lm, &granted, t] {
      for (int i = 0; i < 500; ++i) {
        const TxnId txn = t * 1000 + i + 1;
        const std::string key = std::to_string(i % 37);
        if (lm.Lock(txn, RecordLockName(1, key), LockMode::kExclusive)
                .ok()) {
          granted.fetch_add(1);
        }
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), 2000u);
}

TEST(RangePartitionTest, PartitionOfRespectsBoundaries) {
  RangePartitionConfig cfg;
  cfg.boundaries = {"g", "n", "t"};
  EXPECT_EQ(cfg.Count(), 4u);
  EXPECT_EQ(cfg.PartitionOf("a"), 0u);
  EXPECT_EQ(cfg.PartitionOf("g"), 1u);
  EXPECT_EQ(cfg.PartitionOf("m"), 1u);
  EXPECT_EQ(cfg.PartitionOf("n"), 2u);
  EXPECT_EQ(cfg.PartitionOf("z"), 3u);
}

TEST(RangePartitionTest, OverlappingRange) {
  RangePartitionConfig cfg;
  cfg.boundaries = {"g", "n", "t"};
  auto [lo, hi] = cfg.Overlapping("c", "p");
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
  auto [lo2, hi2] = cfg.Overlapping("h", "");
  EXPECT_EQ(lo2, 1u);
  EXPECT_EQ(hi2, 3u);
}

TEST(RangePartitionTest, EmptyConfigIsWholeTable) {
  RangePartitionConfig cfg;
  EXPECT_EQ(cfg.Count(), 1u);
  EXPECT_EQ(cfg.PartitionOf("anything"), 0u);
  auto [lo, hi] = cfg.Overlapping("a", "z");
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0u);
}

}  // namespace
}  // namespace untx
