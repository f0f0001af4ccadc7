// End-to-end tests of the unbundled kernel: TC + DC over both transports.
#include "kernel/unbundled_db.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/random.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

UnbundledDbOptions SmallPageOptions() {
  UnbundledDbOptions options;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 20;
  return options;
}

class UnbundledDbTest : public ::testing::Test {
 protected:
  void Open(UnbundledDbOptions options) {
    auto db = UnbundledDb::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie();
    ASSERT_TRUE(db_->CreateTable(kTable).ok());
  }

  std::unique_ptr<UnbundledDb> db_;
};

TEST_F(UnbundledDbTest, CommitMakesWritesVisible) {
  Open(SmallPageOptions());
  Txn txn(db_->tc());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(txn.Insert(kTable, "a", "1").ok());
  ASSERT_TRUE(txn.Insert(kTable, "b", "2").ok());
  ASSERT_TRUE(txn.Commit().ok());

  Txn reader(db_->tc());
  std::string value;
  ASSERT_TRUE(reader.Read(kTable, "a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(reader.Read(kTable, "b", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(UnbundledDbTest, AbortRollsBackAllWrites) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    ASSERT_TRUE(setup.Insert(kTable, "keep", "original").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  {
    Txn txn(db_->tc());
    ASSERT_TRUE(txn.Insert(kTable, "new", "x").ok());
    ASSERT_TRUE(txn.Update(kTable, "keep", "modified").ok());
    ASSERT_TRUE(txn.Delete(kTable, "keep").ok() == false ||
                true);  // delete after update in same txn
    ASSERT_TRUE(txn.Abort().ok());
  }
  Txn check(db_->tc());
  std::string value;
  EXPECT_TRUE(check.Read(kTable, "new", &value).IsNotFound());
  ASSERT_TRUE(check.Read(kTable, "keep", &value).ok());
  EXPECT_EQ(value, "original") << "inverse operations must restore state";
  check.Commit();
}

TEST_F(UnbundledDbTest, AbortRestoresDeletes) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    ASSERT_TRUE(setup.Insert(kTable, "victim", "v").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  {
    Txn txn(db_->tc());
    ASSERT_TRUE(txn.Delete(kTable, "victim").ok());
    ASSERT_TRUE(txn.Abort().ok());
  }
  Txn check(db_->tc());
  std::string value;
  ASSERT_TRUE(check.Read(kTable, "victim", &value).ok());
  EXPECT_EQ(value, "v");
  check.Commit();
}

TEST_F(UnbundledDbTest, WriteConflictBlocksUntilCommit) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    ASSERT_TRUE(setup.Insert(kTable, "k", "v0").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  StatusOr<TxnId> t1 = db_->Begin();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(db_->tc()->Update(*t1, kTable, "k", "v1").ok());

  std::atomic<bool> t2_done{false};
  std::string t2_value;
  std::thread t2([&] {
    Txn txn(db_->tc());
    EXPECT_TRUE(txn.Read(kTable, "k", &t2_value).ok());
    EXPECT_TRUE(txn.Commit().ok());
    t2_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(t2_done.load()) << "reader must block on the writer's lock";
  ASSERT_TRUE(db_->Commit(*t1).ok());
  t2.join();
  EXPECT_EQ(t2_value, "v1") << "reader sees the committed value";
}

TEST_F(UnbundledDbTest, SerializableScanBlocksPhantomInsert) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(setup.Insert(kTable, Key(i * 10), "v").ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  StatusOr<TxnId> scanner = db_->Begin();
  ASSERT_TRUE(scanner.ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db_->tc()->Scan(*scanner, kTable, Key(0), Key(100), 0, &rows)
                  .ok());
  const size_t first_count = rows.size();

  std::atomic<bool> inserted{false};
  std::thread inserter([&] {
    Txn txn(db_->tc());
    // Insert into the scanned range: must block on the scan's locks.
    if (txn.Insert(kTable, Key(55), "phantom").ok() && txn.Commit().ok()) {
      inserted.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(inserted.load()) << "phantom insert must wait for the scan";
  // Repeat the scan inside the same txn: same result (serializable).
  std::vector<std::pair<std::string, std::string>> rows2;
  ASSERT_TRUE(db_->tc()->Scan(*scanner, kTable, Key(0), Key(100), 0, &rows2)
                  .ok());
  EXPECT_EQ(rows2.size(), first_count);
  ASSERT_TRUE(db_->Commit(*scanner).ok());
  inserter.join();
  EXPECT_TRUE(inserted.load());
}

// The upsert twin of the test above: an upsert of an absent key into the
// scanned range must take the gap lock, so it blocks on the scan too.
TEST_F(UnbundledDbTest, SerializableScanBlocksPhantomUpsert) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(setup.Insert(kTable, Key(i * 10), "v").ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  StatusOr<TxnId> scanner = db_->Begin();
  ASSERT_TRUE(scanner.ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db_->tc()->Scan(*scanner, kTable, Key(0), Key(100), 0, &rows)
                  .ok());

  std::atomic<bool> upserted{false};
  std::thread upserter([&] {
    Txn txn(db_->tc());
    if (txn.Upsert(kTable, Key(55), "phantom").ok() && txn.Commit().ok()) {
      upserted.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(upserted.load()) << "phantom upsert must wait for the scan";
  std::vector<std::pair<std::string, std::string>> rows2;
  ASSERT_TRUE(db_->tc()->Scan(*scanner, kTable, Key(0), Key(100), 0, &rows2)
                  .ok());
  EXPECT_EQ(rows2, rows);
  ASSERT_TRUE(db_->Commit(*scanner).ok());
  upserter.join();
  EXPECT_TRUE(upserted.load());
  Txn check(db_->tc());
  std::string value;
  ASSERT_TRUE(check.Read(kTable, Key(55), &value).ok());
  EXPECT_EQ(value, "phantom");
  check.Commit();
}

// DC round trips per write under fetch-ahead phantom protection: an
// upsert of a present key is one trip and takes no gap lock; an absent
// key costs a refusal plus the write; an insert still probes first.
TEST_F(UnbundledDbTest, UpsertRoundTripsFollowKeyPresence) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(setup.Insert(kTable, Key(i * 10), "v").ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  TransactionComponent* tc = db_->tc();
  const TcStats& stats = tc->stats();
  Txn txn(tc);
  ASSERT_TRUE(txn.ok());

  uint64_t sent = stats.ops_sent.load();
  uint64_t probes = stats.probes.load();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(txn.Upsert(kTable, Key(i * 10), "p" + std::to_string(i)).ok());
  }
  EXPECT_EQ(stats.ops_sent.load() - sent, 8u);
  EXPECT_EQ(stats.probes.load() - probes, 0u);

  sent = stats.ops_sent.load();
  probes = stats.probes.load();
  ASSERT_TRUE(txn.Upsert(kTable, Key(5), "absent").ok());
  EXPECT_EQ(stats.ops_sent.load() - sent, 2u);
  EXPECT_EQ(stats.probes.load() - probes, 1u);

  sent = stats.ops_sent.load();
  probes = stats.probes.load();
  ASSERT_TRUE(txn.Insert(kTable, Key(6), "inserted").ok());
  EXPECT_EQ(stats.ops_sent.load() - sent, 2u);
  EXPECT_EQ(stats.probes.load() - probes, 1u);
  ASSERT_TRUE(txn.Commit().ok());

  Txn check(tc);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(check.Scan(kTable, "", "", 0, &rows).ok());
  check.Commit();
  std::map<std::string, std::string> got(rows.begin(), rows.end());
  std::map<std::string, std::string> want;
  for (int i = 0; i < 10; ++i) {
    want[Key(i * 10)] = i < 8 ? "p" + std::to_string(i) : "v";
  }
  want[Key(5)] = "absent";
  want[Key(6)] = "inserted";
  EXPECT_EQ(got, want);
}

// Versioned: a record the txn itself tombstoned is still physically
// present, so the upsert revives it in place — one trip, no gap lock —
// and the committed before-version survives until commit.
TEST_F(UnbundledDbTest, VersionedUpsertRevivesOwnTombstoneInOneTrip) {
  UnbundledDbOptions options = SmallPageOptions();
  options.tc.versioning = true;
  Open(options);
  {
    Txn setup(db_->tc());
    ASSERT_TRUE(setup.Insert(kTable, Key(1), "committed").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  TransactionComponent* tc = db_->tc();
  Txn txn(tc);
  ASSERT_TRUE(txn.Delete(kTable, Key(1)).ok());
  const uint64_t sent = tc->stats().ops_sent.load();
  const uint64_t probes = tc->stats().probes.load();
  ASSERT_TRUE(txn.Upsert(kTable, Key(1), "revived").ok());
  EXPECT_EQ(tc->stats().ops_sent.load() - sent, 1u);
  EXPECT_EQ(tc->stats().probes.load() - probes, 0u);
  std::string value;
  ASSERT_TRUE(txn.Read(kTable, Key(1), &value).ok());
  EXPECT_EQ(value, "revived");
  ASSERT_TRUE(
      tc->ReadShared(kTable, Key(1), ReadFlavor::kReadCommitted, &value).ok());
  EXPECT_EQ(value, "committed");
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(
      tc->ReadShared(kTable, Key(1), ReadFlavor::kReadCommitted, &value).ok());
  EXPECT_EQ(value, "revived");
}

TEST_F(UnbundledDbTest, ScanReturnsCommittedWindow) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(setup.Insert(kTable, Key(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn txn(db_->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(txn.Scan(kTable, Key(50), Key(60), 0, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[i].first, Key(50 + i));
    EXPECT_EQ(rows[i].second, std::to_string(50 + i));
  }
  txn.Commit();
}

TEST_F(UnbundledDbTest, PartitionProtocolScans) {
  UnbundledDbOptions options = SmallPageOptions();
  options.tc.range_protocol = RangeLockProtocol::kPartition;
  for (int i = 1; i < 16; ++i) {
    options.tc.partitions.boundaries.push_back(Key(i * 100));
  }
  Open(options);
  {
    Txn setup(db_->tc());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(setup.Insert(kTable, Key(i), "v").ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn txn(db_->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(txn.Scan(kTable, Key(100), Key(150), 0, &rows).ok());
  EXPECT_EQ(rows.size(), 50u);
  txn.Commit();
  // Far fewer lock acquisitions than keys touched.
  EXPECT_LT(db_->tc()->lock_stats().acquisitions, 20u);
}

TEST_F(UnbundledDbTest, DeadlockVictimCanRetry) {
  Open(SmallPageOptions());
  {
    Txn setup(db_->tc());
    ASSERT_TRUE(setup.Insert(kTable, "a", "1").ok());
    ASSERT_TRUE(setup.Insert(kTable, "b", "2").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  std::atomic<int> committed{0};
  auto worker = [&](const std::string& first, const std::string& second) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      Txn txn(db_->tc());
      if (!txn.Update(kTable, first, "x").ok()) continue;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (!txn.Update(kTable, second, "y").ok()) {
        txn.Abort();
        continue;
      }
      if (txn.Commit().ok()) {
        committed.fetch_add(1);
        return;
      }
    }
  };
  std::thread t1(worker, "a", "b");
  std::thread t2(worker, "b", "a");
  t1.join();
  t2.join();
  EXPECT_EQ(committed.load(), 2) << "both eventually commit after retry";
}

TEST_F(UnbundledDbTest, ChannelTransportWithLossAndReorder) {
  UnbundledDbOptions options = SmallPageOptions();
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.drop_prob = 0.05;
  options.channel.request_channel.dup_prob = 0.05;
  options.channel.request_channel.max_delay_us = 500;
  options.channel.reply_channel.drop_prob = 0.05;
  options.channel.reply_channel.dup_prob = 0.05;
  options.channel.reply_channel.max_delay_us = 500;
  options.tc.resend_interval_ms = 10;
  Open(options);

  // Exactly-once despite loss, duplication and reordering (§4.2).
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    Txn txn(db_->tc());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn.Insert(kTable, Key(i), std::to_string(i)).ok()) << i;
    ASSERT_TRUE(txn.Commit().ok()) << i;
  }
  Txn check(db_->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(check.Scan(kTable, "", "", 0, &rows).ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(n))
      << "no lost and no doubled effects";
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(rows[i].second, std::to_string(i));
  }
  check.Commit();
  EXPECT_GT(db_->tc()->stats().resends.load(), 0u)
      << "the lossy channel must have forced resends";
}

TEST_F(UnbundledDbTest, ConcurrentTransfersPreserveInvariant) {
  // Classic bank transfer: total balance is invariant under concurrent
  // serializable transfers.
  Open(SmallPageOptions());
  const int kAccounts = 20;
  const int kInitial = 100;
  {
    Txn setup(db_->tc());
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(setup.Insert(kTable, Key(i), std::to_string(kInitial)).ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  std::atomic<int> transfers{0};
  auto worker = [&](uint64_t seed) {
    Random rng(seed);
    for (int i = 0; i < 100; ++i) {
      const int from = static_cast<int>(rng.Uniform(kAccounts));
      int to = static_cast<int>(rng.Uniform(kAccounts));
      if (to == from) to = (to + 1) % kAccounts;
      // Lock in canonical order to avoid deadlock storms.
      const int lo = std::min(from, to), hi = std::max(from, to);
      Txn txn(db_->tc());
      std::string lo_v, hi_v;
      if (!txn.Read(kTable, Key(lo), &lo_v).ok()) continue;
      if (!txn.Read(kTable, Key(hi), &hi_v).ok()) continue;
      int from_v = std::stoi(from == lo ? lo_v : hi_v);
      int to_v = std::stoi(from == lo ? hi_v : lo_v);
      if (from_v < 1) continue;
      from_v -= 1;
      to_v += 1;
      if (!txn.Update(kTable, Key(from), std::to_string(from_v)).ok()) {
        continue;
      }
      if (!txn.Update(kTable, Key(to), std::to_string(to_v)).ok()) continue;
      if (txn.Commit().ok()) transfers.fetch_add(1);
    }
  };
  std::thread t1(worker, 1), t2(worker, 2), t3(worker, 3);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_GT(transfers.load(), 0);

  Txn check(db_->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(check.Scan(kTable, "", "", 0, &rows).ok());
  int total = 0;
  for (const auto& [k, v] : rows) total += std::stoi(v);
  EXPECT_EQ(total, kAccounts * kInitial) << "money must be conserved";
  check.Commit();
}

TEST_F(UnbundledDbTest, MultipleDcsRoutedByTable) {
  UnbundledDbOptions options = SmallPageOptions();
  options.num_dcs = 3;
  Open(options);  // kTable = 1 -> dc 1
  ASSERT_TRUE(db_->CreateTable(2).ok());  // -> dc 2
  ASSERT_TRUE(db_->CreateTable(3).ok());  // -> dc 0

  Txn txn(db_->tc());
  ASSERT_TRUE(txn.Insert(kTable, "a", "1").ok());
  ASSERT_TRUE(txn.Insert(2, "b", "2").ok());
  ASSERT_TRUE(txn.Insert(3, "c", "3").ok());
  ASSERT_TRUE(txn.Commit().ok());

  Txn check(db_->tc());
  std::string v;
  ASSERT_TRUE(check.Read(kTable, "a", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(check.Read(2, "b", &v).ok());
  EXPECT_EQ(v, "2");
  ASSERT_TRUE(check.Read(3, "c", &v).ok());
  EXPECT_EQ(v, "3");
  check.Commit();
  // Each DC holds pages (catalog + table root at least).
  EXPECT_GT(db_->dc(0)->pool()->FrameCount(), 0u);
  EXPECT_GT(db_->dc(1)->pool()->FrameCount(), 0u);
  EXPECT_GT(db_->dc(2)->pool()->FrameCount(), 0u);
}

TEST_F(UnbundledDbTest, GroupCommitStillDurable) {
  UnbundledDbOptions options = SmallPageOptions();
  options.tc.group_commit = true;
  options.tc.group_commit_interval_us = 1000;
  Open(options);
  Txn txn(db_->tc());
  ASSERT_TRUE(txn.Insert(kTable, "k", "v").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_GE(db_->tc()->stable_lsn(), 2u)
      << "commit must not return before the log is stable";
}

}  // namespace
}  // namespace untx
