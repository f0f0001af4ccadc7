// Interaction-contract property tests (§4.2): exactly-once execution
// over channels with swept fault rates, and the channel transport's
// behavior during component failures — for the 1-TC facade and for
// multi-TC channel clusters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/random.h"
#include "kernel/unbundled_db.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

// (drop ‰, dup ‰, max delay us)
class ChannelFaultTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  std::unique_ptr<UnbundledDb> Open(
      const std::function<void(UnbundledDbOptions*)>& tweak = nullptr) {
    const auto [drop, dup, delay] = GetParam();
    UnbundledDbOptions options;
    options.transport = TransportKind::kChannel;
    options.channel.request_channel.drop_prob = drop / 1000.0;
    options.channel.request_channel.dup_prob = dup / 1000.0;
    options.channel.request_channel.max_delay_us = delay;
    options.channel.request_channel.seed = 17 + drop + dup;
    options.channel.reply_channel.drop_prob = drop / 1000.0;
    options.channel.reply_channel.dup_prob = dup / 1000.0;
    options.channel.reply_channel.max_delay_us = delay;
    options.channel.reply_channel.seed = 29 + drop + dup;
    options.tc.resend_interval_ms = 5;
    options.tc.control_interval_ms = 5;
    if (tweak) tweak(&options);
    auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
    EXPECT_TRUE(db->CreateTable(kTable).ok());
    return db;
  }
};

TEST_P(ChannelFaultTest, ExactlyOnceInsertsAndDeletes) {
  auto db = Open();
  std::map<std::string, std::string> model;
  Random rng(std::get<0>(GetParam()) * 31 + 7);
  for (int i = 0; i < 80; ++i) {
    const std::string key = Key(static_cast<int>(rng.Uniform(50)));
    Txn txn(db->tc());
    ASSERT_TRUE(txn.ok());
    if (model.count(key) == 0) {
      ASSERT_TRUE(txn.Insert(kTable, key, "v").ok()) << i;
      ASSERT_TRUE(txn.Commit().ok()) << i;
      model[key] = "v";
    } else {
      ASSERT_TRUE(txn.Delete(kTable, key).ok()) << i;
      ASSERT_TRUE(txn.Commit().ok()) << i;
      model.erase(key);
    }
  }
  Txn check(db->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(check.Scan(kTable, "", "", 0, &rows).ok());
  check.Commit();
  ASSERT_EQ(rows.size(), model.size())
      << "dropped or doubled effects under faults";
  for (const auto& [k, v] : rows) {
    ASSERT_TRUE(model.count(k)) << k;
  }
}

TEST_P(ChannelFaultTest, CountersBalance) {
  auto db = Open();
  for (int i = 0; i < 40; ++i) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.Insert(kTable, Key(i), "v").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  const auto [drop, dup, delay] = GetParam();
  if (drop > 0) {
    EXPECT_GT(db->tc()->stats().resends.load(), 0u)
        << "losses must trigger resends";
  }
  // Idempotence machinery absorbed every duplicate: the DC never
  // reported a conflicting-op violation.
  EXPECT_EQ(db->dc(0)->stats().conflicts_detected.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FaultSweep, ChannelFaultTest,
    ::testing::Values(std::make_tuple(0, 0, 0),
                      std::make_tuple(0, 0, 500),    // reorder only
                      std::make_tuple(20, 0, 200),   // 2% drop
                      std::make_tuple(0, 50, 200),   // 5% dup
                      std::make_tuple(50, 50, 500),  // 5% + 5% + jitter
                      std::make_tuple(120, 80, 800)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "drop" + std::to_string(std::get<0>(info.param)) + "dup" +
             std::to_string(std::get<1>(info.param)) + "delay" +
             std::to_string(std::get<2>(info.param));
    });

// Two TCs sharing one DC over independently lossy channels: each TC's
// resend/idempotence contract holds without cross-TC interference —
// every committed effect lands exactly once.
TEST(ChannelFaultClusterTest, TwoTcsExactlyOnceUnderFaults) {
  ClusterOptions options;
  options.num_dcs = 1;
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.drop_prob = 0.03;
  options.channel.request_channel.dup_prob = 0.03;
  options.channel.request_channel.max_delay_us = 300;
  options.channel.request_channel.seed = 101;
  options.channel.reply_channel.drop_prob = 0.03;
  options.channel.reply_channel.dup_prob = 0.03;
  options.channel.reply_channel.max_delay_us = 300;
  options.channel.reply_channel.seed = 211;
  for (int t = 0; t < 2; ++t) {
    TcSpec spec;
    spec.options.tc_id = static_cast<TcId>(t + 1);
    spec.options.resend_interval_ms = 5;
    spec.options.control_interval_ms = 5;
    options.tcs.push_back(spec);
  }
  auto cluster = std::move(Cluster::Open(options)).ValueOrDie();
  ASSERT_TRUE(cluster->tc(0)->CreateTable(kTable).ok());
  for (int i = 0; i < 30; ++i) {
    for (int t = 0; t < 2; ++t) {
      TransactionComponent* tc = cluster->tc(t);
      StatusOr<TxnId> txn = tc->Begin();
      ASSERT_TRUE(txn.ok());
      const std::string key =
          std::string(t == 0 ? "a" : "b") + Key(i);
      ASSERT_TRUE(tc->Insert(*txn, kTable, key, "v").ok()) << key;
      ASSERT_TRUE(tc->Commit(*txn).ok()) << key;
    }
  }
  // Exactly-once: 60 distinct rows, no conflicting-op violations.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(cluster->tc(0)->ScanShared(kTable, "", "", 0,
                                         ReadFlavor::kDirty, &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 60u);
  EXPECT_EQ(cluster->dc(0)->stats().conflicts_detected.load(), 0u);
}

// In-place upserts under 15 % drop and 15 % duplication both ways: upserts
// of present and absent keys, deletes and same-key re-upserts, some
// awaited one by one and some left to the commit's drain, with half the
// transactions aborted. Refusals, their late duplicates and the writes
// that follow them must land exactly once: the table ends equal to the
// model of the committed transactions.
TEST(ChannelFaultUpsertTest, InPlaceUpsertsMatchModelUnderDropAndDup) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  for (auto* channel : {&options.channel.request_channel,
                        &options.channel.reply_channel}) {
    channel->drop_prob = 0.15;
    channel->dup_prob = 0.15;
    channel->max_delay_us = 200;
  }
  options.channel.request_channel.seed = 41;
  options.channel.reply_channel.seed = 43;
  options.tc.resend_interval_ms = 5;
  options.tc.control_interval_ms = 5;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  TransactionComponent* tc = db->tc();

  std::map<std::string, std::string> model;
  Random rng(2024);
  int committed = 0;
  for (int t = 0; t < 60; ++t) {
    StatusOr<TxnId> txn = tc->Begin();
    ASSERT_TRUE(txn.ok());
    const bool pipelined = rng.Uniform(2) == 0;
    std::map<std::string, std::string> view = model;
    std::string last;
    const int ops = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < ops; ++i) {
      const uint32_t pick = rng.Uniform(100);
      std::string key = Key(static_cast<int>(rng.Uniform(24)));
      if (pick >= 70 && !last.empty()) key = last;  // same-key re-upsert
      const std::string value =
          "t" + std::to_string(t) + "o" + std::to_string(i);
      const bool remove = pick >= 50 && pick < 70 && view.count(key) > 0;
      if (pipelined) {
        OpHandle handle = remove
                              ? tc->SubmitDelete(*txn, kTable, key)
                              : tc->SubmitUpsert(*txn, kTable, key, value);
        ASSERT_TRUE(handle.submitted()) << t << "/" << i;
      } else {
        const Status s = remove ? tc->Delete(*txn, kTable, key)
                                : tc->Upsert(*txn, kTable, key, value);
        ASSERT_TRUE(s.ok()) << t << "/" << i << ": " << s.ToString();
      }
      if (remove) {
        view.erase(key);
      } else {
        view[key] = value;
      }
      last = key;
    }
    if (rng.Uniform(2) == 0) {
      const Status s = tc->Abort(*txn);
      ASSERT_TRUE(s.ok()) << t << ": " << s.ToString();
    } else {
      const Status s = tc->Commit(*txn);
      ASSERT_TRUE(s.ok()) << t << ": " << s.ToString();
      model = std::move(view);
      ++committed;
    }
  }
  EXPECT_GT(committed, 0);
  // The faults and both upsert paths really ran.
  EXPECT_GT(tc->stats().resends.load(), 0u);
  EXPECT_GT(tc->stats().dup_replies.load(), 0u);
  EXPECT_GT(tc->stats().probes.load(), 0u);

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(
      tc->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty, &rows).ok());
  const std::map<std::string, std::string> state(rows.begin(), rows.end());
  EXPECT_EQ(state, model);
  EXPECT_EQ(db->dc(0)->stats().conflicts_detected.load(), 0u);
}

// Streamed scans under channel faults: chunk replies may be dropped,
// duplicated or reordered; the stream's resume/restart discipline must
// deliver every stable key exactly once.
TEST_P(ChannelFaultTest, StreamedScanExactlyOnceUnderFaults) {
  auto db = Open();
  constexpr int kRows = 120;
  for (int base = 0; base < kRows; base += 24) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.ok());
    for (int i = base; i < base + 24; ++i) {
      txn.InsertAsync(kTable, Key(i), "v" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int round = 0; round < 4; ++round) {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db->tc()
                    ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty,
                                 &rows)
                    .ok());
    ASSERT_EQ(rows.size(), static_cast<size_t>(kRows))
        << "lost or duplicated stream windows";
    for (int i = 0; i < kRows; ++i) {
      ASSERT_EQ(rows[i].first, Key(i)) << "round " << round;
      ASSERT_EQ(rows[i].second, "v" + std::to_string(i));
    }
  }
  EXPECT_GT(db->tc()->stats().scan_streams.load(), 0u);
}

// PR 4 sweep arm: a large scan squeezed through a TINY credit window (2
// chunks of 8 rows) under every drop/dup/reorder configuration. Credits
// ride the same lossy request channel as everything else — a lost
// kScanCredit must be recovered by the credit-resend-on-stall (or a full
// stream restart), never wedge the scan, and the rows must still be
// exactly-once, in order.
TEST_P(ChannelFaultTest, TinyCreditStreamedScanExactlyOnce) {
  auto db = Open([](UnbundledDbOptions* options) {
    options->tc.scan_stream_chunk = 8;
    options->tc.scan_credit_chunks = 2;
    options->tc.insert_phantom_protection = false;
  });
  constexpr int kRows = 160;  // 20 chunks against a 2-chunk window
  for (int base = 0; base < kRows; base += 32) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.ok());
    for (int i = base; i < base + 32; ++i) {
      txn.InsertAsync(kTable, Key(i), "v" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int round = 0; round < 3; ++round) {
    // Shared scan and the fetch-ahead transactional fold, both credited.
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db->tc()
                    ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty,
                                 &rows)
                    .ok());
    ASSERT_EQ(rows.size(), static_cast<size_t>(kRows))
        << "credited stream lost or duplicated rows (round " << round
        << ")";
    for (int i = 0; i < kRows; ++i) ASSERT_EQ(rows[i].first, Key(i));

    Txn txn(db->tc());
    std::vector<std::pair<std::string, std::string>> txn_rows;
    ASSERT_TRUE(txn.Scan(kTable, "", "", 0, &txn_rows).ok());
    ASSERT_TRUE(txn.Commit().ok());
    ASSERT_EQ(txn_rows.size(), static_cast<size_t>(kRows));
    for (int i = 0; i < kRows; ++i) ASSERT_EQ(txn_rows[i].first, Key(i));
  }
  EXPECT_GT(db->tc()->stats().scan_credits_sent.load(), 0u);
}

// Deterministically heavy credit loss: 25% of REQUEST-channel messages
// (where every kScanCredit rides) vanish, replies are clean. The scan
// must complete via credit resends and stream restarts — a lost credit
// alone can never wedge the stream.
TEST(ChannelTransportTest, LostCreditsCannotWedgeTheStream) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.drop_prob = 0.25;
  options.channel.request_channel.seed = 4242;
  options.tc.resend_interval_ms = 5;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  options.tc.scan_stream_chunk = 8;
  options.tc.scan_credit_chunks = 2;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  constexpr int kRows = 240;  // 30 chunks: plenty of credits to lose
  for (int base = 0; base < kRows; base += 24) {
    Txn txn(db->tc());
    for (int i = base; i < base + 24; ++i) {
      txn.InsertAsync(kTable, Key(i), "v" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db->tc()
                    ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty,
                                 &rows)
                    .ok());
    ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
    for (int i = 0; i < kRows; ++i) ASSERT_EQ(rows[i].first, Key(i));
  }
  // With a quarter of credits dropped, recovery machinery must have
  // fired at least once.
  EXPECT_GT(db->tc()->stats().scan_credit_resends.load() +
                db->tc()->stats().scan_restarts.load(),
            0u);
}

// A DC crash mid-stream: the in-flight stream request dies in the DC's
// inbox, the TC's re-issue is HELD until the redo-resend completes (a
// scan mid-redo would see a partially re-populated tree), and the scan
// then completes from its resume point — no lost or duplicated windows.
TEST(ChannelTransportTest, DcCrashMidStreamRecovers) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  // 25ms request latency makes "crash while the stream request is in
  // flight" deterministic; the 50ms chunk wait comfortably covers it.
  options.channel.request_channel.min_delay_us = 25000;
  options.channel.request_channel.max_delay_us = 25000;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 50;
  options.tc.insert_phantom_protection = false;
  options.tc.scan_stream_chunk = 8;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  constexpr int kRows = 80;
  for (int base = 0; base < kRows; base += 20) {
    Txn txn(db->tc());
    for (int i = base; i < base + 20; ++i) {
      txn.InsertAsync(kTable, Key(i), "v" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::vector<std::pair<std::string, std::string>> rows;
  Status scan_status;
  std::thread scanner([&] {
    scan_status = db->tc()->ScanShared(kTable, "", "", 0,
                                       ReadFlavor::kDirty, &rows);
  });
  // The stream request is on the wire (25ms to delivery); kill the DC
  // under it, then recover while the scan is stalled.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  db->CrashDc(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(db->RecoverDc(0).ok());
  scanner.join();

  ASSERT_TRUE(scan_status.ok()) << scan_status.ToString();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(rows[i].first, Key(i));
    ASSERT_EQ(rows[i].second, "v" + std::to_string(i));
  }
  EXPECT_GT(db->tc()->stats().scan_restarts.load(), 0u)
      << "the stream should have stalled and re-issued at least once";
}

// A writer mutating the table while a streamed scan runs — over a
// DUPLICATING, reordering channel, so the DC can execute the same
// stream twice with divergent chunk boundaries (deletes shift them).
// Rows committed before the scan started and never touched must each
// appear exactly once, in order, no matter how the two executions'
// chunks interleave (the continuity check forces a restart on splice).
TEST(ChannelTransportTest, ConcurrentWriterDuringStreamedScan) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.dup_prob = 0.3;
  options.channel.request_channel.max_delay_us = 300;
  options.channel.request_channel.seed = 77;
  options.channel.reply_channel.dup_prob = 0.2;
  options.channel.reply_channel.max_delay_us = 300;
  options.channel.reply_channel.seed = 88;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  options.tc.scan_stream_chunk = 8;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  // Stable rows at even indices; the writer churns the odd ones.
  constexpr int kRows = 100;
  for (int base = 0; base < kRows; base += 20) {
    Txn txn(db->tc());
    for (int i = base; i < base + 20; i += 2) {
      txn.InsertAsync(kTable, Key(i), "stable" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int round = 0;
    while (!stop.load()) {
      Txn txn(db->tc());
      const int i = 1 + 2 * (round % (kRows / 2));
      if (round % 3 == 2) {
        txn.Delete(kTable, Key(i));
      } else {
        txn.Upsert(kTable, Key(i), "w" + std::to_string(round));
      }
      txn.Commit();
      ++round;
    }
  });
  for (int round = 0; round < 6; ++round) {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db->tc()
                    ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty,
                                 &rows)
                    .ok());
    // Filter to the stable keys: all present, exactly once, in order.
    std::vector<std::string> stable;
    for (const auto& [k, v] : rows) {
      if (v.rfind("stable", 0) == 0) stable.push_back(k);
    }
    ASSERT_EQ(stable.size(), static_cast<size_t>(kRows / 2))
        << "a concurrent writer lost or duplicated stable rows";
    for (int i = 0; i < kRows / 2; ++i) {
      ASSERT_EQ(stable[i], Key(2 * i));
    }
  }
  stop.store(true);
  writer.join();
}

TEST(ChannelTransportTest, DcCrashDropsInFlightRequests) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.max_delay_us = 2000;
  options.tc.resend_interval_ms = 10;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  // Committed work, then crash with requests possibly in flight.
  for (int i = 0; i < 20; ++i) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.Insert(kTable, Key(i), "v").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  db->CrashDc(0);
  ASSERT_TRUE(db->RecoverDc(0).ok());
  Txn check(db->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(check.Scan(kTable, "", "", 0, &rows).ok());
  check.Commit();
  EXPECT_EQ(rows.size(), 20u);
}

}  // namespace
}  // namespace untx
