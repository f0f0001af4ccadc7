// The per-transaction pipeline: each transaction's pipelined ops carry
// their own conflict gate and backpressure window. Run over the channel
// transport with a one-way delay, so ops stay in flight long enough for
// the gate and the window to matter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "kernel/unbundled_db.h"
#include "util/sync.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

using Clock = std::chrono::steady_clock;

int64_t MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// One DC over a channel whose every message takes between `min_us` and
/// `max_us` to arrive, in each direction.
std::unique_ptr<UnbundledDb> MakeDelayedDb(uint32_t min_us, uint32_t max_us,
                                           uint32_t window,
                                           uint32_t op_timeout_ms,
                                           uint32_t resend_interval_ms = 5000) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.min_delay_us = min_us;
  options.channel.request_channel.max_delay_us = max_us;
  options.channel.request_channel.seed = 11;
  options.channel.reply_channel.min_delay_us = min_us;
  options.channel.reply_channel.max_delay_us = max_us;
  options.channel.reply_channel.seed = 13;
  options.tc.max_outstanding_ops = window;
  options.tc.op_timeout_ms = op_timeout_ms;
  // By default no resend may blur the picture: an op is sent once.
  options.tc.resend_interval_ms = resend_interval_ms;
  // Every write is one pipelined trip (no blocking gap probe first).
  options.tc.insert_phantom_protection = false;
  return std::move(UnbundledDb::Open(options)).ValueOrDie();
}

Status Put(TransactionComponent* tc, const std::string& key,
           const std::string& value) {
  StatusOr<TxnId> txn = tc->Begin();
  if (!txn.ok()) return txn.status();
  Status s = tc->Upsert(*txn, kTable, key, value);
  if (!s.ok()) return s;
  return tc->Commit(*txn);
}

std::string Get(TransactionComponent* tc, const std::string& key) {
  StatusOr<TxnId> txn = tc->Begin();
  std::string value;
  EXPECT_TRUE(tc->Read(*txn, kTable, key, &value).ok());
  EXPECT_TRUE(tc->Commit(*txn).ok());
  return value;
}

// Two threads submit updates of one key to one transaction at the same
// moment. The second may be dispatched only after the first completed:
// otherwise the channel (random per-message delay) can deliver them in
// the other order, the DC applies them against LSN order, and the abort's
// reverse-LSN undo restores the wrong before-image. The DC's conflict
// sentinel must never fire.
TEST(TxnPipelineTest, ConcurrentSameKeySubmitsStayOrdered) {
  auto db = MakeDelayedDb(200, 2000, 256, 20000);
  TransactionComponent* tc = db->tc();
  ASSERT_TRUE(tc->CreateTable(kTable).ok());
  constexpr int kRounds = 100;
  for (int r = 0; r < kRounds; ++r) {
    const std::string key = "k" + std::to_string(r % 4);
    const std::string original = "orig" + std::to_string(r);
    ASSERT_TRUE(Put(tc, key, original).ok());
    StatusOr<TxnId> txn = tc->Begin();
    ASSERT_TRUE(txn.ok());
    std::atomic<int> ready{0};
    Status results[2];
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        OpHandle handle = tc->SubmitUpdate(*txn, kTable, key,
                                           "t" + std::to_string(t));
        results[t] = tc->Await(&handle);
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_TRUE(results[0].ok()) << results[0].ToString();
    EXPECT_TRUE(results[1].ok()) << results[1].ToString();
    ASSERT_TRUE(tc->Abort(*txn).ok());
    ASSERT_EQ(Get(tc, key), original) << "round " << r;
  }
  EXPECT_EQ(db->dc(0)->stats().conflicts_detected.load(), 0u);
}

// With a window of 2, txn A's third submit blocks until one of its first
// two ops is answered (a 2 x 40 ms round trip). Txn B shares the DC but
// not the window: its submits go straight through meanwhile.
TEST(TxnPipelineTest, FullWindowOfOneTxnDoesNotDelayAnother) {
  auto db = MakeDelayedDb(40000, 40000, 2, 20000);
  TransactionComponent* tc = db->tc();
  ASSERT_TRUE(tc->CreateTable(kTable).ok());
  StatusOr<TxnId> a = tc->Begin();
  StatusOr<TxnId> b = tc->Begin();
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<OpHandle> a_handles;
  a_handles.push_back(tc->SubmitInsert(*a, kTable, "a0", "v"));
  a_handles.push_back(tc->SubmitInsert(*a, kTable, "a1", "v"));
  const uint64_t waits_before = tc->stats().backpressure_waits.load();

  Notification a_third_returned;
  std::atomic<int64_t> a_third_ms{-1};
  std::thread blocked([&] {
    const auto start = Clock::now();
    a_handles.push_back(tc->SubmitInsert(*a, kTable, "a2", "v"));
    a_third_ms = MillisSince(start);
    a_third_returned.Notify();
  });
  // Give A's third submit time to reach the window and block on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(a_third_returned.HasBeenNotified());

  const auto start = Clock::now();
  std::vector<OpHandle> b_handles;
  for (int i = 0; i < 2; ++i) {
    b_handles.push_back(
        tc->SubmitInsert(*b, kTable, "b" + std::to_string(i), "v"));
  }
  const int64_t b_ms = MillisSince(start);
  EXPECT_LT(b_ms, 30) << "txn B waited on txn A's window";
  EXPECT_FALSE(a_third_returned.HasBeenNotified());

  blocked.join();
  EXPECT_GE(a_third_ms.load(), 40);
  EXPECT_GT(tc->stats().backpressure_waits.load(), waits_before);
  for (auto& h : a_handles) EXPECT_TRUE(tc->Await(&h).ok());
  for (auto& h : b_handles) EXPECT_TRUE(tc->Await(&h).ok());
  EXPECT_TRUE(tc->Commit(*a).ok());
  EXPECT_TRUE(tc->Commit(*b).ok());
}

// A TC crash fails every submitter blocked on the window or on the
// conflict gate at once, long before the op timeout.
TEST(TxnPipelineTest, CrashReleasesWindowAndGateWaitersPromptly) {
  auto db = MakeDelayedDb(200000, 200000, 1, 10000);
  TransactionComponent* tc = db->tc();
  ASSERT_TRUE(tc->CreateTable(kTable).ok());
  StatusOr<TxnId> window_txn = tc->Begin();
  StatusOr<TxnId> gate_txn = tc->Begin();
  ASSERT_TRUE(window_txn.ok() && gate_txn.ok());
  // Each txn gets one op in flight for a 400 ms round trip.
  OpHandle window_first = tc->SubmitInsert(*window_txn, kTable, "w0", "v");
  OpHandle gate_first = tc->SubmitInsert(*gate_txn, kTable, "g", "v");
  ASSERT_TRUE(window_first.submitted() && gate_first.submitted());

  Status window_status, gate_status;
  Clock::time_point window_returned, gate_returned;
  std::thread window_waiter([&] {
    // The window of 1 is full: blocks.
    OpHandle h = tc->SubmitInsert(*window_txn, kTable, "w1", "v");
    window_returned = Clock::now();
    window_status = h.submitted() ? Status::OK() : tc->Await(&h);
  });
  std::thread gate_waiter([&] {
    // Same key as the txn's in-flight insert: blocks on the gate.
    OpHandle h = tc->SubmitUpdate(*gate_txn, kTable, "g", "v2");
    gate_returned = Clock::now();
    gate_status = h.submitted() ? Status::OK() : tc->Await(&h);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Clock::time_point crash_at = Clock::now();
  db->CrashTc();
  window_waiter.join();
  gate_waiter.join();
  auto ms_after_crash = [crash_at](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(t -
                                                                 crash_at)
        .count();
  };
  EXPECT_FALSE(window_status.ok());
  EXPECT_FALSE(gate_status.ok());
  // Both were still blocked at the crash, and let go well before the
  // 400 ms round trip (let alone the 10 s op timeout) would have.
  EXPECT_GE(ms_after_crash(window_returned), 0);
  EXPECT_GE(ms_after_crash(gate_returned), 0);
  EXPECT_LT(ms_after_crash(window_returned), 300) << window_status.ToString();
  EXPECT_LT(ms_after_crash(gate_returned), 300) << gate_status.ToString();
  ASSERT_TRUE(db->RestartTc().ok());
}

// A DC outage longer than op_timeout_ms leaves a txn's write unanswered
// but still resent. Aborting that txn must not release its locks while
// the write is in flight: a second txn's write on the key would pass the
// lock and the per-txn gate, commit, and then be overwritten by the late
// resend of the aborted write.
TEST(TxnPipelineTest, AbortKeepsLocksWhileAnOpOutlivesItsTimeout) {
  // Resends 1 s apart: the aborted write's resend comes well after the
  // DC is back, long enough for a second txn to write and commit first.
  auto db = MakeDelayedDb(50, 100, 256, 300, 1000);
  TransactionComponent* tc = db->tc();
  ASSERT_TRUE(tc->CreateTable(kTable).ok());
  ASSERT_TRUE(Put(tc, "k", "v0").ok());

  StatusOr<TxnId> a = tc->Begin();
  ASSERT_TRUE(a.ok());
  db->CrashDc(0);
  // The write goes to the down DC and times out, still outstanding.
  EXPECT_FALSE(tc->Upsert(*a, kTable, "k", "aborted").ok());
  Status first_abort = tc->Abort(*a);
  EXPECT_FALSE(first_abort.ok())
      << "the abort released the locks of a txn with a write in flight";
  ASSERT_TRUE(db->RecoverDc(0).ok());

  // A second txn's pipelined write on the same key, then its commit.
  Status b_write, b_commit;
  std::thread writer([&] {
    StatusOr<TxnId> b = tc->Begin();
    ASSERT_TRUE(b.ok());
    OpHandle h = tc->SubmitUpsert(*b, kTable, "k", "committed");
    b_write = tc->Await(&h);
    b_commit = b_write.ok() ? tc->Commit(*b) : tc->Abort(*b);
  });
  // The first abort's write is answered once the DC is back; the
  // retried abort then undoes it and lets the writer in.
  Status abort = first_abort;
  const Clock::time_point start = Clock::now();
  while (!abort.ok() && !abort.IsNotFound() && MillisSince(start) < 10000) {
    abort = tc->Abort(*a);
  }
  EXPECT_TRUE(abort.ok() || first_abort.ok()) << abort.ToString();
  writer.join();
  ASSERT_TRUE(b_write.ok()) << b_write.ToString();
  ASSERT_TRUE(b_commit.ok()) << b_commit.ToString();

  // Let every resend land, then the committed value must stand.
  while (tc->outstanding_ops() > 0 && MillisSince(start) < 10000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(tc->outstanding_ops(), 0u);
  EXPECT_EQ(Get(tc, "k"), "committed");
}

}  // namespace
}  // namespace untx
