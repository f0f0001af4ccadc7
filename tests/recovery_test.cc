// Partial-failure tests (§5.3): DC crash, TC crash, combined, and crash
// storms checked against an in-memory model; concurrent per-DC redo on a
// 3-DC cluster, a DC crash inside a restart's redo, and checkpoints that
// race a DC recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/random.h"
#include "kernel/cluster.h"
#include "kernel/unbundled_db.h"
#include "tc/tc_log.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

UnbundledDbOptions Options() {
  UnbundledDbOptions options;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 20;
  return options;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void Open(UnbundledDbOptions options) {
    auto db = UnbundledDb::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).ValueOrDie();
    ASSERT_TRUE(db_->CreateTable(kTable).ok());
  }

  Status Put(const std::string& key, const std::string& value) {
    Txn txn(db_->tc());
    Status s = txn.Insert(kTable, key, value);
    if (!s.ok()) {
      txn.Abort();
      return s;
    }
    return txn.Commit();
  }

  StatusOr<std::string> Get(const std::string& key) {
    Txn txn(db_->tc());
    std::string value;
    Status s = txn.Read(kTable, key, &value);
    txn.Commit();
    if (!s.ok()) return s;
    return value;
  }

  std::map<std::string, std::string> ScanAll() {
    Txn txn(db_->tc());
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = txn.Scan(kTable, "", "", 0, &rows);
    txn.Commit();
    std::map<std::string, std::string> out;
    if (s.ok()) {
      for (auto& [k, v] : rows) out[k] = v;
    }
    return out;
  }

  std::unique_ptr<UnbundledDb> db_;
};

TEST_F(RecoveryTest, DcCrashCommittedDataSurvives) {
  Open(Options());
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(Put(Key(i), "v" + std::to_string(i)).ok()) << i;
  }
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  for (int i = 0; i < n; ++i) {
    auto v = Get(Key(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    ASSERT_EQ(*v, "v" + std::to_string(i));
  }
  EXPECT_TRUE(db_->dc(0)->btree()->CheckInvariants(kTable).ok());
}

TEST_F(RecoveryTest, DcCrashMidTransactionOpsResume) {
  Open(Options());
  ASSERT_TRUE(Put("pre", "1").ok());
  // Crash the DC, then recover it; committed data must be intact and new
  // transactions must work.
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  ASSERT_TRUE(Put("post", "2").ok());
  EXPECT_EQ(*Get("pre"), "1");
  EXPECT_EQ(*Get("post"), "2");
}

TEST_F(RecoveryTest, TcCrashLosesUncommittedKeepsCommitted) {
  Open(Options());
  ASSERT_TRUE(Put("committed", "yes").ok());

  // A transaction that never commits: its effects must vanish.
  StatusOr<TxnId> txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->tc()->Insert(*txn, kTable, "uncommitted", "x").ok());

  db_->CrashTc();
  ASSERT_TRUE(db_->RestartTc().ok());

  EXPECT_EQ(*Get("committed"), "yes");
  EXPECT_TRUE(Get("uncommitted").status().IsNotFound())
      << "loser transactions must be undone or their effects reset";
}

TEST_F(RecoveryTest, TcCrashAfterCommitIsDurable) {
  Open(Options());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Put(Key(i), "durable").ok());
  }
  db_->CrashTc();
  ASSERT_TRUE(db_->RestartTc().ok());
  for (int i = 0; i < 50; ++i) {
    auto v = Get(Key(i));
    ASSERT_TRUE(v.ok()) << i;
    ASSERT_EQ(*v, "durable");
  }
}

TEST_F(RecoveryTest, TcCrashResetsDcCachePages) {
  Open(Options());
  ASSERT_TRUE(Put("stable", "s").ok());
  // Give the control daemon a beat to push EOSL/LWM, then force pages out.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  db_->dc(0)->pool()->FlushAllEligible();

  // Uncommitted write sits only in the DC cache (beyond the stable log
  // after the crash wipes the tail... commit was never issued).
  StatusOr<TxnId> txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->tc()->Update(*txn, kTable, "stable", "dirty").ok());

  db_->CrashTc();
  ASSERT_TRUE(db_->RestartTc().ok());

  auto v = Get("stable");
  ASSERT_TRUE(v.ok());
  // Depending on whether the update's log record was forced before the
  // crash, recovery either redoes it and undoes it (loser txn) or the
  // reset discarded it. Either way the committed value is back.
  EXPECT_EQ(*v, "s");
}

TEST_F(RecoveryTest, DoubleCrashDuringRecoveryWindow) {
  Open(Options());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok());
  }
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  db_->CrashDc(0);  // crash again immediately
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Get(Key(i)).ok()) << i;
  }
}

TEST_F(RecoveryTest, TcThenDcCrash) {
  Open(Options());
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(Put(Key(i), "both").ok());
  }
  db_->CrashTc();
  ASSERT_TRUE(db_->RestartTc().ok());
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  for (int i = 0; i < 80; ++i) {
    auto v = Get(Key(i));
    ASSERT_TRUE(v.ok()) << i;
    ASSERT_EQ(*v, "both");
  }
}

TEST_F(RecoveryTest, CompleteFailureBothComponents) {
  // "The complete failure of both TC and DC returns us to the current
  // fail-together situation" (§5.3.2).
  Open(Options());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok());
  }
  db_->CrashTc();
  db_->CrashDc(0);
  db_->dc(0)->Restore();
  ASSERT_TRUE(db_->dc(0)->Recover().ok());
  ASSERT_TRUE(db_->RestartTc().ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Get(Key(i)).ok()) << i;
  }
}

TEST_F(RecoveryTest, CheckpointBoundsRedoWork) {
  Open(Options());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->tc()->TakeCheckpoint().ok());
  const Lsn rssp = db_->tc()->rssp();
  EXPECT_GT(rssp, 1u);
  // After the checkpoint, more writes land.
  for (int i = 200; i < 220; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok());
  }
  db_->CrashDc(0);
  const uint64_t ops_before = db_->dc(0)->stats().ops.load();
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  const uint64_t redo_ops = db_->dc(0)->stats().ops.load() - ops_before;
  // Redo resends only from the RSSP: far fewer than all 220 inserts.
  EXPECT_LT(redo_ops, 150u);
  for (int i = 0; i < 220; ++i) {
    ASSERT_TRUE(Get(Key(i)).ok()) << i;
  }
}

TEST_F(RecoveryTest, CheckpointTruncatesLog) {
  Open(Options());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok());
  }
  EXPECT_EQ(db_->tc()->log()->truncated_prefix(), 0u);
  ASSERT_TRUE(db_->tc()->TakeCheckpoint().ok());
  EXPECT_GT(db_->tc()->log()->truncated_prefix(), 0u)
      << "contract termination must release log space";
}

TEST_F(RecoveryTest, RepeatedCrashRecoverCyclesMatchModel) {
  Open(Options());
  Random rng(4242);
  std::map<std::string, std::string> model;
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Mutate.
    for (int i = 0; i < 40; ++i) {
      const std::string key = Key(static_cast<int>(rng.Uniform(60)));
      const std::string value = rng.Bytes(8);
      Txn txn(db_->tc());
      Status s;
      if (model.count(key) > 0) {
        if (rng.Bernoulli(0.3)) {
          s = txn.Delete(kTable, key);
          if (s.ok() && txn.Commit().ok()) model.erase(key);
        } else {
          s = txn.Update(kTable, key, value);
          if (s.ok() && txn.Commit().ok()) model[key] = value;
        }
      } else {
        s = txn.Insert(kTable, key, value);
        if (s.ok() && txn.Commit().ok()) model[key] = value;
      }
    }
    // Crash someone.
    if (cycle % 3 == 0) {
      db_->CrashDc(0);
      ASSERT_TRUE(db_->RecoverDc(0).ok());
    } else if (cycle % 3 == 1) {
      db_->CrashTc();
      ASSERT_TRUE(db_->RestartTc().ok());
    } else {
      ASSERT_TRUE(db_->tc()->TakeCheckpoint().ok());
      db_->CrashDc(0);
      ASSERT_TRUE(db_->RecoverDc(0).ok());
    }
    // Verify.
    auto state = ScanAll();
    ASSERT_EQ(state.size(), model.size()) << "cycle " << cycle;
    for (const auto& [k, v] : model) {
      ASSERT_TRUE(state.count(k) > 0) << "cycle " << cycle << " key " << k;
      ASSERT_EQ(state[k], v) << "cycle " << cycle << " key " << k;
    }
    ASSERT_TRUE(db_->dc(0)->btree()->CheckInvariants(kTable).ok());
  }
}

TEST_F(RecoveryTest, RedoResendShipsOrderedBatches) {
  Open(Options());
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(Put(Key(i), "v" + std::to_string(i)).ok()) << i;
  }
  const TcStats& stats = db_->tc()->stats();
  ASSERT_EQ(stats.recovery_resent_ops.load(), 0u);
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  const uint64_t ops = stats.recovery_resent_ops.load();
  const uint64_t msgs = stats.recovery_resend_msgs.load();
  EXPECT_GE(ops, static_cast<uint64_t>(n));
  // Redo ships ordered kOperationBatch messages (recovery_batch_ops = 64
  // by default), not one op per round trip: ~200 ops in a handful of
  // messages even allowing for a few resends.
  EXPECT_LT(msgs * 8, ops) << "redo-resend must batch";
  for (int i = 0; i < n; ++i) {
    auto v = Get(Key(i));
    ASSERT_TRUE(v.ok()) << i;
    ASSERT_EQ(*v, "v" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, RedoResendBatchSizeOneMatchesLegacyProtocol) {
  UnbundledDbOptions options = Options();
  options.tc.recovery_batch_ops = 1;
  Open(options);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok()) << i;
  }
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  const TcStats& stats = db_->tc()->stats();
  // One op per message: the sequential §3.2 protocol still works.
  EXPECT_GE(stats.recovery_resend_msgs.load(),
            stats.recovery_resent_ops.load());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Get(Key(i)).ok()) << i;
  }
}

TEST_F(RecoveryTest, RecoveryWithChannelTransportAndLoss) {
  UnbundledDbOptions options = Options();
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.drop_prob = 0.03;
  options.channel.reply_channel.drop_prob = 0.03;
  options.channel.request_channel.max_delay_us = 300;
  options.channel.reply_channel.max_delay_us = 300;
  options.tc.resend_interval_ms = 10;
  Open(options);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok()) << i;
  }
  db_->CrashDc(0);
  ASSERT_TRUE(db_->RecoverDc(0).ok());
  for (int i = 0; i < 60; ++i) {
    auto v = Get(Key(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
  }
}

TEST_F(RecoveryTest, UndecodableRedoRecordFailsDcRecovery) {
  Open(Options());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok()) << i;
  }
  // A record in the redo range that does not decode must stop the redo:
  // skipping it could silently drop an operation's effect at the DC.
  StableLog* log = db_->tc()->log();
  log->ForceTo(log->Append(""));
  db_->CrashDc(0);
  EXPECT_TRUE(db_->RecoverDc(0).IsCorruption());
}

TEST_F(RecoveryTest, CheckpointWithOpenTxnStillUndoesItAfterTcCrash) {
  Open(Options());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Put(Key(i), "v").ok()) << i;
  }
  StatusOr<TxnId> txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->tc()->Update(*txn, kTable, Key(0), "dirty").ok());
  ASSERT_TRUE(db_->tc()->Insert(*txn, kTable, "fresh", "dirty").ok());
  // The checkpoint keeps the log from the open txn's first operation; its
  // begin record falls below the truncation point.
  ASSERT_TRUE(db_->tc()->TakeCheckpoint().ok());
  ASSERT_GT(db_->tc()->log()->truncated_prefix(), 0u);
  db_->CrashTc();
  ASSERT_TRUE(db_->RestartTc().ok());
  EXPECT_EQ(*Get(Key(0)), "v");
  EXPECT_TRUE(Get("fresh").status().IsNotFound());
}

// ---- Concurrent redo: one stream per DC ---------------------------------------

constexpr int kRedoDcs = 3;

/// Keys end in a digit; the digit mod 3 picks the DC, so consecutive keys
/// (and every transaction below) spread over all three DCs.
DcId RouteByLastDigit(TableId, const std::string& key) {
  return key.empty() ? 0 : static_cast<DcId>((key.back() - '0') % kRedoDcs);
}

ClusterOptions ThreeDcOptions(TransportKind transport) {
  ClusterOptions options;
  options.num_dcs = kRedoDcs;
  options.transport = transport;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  options.default_router = RouteByLastDigit;
  TcSpec spec;
  spec.options.control_interval_ms = 5;
  spec.options.resend_interval_ms = 20;
  options.tcs.push_back(spec);
  return options;
}

/// The redo a restart must ship, counted straight from the stable log
/// (no checkpoint, so from its start): per DC, the applied writes.
std::map<DcId, uint64_t> StableRedoOps(TransactionComponent* tc) {
  std::map<DcId, uint64_t> out;
  StableLog* log = tc->log();
  for (uint64_t i = log->truncated_prefix(); i < log->stable_end(); ++i) {
    std::string payload;
    if (!log->ReadAt(i, &payload).ok()) continue;
    Slice in(payload);
    TcLogRecord rec;
    if (!TcLogRecord::DecodeFrom(&in, &rec)) continue;
    if (rec.type != TcLogRecordType::kOperation &&
        rec.type != TcLogRecordType::kClr) {
      continue;
    }
    if (!IsWriteOp(rec.op) || !rec.applied) continue;
    ++out[RouteByLastDigit(rec.table_id, rec.key)];
  }
  return out;
}

uint64_t Sum(const std::map<DcId, uint64_t>& per_dc) {
  uint64_t total = 0;
  for (const auto& [dc, n] : per_dc) total += n;
  return total;
}

/// A 3-DC cluster checked against a model of its committed rows, with an
/// optional open loser transaction.
class ConcurrentRedo {
 public:
  Status Open(ClusterOptions options) {
    auto cluster = Cluster::Open(std::move(options));
    if (!cluster.ok()) return cluster.status();
    cluster_ = std::move(cluster).ValueOrDie();
    for (int d = 0; d < kRedoDcs; ++d) {
      Status s = cluster_->tc(0)->CreateTable(kTable, Key(d));
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// Commits rows [0, rows) with values tagged `tag`, six pipelined
  /// upserts (spanning all DCs) per transaction.
  Status Write(int rows, const std::string& tag) {
    TransactionComponent* tc = cluster_->tc(0);
    constexpr int kPerTxn = 6;
    for (int base = 0; base < rows; base += kPerTxn) {
      StatusOr<TxnId> txn = tc->Begin();
      if (!txn.ok()) return txn.status();
      std::vector<OpHandle> handles;
      const int end = std::min(rows, base + kPerTxn);
      for (int i = base; i < end; ++i) {
        handles.push_back(
            tc->SubmitUpsert(*txn, kTable, Key(i), tag + std::to_string(i)));
      }
      for (auto& handle : handles) {
        Status s = tc->Await(&handle);
        if (!s.ok()) return s;
      }
      Status s = tc->Commit(*txn);
      if (!s.ok()) return s;
      for (int i = base; i < end; ++i) model_[Key(i)] = tag + std::to_string(i);
    }
    return Status::OK();
  }

  /// Leaves a transaction open whose writes (fresh inserts and updates of
  /// committed rows) are stable in the TC log.
  Status OpenLoser() {
    TransactionComponent* tc = cluster_->tc(0);
    StatusOr<TxnId> loser = tc->Begin();
    if (!loser.ok()) return loser.status();
    for (int i = 0; i < kLoserWrites; ++i) {
      Status s = tc->Insert(*loser, kTable, LoserKey(i), "lost");
      if (s.ok()) s = tc->Update(*loser, kTable, Key(i), "lost");
      if (!s.ok()) return s;
    }
    tc->PushControls();  // forces the loser's sealed records
    return Status::OK();
  }

  /// Every committed row reads back; every loser write is undone.
  void ExpectCommittedStateOnly() {
    TransactionComponent* tc = cluster_->tc(0);
    for (const auto& [key, value] : model_) {
      std::string got;
      Status s = tc->ReadShared(kTable, key, ReadFlavor::kDirty, &got);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      ASSERT_EQ(got, value) << key;
    }
    for (int i = 0; i < kLoserWrites; ++i) {
      std::string got;
      EXPECT_TRUE(
          tc->ReadShared(kTable, LoserKey(i), ReadFlavor::kDirty, &got)
              .IsNotFound())
          << LoserKey(i);
    }
  }

  Cluster* cluster() { return cluster_.get(); }

 private:
  static constexpr int kLoserWrites = 6;
  static std::string LoserKey(int i) { return "x" + Key(i); }

  std::unique_ptr<Cluster> cluster_;
  std::map<std::string, std::string> model_;
};

class ConcurrentRedoTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ConcurrentRedoTest, TcRestartRedoesEveryDcAndUndoesLoser) {
  const bool lossy = GetParam() == TransportKind::kChannel;
  ClusterOptions options = ThreeDcOptions(GetParam());
  if (lossy) {
    for (auto* channel : {&options.channel.request_channel,
                          &options.channel.reply_channel}) {
      channel->drop_prob = 0.1;
      channel->dup_prob = 0.1;
      channel->max_delay_us = 200;
    }
  }
  ConcurrentRedo fixture;
  ASSERT_TRUE(fixture.Open(options).ok());
  ASSERT_TRUE(fixture.Write(lossy ? 120 : 600, "v").ok());
  ASSERT_TRUE(fixture.OpenLoser().ok());
  Cluster* cluster = fixture.cluster();
  TransactionComponent* tc = cluster->tc(0);

  cluster->CrashTc(0);
  const std::map<DcId, uint64_t> expected = StableRedoOps(tc);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kRedoDcs));
  const uint64_t resent_before = tc->stats().recovery_resent_ops.load();
  const uint64_t ship_before = tc->stats().redo_ship_us.load();
  ASSERT_TRUE(cluster->RestartTc(0).ok());

  // Each DC's stream shipped exactly its indexed ops, once (resends of a
  // lost batch are counted separately).
  EXPECT_EQ(tc->stats().recovery_resent_ops.load() - resent_before,
            Sum(expected));
  EXPECT_GT(tc->stats().redo_ship_us.load(), ship_before);
  EXPECT_GT(tc->stats().restart_analyze_us.load(), 0u);
  fixture.ExpectCommittedStateOnly();
  EXPECT_EQ(tc->outstanding_ops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, ConcurrentRedoTest,
                         ::testing::Values(TransportKind::kDirect,
                                           TransportKind::kChannel),
                         [](const auto& info) {
                           return info.param == TransportKind::kDirect
                                      ? std::string("Direct")
                                      : std::string("ChannelDropDup");
                         });

/// Direct bindings whose client runs a hook before every recovery batch
/// it sends (a deterministic fault point inside one DC's redo stream),
/// and shows every single-op send to an observer.
class HookedDirectBinding : public BoundTransport {
 public:
  explicit HookedDirectBinding(DataComponent* target) : client_(target) {}
  DcClient* client() override { return &client_; }
  void Retarget(DataComponent* target) override { client_.set_target(target); }

  class Client : public DirectDcClient {
   public:
    using DirectDcClient::DirectDcClient;
    void SendOperation(const OperationRequest& req) override {
      if (on_send) on_send(req);
      DirectDcClient::SendOperation(req);
    }
    void SendOperationBatch(
        const std::vector<OperationRequest>& reqs) override {
      if (!reqs.empty() && reqs.front().recovery_resend && hook) hook();
      DirectDcClient::SendOperationBatch(reqs);
    }
    std::function<void()> hook;
    std::function<void(const OperationRequest&)> on_send;
  };
  Client client_;
};

class HookedDirectFactory : public TransportFactory {
 public:
  std::unique_ptr<BoundTransport> Bind(TcId, DcId dc,
                                       DataComponent* target) override {
    auto binding = std::make_unique<HookedDirectBinding>(target);
    clients[dc] = &binding->client_;
    return binding;
  }
  std::map<DcId, HookedDirectBinding::Client*> clients;
};

TEST(ConcurrentRedoFaultTest, DcCrashMidRedoFailsOnlyItsStream) {
  constexpr uint32_t kOpTimeoutMs = 1000;
  ClusterOptions options = ThreeDcOptions(TransportKind::kDirect);
  options.tcs[0].options.op_timeout_ms = kOpTimeoutMs;
  auto factory = std::make_shared<HookedDirectFactory>();
  options.binding_factory = factory;
  ConcurrentRedo fixture;
  ASSERT_TRUE(fixture.Open(options).ok());
  ASSERT_TRUE(fixture.Write(900, "v").ok());
  ASSERT_TRUE(fixture.OpenLoser().ok());
  Cluster* cluster = fixture.cluster();
  TransactionComponent* tc = cluster->tc(0);

  cluster->CrashTc(0);
  const std::map<DcId, uint64_t> expected = StableRedoOps(tc);
  ASSERT_GT(expected.at(1), 3u * tc->options().recovery_batch_ops);
  // DC 1 dies just before its third redo batch goes out.
  constexpr DcId kVictim = 1;
  std::atomic<int> batches{0};
  std::chrono::steady_clock::time_point crashed_at;
  factory->clients.at(kVictim)->hook = [&] {
    if (++batches == 3) {
      crashed_at = std::chrono::steady_clock::now();
      cluster->CrashDc(kVictim);
    }
  };
  std::map<DcId, uint64_t> dc_ops_before;
  for (int d = 0; d < kRedoDcs; ++d) {
    dc_ops_before[d] = cluster->dc(d)->stats().ops.load();
  }

  Status s = cluster->RestartTc(0);
  const auto returned_at = std::chrono::steady_clock::now();
  factory->clients.at(kVictim)->hook = nullptr;
  ASSERT_GE(batches.load(), 3);
  EXPECT_FALSE(s.ok());
  EXPECT_LT(returned_at - crashed_at,
            std::chrono::milliseconds(kOpTimeoutMs + 1000))
      << "the failed stream must give up within op_timeout_ms";
  // The healthy DCs' streams ran to completion despite the failure.
  for (int d = 0; d < kRedoDcs; ++d) {
    if (d == kVictim) continue;
    EXPECT_GE(cluster->dc(d)->stats().ops.load() - dc_ops_before[d],
              expected.at(d))
        << "dc " << d;
  }
  // No recovery op stays registered, so nothing keeps being resent.
  EXPECT_EQ(tc->outstanding_ops(), 0u);
  const uint64_t resends = tc->stats().resends.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(
      5 * tc->options().resend_interval_ms));
  EXPECT_EQ(tc->stats().resends.load(), resends);

  // The restart can be retried once the DC is back.
  ASSERT_TRUE(cluster->RecoverDc(kVictim).ok());
  ASSERT_TRUE(cluster->RestartTc(0).ok());
  fixture.ExpectCommittedStateOnly();
}

// ---- Refused in-place upserts -------------------------------------------------

// A refused in-place upsert is a completed no-op, so a late duplicate of
// it must never apply — not after the txn's later write of the key, and
// not after the commit. The reply cache answers it first; once the LWM
// prunes the cache, the page abLSN does.
TEST(RefusedUpsertTest, LateDuplicateNeverApplies) {
  ClusterOptions options;
  options.num_dcs = 1;
  options.transport = TransportKind::kDirect;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  TcSpec spec;
  spec.options.start_daemons = false;  // the test pushes the LWM itself
  options.tcs.push_back(spec);
  auto factory = std::make_shared<HookedDirectFactory>();
  options.binding_factory = factory;
  auto cluster = std::move(Cluster::Open(options)).ValueOrDie();
  TransactionComponent* tc = cluster->tc(0);
  DataComponent* dc = cluster->dc(0);
  ASSERT_TRUE(tc->CreateTable(kTable).ok());

  std::vector<OperationRequest> attempts;
  factory->clients.at(0)->on_send = [&](const OperationRequest& req) {
    if (req.if_present) attempts.push_back(req);
  };
  StatusOr<TxnId> txn = tc->Begin();
  ASSERT_TRUE(txn.ok());
  // Absent: refused, then a plain upsert. Present: applied in place.
  ASSERT_TRUE(tc->Upsert(*txn, kTable, Key(5), "first").ok());
  ASSERT_TRUE(tc->Upsert(*txn, kTable, Key(5), "second").ok());
  factory->clients.at(0)->on_send = nullptr;
  ASSERT_EQ(attempts.size(), 2u);
  const OperationRequest refused = attempts[0];

  auto value = [&] {
    std::string v;
    Status s = tc->ReadShared(kTable, Key(5), ReadFlavor::kDirty, &v);
    return s.ok() ? v : s.ToString();
  };
  auto redeliver = [&] {
    OperationReply reply = dc->Perform(refused);
    EXPECT_TRUE(reply.was_duplicate);
    return reply;
  };

  uint64_t cache_hits = dc->stats().reply_cache_hits.load();
  OperationReply dup = redeliver();
  EXPECT_TRUE(dup.absent);
  EXPECT_TRUE(dup.status.IsNotFound());
  EXPECT_EQ(dc->stats().reply_cache_hits.load(), cache_hits + 1);
  EXPECT_EQ(value(), "second");

  ASSERT_TRUE(tc->Commit(*txn).ok());
  redeliver();
  EXPECT_EQ(value(), "second");

  tc->PushControls();  // the LWM passes the refusal: its reply is pruned
  cache_hits = dc->stats().reply_cache_hits.load();
  const uint64_t covered = dc->stats().duplicate_hits.load();
  redeliver();
  EXPECT_EQ(dc->stats().reply_cache_hits.load(), cache_hits);
  EXPECT_EQ(dc->stats().duplicate_hits.load(), covered + 1);
  EXPECT_EQ(value(), "second");
}

// ---- Checkpoints against DC recovery -----------------------------------------

TEST(CheckpointDuringDcRecoveryTest, BusyWhileAGateIsClosed) {
  auto cluster =
      std::move(Cluster::Open(ThreeDcOptions(TransportKind::kDirect)))
          .ValueOrDie();
  TransactionComponent* tc = cluster->tc(0);
  for (int d = 0; d < kRedoDcs; ++d) {
    ASSERT_TRUE(tc->CreateTable(kTable, Key(d)).ok());
  }
  cluster->CrashDc(2);
  EXPECT_TRUE(tc->TakeCheckpoint().IsBusy());
  ASSERT_TRUE(cluster->RecoverDc(2).ok());
  EXPECT_TRUE(tc->TakeCheckpoint().ok());
}

// Checkpoints race DC recoveries: each round commits a fresh version of
// every row, crashes one DC, and checkpoints in a loop while it recovers.
// A checkpoint landing mid-redo would have the DC acknowledge pages that
// lack the redo, and truncate log records the redo still has to ship; a
// final crash of every DC then shows the lost rows.
TEST(CheckpointDuringDcRecoveryTest, RacingCheckpointsLoseNoRows) {
  ConcurrentRedo fixture;
  ASSERT_TRUE(fixture.Open(ThreeDcOptions(TransportKind::kDirect)).ok());
  Cluster* cluster = fixture.cluster();
  TransactionComponent* tc = cluster->tc(0);
  uint64_t checkpoints = 0;
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(fixture.Write(1800, "r" + std::to_string(round) + "-").ok());
    const int victim = round % kRedoDcs;
    cluster->CrashDc(victim);
    std::atomic<bool> recovered{false};
    Status recovery;
    std::thread recoverer([&] {
      recovery = cluster->RecoverDc(victim);
      recovered.store(true);
    });
    while (!recovered.load()) {
      if (tc->TakeCheckpoint().ok()) ++checkpoints;
    }
    recoverer.join();
    ASSERT_TRUE(recovery.ok()) << "round " << round << ": "
                               << recovery.ToString();
    if (tc->TakeCheckpoint().ok()) ++checkpoints;
  }
  EXPECT_GT(checkpoints, 0u);
  for (int d = 0; d < kRedoDcs; ++d) {
    cluster->CrashDc(d);
    ASSERT_TRUE(cluster->RecoverDc(d).ok()) << d;
  }
  fixture.ExpectCommittedStateOnly();
}

}  // namespace
}  // namespace untx
