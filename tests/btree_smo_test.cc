// B-tree structure-modification tests at the BTree level: multi-level
// splits, append splits under key-ordered loads, consolidation, height shrink, replay idempotence, random SMO
// storms checked against tree invariants, and concurrent inserts racing
// root splits.
#include "dc/btree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dc/data_component.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

class BTreeSmoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StableStoreOptions store_options;
    store_options.page_size = 512;  // tiny pages: deep trees fast
    store_options.trailer_capacity = 96;
    store_ = std::make_unique<StableStore>(store_options);
    DataComponentOptions options;
    options.max_value_size = 64;
    dc_ = std::make_unique<DataComponent>(store_.get(), options);
    ASSERT_TRUE(dc_->Initialize().ok());
    // Arm + create through the op interface so dLSN bookkeeping is real.
    ControlRequest arm;
    arm.type = ControlType::kRestartEnd;
    arm.tc_id = 1;
    dc_->Control(arm);
    OperationRequest create;
    create.tc_id = 1;
    create.lsn = next_lsn_++;
    create.op = OpType::kCreateTable;
    create.table_id = kTable;
    ASSERT_TRUE(dc_->Perform(create).status.ok());
  }

  OperationReply Write(OpType op, const std::string& key,
                       const std::string& value = "") {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn_++;
    req.op = op;
    req.table_id = kTable;
    req.key = key;
    req.value = value;
    return dc_->Perform(req);
  }

  void PushDurability() {
    ControlRequest eosl;
    eosl.type = ControlType::kEndOfStableLog;
    eosl.tc_id = 1;
    eosl.lsn = next_lsn_ - 1;
    dc_->Control(eosl);
    ControlRequest lwm;
    lwm.type = ControlType::kLowWaterMark;
    lwm.tc_id = 1;
    lwm.lsn = next_lsn_ - 1;
    dc_->Control(lwm);
  }

  // Fill fraction of each leaf, left to right along the leaf chain.
  std::vector<double> LeafFills() {
    std::vector<double> fills;
    Frame* frame = nullptr;
    EXPECT_TRUE(dc_->btree()->LocateLeaf(kTable, "", false, &frame).ok());
    if (frame == nullptr) return fills;
    BufferPool* pool = dc_->pool();
    for (;;) {
      SlottedPage page =
          frame->Page(pool->page_size(), pool->trailer_capacity());
      fills.push_back(page.FillFraction());
      const PageId next = page.next_page();
      frame->latch.UnlockShared();
      pool->Unpin(frame);
      if (next == kInvalidPageId) break;
      EXPECT_TRUE(pool->Fetch(next, &frame).ok());
      frame->latch.LockShared();
    }
    return fills;
  }

  // Every key of `model` reads back its value, and one full scan returns
  // exactly the model.
  void ExpectMatchesModel(const std::map<std::string, std::string>& model) {
    for (const auto& [key, value] : model) {
      OperationRequest read;
      read.tc_id = 1;
      read.lsn = next_lsn_++;
      read.op = OpType::kRead;
      read.table_id = kTable;
      read.key = key;
      OperationReply reply = dc_->Perform(read);
      ASSERT_TRUE(reply.status.ok()) << key;
      ASSERT_EQ(reply.value, value) << key;
    }
    OperationRequest scan;
    scan.tc_id = 1;
    scan.lsn = next_lsn_++;
    scan.op = OpType::kScanRange;
    scan.table_id = kTable;
    scan.limit = 100000;
    OperationReply rows = dc_->Perform(scan);
    ASSERT_TRUE(rows.status.ok());
    ASSERT_EQ(rows.keys.size(), model.size());
    size_t i = 0;
    for (const auto& [key, value] : model) {
      ASSERT_EQ(rows.keys[i], key);
      ASSERT_EQ(rows.values[i], value);
      ++i;
    }
  }

  std::unique_ptr<StableStore> store_;
  std::unique_ptr<DataComponent> dc_;
  Lsn next_lsn_ = 1;
};

TEST_F(BTreeSmoTest, DeepTreeFromSequentialInserts) {
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok()) << i;
  }
  const auto& stats = dc_->btree()->stats();
  EXPECT_GT(stats.splits, 20u);
  EXPECT_GT(stats.root_splits, 1u) << "tiny pages must grow height > 2";
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

// A key past every key on its leaf splits off only the last record, so
// an ascending load leaves each left page full instead of half full.
TEST_F(BTreeSmoTest, AscendingLoadFillsLeaves) {
  const std::string value(16, 'v');
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), value).status.ok()) << i;
  }
  ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  std::vector<double> fills = LeafFills();
  ASSERT_GT(fills.size(), 20u);
  fills.pop_back();  // the rightmost leaf is still filling
  double sum = 0;
  for (double fill : fills) sum += fill;
  EXPECT_GE(sum / fills.size(), 0.85);
}

// Two ascending streams interleaved: each stream appends to its own
// leaf, and only the higher one's leaf is the tree's rightmost.
TEST_F(BTreeSmoTest, InterleavedAscendingLoadKeepsInvariants) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 700; ++i) {
    for (const char* stream : {"a", "b"}) {
      const std::string key = stream + Key(i);
      const std::string value = "v" + key;
      ASSERT_TRUE(Write(OpType::kInsert, key, value).status.ok()) << key;
      model[key] = value;
    }
    if (i % 100 == 99) {
      ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok()) << i;
    }
  }
  ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  ExpectMatchesModel(model);
}

TEST_F(BTreeSmoTest, RandomOrderLoadKeepsInvariants) {
  std::vector<int> order(1200);
  for (int i = 0; i < 1200; ++i) order[i] = i;
  Random rng(97);
  for (int i = 1199; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  std::map<std::string, std::string> model;
  for (int i : order) {
    const std::string value = rng.Bytes(4 + rng.Uniform(30));
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), value).status.ok()) << i;
    model[Key(i)] = value;
  }
  ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  ExpectMatchesModel(model);
}

TEST_F(BTreeSmoTest, ReverseOrderInserts) {
  for (int i = 1200; i > 0; --i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok()) << i;
  }
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  // Every key present.
  for (int i = 1; i <= 1200; i += 13) {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn_++;
    req.op = OpType::kRead;
    req.table_id = kTable;
    req.key = Key(i);
    ASSERT_TRUE(dc_->Perform(req).status.ok()) << i;
  }
}

TEST_F(BTreeSmoTest, ConsolidationShrinksHeight) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  const uint64_t height_shrinks_before =
      dc_->btree()->stats().height_shrinks;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(Write(OpType::kDelete, Key(i)).status.ok()) << i;
  }
  EXPECT_GT(dc_->btree()->stats().consolidates, 5u);
  EXPECT_GE(dc_->btree()->stats().height_shrinks, height_shrinks_before);
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
}

TEST_F(BTreeSmoTest, ReplayIsIdempotent) {
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  PushDurability();
  dc_->pool()->ForceDcLog();
  // Replaying the stable batches on a LIVE tree must change nothing
  // (every record is dLSN-guarded).
  ASSERT_TRUE(dc_->btree()->ReplayStableSmoBatches().ok());
  ASSERT_TRUE(dc_->btree()->ReplayStableSmoBatches().ok());
  EXPECT_TRUE(dc_->btree()->CheckInvariants(kTable).ok());
  for (int i = 0; i < 600; i += 17) {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn_++;
    req.op = OpType::kRead;
    req.table_id = kTable;
    req.key = Key(i);
    auto reply = dc_->Perform(req);
    ASSERT_TRUE(reply.status.ok()) << i;
    ASSERT_EQ(reply.value, "vvvvvvvv");
  }
}

TEST_F(BTreeSmoTest, FreedPagesAreRecycled) {
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  PushDurability();
  const uint64_t high_water_full = store_->allocated_high_water();
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Write(OpType::kDelete, Key(i)).status.ok());
  }
  PushDurability();
  dc_->pool()->ForceDcLog();  // executes deferred frees
  // Re-inserting must reuse freed pages instead of growing the store.
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(Write(OpType::kInsert, Key(i), "vvvvvvvv").status.ok());
  }
  EXPECT_LE(store_->allocated_high_water(), high_water_full + 20)
      << "consolidated pages must return to the allocator";
}

// Concurrent inserts race root splits: a descent that read the root pid
// just before a split and latched that page just after it must not
// search the old root's left half only. Every key must land in the leaf
// its separators name — CheckInvariants checks each leaf's key bounds —
// and be found both by point reads and by one leaf-chain scan.
TEST_F(BTreeSmoTest, ConcurrentInsertsAcrossRootSplits) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 600;
  constexpr int kTables = 12;
  std::atomic<Lsn> next_lsn{next_lsn_};
  auto perform = [&](OpType op, TableId table, const std::string& key) {
    OperationRequest req;
    req.tc_id = 1;
    req.lsn = next_lsn.fetch_add(1);
    req.op = op;
    req.table_id = table;
    req.key = key;
    req.value = "v" + key;
    return dc_->Perform(req);
  };
  for (TableId table = 2; table < 2 + kTables; ++table) {
    ASSERT_TRUE(perform(OpType::kCreateTable, table, "").status.ok());
    std::vector<std::thread> writers;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = t; i < kKeys; i += kThreads) {
          if (!perform(OpType::kUpsert, table, Key(i)).status.ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_TRUE(dc_->btree()->CheckInvariants(table).ok())
        << "table " << table;
    for (int i = 0; i < kKeys; ++i) {
      OperationReply read = perform(OpType::kRead, table, Key(i));
      ASSERT_TRUE(read.status.ok()) << "table " << table << " " << Key(i);
    }
    OperationRequest scan;
    scan.tc_id = 1;
    scan.lsn = next_lsn.fetch_add(1);
    scan.op = OpType::kScanRange;
    scan.table_id = table;
    scan.limit = 100000;
    OperationReply rows = dc_->Perform(scan);
    ASSERT_TRUE(rows.status.ok());
    ASSERT_EQ(rows.keys.size(), static_cast<size_t>(kKeys))
        << "table " << table;
    for (int i = 0; i < kKeys; ++i) ASSERT_EQ(rows.keys[i], Key(i));
  }
}

class BTreeStormTest : public BTreeSmoTest,
                       public ::testing::WithParamInterface<uint64_t> {};

TEST_P(BTreeStormTest, RandomSmoStormKeepsInvariantsAndModel) {
  Random rng(GetParam());
  std::map<std::string, std::string> model;
  for (int step = 0; step < 4000; ++step) {
    const std::string key = Key(static_cast<int>(rng.Uniform(700)));
    if (rng.Bernoulli(0.6)) {
      const std::string value = rng.Bytes(4 + rng.Uniform(30));
      auto reply = Write(OpType::kUpsert, key, value);
      ASSERT_TRUE(reply.status.ok());
      model[key] = value;
    } else {
      auto reply = Write(OpType::kDelete, key);
      if (model.count(key)) {
        ASSERT_TRUE(reply.status.ok());
        model.erase(key);
      } else {
        ASSERT_TRUE(reply.status.IsNotFound());
      }
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(dc_->btree()->CheckInvariants(kTable).ok())
          << "step " << step;
    }
  }
  // Full-scan equivalence.
  OperationRequest scan;
  scan.tc_id = 1;
  scan.lsn = next_lsn_++;
  scan.op = OpType::kScanRange;
  scan.table_id = kTable;
  scan.limit = 100000;
  auto reply = dc_->Perform(scan);
  ASSERT_TRUE(reply.status.ok());
  ASSERT_EQ(reply.keys.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    ASSERT_EQ(reply.keys[i], k);
    ASSERT_EQ(reply.values[i], v);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeStormTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace untx
