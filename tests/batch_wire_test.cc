// The batched TC→DC wire protocol: OperationBatch / OperationBatchReply
// encode-decode, the DcService::PerformBatch contract, and end-to-end
// exactly-once application of resent batches (reply cache + abLSN).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dc/data_component.h"
#include "dc/dc_api.h"
#include "kernel/unbundled_db.h"
#include "storage/stable_store.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

OperationRequest MakeOp(OpType op, Lsn lsn, const std::string& key,
                        const std::string& value = "") {
  OperationRequest req;
  req.tc_id = 1;
  req.lsn = lsn;
  req.op = op;
  req.table_id = kTable;
  req.key = key;
  req.value = value;
  return req;
}

TEST(BatchWireTest, BatchRoundTrip) {
  OperationBatch batch;
  batch.ops.push_back(MakeOp(OpType::kInsert, 7, "a", "va"));
  batch.ops.push_back(MakeOp(OpType::kRead, 8, "b"));
  batch.ops.back().read_flavor = ReadFlavor::kReadCommitted;
  batch.ops.push_back(MakeOp(OpType::kScanRange, 9, "c", ""));
  batch.ops.back().end_key = "z";
  batch.ops.back().limit = 42;
  batch.ops.push_back(MakeOp(OpType::kUpsert, 10, "d", "vd"));
  batch.ops.back().if_present = true;

  std::string buf;
  batch.EncodeTo(&buf);
  Slice in(buf);
  OperationBatch out;
  ASSERT_TRUE(OperationBatch::DecodeFrom(&in, &out));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(out.ops.size(), 4u);
  EXPECT_EQ(out.ops[0].op, OpType::kInsert);
  EXPECT_EQ(out.ops[0].lsn, 7u);
  EXPECT_EQ(out.ops[0].key, "a");
  EXPECT_EQ(out.ops[0].value, "va");
  EXPECT_EQ(out.ops[1].read_flavor, ReadFlavor::kReadCommitted);
  EXPECT_EQ(out.ops[2].end_key, "z");
  EXPECT_EQ(out.ops[2].limit, 42u);
  // The in-place upsert flag stays on its own op.
  EXPECT_EQ(out.ops[3].op, OpType::kUpsert);
  EXPECT_TRUE(out.ops[3].if_present);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(out.ops[i].if_present) << i;
}

TEST(BatchWireTest, EmptyBatchRoundTrip) {
  OperationBatch batch;
  std::string buf;
  batch.EncodeTo(&buf);
  Slice in(buf);
  OperationBatch out;
  ASSERT_TRUE(OperationBatch::DecodeFrom(&in, &out));
  EXPECT_TRUE(out.ops.empty());
}

TEST(BatchWireTest, BatchReplyRoundTrip) {
  OperationBatchReply batch;
  OperationReply r1;
  r1.tc_id = 1;
  r1.lsn = 7;
  r1.status = Status::OK();
  r1.value = "before";
  r1.has_before = true;
  batch.replies.push_back(r1);
  OperationReply r2;
  r2.tc_id = 1;
  r2.lsn = 8;
  r2.status = Status::NotFound("missing");
  r2.was_duplicate = true;
  batch.replies.push_back(r2);
  OperationReply r3;
  r3.tc_id = 1;
  r3.lsn = 9;
  r3.status = Status::NotFound("upsert of absent key");
  r3.absent = true;
  r3.keys = {"k9"};
  batch.replies.push_back(r3);

  std::string buf;
  batch.EncodeTo(&buf);
  Slice in(buf);
  OperationBatchReply out;
  ASSERT_TRUE(OperationBatchReply::DecodeFrom(&in, &out));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(out.replies.size(), 3u);
  EXPECT_TRUE(out.replies[0].status.ok());
  EXPECT_EQ(out.replies[0].value, "before");
  EXPECT_TRUE(out.replies[0].has_before);
  EXPECT_TRUE(out.replies[1].status.IsNotFound());
  EXPECT_TRUE(out.replies[1].was_duplicate);
  // A refusal keeps its flag and the gap's next key; the others have none.
  EXPECT_FALSE(out.replies[0].absent);
  EXPECT_FALSE(out.replies[1].absent);
  EXPECT_TRUE(out.replies[2].status.IsNotFound());
  EXPECT_TRUE(out.replies[2].absent);
  EXPECT_FALSE(out.replies[2].was_duplicate);
  EXPECT_EQ(out.replies[2].keys, (std::vector<std::string>{"k9"}));
}

TEST(BatchWireTest, BatchDecodeRejectsTruncation) {
  OperationBatch batch;
  batch.ops.push_back(MakeOp(OpType::kInsert, 1, "key-1", "value-1"));
  batch.ops.push_back(MakeOp(OpType::kUpdate, 2, "key-2", "value-2"));
  std::string buf;
  batch.EncodeTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    OperationBatch out;
    EXPECT_FALSE(OperationBatch::DecodeFrom(&in, &out)) << "cut=" << cut;
  }
}

TEST(BatchWireTest, BatchReplyDecodeRejectsTruncation) {
  OperationBatchReply batch;
  OperationReply r;
  r.tc_id = 3;
  r.lsn = 11;
  r.status = Status::OK();
  r.value = "payload";
  batch.replies.push_back(r);
  std::string buf;
  batch.EncodeTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    OperationBatchReply out;
    EXPECT_FALSE(OperationBatchReply::DecodeFrom(&in, &out)) << "cut=" << cut;
  }
}

TEST(BatchWireTest, BatchEnvelopeRoundTrip) {
  OperationBatch batch;
  batch.ops.push_back(MakeOp(OpType::kDelete, 5, "k"));
  std::string body;
  batch.EncodeTo(&body);
  std::string wire = WrapMessage(MessageKind::kOperationBatch, body);
  MessageKind kind;
  Slice in;
  ASSERT_TRUE(UnwrapMessage(wire, &kind, &in));
  EXPECT_EQ(kind, MessageKind::kOperationBatch);
  OperationBatch out;
  ASSERT_TRUE(OperationBatch::DecodeFrom(&in, &out));
  ASSERT_EQ(out.ops.size(), 1u);
  EXPECT_EQ(out.ops[0].op, OpType::kDelete);
}

/// The default PerformBatch must degrade to a per-op loop in order.
TEST(BatchWireTest, DefaultPerformBatchLoops) {
  class EchoService : public DcService {
   public:
    OperationReply Perform(const OperationRequest& req) override {
      OperationReply reply;
      reply.tc_id = req.tc_id;
      reply.lsn = req.lsn;
      reply.value = req.key;
      order.push_back(req.lsn);
      return reply;
    }
    ControlReply Control(const ControlRequest&) override { return {}; }
    std::vector<Lsn> order;
  } service;

  std::vector<OperationRequest> reqs;
  reqs.push_back(MakeOp(OpType::kRead, 3, "x"));
  reqs.push_back(MakeOp(OpType::kRead, 1, "y"));
  reqs.push_back(MakeOp(OpType::kRead, 2, "z"));
  std::vector<OperationReply> replies = service.PerformBatch(reqs);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].lsn, 3u);
  EXPECT_EQ(replies[1].lsn, 1u);
  EXPECT_EQ(replies[2].lsn, 2u);
  EXPECT_EQ(service.order, (std::vector<Lsn>{3, 1, 2}));
}

/// A resent batch is answered wholesale from the reply cache: same
/// replies, flagged as duplicates, nothing re-executed.
TEST(BatchWireTest, ResentBatchServedFromReplyCache) {
  StableStore store((StableStoreOptions()));
  DataComponent dc(&store);
  ASSERT_TRUE(dc.Initialize().ok());
  ControlRequest arm;
  arm.type = ControlType::kRestartEnd;
  arm.tc_id = 1;
  dc.Control(arm);
  ASSERT_TRUE(dc.Perform(MakeOp(OpType::kCreateTable, 1, "")).status.ok());

  std::vector<OperationRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(MakeOp(OpType::kInsert, 10 + i, "k" + std::to_string(i),
                           "v" + std::to_string(i)));
  }
  std::vector<OperationReply> first = dc.PerformBatch(batch);
  ASSERT_EQ(first.size(), batch.size());
  for (const auto& reply : first) {
    EXPECT_TRUE(reply.status.ok());
    EXPECT_FALSE(reply.was_duplicate);
  }

  const uint64_t writes_before = dc.stats().writes.load();
  std::vector<OperationReply> resent = dc.PerformBatch(batch);
  ASSERT_EQ(resent.size(), batch.size());
  for (const auto& reply : resent) {
    EXPECT_TRUE(reply.status.ok());
    EXPECT_TRUE(reply.was_duplicate);
  }
  // Every resent op was a reply-cache hit; none re-entered the tree.
  EXPECT_EQ(dc.stats().reply_cache_hits.load(), batch.size());
  EXPECT_EQ(dc.stats().writes.load(), writes_before + batch.size());

  // The data is there exactly once.
  OperationReply read = dc.Perform(MakeOp(OpType::kRead, 100, "k3"));
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(read.value, "v3");
}

/// End to end over the channel transport: a pipelined transaction's batch
/// survives a DC crash; after recovery the TC's redo-resend re-applies it
/// and a direct resend of the original batch is absorbed idempotently.
TEST(BatchWireTest, BatchedPipelineExactlyOnceAcrossDcCrash) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 40;
  options.tc.insert_phantom_protection = false;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());

  // One pipelined transaction: 16 inserts, one batched flush, commit.
  {
    Txn txn(db->tc());
    for (int i = 0; i < 16; ++i) {
      txn.InsertAsync(kTable, "key" + std::to_string(i),
                      "val" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_GT(db->dc(0)->stats().batches.load(), 0u);

  // Crash the DC (reply caches and cached pages die) and recover: the TC
  // redo-resends from the RSSP; every insert must land exactly once.
  db->CrashDc(0);
  ASSERT_TRUE(db->RecoverDc(0).ok());

  {
    Txn txn(db->tc());
    std::vector<std::string> keys;
    for (int i = 0; i < 16; ++i) keys.push_back("key" + std::to_string(i));
    std::vector<std::string> values;
    ASSERT_TRUE(txn.MultiRead(kTable, keys, &values).ok());
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(values[i], "val" + std::to_string(i)) << "key" << i;
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  // A duplicate insert of an existing key still fails cleanly — the
  // recovery did not double-apply or lose anything.
  {
    Txn txn(db->tc());
    EXPECT_TRUE(txn.Insert(kTable, "key3", "clobber").IsAlreadyExists());
    txn.Abort();
  }
}

/// A duplicating request channel re-delivers whole batches; the DC's
/// idempotence machinery absorbs them and the TC counts the hits.
TEST(BatchWireTest, DuplicatedBatchesCountedAsDupReplies) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 40;
  options.tc.insert_phantom_protection = false;
  options.channel.request_channel.dup_prob = 0.5;
  options.channel.request_channel.seed = 11;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());

  for (int t = 0; t < 10; ++t) {
    Txn txn(db->tc());
    for (int i = 0; i < 8; ++i) {
      txn.UpsertAsync(kTable, "dup" + std::to_string(i),
                      "round" + std::to_string(t));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // With dup_prob 0.5 over 20+ batch messages, duplicates are certain;
  // each duplicated batch is served from the reply cache and surfaces in
  // the TC's dup_replies counter.
  EXPECT_GT(db->tc()->stats().dup_replies.load(), 0u);
  EXPECT_GT(db->dc(0)->stats().reply_cache_hits.load(), 0u);

  // Data correct despite the duplication.
  Txn txn(db->tc());
  std::string value;
  ASSERT_TRUE(txn.Read(kTable, "dup0", &value).ok());
  EXPECT_EQ(value, "round9");
  txn.Commit();
}

}  // namespace
}  // namespace untx
