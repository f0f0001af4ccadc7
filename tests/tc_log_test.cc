// The TC log's operation encoder: EncodeOperationRecord writes a
// completed operation's record straight from its request and reply. It
// must produce exactly the bytes TcLogRecord::EncodeTo writes for the
// record the TC used to assemble field by field, so the log format is
// unchanged, and both decoders must read those bytes back.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tc/tc_log.h"

namespace untx {
namespace {

/// The record as the TC assembled it before the direct encoder: images
/// only for a write, `applied` = a write answered OK.
TcLogRecord ReferenceRecord(TcLogRecordType type, TxnId txn,
                            const OperationRequest& req,
                            const OperationReply& reply, Lsn undo_target) {
  TcLogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.op = req.op;
  rec.table_id = req.table_id;
  rec.key = req.key;
  rec.versioned = req.versioned;
  const bool is_write = IsWriteOp(req.op);
  rec.applied = reply.status.ok() && is_write;
  if (is_write) {
    rec.value = req.value;
    rec.has_before = reply.has_before;
    rec.before = reply.value;
  }
  rec.undo_target = undo_target;
  return rec;
}

void ExpectSameRecord(const TcLogRecord& a, const TcLogRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.table_id, b.table_id);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.has_before, b.has_before);
  EXPECT_EQ(a.versioned, b.versioned);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.undo_target, b.undo_target);
  EXPECT_EQ(a.rssp, b.rssp);
}

TEST(TcLogTest, OperationEncoderMatchesEncodeToAndRoundTrips) {
  const std::vector<OpType> ops = {
      OpType::kRead,           OpType::kInsert,    OpType::kUpdate,
      OpType::kDelete,         OpType::kUpsert,    OpType::kProbeNext,
      OpType::kScanRange,      OpType::kPromoteVersion,
      OpType::kRollbackVersion, OpType::kCreateTable};
  const std::vector<Status> statuses = {Status::OK(),
                                        Status::NotFound("absent"),
                                        Status::AlreadyExists("present")};
  // A large txn id and table id exercise multi-byte varints; a 300-byte
  // before-image a multi-byte length prefix.
  const std::vector<std::string> befores = {"", "b", std::string(300, 'x')};
  int cases = 0;
  for (const TcLogRecordType type :
       {TcLogRecordType::kOperation, TcLogRecordType::kClr}) {
    for (const OpType op : ops) {
      for (const Status& status : statuses) {
        for (const std::string& before : befores) {
          for (int flags = 0; flags < 4; ++flags) {
            OperationRequest req;
            req.op = op;
            req.table_id = 70000 + static_cast<TableId>(op);
            req.key = "key-" + std::to_string(cases);
            req.value = flags & 1 ? std::string(200, 'v') : "";
            req.versioned = (flags & 2) != 0;
            req.lsn = 42;
            OperationReply reply;
            reply.status = status;
            reply.value = before;
            reply.has_before = !before.empty() || (flags & 1) != 0;
            const TxnId txn = 1000000007ull + cases;
            const Lsn undo_target =
                type == TcLogRecordType::kClr ? 99 + cases : kInvalidLsn;
            ++cases;

            const TcLogRecord expected =
                ReferenceRecord(type, txn, req, reply, undo_target);
            std::string want;
            expected.EncodeTo(&want);
            std::string got = "prefix";  // appends, like EncodeTo
            EncodeOperationRecord(type, txn, req, reply, undo_target, &got);
            ASSERT_EQ(got, "prefix" + want)
                << "op " << static_cast<int>(op) << " case " << cases;

            Slice in(want);
            TcLogRecord decoded;
            ASSERT_TRUE(TcLogRecord::DecodeFrom(&in, &decoded));
            EXPECT_TRUE(in.empty());
            ExpectSameRecord(decoded, expected);

            Slice view_in(want);
            TcLogRecordView view;
            ASSERT_TRUE(TcLogRecordView::DecodeFrom(&view_in, &view));
            EXPECT_TRUE(view_in.empty());
            EXPECT_EQ(view.type, expected.type);
            EXPECT_EQ(view.txn, expected.txn);
            EXPECT_EQ(view.op, expected.op);
            EXPECT_EQ(view.table_id, expected.table_id);
            EXPECT_EQ(view.key.ToString(), expected.key);
            EXPECT_EQ(view.value.ToString(), expected.value);
            EXPECT_EQ(view.before.ToString(), expected.before);
            EXPECT_EQ(view.has_before, expected.has_before);
            EXPECT_EQ(view.versioned, expected.versioned);
            EXPECT_EQ(view.applied, expected.applied);
            EXPECT_EQ(view.undo_target, expected.undo_target);
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 10 * 3 * 3 * 4);
}

TEST(TcLogTest, ReadRecordCarriesNoImages) {
  OperationRequest req;
  req.op = OpType::kRead;
  req.table_id = 1;
  req.key = "k";
  req.value = "ignored";
  OperationReply reply;
  reply.value = std::string(100, 'r');  // the read result
  reply.has_before = true;
  std::string payload;
  EncodeOperationRecord(TcLogRecordType::kOperation, 7, req, reply,
                        kInvalidLsn, &payload);
  Slice in(payload);
  TcLogRecord rec;
  ASSERT_TRUE(TcLogRecord::DecodeFrom(&in, &rec));
  EXPECT_EQ(rec.op, OpType::kRead);
  EXPECT_TRUE(rec.value.empty());
  EXPECT_TRUE(rec.before.empty());
  EXPECT_FALSE(rec.has_before);
  EXPECT_FALSE(rec.applied);
  EXPECT_LT(payload.size(), 20u);
}

TEST(TcLogTest, NonOperationRecordsRoundTrip) {
  for (const TcLogRecordType type :
       {TcLogRecordType::kBegin, TcLogRecordType::kCommit,
        TcLogRecordType::kAbort, TcLogRecordType::kCheckpoint,
        TcLogRecordType::kTxnEnd}) {
    TcLogRecord rec;
    rec.type = type;
    rec.txn = 123456789;
    rec.rssp = type == TcLogRecordType::kCheckpoint ? 1u << 20 : 0;
    std::string payload;
    rec.EncodeTo(&payload);
    Slice in(payload);
    TcLogRecord decoded;
    ASSERT_TRUE(TcLogRecord::DecodeFrom(&in, &decoded));
    ExpectSameRecord(decoded, rec);
    Slice view_in(payload);
    TcLogRecordView view;
    ASSERT_TRUE(TcLogRecordView::DecodeFrom(&view_in, &view));
    EXPECT_EQ(view.rssp, rec.rssp);
    EXPECT_TRUE(view.key.empty());
  }
}

TEST(TcLogTest, TruncatedPayloadFailsToDecode) {
  OperationRequest req;
  req.op = OpType::kUpdate;
  req.table_id = 3;
  req.key = "key";
  req.value = "value";
  OperationReply reply;
  reply.value = "before";
  reply.has_before = true;
  std::string payload;
  EncodeOperationRecord(TcLogRecordType::kOperation, 9, req, reply,
                        kInvalidLsn, &payload);
  for (size_t n = 0; n < payload.size(); ++n) {
    Slice in(payload.data(), n);
    TcLogRecordView view;
    EXPECT_FALSE(TcLogRecordView::DecodeFrom(&in, &view)) << n;
  }
}

}  // namespace
}  // namespace untx
