#include "dc/dc_api.h"

#include <gtest/gtest.h>

#include "dc/record_format.h"

namespace untx {
namespace {

TEST(DcApiTest, OperationRequestRoundTrip) {
  OperationRequest req;
  req.tc_id = 3;
  req.lsn = 123456;
  req.op = OpType::kUpdate;
  req.table_id = 42;
  req.key = "user:0001";
  req.value = "payload-bytes";
  req.read_flavor = ReadFlavor::kReadCommitted;
  req.limit = 17;
  req.end_key = "user:9999";
  req.versioned = true;
  req.recovery_resend = true;
  req.if_present = true;

  std::string buf;
  req.EncodeTo(&buf);
  Slice in(buf);
  OperationRequest out;
  ASSERT_TRUE(OperationRequest::DecodeFrom(&in, &out));
  EXPECT_EQ(out.tc_id, req.tc_id);
  EXPECT_EQ(out.lsn, req.lsn);
  EXPECT_EQ(out.op, req.op);
  EXPECT_EQ(out.table_id, req.table_id);
  EXPECT_EQ(out.key, req.key);
  EXPECT_EQ(out.value, req.value);
  EXPECT_EQ(out.read_flavor, req.read_flavor);
  EXPECT_EQ(out.limit, req.limit);
  EXPECT_EQ(out.end_key, req.end_key);
  EXPECT_EQ(out.versioned, req.versioned);
  EXPECT_EQ(out.recovery_resend, req.recovery_resend);
  EXPECT_FALSE(out.exclusive_start);
  EXPECT_TRUE(out.if_present);
  EXPECT_TRUE(in.empty());
}

TEST(DcApiTest, OperationReplyRoundTrip) {
  OperationReply reply;
  reply.tc_id = 2;
  reply.lsn = 99;
  reply.status = Status::NotFound("gone");
  reply.value = "before-image";
  reply.has_before = true;
  reply.was_duplicate = true;
  reply.absent = true;
  reply.keys = {"a", "b", "c"};
  reply.values = {"1", "2"};

  std::string buf;
  reply.EncodeTo(&buf);
  Slice in(buf);
  OperationReply out;
  ASSERT_TRUE(OperationReply::DecodeFrom(&in, &out));
  EXPECT_EQ(out.tc_id, reply.tc_id);
  EXPECT_EQ(out.lsn, reply.lsn);
  EXPECT_TRUE(out.status.IsNotFound());
  EXPECT_EQ(out.status.message(), "gone");
  EXPECT_EQ(out.value, reply.value);
  EXPECT_TRUE(out.has_before);
  EXPECT_TRUE(out.was_duplicate);
  EXPECT_TRUE(out.absent);
  EXPECT_EQ(out.keys, reply.keys);
  EXPECT_EQ(out.values, reply.values);
}

// Every flag bit survives the codec alone and in any combination with
// the others, so no two flags share a bit.
TEST(DcApiTest, FlagBitsRoundTripIndependently) {
  for (int mask = 0; mask < 16; ++mask) {
    OperationRequest req;
    req.op = OpType::kUpsert;
    req.key = "k";
    req.versioned = (mask & 1) != 0;
    req.recovery_resend = (mask & 2) != 0;
    req.exclusive_start = (mask & 4) != 0;
    req.if_present = (mask & 8) != 0;
    std::string buf;
    req.EncodeTo(&buf);
    Slice in(buf);
    OperationRequest out;
    ASSERT_TRUE(OperationRequest::DecodeFrom(&in, &out)) << mask;
    EXPECT_EQ(out.versioned, req.versioned) << mask;
    EXPECT_EQ(out.recovery_resend, req.recovery_resend) << mask;
    EXPECT_EQ(out.exclusive_start, req.exclusive_start) << mask;
    EXPECT_EQ(out.if_present, req.if_present) << mask;
  }
  for (int mask = 0; mask < 8; ++mask) {
    OperationReply reply;
    reply.status = Status::NotFound("upsert of absent key");
    reply.has_before = (mask & 1) != 0;
    reply.was_duplicate = (mask & 2) != 0;
    reply.absent = (mask & 4) != 0;
    reply.keys = {"next"};
    std::string buf;
    reply.EncodeTo(&buf);
    Slice in(buf);
    OperationReply out;
    ASSERT_TRUE(OperationReply::DecodeFrom(&in, &out)) << mask;
    EXPECT_EQ(out.has_before, reply.has_before) << mask;
    EXPECT_EQ(out.was_duplicate, reply.was_duplicate) << mask;
    EXPECT_EQ(out.absent, reply.absent) << mask;
    EXPECT_EQ(out.keys, reply.keys) << mask;
  }
}

TEST(DcApiTest, ControlRoundTrip) {
  ControlRequest req;
  req.type = ControlType::kCheckpoint;
  req.tc_id = 5;
  req.lsn = 777;
  req.seq = 31;
  std::string buf;
  req.EncodeTo(&buf);
  Slice in(buf);
  ControlRequest out;
  ASSERT_TRUE(ControlRequest::DecodeFrom(&in, &out));
  EXPECT_EQ(out.type, ControlType::kCheckpoint);
  EXPECT_EQ(out.tc_id, 5);
  EXPECT_EQ(out.lsn, 777u);
  EXPECT_EQ(out.seq, 31u);

  ControlReply reply;
  reply.type = ControlType::kRestartBegin;
  reply.tc_id = 5;
  reply.seq = 31;
  reply.status = Status::OK();
  reply.escalate_tcs = {2, 9};
  buf.clear();
  reply.EncodeTo(&buf);
  Slice in2(buf);
  ControlReply rout;
  ASSERT_TRUE(ControlReply::DecodeFrom(&in2, &rout));
  EXPECT_EQ(rout.type, ControlType::kRestartBegin);
  EXPECT_TRUE(rout.status.ok());
  ASSERT_EQ(rout.escalate_tcs.size(), 2u);
  EXPECT_EQ(rout.escalate_tcs[0], 2);
  EXPECT_EQ(rout.escalate_tcs[1], 9);
}

TEST(DcApiTest, EnvelopeRoundTrip) {
  std::string wire = WrapMessage(MessageKind::kOperationReply, "body");
  MessageKind kind;
  Slice body;
  ASSERT_TRUE(UnwrapMessage(wire, &kind, &body));
  EXPECT_EQ(kind, MessageKind::kOperationReply);
  EXPECT_EQ(body, Slice("body"));
  EXPECT_FALSE(UnwrapMessage("", &kind, &body));
}

TEST(DcApiTest, DecodeRejectsTruncation) {
  OperationRequest req;
  req.tc_id = 1;
  req.lsn = 5;
  req.op = OpType::kInsert;
  req.table_id = 1;
  req.key = "k";
  req.value = "v";
  std::string buf;
  req.EncodeTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    OperationRequest out;
    EXPECT_FALSE(OperationRequest::DecodeFrom(&in, &out)) << "cut=" << cut;
  }
}

TEST(RecordFormatTest, LeafRecordRoundTrip) {
  LeafRecord rec;
  rec.key = "movie:42:user:7";
  rec.last_writer_tc = 3;
  rec.flags = LeafRecord::kHasBefore;
  rec.value = "five stars";
  rec.before = "four stars";
  LeafRecord out;
  ASSERT_TRUE(LeafRecord::Decode(rec.Encode(), &out));
  EXPECT_EQ(out.key, rec.key);
  EXPECT_EQ(out.last_writer_tc, 3);
  EXPECT_TRUE(out.has_before());
  EXPECT_EQ(out.value, rec.value);
  EXPECT_EQ(out.before, rec.before);
}

TEST(RecordFormatTest, PlainRecordHasNoBefore) {
  LeafRecord rec;
  rec.key = "k";
  rec.value = "v";
  LeafRecord out;
  ASSERT_TRUE(LeafRecord::Decode(rec.Encode(), &out));
  EXPECT_FALSE(out.has_before());
  EXPECT_TRUE(out.before.empty());
}

TEST(RecordFormatTest, TombstoneFlags) {
  LeafRecord rec;
  rec.key = "k";
  rec.flags = LeafRecord::kHasBefore | LeafRecord::kCurrentIsTombstone;
  rec.before = "committed";
  LeafRecord out;
  ASSERT_TRUE(LeafRecord::Decode(rec.Encode(), &out));
  EXPECT_TRUE(out.is_tombstone());
  EXPECT_TRUE(out.has_before());
  EXPECT_EQ(out.before, "committed");
}

TEST(RecordFormatTest, DecodeKeyOnly) {
  LeafRecord rec;
  rec.key = "just-the-key";
  rec.value = std::string(500, 'v');
  std::string enc = rec.Encode();
  Slice key;
  ASSERT_TRUE(LeafRecord::DecodeKey(enc, &key));
  EXPECT_EQ(key, Slice("just-the-key"));
}

TEST(RecordFormatTest, InternalEntryRoundTrip) {
  InternalEntry e{"separator-key", 4711};
  InternalEntry out;
  ASSERT_TRUE(InternalEntry::Decode(e.Encode(), &out));
  EXPECT_EQ(out.separator, "separator-key");
  EXPECT_EQ(out.child, 4711u);
}

}  // namespace
}  // namespace untx
