// Frame codec robustness: roundtrips, truncation, garbage and arbitrary
// partial-read splits. A malformed frame must fail the length or
// checksum check — never crash or mis-frame the stream.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "dc/dc_api.h"

namespace untx {
namespace {

std::string Payload(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng() & 0xff));
  }
  return out;
}

TEST(FrameCodec, RoundTripsKindsAndBodies) {
  for (uint8_t kind : {0, 1, 9, 127, 255}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{4096}}) {
      const std::string body = Payload(n, kind + n);
      const std::string wire = EncodeFrame(kind, body);
      ASSERT_EQ(wire.size(), kFrameHeaderSize + 1 + n);
      uint8_t got_kind = 0;
      Slice got_body;
      size_t consumed = 0;
      ASSERT_EQ(DecodeFrame(wire.data(), wire.size(), &got_kind, &got_body,
                            &consumed),
                FrameDecode::kOk);
      EXPECT_EQ(got_kind, kind);
      EXPECT_EQ(got_body.ToString(), body);
      EXPECT_EQ(consumed, wire.size());
    }
  }
}

TEST(FrameCodec, TruncatedFrameNeedsMore) {
  const std::string wire = EncodeFrame(3, Payload(100, 1));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    uint8_t kind = 0;
    Slice body;
    size_t consumed = 1;
    EXPECT_EQ(DecodeFrame(wire.data(), cut, &kind, &body, &consumed),
              FrameDecode::kNeedMore);
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FrameCodec, EveryFlippedByteIsRejectedNotMisread) {
  const std::string body = Payload(64, 2);
  const std::string wire = EncodeFrame(8, body);
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x41);
    uint8_t kind = 0;
    Slice got;
    size_t consumed = 0;
    const FrameDecode d =
        DecodeFrame(bad.data(), bad.size(), &kind, &got, &consumed);
    // A corrupted length prefix may claim a longer frame (kNeedMore) or
    // an invalid one (kCorrupt); any fully-present decode must fail the
    // CRC. It must never return kOk with altered content.
    if (d == FrameDecode::kOk) {
      EXPECT_EQ(kind, 8);
      EXPECT_EQ(got.ToString(), body);  // only a no-op flip may pass
      ADD_FAILURE() << "flip at byte " << i << " decoded successfully";
    }
  }
}

TEST(FrameCodec, ZeroAndOversizedLengthsAreCorrupt) {
  std::string wire = EncodeFrame(1, "abc");
  std::string zero = wire;
  zero[0] = zero[1] = zero[2] = zero[3] = 0;  // length = 0
  uint8_t kind = 0;
  Slice body;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(zero.data(), zero.size(), &kind, &body, &consumed),
            FrameDecode::kCorrupt);
  std::string huge = wire;
  huge[0] = huge[1] = huge[2] = huge[3] = static_cast<char>(0xff);
  EXPECT_EQ(DecodeFrame(huge.data(), huge.size(), &kind, &body, &consumed),
            FrameDecode::kCorrupt);
}

TEST(FrameCodec, GarbageStreamPoisonsReaderWithoutCrashing) {
  FrameReader reader;
  const std::string garbage = Payload(512, 3);
  reader.Feed(garbage.data(), garbage.size());
  uint8_t kind = 0;
  std::string body;
  // Whatever the random length prefix claims, the reader must end up
  // either starved or poisoned — never delivering a frame.
  for (int i = 0; i < 4; ++i) {
    const FrameDecode d = reader.Next(&kind, &body);
    ASSERT_NE(d, FrameDecode::kOk);
  }
}

TEST(FrameReaderTest, ReassemblesFramesAcrossArbitrarySplits) {
  // Several frames of varied size, fed one byte at a time, then in
  // random chunks: every frame must come out exactly once, in order.
  std::vector<std::pair<uint8_t, std::string>> frames;
  std::string stream;
  for (uint8_t k = 1; k <= 9; ++k) {
    frames.emplace_back(k, Payload(k * 37 % 200, k));
    AppendFrame(k, frames.back().second, &stream);
  }
  for (int pass = 0; pass < 2; ++pass) {
    FrameReader reader;
    std::mt19937 rng(pass + 7);
    size_t fed = 0, decoded = 0;
    while (decoded < frames.size()) {
      if (fed < stream.size()) {
        const size_t n =
            pass == 0 ? 1
                      : std::min<size_t>(1 + rng() % 13, stream.size() - fed);
        reader.Feed(stream.data() + fed, n);
        fed += n;
      }
      uint8_t kind = 0;
      std::string body;
      const FrameDecode d = reader.Next(&kind, &body);
      ASSERT_NE(d, FrameDecode::kCorrupt);
      if (d == FrameDecode::kOk) {
        ASSERT_LT(decoded, frames.size());
        EXPECT_EQ(kind, frames[decoded].first);
        EXPECT_EQ(body, frames[decoded].second);
        ++decoded;
      } else {
        ASSERT_LT(fed, stream.size()) << "starved with stream exhausted";
      }
    }
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(FrameReaderTest, CorruptMidStreamStaysPoisoned) {
  std::string stream;
  AppendFrame(1, "first", &stream);
  const size_t second_at = stream.size();
  AppendFrame(2, "second", &stream);
  stream[second_at + kFrameHeaderSize + 2] ^= 0x10;  // corrupt frame 2 body
  AppendFrame(3, "third", &stream);

  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  uint8_t kind = 0;
  std::string body;
  ASSERT_EQ(reader.Next(&kind, &body), FrameDecode::kOk);
  EXPECT_EQ(kind, 1);
  EXPECT_EQ(body, "first");
  EXPECT_EQ(reader.Next(&kind, &body), FrameDecode::kCorrupt);
  // Frame boundaries are unrecoverable after corruption: still corrupt,
  // even though a valid third frame follows.
  EXPECT_EQ(reader.Next(&kind, &body), FrameDecode::kCorrupt);
  EXPECT_TRUE(reader.corrupt());
}

TEST(FrameCodec, WrapMessageIsExactlyOneFrame) {
  // The sim-channel envelope and the TCP stream must be byte-identical:
  // WrapMessage output parses as one frame of the shared codec.
  const std::string wire = WrapMessage(MessageKind::kScanCredit, "credit");
  uint8_t kind = 0;
  Slice body;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(wire.data(), wire.size(), &kind, &body, &consumed),
            FrameDecode::kOk);
  EXPECT_EQ(kind, static_cast<uint8_t>(MessageKind::kScanCredit));
  EXPECT_EQ(body.ToString(), "credit");
  EXPECT_EQ(consumed, wire.size());

  MessageKind mk;
  Slice mbody;
  ASSERT_TRUE(UnwrapMessage(wire, &mk, &mbody));
  EXPECT_EQ(mk, MessageKind::kScanCredit);
  EXPECT_FALSE(UnwrapMessage("not a frame", &mk, &mbody));
}

// A restart's control exchange through the codec, as the channel and
// socket transports carry it: the echoed redo epoch and the reply's
// epoch and intact flag survive framing and a stream split mid-frame.
TEST(FrameReaderTest, RestartControlFieldsSurviveFraming) {
  ControlRequest req;
  req.type = ControlType::kRestartEnd;
  req.tc_id = 2;
  req.seq = 41;
  req.redo_epoch = 12345;
  ControlReply reply;
  reply.type = ControlType::kRestartBegin;
  reply.tc_id = 2;
  reply.seq = 40;
  reply.status = Status::OK();
  reply.redo_epoch = 12345;
  reply.redo_intact = true;
  std::string req_body, reply_body;
  req.EncodeTo(&req_body);
  reply.EncodeTo(&reply_body);
  const std::string stream =
      WrapMessage(MessageKind::kControlRequest, req_body) +
      WrapMessage(MessageKind::kControlReply, reply_body);

  FrameReader reader;
  reader.Feed(stream.data(), 5);
  reader.Feed(stream.data() + 5, stream.size() - 5);
  uint8_t kind = 0;
  std::string body;
  ASSERT_EQ(reader.Next(&kind, &body), FrameDecode::kOk);
  ASSERT_EQ(kind, static_cast<uint8_t>(MessageKind::kControlRequest));
  Slice in(body);
  ControlRequest got_req;
  ASSERT_TRUE(ControlRequest::DecodeFrom(&in, &got_req));
  EXPECT_EQ(got_req.redo_epoch, 12345u);
  ASSERT_EQ(reader.Next(&kind, &body), FrameDecode::kOk);
  ASSERT_EQ(kind, static_cast<uint8_t>(MessageKind::kControlReply));
  Slice in2(body);
  ControlReply got_reply;
  ASSERT_TRUE(ControlReply::DecodeFrom(&in2, &got_reply));
  EXPECT_EQ(got_reply.redo_epoch, 12345u);
  EXPECT_TRUE(got_reply.redo_intact);
  EXPECT_FALSE(got_reply.replication_enabled);
}

}  // namespace
}  // namespace untx
