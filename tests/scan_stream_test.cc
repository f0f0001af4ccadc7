// Streamed scan windows + batched version promotion (PR 3 tentpole):
// the kScanStream wire format, chunked delivery over the channel
// transport (one request message per stream instead of one blocking
// round trip per window), fetch-ahead probe prefetching, the
// ceil(K / promote_batch_ops) promote-message collapse at versioned
// commit, adaptive coalescing, and per-DC channel option overrides.
//
// PR 4 adds the scan flow-control and cursor machinery: credit
// exhaustion -> pause -> replenish, zero-window rejection, bounded
// reply-channel memory (max_queued_scan_bytes), DC-side cursor hints
// invalidated by SMOs, cursor-table eviction (completion, close, TC
// reset, idle TTL), and the fetch-ahead fold — zero blocking ScanRange
// messages per transactional scan.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dc/dc_api.h"
#include "kernel/unbundled_db.h"

namespace untx {
namespace {

constexpr TableId kTable = 1;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

TEST(ScanStreamWireTest, RequestRoundTrip) {
  ScanStreamRequest req;
  req.base.tc_id = 3;
  req.base.lsn = 77;  // stream id
  req.base.op = OpType::kScanRange;
  req.base.table_id = kTable;
  req.base.key = "from";
  req.base.end_key = "to";
  req.base.limit = 500;
  req.base.read_flavor = ReadFlavor::kReadCommitted;
  req.base.exclusive_start = true;
  req.chunk_rows = 32;
  req.credit_chunks = 4;
  req.probe_rows = true;

  std::string buf;
  req.EncodeTo(&buf);
  Slice in(buf);
  ScanStreamRequest out;
  ASSERT_TRUE(ScanStreamRequest::DecodeFrom(&in, &out));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(out.base.tc_id, 3);
  EXPECT_EQ(out.base.lsn, 77u);
  EXPECT_EQ(out.base.key, "from");
  EXPECT_EQ(out.base.end_key, "to");
  EXPECT_EQ(out.base.limit, 500u);
  EXPECT_EQ(out.base.read_flavor, ReadFlavor::kReadCommitted);
  EXPECT_TRUE(out.base.exclusive_start);
  EXPECT_EQ(out.chunk_rows, 32u);
  EXPECT_EQ(out.credit_chunks, 4u);
  EXPECT_TRUE(out.probe_rows);
}

TEST(ScanStreamWireTest, CreditRoundTripAndTruncation) {
  ScanCreditRequest req;
  req.tc_id = 5;
  req.stream_id = 1234;
  req.allowed_chunks = 17;
  req.close = false;
  req.rewind = true;
  req.expect_chunk = 9;
  req.rewind_key = "window-start";
  req.rewind_exclusive = true;
  req.rewind_upto = "fencepost";

  std::string buf;
  req.EncodeTo(&buf);
  {
    Slice in(buf);
    ScanCreditRequest out;
    ASSERT_TRUE(ScanCreditRequest::DecodeFrom(&in, &out));
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(out.tc_id, 5);
    EXPECT_EQ(out.stream_id, 1234u);
    EXPECT_EQ(out.allowed_chunks, 17u);
    EXPECT_FALSE(out.close);
    EXPECT_TRUE(out.rewind);
    EXPECT_EQ(out.expect_chunk, 9u);
    EXPECT_EQ(out.rewind_key, "window-start");
    EXPECT_TRUE(out.rewind_exclusive);
    EXPECT_EQ(out.rewind_upto, "fencepost");
  }
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    ScanCreditRequest out;
    EXPECT_FALSE(ScanCreditRequest::DecodeFrom(&in, &out)) << "cut=" << cut;
  }
}

TEST(ScanStreamWireTest, ChunkRoundTripAndTruncation) {
  ScanStreamChunk chunk;
  chunk.tc_id = 2;
  chunk.stream_id = 99;
  chunk.chunk_index = 4;
  chunk.done = true;
  chunk.resume_key = "prev-last";
  chunk.resume_exclusive = true;
  chunk.status = Status::OK();
  chunk.keys = {"a", "bb"};
  chunk.values = {"1", "22"};
  chunk.next_key = "fence";
  chunk.invisible = {1};

  std::string buf;
  chunk.EncodeTo(&buf);
  {
    Slice in(buf);
    ScanStreamChunk out;
    ASSERT_TRUE(ScanStreamChunk::DecodeFrom(&in, &out));
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(out.tc_id, 2);
    EXPECT_EQ(out.stream_id, 99u);
    EXPECT_EQ(out.chunk_index, 4u);
    EXPECT_TRUE(out.done);
    EXPECT_EQ(out.resume_key, "prev-last");
    EXPECT_TRUE(out.resume_exclusive);
    EXPECT_TRUE(out.status.ok());
    EXPECT_EQ(out.keys, (std::vector<std::string>{"a", "bb"}));
    EXPECT_EQ(out.values, (std::vector<std::string>{"1", "22"}));
    EXPECT_EQ(out.next_key, "fence");
    EXPECT_EQ(out.invisible, (std::vector<uint32_t>{1}));
  }
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    ScanStreamChunk out;
    EXPECT_FALSE(ScanStreamChunk::DecodeFrom(&in, &out)) << "cut=" << cut;
  }
}

TEST(ScanStreamWireTest, ExclusiveStartHonoredByDoScan) {
  UnbundledDbOptions options;
  options.tc.insert_phantom_protection = false;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  for (int i = 0; i < 4; ++i) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.Insert(kTable, Key(i), "v").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  OperationRequest req;
  req.tc_id = 1;
  req.lsn = 1000;
  req.op = OpType::kScanRange;
  req.table_id = kTable;
  req.key = Key(1);
  req.limit = 10;
  OperationReply inclusive = db->dc(0)->Perform(req);
  ASSERT_TRUE(inclusive.status.ok());
  ASSERT_EQ(inclusive.keys.size(), 3u);
  EXPECT_EQ(inclusive.keys[0], Key(1));
  req.lsn = 1001;
  req.exclusive_start = true;
  OperationReply exclusive = db->dc(0)->Perform(req);
  ASSERT_TRUE(exclusive.status.ok());
  ASSERT_EQ(exclusive.keys.size(), 2u);
  EXPECT_EQ(exclusive.keys[0], Key(2));
}

std::unique_ptr<UnbundledDb> OpenChannelDb(uint32_t chunk_rows = 8) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 50;
  options.tc.insert_phantom_protection = false;
  options.tc.scan_stream_chunk = chunk_rows;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  EXPECT_TRUE(db->CreateTable(kTable).ok());
  return db;
}

void LoadRows(UnbundledDb* db, int n) {
  for (int base = 0; base < n; base += 32) {
    Txn txn(db->tc());
    for (int i = base; i < std::min(n, base + 32); ++i) {
      txn.InsertAsync(kTable, Key(i), "v" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
}

// The headline collapse: a scan spanning W windows costs ONE scan
// request message (plus chunked replies), not W blocking round trips.
TEST(ScanStreamTest, SharedScanCostsOneRequestForManyWindows) {
  auto db = OpenChannelDb(/*chunk_rows=*/8);
  constexpr int kRows = 100;  // 13 chunks of 8
  LoadRows(db.get(), kRows);

  const uint64_t scan_msgs_before = db->channel(0)->scan_messages();
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->tc()
                  ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty, &rows)
                  .ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(rows[i].first, Key(i));
    EXPECT_EQ(rows[i].second, "v" + std::to_string(i));
  }
  // One stream request on a loss-free channel; >= 13 chunk replies.
  EXPECT_EQ(db->channel(0)->scan_messages() - scan_msgs_before, 1u);
  EXPECT_GE(db->channel(0)->scan_chunks(), 13u);
  EXPECT_GE(db->channel(0)->scan_rows_carried(),
            static_cast<uint64_t>(kRows));
  EXPECT_EQ(db->tc()->stats().scan_streams.load(), 1u);
  EXPECT_EQ(db->tc()->stats().scan_restarts.load(), 0u);
  EXPECT_EQ(db->tc()->stats().scan_rows.load(),
            static_cast<uint64_t>(kRows));
}

// Expects `rows` to be exactly the loaded rows [first, first + count).
void ExpectLoadedRows(
    const std::vector<std::pair<std::string, std::string>>& rows, int first,
    int count) {
  ASSERT_EQ(rows.size(), static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(rows[i].first, Key(first + i));
    EXPECT_EQ(rows[i].second, "v" + std::to_string(first + i));
  }
}

TEST(ScanStreamTest, StreamedScansMatchLoadedRows) {
  auto db = OpenChannelDb();
  LoadRows(db.get(), 50);

  std::vector<std::pair<std::string, std::string>> shared_rows;
  ASSERT_TRUE(db->tc()
                  ->ScanShared(kTable, Key(5), Key(45), 0, ReadFlavor::kDirty,
                               &shared_rows)
                  .ok());
  ExpectLoadedRows(shared_rows, 5, 40);

  // Limited scan stops exactly at the limit.
  std::vector<std::pair<std::string, std::string>> limited;
  ASSERT_TRUE(db->tc()
                  ->ScanShared(kTable, "", "", 17, ReadFlavor::kDirty,
                               &limited)
                  .ok());
  ExpectLoadedRows(limited, 0, 17);

  // Serializable fetch-ahead scan (prefetching probe stream).
  Txn txn(db->tc());
  std::vector<std::pair<std::string, std::string>> txn_rows;
  ASSERT_TRUE(txn.Scan(kTable, Key(10), Key(30), 0, &txn_rows).ok());
  ExpectLoadedRows(txn_rows, 10, 20);
  ASSERT_TRUE(txn.Commit().ok());
}

// Partition-protocol transactional scans ride the stream too.
TEST(ScanStreamTest, PartitionProtocolScanStreams) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  options.tc.range_protocol = RangeLockProtocol::kPartition;
  options.tc.scan_stream_chunk = 8;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  LoadRows(db.get(), 60);

  const uint64_t scan_msgs_before = db->channel(0)->scan_messages();
  Txn txn(db->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(txn.Scan(kTable, "", "", 0, &rows).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_EQ(rows.size(), 60u);
  EXPECT_EQ(db->channel(0)->scan_messages() - scan_msgs_before, 1u);
}

// The prefetched next-window probe overlaps the current window's lock +
// validated read: with any real channel delay it has always completed
// by the time it is awaited.
TEST(ScanStreamTest, FetchAheadPrefetchOverlapsValidation) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.channel.request_channel.min_delay_us = 200;
  options.channel.request_channel.max_delay_us = 400;
  options.channel.reply_channel.min_delay_us = 200;
  options.channel.reply_channel.max_delay_us = 400;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  options.tc.fetch_ahead_batch = 8;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  LoadRows(db.get(), 80);  // 10 windows of 8

  Txn txn(db->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(txn.Scan(kTable, "", "", 0, &rows).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_EQ(rows.size(), 80u);
  // 10 windows => 9 prefetched probes; the probe's round trip fully
  // overlaps >= one validated-read round trip, so hits are certain.
  EXPECT_GT(db->tc()->stats().scan_prefetch_hits.load(), 0u);
}

// §6.2.2 batched: K written keys promote in ceil(K / promote_batch_ops)
// wire messages, not K — asserted via the transport's promote counters.
TEST(ScanStreamTest, VersionedCommitBatchesPromotes) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 5;
  options.tc.resend_interval_ms = 1000;  // keep resends out of the count
  options.tc.insert_phantom_protection = false;
  options.tc.versioning = true;
  options.tc.promote_batch_ops = 4;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());

  constexpr int kKeys = 10;  // ceil(10 / 4) = 3 promote messages
  {
    Txn txn(db->tc());
    for (int i = 0; i < kKeys; ++i) {
      txn.UpsertAsync(kTable, Key(i), "committed" + std::to_string(i));
    }
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(db->tc()->stats().promote_ops.load(),
            static_cast<uint64_t>(kKeys));
  EXPECT_EQ(db->tc()->stats().promote_batches.load(), 3u);
  EXPECT_EQ(db->channel(0)->promote_messages(), 3u);
  EXPECT_EQ(db->channel(0)->promote_ops_carried(),
            static_cast<uint64_t>(kKeys));

  // The promotes really landed: read-committed sees the new values.
  for (int i = 0; i < kKeys; ++i) {
    std::string value;
    ASSERT_TRUE(db->tc()
                    ->ReadShared(kTable, Key(i),
                                 ReadFlavor::kReadCommitted, &value)
                    .ok());
    EXPECT_EQ(value, "committed" + std::to_string(i));
  }
}

// Adaptive coalescing: a queued op whose submitter goes quiescent is
// flushed by the idle rule within the latency target.
TEST(ScanStreamTest, AdaptiveCoalescingFlushesOnQuiescence) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 100;
  options.tc.insert_phantom_protection = false;
  options.channel.coalesce.idle_us = 25;
  options.channel.coalesce.max_delay_us = 250;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());

  Txn txn(db->tc());
  const uint64_t msgs_before = db->channel(0)->op_messages();
  txn.InsertAsync(kTable, Key(0), "v");  // queued, never explicitly flushed
  // The flusher must push it out on its own within a few milliseconds.
  for (int spin = 0; spin < 500; ++spin) {
    if (db->channel(0)->op_messages() > msgs_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(db->channel(0)->op_messages(), msgs_before);
  EXPECT_GT(db->channel(0)->coalesce_idle_flushes() +
                db->channel(0)->coalesce_deadline_flushes(),
            0u);
  ASSERT_TRUE(txn.Flush().ok());
  ASSERT_TRUE(txn.Commit().ok());
}

// ---- PR 4: credit flow control + DC-side cursors ----------------------------

// Credit exhaustion -> pause -> replenish: with a tiny window the DC
// parks the cursor repeatedly and every chunk beyond the initial credit
// is released by a kScanCredit, yet the scan delivers every row.
TEST(ScanFlowControlTest, CreditExhaustionPausesAndReplenishes) {
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  options.tc.scan_stream_chunk = 8;
  options.tc.scan_credit_chunks = 2;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  constexpr int kRows = 200;  // 25 chunks against a 2-chunk window
  LoadRows(db.get(), kRows);

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->tc()
                  ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty, &rows)
                  .ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(rows[i].first, Key(i));

  EXPECT_GT(db->tc()->stats().scan_credits_sent.load(), 0u);
  EXPECT_GT(db->channel(0)->scan_credit_messages(), 0u);
  EXPECT_GT(db->dc(0)->stats().scan_stream_pauses.load(), 0u);
  // The stream completed: its cursor was evicted with it.
  EXPECT_EQ(db->dc(0)->ScanCursorCount(), 0u);
}

// The headline memory bound (acceptance criterion): a 10k-row scan with
// a 2-chunk credit window keeps the reply channel's scan residency at
// credit x chunk size and still delivers every loaded row.
TEST(ScanFlowControlTest, BoundedQueuedBytesForLargeScan) {
  constexpr int kRows = 10000;
  constexpr uint32_t kChunkRows = 64;
  constexpr uint32_t kCredit = 2;
  UnbundledDbOptions options;
  options.transport = TransportKind::kChannel;
  // A little reply latency makes chunks resident in the channel, so the
  // high-water mark reflects how far the DC ran ahead.
  options.channel.reply_channel.min_delay_us = 300;
  options.channel.reply_channel.max_delay_us = 400;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  options.tc.scan_stream_chunk = kChunkRows;
  options.tc.scan_credit_chunks = kCredit;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  LoadRows(db.get(), kRows);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->tc()
                  ->ScanShared(kTable, "", "", 0, ReadFlavor::kDirty, &rows)
                  .ok());
  ExpectLoadedRows(rows, 0, kRows);

  // credit window x (a generous per-chunk wire-size bound).
  const uint64_t bound = kCredit * (kChunkRows * 32 + 128);
  EXPECT_LE(db->channel(0)->max_queued_scan_bytes(), bound)
      << "credited stream overran its reply-channel budget";
}

// A zero credit window is malformed wire input: the DC answers one done
// chunk carrying InvalidArgument and parks no cursor. A DcService that
// does not override PerformScanStream cannot hold a cursor at all and
// answers NotSupported the same way.
TEST(ScanFlowControlTest, ZeroCreditAndDefaultServiceRejectStreams) {
  auto db = std::move(UnbundledDb::Open(UnbundledDbOptions())).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  DataComponent* dc = db->dc(0);
  std::vector<ScanStreamChunk> chunks;
  auto emit = [&](const ScanStreamChunk& chunk) { chunks.push_back(chunk); };

  ScanStreamRequest req;
  req.base.op = OpType::kScanRange;
  req.base.tc_id = 9;
  req.base.lsn = 555;  // stream id
  req.base.table_id = kTable;
  req.base.read_flavor = ReadFlavor::kDirty;
  req.chunk_rows = 8;
  req.credit_chunks = 0;
  dc->PerformScanStream(req, emit);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].done);
  EXPECT_EQ(chunks[0].stream_id, 555u);
  EXPECT_TRUE(chunks[0].status.IsInvalidArgument());
  EXPECT_TRUE(chunks[0].keys.empty());
  EXPECT_EQ(dc->ScanCursorCount(), 0u);

  class EchoService : public DcService {
   public:
    OperationReply Perform(const OperationRequest&) override { return {}; }
    ControlReply Control(const ControlRequest&) override { return {}; }
  } service;
  chunks.clear();
  req.credit_chunks = 4;
  service.PerformScanStream(req, emit);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].done);
  EXPECT_EQ(chunks[0].stream_id, 555u);
  EXPECT_TRUE(chunks[0].status.IsNotSupported());
}

// Acceptance criterion: a transactional fetch-ahead scan is served
// entirely from the stream — zero operation-carrying request messages
// (no blocking ScanRange, no separate probes), just the one stream
// request plus credits.
TEST(ScanFlowControlTest, TxnScanSendsZeroBlockingScanRanges) {
  auto db = OpenChannelDb(/*chunk_rows=*/8);
  constexpr int kRows = 120;
  LoadRows(db.get(), kRows);

  const uint64_t op_msgs_before = db->channel(0)->op_messages();
  const uint64_t scan_msgs_before = db->channel(0)->scan_messages();
  Txn txn(db->tc());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(txn.Scan(kTable, "", "", 0, &rows).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(rows[i].first, Key(i));

  EXPECT_EQ(db->channel(0)->op_messages() - op_msgs_before, 0u)
      << "the fetch-ahead fold must not send blocking ScanRange/probe ops";
  EXPECT_EQ(db->channel(0)->scan_messages() - scan_msgs_before, 1u);
  EXPECT_GT(db->channel(0)->scan_credit_messages(), 0u);
  EXPECT_GT(db->tc()->stats().scan_validated_windows.load(), 0u);
  EXPECT_EQ(db->tc()->stats().scan_restarts.load(), 0u);
}

std::unique_ptr<UnbundledDb> OpenSmallPageDb() {
  UnbundledDbOptions options;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  options.tc.control_interval_ms = 5;
  options.tc.insert_phantom_protection = false;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  EXPECT_TRUE(db->CreateTable(kTable).ok());
  return db;
}

// DC-side cursor mechanics, driven directly against the DataComponent:
// chunk 2 resumes from the leaf hint (no descent); after the hinted
// leaf is emptied/retired by deletes + consolidation the hint is
// rejected and the cursor safely re-descends — rows stay exactly-once.
TEST(ScanCursorTest, LeafHintSurvivesAndSmoInvalidatesIt) {
  auto db = OpenSmallPageDb();
  constexpr int kRows = 300;  // ~1KB pages -> many leaves
  for (int i = 0; i < kRows; ++i) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.Insert(kTable, Key(i), "v" + std::to_string(i)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  DataComponent* dc = db->dc(0);

  std::vector<ScanStreamChunk> chunks;
  auto emit = [&](const ScanStreamChunk& chunk) { chunks.push_back(chunk); };

  ScanStreamRequest req;
  req.base.op = OpType::kScanRange;
  req.base.tc_id = 9;
  req.base.lsn = 777;  // stream id
  req.base.table_id = kTable;
  req.base.read_flavor = ReadFlavor::kDirty;
  req.chunk_rows = 25;
  req.credit_chunks = 1;
  dc->PerformScanStream(req, emit);
  ASSERT_EQ(chunks.size(), 1u);
  ASSERT_EQ(chunks[0].keys.size(), 25u);
  ASSERT_EQ(dc->ScanCursorCount(), 1u);
  const uint64_t descends_cold = dc->stats().scan_cursor_descends.load();

  // Chunk 2 rides the leaf hint: no new descent.
  ScanCreditRequest credit;
  credit.tc_id = 9;
  credit.stream_id = 777;
  credit.allowed_chunks = 2;
  dc->ScanCredit(credit, emit);
  ASSERT_EQ(chunks.size(), 2u);
  ASSERT_EQ(chunks[1].keys.size(), 25u);
  EXPECT_EQ(chunks[1].keys[0], Key(25));
  EXPECT_GT(dc->stats().scan_cursor_hint_hits.load(), 0u);
  EXPECT_EQ(dc->stats().scan_cursor_descends.load(), descends_cold);

  // SMO under the cursor: delete the whole region the hint points into
  // (rows 0..99 — far past the cursor's resume at row 49) and let the
  // emptied leaves consolidate/retire.
  for (int i = 0; i < 100; ++i) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.Delete(kTable, Key(i)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  db->dc(0)->btree()->TryConsolidate(kTable, Key(49));

  credit.allowed_chunks = 100;  // run to the end
  dc->ScanCredit(credit, emit);
  EXPECT_GT(dc->stats().scan_cursor_descends.load(), descends_cold)
      << "an invalidated hint must force a re-descent";

  // Exactly-once over the surviving rows: the deletes removed 0..99, so
  // the resume at (row 49, exclusive) continues with 100..299.
  std::vector<std::string> tail_keys;
  for (size_t c = 2; c < chunks.size(); ++c) {
    ASSERT_TRUE(chunks[c].status.ok());
    for (const auto& k : chunks[c].keys) tail_keys.push_back(k);
  }
  ASSERT_EQ(tail_keys.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(tail_keys[i], Key(100 + i));
  EXPECT_TRUE(chunks.back().done);
  // Completed stream: cursor gone.
  EXPECT_EQ(dc->ScanCursorCount(), 0u);
}

// Cursor-table eviction: an abandoned stream's cursor dies by idle TTL;
// a closed stream's cursor dies immediately; a TC reset sweeps that
// TC's cursors.
TEST(ScanCursorTest, CursorEvictionPaths) {
  UnbundledDbOptions options;
  options.tc.insert_phantom_protection = false;
  options.dc.scan_cursor_ttl_ms = 50;
  auto db = std::move(UnbundledDb::Open(options)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable(kTable).ok());
  for (int i = 0; i < 64; ++i) {
    Txn txn(db->tc());
    ASSERT_TRUE(txn.Insert(kTable, Key(i), "v").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  DataComponent* dc = db->dc(0);
  auto drop = [](const ScanStreamChunk&) {};

  auto open_stream = [&](TcId tc, uint64_t id) {
    ScanStreamRequest req;
    req.base.op = OpType::kScanRange;
    req.base.tc_id = tc;
    req.base.lsn = id;
    req.base.table_id = kTable;
    req.base.read_flavor = ReadFlavor::kDirty;
    req.chunk_rows = 8;
    req.credit_chunks = 1;  // parks after one of eight chunks
    dc->PerformScanStream(req, drop);
  };

  // Abandonment: parked cursor outlives nothing — the TTL reaps it.
  open_stream(/*tc=*/3, /*id=*/1);
  ASSERT_EQ(dc->ScanCursorCount(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_GE(dc->EvictIdleScanCursors(), 1u);
  EXPECT_EQ(dc->ScanCursorCount(), 0u);
  EXPECT_GT(dc->stats().scan_cursors_evicted.load(), 0u);

  // Explicit close: evicted immediately.
  open_stream(/*tc=*/3, /*id=*/2);
  ASSERT_EQ(dc->ScanCursorCount(), 1u);
  ScanCreditRequest close;
  close.tc_id = 3;
  close.stream_id = 2;
  close.close = true;
  dc->ScanCredit(close, drop);
  EXPECT_EQ(dc->ScanCursorCount(), 0u);

  // TC reset (the crashed TC's streams died with it): its cursors are
  // swept by kRestartBegin; another TC's cursor survives.
  open_stream(/*tc=*/3, /*id=*/3);
  open_stream(/*tc=*/4, /*id=*/4);
  ASSERT_EQ(dc->ScanCursorCount(), 2u);
  ControlRequest reset;
  reset.type = ControlType::kRestartBegin;
  reset.tc_id = 3;
  reset.lsn = 1000000;  // nothing beyond the stable log: no page resets
  reset.seq = 1;
  ASSERT_TRUE(dc->Control(reset).status.ok());
  EXPECT_EQ(dc->ScanCursorCount(), 1u);
}

// Per-DC channel overrides through ClusterOptions: each binding gets the
// options of its DC.
TEST(ScanStreamTest, PerDcChannelOverrides) {
  ClusterOptions options;
  options.num_dcs = 2;
  options.transport = TransportKind::kChannel;
  options.channel.coalesce.max_batch_ops = 64;
  options.channel.coalesce.max_delay_us = 250;
  ChannelTransportOptions far_dc = options.channel;
  far_dc.coalesce.max_batch_ops = 7;
  far_dc.coalesce.max_delay_us = 500;
  options.channel_overrides[1] = far_dc;
  auto cluster = std::move(Cluster::Open(options)).ValueOrDie();
  ASSERT_NE(cluster->channel(0, 0), nullptr);
  ASSERT_NE(cluster->channel(0, 1), nullptr);
  EXPECT_EQ(cluster->channel(0, 0)->options().coalesce.max_batch_ops, 64u);
  EXPECT_EQ(cluster->channel(0, 0)->options().coalesce.max_delay_us, 250u);
  EXPECT_EQ(cluster->channel(0, 1)->options().coalesce.max_batch_ops, 7u);
  EXPECT_EQ(cluster->channel(0, 1)->options().coalesce.max_delay_us, 500u);
}

}  // namespace
}  // namespace untx
