// In-process exercise of the real-network transport: a Cluster opened
// with TransportKind::kSocket runs every TC↔DC binding over loopback TCP
// through the shared-pool SocketServer — same daemons' machinery the
// separate-process deployment uses (process_cluster_test covers that),
// same bytes as the simulated channels (frame_codec_test proves the
// codec identity). Covers: transactions + scans over sockets, crash /
// recovery through the socket path (a restart's redo skip included),
// wire-counter parity with the channel transport, and DC-side
// scan-cursor eviction when a session drops.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dc/dc_api.h"
#include "kernel/cluster.h"
#include "net/frame.h"
#include "net/socket_server.h"

namespace untx {
namespace {

constexpr TableId kTableA = 1;  // routed to DC 1 (table % 2)
constexpr TableId kTableB = 2;  // routed to DC 0

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

ClusterOptions BaseOptions(TransportKind transport) {
  ClusterOptions options;
  options.num_dcs = 2;
  options.transport = transport;
  options.store.page_size = 1024;
  options.store.trailer_capacity = 128;
  options.dc.max_value_size = 200;
  for (int t = 0; t < 2; ++t) {
    TcSpec spec;
    spec.options.tc_id = static_cast<TcId>(t + 1);
    // Loopback is reliable: a resend would only fire if the machine
    // stalls, keeping the wire counters deterministic for the parity
    // check below.
    spec.options.resend_interval_ms = 500;
    spec.options.control_interval_ms = 20;
    spec.options.scan_stream_chunk = 8;
    spec.options.scan_credit_chunks = 2;
    spec.options.insert_phantom_protection = false;
    options.tcs.push_back(spec);
  }
  return options;
}

std::unique_ptr<Cluster> OpenCluster(TransportKind transport) {
  auto cluster = std::move(Cluster::Open(BaseOptions(transport))).ValueOrDie();
  for (int t = 0; t < 2; ++t) {
    EXPECT_TRUE(cluster->tc(t)->CreateTable(kTableA).ok());
    EXPECT_TRUE(cluster->tc(t)->CreateTable(kTableB).ok());
  }
  return cluster;
}

/// The same small deterministic workload on any cluster; returns the
/// expected final state.
std::map<std::pair<TableId, std::string>, std::string> RunWorkload(
    Cluster* cluster) {
  std::map<std::pair<TableId, std::string>, std::string> model;
  for (int step = 0; step < 40; ++step) {
    const int t = step % 2;
    TransactionComponent* tc = cluster->tc(t);
    StatusOr<TxnId> txn = tc->Begin();
    EXPECT_TRUE(txn.ok());
    const TableId table = step % 4 < 2 ? kTableA : kTableB;
    // Writer-partitioned keys: TC t owns indices ≡ t (mod 2).
    const std::string key = Key(2 * (step % 10) + t);
    const std::string value = "v" + std::to_string(step);
    EXPECT_TRUE(tc->Upsert(*txn, table, key, value).ok()) << "step " << step;
    EXPECT_TRUE(tc->Commit(*txn).ok()) << "step " << step;
    model[{table, key}] = value;
  }
  return model;
}

void ExpectState(
    Cluster* cluster,
    const std::map<std::pair<TableId, std::string>, std::string>& model) {
  for (TableId table : {kTableA, kTableB}) {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(cluster->tc(0)
                    ->ScanShared(table, "", "", 0, ReadFlavor::kDirty, &rows)
                    .ok());
    std::map<std::pair<TableId, std::string>, std::string> got;
    for (const auto& [k, v] : rows) got[{table, k}] = v;
    for (const auto& [tk, v] : model) {
      if (tk.first != table) continue;
      auto it = got.find(tk);
      ASSERT_TRUE(it != got.end()) << "lost " << tk.second;
      EXPECT_EQ(it->second, v) << tk.second;
    }
    for (const auto& [tk, v] : got) {
      EXPECT_TRUE(model.count(tk)) << "resurrected " << tk.second << "=" << v;
    }
  }
}

TEST(SocketTransportTest, CommitsReadsAndScansOverLoopbackTcp) {
  auto cluster = OpenCluster(TransportKind::kSocket);
  // Socket bindings have no SimChannel behind them.
  EXPECT_EQ(cluster->channel(0, 0), nullptr);
  ASSERT_NE(cluster->socket_server(0), nullptr);
  ASSERT_NE(cluster->socket_server(1), nullptr);
  // Both TCs share each DC's server: 2 TC sessions per DC.
  EXPECT_EQ(cluster->socket_server(0)->session_count(), 2u);
  EXPECT_EQ(cluster->socket_server(1)->session_count(), 2u);

  auto model = RunWorkload(cluster.get());
  ExpectState(cluster.get(), model);

  // The wire was actually used, and batching kept ops >= messages.
  EXPECT_GT(cluster->TotalOpMessages(), 0u);
  EXPECT_GE(cluster->TotalOpsCarried(), cluster->TotalOpMessages());
  EXPECT_GT(cluster->TotalScanMessages(), 0u);
  EXPECT_GT(cluster->TotalScanRowsCarried(), 0u);
}

TEST(SocketTransportTest, WireCountersMatchChannelTransport) {
  auto channel_cluster = OpenCluster(TransportKind::kChannel);
  auto socket_cluster = OpenCluster(TransportKind::kSocket);
  auto channel_model = RunWorkload(channel_cluster.get());
  auto socket_model = RunWorkload(socket_cluster.get());
  ExpectState(channel_cluster.get(), channel_model);
  ExpectState(socket_cluster.get(), socket_model);
  // Identical workload, reliable wires, identical coalescing knobs: the
  // operation and row payload counts must agree exactly — msgs/txn
  // comparisons across the two transports measure the wire, not
  // accounting skew. (Message counts can differ by coalescing timing;
  // the carried totals cannot.)
  EXPECT_EQ(channel_cluster->TotalOpsCarried(),
            socket_cluster->TotalOpsCarried());
  EXPECT_EQ(channel_cluster->TotalScanRowsCarried(),
            socket_cluster->TotalScanRowsCarried());
  EXPECT_EQ(channel_cluster->TotalPromoteOpsCarried(),
            socket_cluster->TotalPromoteOpsCarried());
}

TEST(SocketTransportTest, DcCrashRecoverOverSockets) {
  auto cluster = OpenCluster(TransportKind::kSocket);
  auto model = RunWorkload(cluster.get());
  ASSERT_TRUE(cluster->CrashAndRecoverDc(0).ok());
  ExpectState(cluster.get(), model);
  // And the cluster keeps working after recovery.
  TransactionComponent* tc = cluster->tc(0);
  StatusOr<TxnId> txn = tc->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(tc->Upsert(*txn, kTableB, Key(90), "post-recovery").ok());
  ASSERT_TRUE(tc->Commit(*txn).ok());
  std::string value;
  StatusOr<TxnId> txn2 = tc->Begin();
  ASSERT_TRUE(txn2.ok());
  EXPECT_TRUE(tc->Read(*txn2, kTableB, Key(90), &value).ok());
  EXPECT_EQ(value, "post-recovery");
  tc->Commit(*txn2);
}

TEST(SocketTransportTest, TcCrashRestartOverSockets) {
  auto cluster = OpenCluster(TransportKind::kSocket);
  auto model = RunWorkload(cluster.get());
  ASSERT_TRUE(cluster->CrashAndRestartTc(1).ok());
  ExpectState(cluster.get(), model);
  TransactionComponent* tc = cluster->tc(1);
  StatusOr<TxnId> txn = tc->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(tc->Upsert(*txn, kTableA, Key(91), "post-restart").ok());
  ASSERT_TRUE(tc->Commit(*txn).ok());
}

// The redo skip across real connections: the first restart after Open
// redoes both DCs and settles the TC at each (the kRestartEnd echoes the
// redo epoch over TCP); the second finds both intact and ships nothing.
TEST(SocketTransportTest, TcRestartSkipsRedoOfIntactDcsOverSockets) {
  auto cluster = OpenCluster(TransportKind::kSocket);
  auto model = RunWorkload(cluster.get());
  TransactionComponent* tc = cluster->tc(1);
  const TcStats& stats = tc->stats();
  const uint64_t resent_before = stats.recovery_resent_ops.load();
  ASSERT_TRUE(cluster->CrashAndRestartTc(1).ok());
  EXPECT_GT(stats.recovery_resent_ops.load(), resent_before);
  EXPECT_EQ(stats.restart_redo_skipped_dcs.load(), 0u);
  ExpectState(cluster.get(), model);

  const uint64_t resent = stats.recovery_resent_ops.load();
  ASSERT_TRUE(cluster->CrashAndRestartTc(1).ok());
  EXPECT_EQ(stats.recovery_resent_ops.load(), resent);
  EXPECT_EQ(stats.restart_redo_skipped_dcs.load(), 2u);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(cluster->dc(d)->stats().resets_intact.load(), 1u) << d;
  }
  ExpectState(cluster.get(), model);
}

/// Satellite invariant: a dropped session evicts the DC-side scan
/// cursors of the TC it served. Drives a raw TCP client speaking the
/// shared frame codec — the DC cannot tell it from a real TC — parks a
/// credited cursor, then slams the connection shut.
TEST(SocketTransportTest, SessionDropEvictsParkedScanCursor) {
  auto cluster = OpenCluster(TransportKind::kSocket);
  auto model = RunWorkload(cluster.get());
  (void)model;
  SocketServer* server = cluster->socket_server(0);
  ASSERT_NE(server, nullptr);
  DataComponent* dc = cluster->dc(0);
  ASSERT_EQ(dc->ScanCursorCount(), 0u);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A credited probe stream over the whole of kTableB (on DC 0) with a
  // 1-chunk window: after the first chunk the cursor parks.
  const TcId kForeignTc = 55;
  ScanStreamRequest sreq;
  sreq.base.op = OpType::kScanRange;
  sreq.base.tc_id = kForeignTc;
  sreq.base.lsn = 1;  // stream id
  sreq.base.table_id = kTableB;
  sreq.base.read_flavor = ReadFlavor::kDirty;
  sreq.chunk_rows = 2;
  sreq.credit_chunks = 1;
  std::string body;
  sreq.EncodeTo(&body);
  const std::string wire =
      EncodeFrame(static_cast<uint8_t>(MessageKind::kScanStreamRequest), body);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  // Read until the first chunk arrives (the codec is the shared one, so
  // FrameReader parses the server's bytes directly).
  FrameReader reader;
  bool got_chunk = false;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!got_chunk && std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      reader.Feed(buf, static_cast<size_t>(n));
      uint8_t kind = 0;
      std::string frame_body;
      while (reader.Next(&kind, &frame_body) == FrameDecode::kOk) {
        if (kind == static_cast<uint8_t>(MessageKind::kScanStreamChunk)) {
          got_chunk = true;
        }
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(got_chunk) << "no scan chunk within 5s";
  EXPECT_EQ(dc->ScanCursorCount(), 1u) << "cursor should be parked";

  // Hard drop — no close credit. The server must evict the cursor.
  ::close(fd);
  const auto evict_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dc->ScanCursorCount() > 0 &&
         std::chrono::steady_clock::now() < evict_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(dc->ScanCursorCount(), 0u)
      << "session drop must evict the parked cursor";
  // The REAL TC sessions are untouched: the cluster still works.
  TransactionComponent* tc = cluster->tc(0);
  StatusOr<TxnId> txn = tc->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(tc->Upsert(*txn, kTableB, Key(92), "still-alive").ok());
  ASSERT_TRUE(tc->Commit(*txn).ok());
}

/// Garbage on the wire must kill only the offending session, never the
/// server (frame corruption robustness end to end).
TEST(SocketTransportTest, GarbageBytesKillSessionNotServer) {
  auto cluster = OpenCluster(TransportKind::kSocket);
  SocketServer* server = cluster->socket_server(0);
  ASSERT_NE(server, nullptr);
  const size_t before = server->session_count();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string garbage(256, '\xff');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((server->corrupt_frames() == 0 ||
          server->session_count() > before) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server->corrupt_frames(), 1u);
  EXPECT_EQ(server->session_count(), before);
  ::close(fd);
  // Real sessions unaffected.
  TransactionComponent* tc = cluster->tc(0);
  StatusOr<TxnId> txn = tc->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(tc->Upsert(*txn, kTableB, Key(93), "unaffected").ok());
  ASSERT_TRUE(tc->Commit(*txn).ok());
}

}  // namespace
}  // namespace untx
