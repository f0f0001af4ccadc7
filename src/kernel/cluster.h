// Cluster: the unified deployment wiring of the unbundled kernel — N
// TransactionComponents sharing M DataComponents (Figure 1 right side,
// Figure 2, §6), every TC↔DC pair bound through a pluggable transport.
//
// A TransportFactory produces one BoundTransport per (TC, DC) pair:
//   * direct   — in-process DirectDcClient, the multi-core deployment;
//   * channel  — a per-pair ChannelTransport (SimChannel pair + server/
//                dispatcher threads) with client-side batch coalescing,
//                the cloud deployment.
// The transport is chosen cluster-wide, overridden per TC, or supplied
// as a custom factory (e.g. channel to remote DCs, direct to a
// co-located one).
//
// The cluster is also the fault-injection surface (§5.3, §6.1.2):
// CrashDc/RecoverDc make every TC redo-resend to the revived DC;
// CrashTc/RestartTc run the multi-TC reset escalation — TCs named in a
// reset reply repopulate shared pages from their own RSSPs.
//
// One-TC deployments are wrapped by UnbundledDb (kernel/unbundled_db.h);
// the §6.3 movie site (cloud/movie_site.h) builds its Figure 2 topology
// on this API.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "dc/data_component.h"
#include "kernel/channel_transport.h"
#include "kernel/replication_link.h"
#include "storage/stable_store.h"
#include "tc/dc_client.h"
#include "tc/transaction_component.h"

namespace untx {

class SocketServer;

enum class TransportKind : uint8_t { kDirect = 0, kChannel = 1, kSocket = 2 };

/// Wire-cost counters of one binding, summed by the Cluster::Total*
/// rollups. Channel and socket bindings fill the same fields, so
/// msgs/txn comparisons across transports are apples to apples; direct
/// bindings contribute nothing (no wire).
struct WireTotals {
  uint64_t request_messages = 0;
  uint64_t op_messages = 0;
  uint64_t ops_carried = 0;
  uint64_t scan_messages = 0;
  uint64_t scan_rows_carried = 0;
  uint64_t scan_credit_messages = 0;
  uint64_t max_queued_scan_bytes = 0;  // merged with max(), not +
  uint64_t promote_messages = 0;
  uint64_t promote_ops_carried = 0;
};

/// One live TC↔DC binding produced by a TransportFactory. Owns whatever
/// machinery sits behind the DcClient — nothing for a direct call path,
/// channels plus server/dispatcher threads for the cloud path, a TCP
/// connection registered with a shared reactor for the socket path.
class BoundTransport {
 public:
  virtual ~BoundTransport() = default;

  /// The client the TC talks through. Valid for the binding's lifetime.
  virtual DcClient* client() = 0;

  /// The channel machinery behind the binding (per-binding message
  /// stats, fault knobs); nullptr for bindings with no wire.
  virtual ChannelTransport* channel() { return nullptr; }

  /// Folds this binding's wire counters into `totals` (no-op for
  /// bindings with no wire).
  virtual void AddWireStats(WireTotals* totals) const { (void)totals; }

  virtual void Start() {}
  virtual void Stop() {}

  /// The DC behind this binding crashed: in-flight requests die with it.
  virtual void OnDcCrash() {}

  /// Hot-standby failover: point this binding at the promoted DC. The
  /// client pointer stays valid — only the backend swaps. Socket
  /// bindings ignore this (the Cluster retargets the shared
  /// SocketServer instead; the wire endpoint does not move).
  virtual void Retarget(DataComponent* target) { (void)target; }
};

/// Produces the binding one TC uses to reach one DC. Consulted once per
/// (TC, DC) pair at cluster open.
class TransportFactory {
 public:
  virtual ~TransportFactory() = default;
  virtual std::unique_ptr<BoundTransport> Bind(TcId tc, DcId dc,
                                               DataComponent* target) = 0;
};

/// In-process DirectDcClient bindings (multi-core style).
std::shared_ptr<TransportFactory> MakeDirectTransportFactory();

/// Per-(TC, DC) ChannelTransport bindings — asynchronous messages with
/// client-side kOperationBatch coalescing (cloud style). `per_dc`
/// entries override the base options for bindings to that DC (e.g. a
/// remote DC coalesces harder than a co-located one).
std::shared_ptr<TransportFactory> MakeChannelTransportFactory(
    ChannelTransportOptions options,
    std::map<DcId, ChannelTransportOptions> per_dc = {});

/// Socket bindings (TransportKind::kSocket): the cluster hosts one
/// in-process SocketServer per DC on a loopback TCP port and every TC
/// binding connects to it — the same bytes, daemons and reconnect
/// machinery the separate-process deployment (untx_tcd / untx_dcd)
/// uses, exercised inside one test or bench process.
struct SocketClusterOptions {
  std::string host = "127.0.0.1";
  /// Shared worker pool of each DC's SocketServer — all TC sessions
  /// multiplex onto it (vs per-binding server threads on channels).
  int server_workers = 2;
};

/// One TC of the topology.
struct TcSpec {
  TcOptions options;
  /// Routes this TC's (table, key)s to DCs; empty = the cluster default.
  Router router;
  /// Per-TC transport override; unset = the cluster-wide choice.
  std::optional<TransportKind> transport;
};

struct ClusterOptions {
  int num_dcs = 1;
  /// One entry per TC; empty = a single TC with default options.
  /// TcOptions::tc_id is the TC's identity at the DCs — multi-TC specs
  /// must assign unique ids (duplicates are rejected, never renumbered).
  std::vector<TcSpec> tcs;
  DataComponentOptions dc;
  StableStoreOptions store;
  /// Cluster-wide transport choice (overridable per TC via TcSpec).
  TransportKind transport = TransportKind::kDirect;
  /// Options for channel bindings (cluster-wide or per-TC).
  ChannelTransportOptions channel;
  /// Per-DC overrides of `channel` — coalescing policy, batch caps and
  /// fault knobs can differ per DC (a far DC warrants a larger window).
  std::map<DcId, ChannelTransportOptions> channel_overrides;
  /// Options for socket bindings (TransportKind::kSocket). Client-side
  /// coalescing reuses `channel`'s coalesce knobs so channel-vs-socket
  /// comparisons measure the wire, not the queue.
  SocketClusterOptions socket;
  /// Custom binding factory; when set it replaces the `transport` choice
  /// for every TC without its own TcSpec::transport override.
  std::shared_ptr<TransportFactory> binding_factory;
  /// Fallback router when a TcSpec has none: table_id % num_dcs.
  Router default_router;
  /// Hot standbys per DC (PR 8). > 0 turns on the DC redo log for every
  /// primary and replica, builds `replicas_per_dc` replica DCs (own
  /// StableStore each) behind each primary, and ships the primary's
  /// redo log to them continuously over ReplicationLinks. FailoverDc
  /// promotes the most-caught-up standby when a primary dies.
  int replicas_per_dc = 0;
  /// Shipping knobs of the in-process links (batch size, poll cadence).
  ReplicationLinkOptions replication;
};

class Cluster {
 public:
  /// Builds and starts a fresh topology (formats the stores).
  static StatusOr<std::unique_ptr<Cluster>> Open(ClusterOptions options);

  ~Cluster();

  int num_tcs() const { return static_cast<int>(tcs_.size()); }
  int num_dcs() const { return static_cast<int>(dcs_.size()); }

  /// nullptr for an out-of-range index.
  TransactionComponent* tc(int t = 0) {
    if (t < 0 || t >= num_tcs()) return nullptr;
    return tcs_[t].get();
  }
  /// nullptr for an out-of-range index.
  DataComponent* dc(int d = 0) {
    if (d < 0 || d >= num_dcs()) return nullptr;
    return dcs_[d].get();
  }
  /// nullptr for an out-of-range index.
  StableStore* store(int d = 0) {
    if (d < 0 || d >= static_cast<int>(stores_.size())) return nullptr;
    return stores_[d].get();
  }
  /// The channel behind TC t's binding to DC d; nullptr for direct
  /// bindings or out-of-range indices. Exposes per-binding message
  /// stats (sent, dropped, duplicated) to benches and tests.
  ChannelTransport* channel(int t, int d) {
    if (t < 0 || t >= num_tcs() || d < 0 || d >= num_dcs()) return nullptr;
    return bindings_[t][d]->channel();
  }
  /// The raw binding (tests downcast to transport-specific types);
  /// nullptr for out-of-range indices.
  BoundTransport* binding(int t, int d) {
    if (t < 0 || t >= num_tcs() || d < 0 || d >= num_dcs()) return nullptr;
    return bindings_[t][d].get();
  }
  /// DC d's loopback socket server; nullptr unless some TC binds via
  /// TransportKind::kSocket.
  SocketServer* socket_server(int d) {
    if (d < 0 || d >= static_cast<int>(socket_servers_.size())) return nullptr;
    return socket_servers_[d].get();
  }

  // -- Replication (PR 8) ------------------------------------------------------
  /// Standbys behind DC d (replicas_per_dc at open; a failover leaves
  /// the crashed ex-primary parked in the promoted standby's old slot).
  int num_replicas(int d) const {
    if (d < 0 || d >= static_cast<int>(replicas_.size())) return 0;
    return static_cast<int>(replicas_[d].size());
  }
  /// Replica r behind DC d; nullptr for out-of-range indices.
  DataComponent* replica(int d, int r) {
    if (d < 0 || d >= static_cast<int>(replicas_.size())) return nullptr;
    if (r < 0 || r >= static_cast<int>(replicas_[d].size())) return nullptr;
    return replicas_[d][r].get();
  }
  /// How far DC d's slowest live standby trails its redo end (0 when
  /// caught up or unreplicated).
  uint64_t ReplicaLag(int d) {
    DataComponent* p = dc(d);
    if (p == nullptr || p->redo_log() == nullptr) return 0;
    return p->redo_log()->MaxReplicaLag();
  }

  /// All wire counters folded over every binding (channel AND socket;
  /// direct bindings contribute nothing). The Total* accessors below
  /// are views of this.
  WireTotals TotalWireStats() const;

  /// Request messages summed over every wired binding — the wire cost
  /// of the whole topology (0 on all-direct clusters).
  uint64_t TotalRequestMessages() const;
  /// Operation-carrying request messages (excludes control traffic).
  uint64_t TotalOpMessages() const;
  /// Operations those messages carried; batching makes ops > messages.
  uint64_t TotalOpsCarried() const;
  /// Scan-stream request messages (one per stream attempt) and the rows
  /// chunk replies carried.
  uint64_t TotalScanMessages() const;
  uint64_t TotalScanRowsCarried() const;
  /// Scan flow control: kScanCredit messages sent, and the largest
  /// reply-channel scan residency any binding saw (the memory the
  /// credit window bounds).
  uint64_t TotalScanCreditMessages() const;
  uint64_t MaxQueuedScanBytes() const;
  /// Batched commit-time version promotion: messages carrying
  /// kPromoteVersion ops, and the promote ops carried.
  uint64_t TotalPromoteMessages() const;
  uint64_t TotalPromoteOpsCarried() const;

  // -- Fault injection (§5.3, §6.1.2) -----------------------------------------
  /// Kills DC d: its cache, duplicate filter and volatile DC-log tail
  /// vanish; in-flight requests to it (from every TC) are dropped.
  void CrashDc(int d);
  /// Revives DC d: local SMO recovery first (§5.2.2), then EVERY TC
  /// redo-resends to it from its RSSP (§5.3.2 "DC Failure").
  Status RecoverDc(int d);
  Status CrashAndRecoverDc(int d);

  /// Hot-standby failover for a dead DC d: stops shipping, promotes the
  /// most-caught-up live standby (next epoch), swaps it into the
  /// primary slot, retargets every TC binding (and the loopback socket
  /// server), then runs the per-TC suffix resend — with a caught-up
  /// standby, only unacknowledged in-flight ops travel (zero full
  /// redo-resend). Crashes the primary first if it is still up (a
  /// planned drill). The ex-primary parks, crashed, in the promoted
  /// standby's old replica slot; revive it with RejoinReplica.
  Status FailoverDc(int d);

  /// Revives crashed replica-slot (d, r) — typically the retired
  /// ex-primary after FailoverDc — as a standby of the current primary:
  /// restore, fence its redo log at the promotion base (divergent
  /// suffix dropped), replay its own retained log locally, then attach
  /// a fresh shipping link so it catches up.
  Status RejoinReplica(int d, int r);

  /// Kills TC t: volatile log tail, transaction state and locks vanish.
  void CrashTc(int t);
  /// Restarts TC t per §5.3.2 "TC Failure", then runs any §6.1.2
  /// escalation: other TCs displaced by the reset resend from their
  /// RSSPs to repopulate shared pages. The escalation runs even when the
  /// restart fails; the restart may then be retried.
  Status RestartTc(int t);
  Status CrashAndRestartTc(int t);

 private:
  Cluster() = default;

  ClusterOptions options_;
  std::vector<std::unique_ptr<StableStore>> stores_;
  std::vector<std::unique_ptr<DataComponent>> dcs_;
  /// Loopback TCP servers for socket bindings (one per DC, all TC
  /// sessions multiplexed onto its worker pool); empty otherwise.
  std::vector<std::unique_ptr<SocketServer>> socket_servers_;
  /// Keeps the binding factories alive for the cluster's lifetime: the
  /// socket factory owns the shared client reactor, so letting it die
  /// at the end of Open() would tear down every live connection.
  std::vector<std::shared_ptr<TransportFactory>> factories_;
  // bindings_[t][d]: TC t's transport to DC d.
  std::vector<std::vector<std::unique_ptr<BoundTransport>>> bindings_;
  std::vector<std::unique_ptr<TransactionComponent>> tcs_;

  // -- Replication state (PR 8), indexed by primary slot d -------------------
  std::vector<std::vector<std::unique_ptr<StableStore>>> replica_stores_;
  std::vector<std::vector<std::unique_ptr<DataComponent>>> replicas_;
  std::vector<std::vector<std::unique_ptr<ReplicationLink>>> links_;
  /// Monotonic promotion fence per primary slot.
  std::vector<uint64_t> promotion_epochs_;
  /// Replica ids are unique across the cluster's lifetime so a rebuilt
  /// link never aliases a stale ack entry.
  uint32_t next_replica_id_ = 1;
};

}  // namespace untx
