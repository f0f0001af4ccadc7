#include "kernel/cluster.h"

#include <algorithm>
#include <set>

#include "net/socket_server.h"
#include "net/socket_transport.h"

namespace untx {

namespace {

/// Direct binding: the client IS the transport; nothing to start or stop.
class DirectBoundTransport : public BoundTransport {
 public:
  explicit DirectBoundTransport(DataComponent* dc) : client_(dc) {}
  DcClient* client() override { return &client_; }
  void Retarget(DataComponent* dc) override { client_.set_target(dc); }

 private:
  DirectDcClient client_;
};

class DirectTransportFactory : public TransportFactory {
 public:
  std::unique_ptr<BoundTransport> Bind(TcId, DcId,
                                       DataComponent* target) override {
    return std::make_unique<DirectBoundTransport>(target);
  }
};

/// Channel binding: a per-(TC, DC) ChannelTransport — its own SimChannel
/// pair, server threads and reply dispatcher, so reply routing stays
/// per-TC and each binding's wire stats are separable.
class ChannelBoundTransport : public BoundTransport {
 public:
  ChannelBoundTransport(DataComponent* dc, ChannelTransportOptions options)
      : transport_(dc, options) {}
  DcClient* client() override { return transport_.client(); }
  ChannelTransport* channel() override { return &transport_; }
  void AddWireStats(WireTotals* totals) const override {
    totals->request_messages += transport_.request_channel().sent();
    totals->op_messages += transport_.op_messages();
    totals->ops_carried += transport_.ops_carried();
    totals->scan_messages += transport_.scan_messages();
    totals->scan_rows_carried += transport_.scan_rows_carried();
    totals->scan_credit_messages += transport_.scan_credit_messages();
    totals->max_queued_scan_bytes = std::max(
        totals->max_queued_scan_bytes, transport_.max_queued_scan_bytes());
    totals->promote_messages += transport_.promote_messages();
    totals->promote_ops_carried += transport_.promote_ops_carried();
  }
  void Start() override { transport_.Start(); }
  void Stop() override { transport_.Stop(); }
  void OnDcCrash() override { transport_.OnDcCrash(); }
  void Retarget(DataComponent* dc) override { transport_.Retarget(dc); }

 private:
  ChannelTransport transport_;
};

class ChannelTransportFactory : public TransportFactory {
 public:
  ChannelTransportFactory(ChannelTransportOptions options,
                          std::map<DcId, ChannelTransportOptions> per_dc)
      : options_(options), per_dc_(std::move(per_dc)) {}
  std::unique_ptr<BoundTransport> Bind(TcId, DcId dc,
                                       DataComponent* target) override {
    auto it = per_dc_.find(dc);
    return std::make_unique<ChannelBoundTransport>(
        target, it == per_dc_.end() ? options_ : it->second);
  }

 private:
  ChannelTransportOptions options_;
  std::map<DcId, ChannelTransportOptions> per_dc_;
};

}  // namespace

std::shared_ptr<TransportFactory> MakeDirectTransportFactory() {
  return std::make_shared<DirectTransportFactory>();
}

std::shared_ptr<TransportFactory> MakeChannelTransportFactory(
    ChannelTransportOptions options,
    std::map<DcId, ChannelTransportOptions> per_dc) {
  return std::make_shared<ChannelTransportFactory>(options,
                                                   std::move(per_dc));
}

StatusOr<std::unique_ptr<Cluster>> Cluster::Open(ClusterOptions options) {
  if (options.num_dcs < 1) {
    return Status::InvalidArgument("need at least one DC");
  }
  if (options.tcs.empty()) options.tcs.emplace_back();
  // tc_id is the TC's identity at the DCs (abLSN idempotence, reset
  // escalation): multi-TC topologies must assign each one explicitly —
  // never renumber silently.
  std::set<TcId> ids;
  for (const TcSpec& spec : options.tcs) {
    if (!ids.insert(spec.options.tc_id).second) {
      return Status::InvalidArgument(
          "duplicate tc_id in cluster spec: give every TcSpec a unique "
          "TcOptions::tc_id");
    }
  }

  // Hot standbys ride the primary's ordered redo history; shipping is
  // impossible without the log, so standbys imply it.
  if (options.replicas_per_dc > 0) options.dc.redo_log_enabled = true;

  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->options_ = options;

  for (int d = 0; d < options.num_dcs; ++d) {
    cluster->stores_.push_back(std::make_unique<StableStore>(options.store));
    cluster->dcs_.push_back(std::make_unique<DataComponent>(
        cluster->stores_.back().get(), options.dc));
    Status s = cluster->dcs_.back()->Initialize();
    if (!s.ok()) return s;
  }

  cluster->replica_stores_.resize(options.num_dcs);
  cluster->replicas_.resize(options.num_dcs);
  cluster->links_.resize(options.num_dcs);
  cluster->promotion_epochs_.assign(options.num_dcs, 0);
  if (options.replicas_per_dc > 0) {
    // In-process standbys share the primary's knobs but never its files:
    // a standby's durability IS the primary plus the shipped log, and two
    // stores on one path would corrupt each other.
    StableStoreOptions replica_store = options.store;
    replica_store.path.clear();
    DataComponentOptions replica_dc = options.dc;
    replica_dc.redo_log.path.clear();
    for (int d = 0; d < options.num_dcs; ++d) {
      for (int r = 0; r < options.replicas_per_dc; ++r) {
        cluster->replica_stores_[d].push_back(
            std::make_unique<StableStore>(replica_store));
        auto rep = std::make_unique<DataComponent>(
            cluster->replica_stores_[d].back().get(), replica_dc);
        Status s = rep->Initialize();
        if (!s.ok()) return s;
        rep->StartAsReplica();
        ReplicationLinkOptions link = options.replication;
        link.replica_id = cluster->next_replica_id_++;
        cluster->links_[d].push_back(std::make_unique<ReplicationLink>(
            cluster->dcs_[d].get(), rep.get(), link));
        cluster->replicas_[d].push_back(std::move(rep));
        cluster->links_[d].back()->Start();
      }
    }
  }

  Router fallback = options.default_router;
  if (!fallback) {
    const int num_dcs = options.num_dcs;
    fallback = [num_dcs](TableId table, const std::string&) {
      return static_cast<DcId>(table % num_dcs);
    };
  }

  // Factories are shared across TCs of the same kind so a custom factory
  // can pool resources; the defaults are stateless, and the socket
  // factory shares one reactor (plus the per-DC loopback servers)
  // across every socket TC.
  std::shared_ptr<TransportFactory> direct_factory;
  std::shared_ptr<TransportFactory> channel_factory;
  std::shared_ptr<TransportFactory> socket_factory;
  Status socket_status;
  // Starts the per-DC loopback SocketServers on first use and builds the
  // shared client factory against their ephemeral ports. Client-side
  // coalescing reuses the channel knobs so channel-vs-socket runs
  // measure the wire, not the queueing policy.
  auto ensure_socket_factory = [&]() -> TransportFactory* {
    if (socket_factory) return socket_factory.get();
    std::map<DcId, SocketEndpoint> endpoints;
    for (int d = 0; d < options.num_dcs; ++d) {
      SocketServerOptions server_options;
      server_options.host = options.socket.host;
      server_options.port = 0;  // ephemeral; read back below
      server_options.workers = options.socket.server_workers;
      auto server = std::make_unique<SocketServer>(cluster->dcs_[d].get(),
                                                   server_options);
      socket_status = server->Start();
      if (!socket_status.ok()) return nullptr;
      endpoints[static_cast<DcId>(d)] =
          SocketEndpoint{options.socket.host, server->port()};
      cluster->socket_servers_.push_back(std::move(server));
    }
    SocketTransportOptions transport_options;
    transport_options.coalesce = options.channel.coalesce();
    socket_factory =
        MakeSocketTransportFactory(std::move(endpoints), transport_options);
    return socket_factory.get();
  };

  std::shared_ptr<TransportFactory> cluster_factory = options.binding_factory;
  if (!cluster_factory) {
    switch (options.transport) {
      case TransportKind::kChannel:
        cluster_factory = MakeChannelTransportFactory(
            options.channel, options.channel_overrides);
        break;
      case TransportKind::kSocket:
        if (!ensure_socket_factory()) return socket_status;
        cluster_factory = socket_factory;
        break;
      case TransportKind::kDirect:
        cluster_factory = MakeDirectTransportFactory();
        break;
    }
  }

  for (size_t t = 0; t < options.tcs.size(); ++t) {
    const TcSpec& spec = options.tcs[t];
    TransportFactory* factory = cluster_factory.get();
    if (spec.transport.has_value()) {
      if (*spec.transport == TransportKind::kChannel) {
        if (!channel_factory) {
          channel_factory = MakeChannelTransportFactory(
              options.channel, options.channel_overrides);
        }
        factory = channel_factory.get();
      } else if (*spec.transport == TransportKind::kSocket) {
        factory = ensure_socket_factory();
        if (!factory) return socket_status;
      } else {
        if (!direct_factory) direct_factory = MakeDirectTransportFactory();
        factory = direct_factory.get();
      }
    }

    cluster->bindings_.emplace_back();
    std::vector<DcBinding> tc_bindings;
    for (int d = 0; d < options.num_dcs; ++d) {
      cluster->bindings_.back().push_back(factory->Bind(
          spec.options.tc_id, static_cast<DcId>(d), cluster->dcs_[d].get()));
      tc_bindings.push_back(DcBinding{static_cast<DcId>(d),
                                      cluster->bindings_.back()[d]->client()});
    }
    Router router = spec.router ? spec.router : fallback;
    cluster->tcs_.push_back(std::make_unique<TransactionComponent>(
        spec.options, tc_bindings, router));
    // Transports must carry messages before the TC announces itself.
    for (auto& binding : cluster->bindings_.back()) binding->Start();
    Status s = cluster->tcs_.back()->Start();
    if (!s.ok()) return s;
  }
  // The factories outlive Open(): the socket factory owns the shared
  // client reactor every socket binding polls on.
  for (auto& f :
       {options.binding_factory, direct_factory, channel_factory,
        socket_factory, cluster_factory}) {
    if (f) cluster->factories_.push_back(f);
  }
  return cluster;
}

Cluster::~Cluster() {
  // Shipping threads first: they walk primary redo logs and poke
  // replicas, both of which are about to go away.
  for (auto& row : links_) row.clear();
  for (auto& tc : tcs_) tc->Stop();
  for (auto& row : bindings_) {
    for (auto& binding : row) binding->Stop();
  }
  // Clients are down; now the loopback servers can go.
  for (auto& server : socket_servers_) server->Stop();
}

WireTotals Cluster::TotalWireStats() const {
  WireTotals totals;
  for (const auto& row : bindings_) {
    for (const auto& binding : row) binding->AddWireStats(&totals);
  }
  // Scan-reply residency is measured where the replies queue: the reply
  // channel on channel bindings, the per-session out buffer on socket
  // servers. Fold the server-side marks into the same max.
  for (const auto& server : socket_servers_) {
    totals.max_queued_scan_bytes =
        std::max(totals.max_queued_scan_bytes, server->max_queued_reply_bytes());
  }
  return totals;
}

uint64_t Cluster::TotalRequestMessages() const {
  return TotalWireStats().request_messages;
}

uint64_t Cluster::TotalOpMessages() const {
  return TotalWireStats().op_messages;
}

uint64_t Cluster::TotalOpsCarried() const {
  return TotalWireStats().ops_carried;
}

uint64_t Cluster::TotalScanMessages() const {
  return TotalWireStats().scan_messages;
}

uint64_t Cluster::TotalScanRowsCarried() const {
  return TotalWireStats().scan_rows_carried;
}

uint64_t Cluster::TotalScanCreditMessages() const {
  return TotalWireStats().scan_credit_messages;
}

uint64_t Cluster::MaxQueuedScanBytes() const {
  return TotalWireStats().max_queued_scan_bytes;
}

uint64_t Cluster::TotalPromoteMessages() const {
  return TotalWireStats().promote_messages;
}

uint64_t Cluster::TotalPromoteOpsCarried() const {
  return TotalWireStats().promote_ops_carried;
}

void Cluster::CrashDc(int d) {
  if (d < 0 || d >= num_dcs()) return;
  dcs_[d]->Crash();
  // Every TC's in-flight requests to this DC die in its inbox.
  for (auto& row : bindings_) row[d]->OnDcCrash();
  // Hold resends and streamed scans to the DC until its redo completes
  // (OnDcRestart re-opens the gate after RecoverDc).
  for (auto& tc : tcs_) tc->OnDcCrash(static_cast<DcId>(d));
}

Status Cluster::RecoverDc(int d) {
  if (d < 0 || d >= num_dcs()) {
    return Status::InvalidArgument("no such dc");
  }
  dcs_[d]->Restore();
  // Phase 1: DC-local recovery makes the structures well-formed (§5.2.2).
  Status s = dcs_[d]->Recover();
  if (!s.ok()) return s;
  // Phase 1b: a DC with a retained redo log replays it locally, so the
  // TCs' kQueryReplication probe sees a current redo end and phase 2
  // degrades to a suffix resend of in-flight ops only.
  if (dcs_[d]->redo_log() != nullptr) {
    s = dcs_[d]->RecoverFromLocalLog();
    if (!s.ok()) return s;
  }
  // Phase 2: the out-of-band prompt — every TC redo-resends from its
  // RSSP (§5.3.2 "DC Failure"; with several TCs, each owns a slice of
  // the lost operations). Run EVERY TC even if one fails: each
  // OnDcRestart also re-opens that TC's recovering gate (set by
  // CrashDc), and skipping a TC would leave its resends and streamed
  // scans to this DC held forever.
  Status first;
  for (auto& tc : tcs_) {
    Status rs = tc->OnDcRestart(static_cast<DcId>(d));
    if (first.ok() && !rs.ok()) first = rs;
  }
  return first;
}

Status Cluster::CrashAndRecoverDc(int d) {
  CrashDc(d);
  return RecoverDc(d);
}

Status Cluster::FailoverDc(int d) {
  if (d < 0 || d >= num_dcs()) return Status::InvalidArgument("no such dc");
  if (replicas_[d].empty()) {
    return Status::InvalidArgument("dc has no standby to fail over to");
  }
  // A planned drill may target a live primary; kill it first so the slot
  // swap below is the only transition the TCs observe.
  if (!dcs_[d]->crashed()) CrashDc(d);
  // Quiesce shipping before the slots move underneath the link threads.
  links_[d].clear();
  // Most-caught-up live standby wins.
  int best = -1;
  uint64_t best_end = 0;
  for (int r = 0; r < static_cast<int>(replicas_[d].size()); ++r) {
    DataComponent* rep = replicas_[d][r].get();
    if (rep->crashed()) continue;
    uint64_t end = rep->redo_log() != nullptr ? rep->redo_log()->end() : 0;
    if (best < 0 || end > best_end) {
      best = r;
      best_end = end;
    }
  }
  if (best < 0) return Status::Crashed("no live standby to promote");
  replicas_[d][best]->Promote(++promotion_epochs_[d]);
  // The promoted standby takes the primary slot; the dead ex-primary
  // parks in its old replica slot for a later RejoinReplica.
  std::swap(dcs_[d], replicas_[d][best]);
  std::swap(stores_[d], replica_stores_[d][best]);
  // Bindings and the loopback socket server survive; only the backend
  // they dispatch into changes.
  for (auto& row : bindings_) row[d]->Retarget(dcs_[d].get());
  if (d < static_cast<int>(socket_servers_.size()) &&
      socket_servers_[d] != nullptr) {
    socket_servers_[d]->Retarget(dcs_[d].get());
  }
  // Remaining live standbys re-subscribe to the new primary (fresh
  // replica ids; their acked positions restart from their own log ends).
  for (int r = 0; r < static_cast<int>(replicas_[d].size()); ++r) {
    DataComponent* rep = replicas_[d][r].get();
    if (rep->crashed()) continue;
    ReplicationLinkOptions link = options_.replication;
    link.replica_id = next_replica_id_++;
    links_[d].push_back(
        std::make_unique<ReplicationLink>(dcs_[d].get(), rep, link));
    links_[d].back()->Start();
  }
  // Suffix resend: OnDcRestart probes the promoted DC's redo end, so each
  // TC re-drives only ops the standby had not yet applied — with a
  // caught-up standby that is just the unacknowledged in-flight tail,
  // zero full redo-resend. Run EVERY TC even on error: each call also
  // re-opens that TC's recovering gate.
  Status first;
  for (auto& tc : tcs_) {
    Status rs = tc->OnDcRestart(static_cast<DcId>(d));
    if (first.ok() && !rs.ok()) first = rs;
  }
  return first;
}

Status Cluster::RejoinReplica(int d, int r) {
  if (d < 0 || d >= num_dcs()) return Status::InvalidArgument("no such dc");
  if (r < 0 || r >= static_cast<int>(replicas_[d].size())) {
    return Status::InvalidArgument("no such replica");
  }
  DataComponent* rep = replicas_[d][r].get();
  if (!rep->crashed()) {
    return Status::InvalidArgument("replica is live; nothing to rejoin");
  }
  // Tear down any stale link to this replica FIRST: its shipper must not
  // race the truncation below, and its ack-map entry would otherwise
  // clamp the primary's checkpoints (and pin MaxReplicaLag) forever.
  for (auto it = links_[d].begin(); it != links_[d].end();) {
    if ((*it)->replica() == rep) {
      it = links_[d].erase(it);
    } else {
      ++it;
    }
  }
  rep->Restore();
  // Same phase 1 as any DC revival: well-formed search structures first.
  Status rs = rep->Recover();
  if (!rs.ok()) return rs;
  // Fence at the current primary's promotion base: any divergent suffix
  // (ops the ex-primary logged that never shipped) is dropped here and
  // re-enters history via the TCs' failover resend to the new primary.
  Status s = rep->RejoinAsReplica(dcs_[d]->promotion_base());
  if (!s.ok()) return s;
  // Its own retained log brings the restored pages forward to the fence;
  // the link below ships everything past it.
  s = rep->RecoverFromLocalLog();
  if (!s.ok()) return s;
  ReplicationLinkOptions link = options_.replication;
  link.replica_id = next_replica_id_++;
  links_[d].push_back(
      std::make_unique<ReplicationLink>(dcs_[d].get(), rep, link));
  links_[d].back()->Start();
  return Status::OK();
}

void Cluster::CrashTc(int t) {
  if (t < 0 || t >= num_tcs()) return;
  tcs_[t]->Crash();
}

Status Cluster::RestartTc(int t) {
  if (t < 0 || t >= num_tcs()) {
    return Status::InvalidArgument("no such tc");
  }
  std::vector<TcId> escalate;
  Status s = tcs_[t]->Restart(&escalate);
  // §6.1.2 escalation: the restart's DC resets may have dropped shared
  // pages reflecting OTHER TCs' operations; those TCs repopulate from
  // their own logs. A failed restart reports the pages it did drop too.
  for (TcId victim : escalate) {
    for (auto& tc : tcs_) {
      if (tc->id() == victim && tc.get() != tcs_[t].get()) {
        Status rs = tc->ResendFromRssp();
        if (!rs.ok() && s.ok()) s = rs;
      }
    }
  }
  return s;
}

Status Cluster::CrashAndRestartTc(int t) {
  if (t < 0 || t >= num_tcs()) {
    return Status::InvalidArgument("no such tc");
  }
  CrashTc(t);
  return RestartTc(t);
}

}  // namespace untx
