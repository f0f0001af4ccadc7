// UnbundledDb: the one-TC convenience facade over the unified Cluster
// wiring (kernel/cluster.h) — one TransactionComponent, one or more
// DataComponents, bound by either the direct (multi-core) or the channel
// (cloud) transport. Multi-TC topologies (Figure 2) use Cluster itself.
//
// Also the fault-injection surface: CrashDc / RecoverDc, CrashTc /
// RestartTc drive the §5.3 partial-failure protocols end to end.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "kernel/cluster.h"

namespace untx {

struct UnbundledDbOptions {
  int num_dcs = 1;
  TcOptions tc;
  DataComponentOptions dc;
  StableStoreOptions store;
  TransportKind transport = TransportKind::kDirect;
  ChannelTransportOptions channel;
  /// Routes tables/keys to DCs; default: table_id % num_dcs.
  Router router;
};

class UnbundledDb {
 public:
  /// Builds and starts a fresh deployment (formats the stores).
  static StatusOr<std::unique_ptr<UnbundledDb>> Open(
      UnbundledDbOptions options);

  TransactionComponent* tc() { return cluster_->tc(0); }
  /// nullptr for an out-of-range index.
  DataComponent* dc(int i = 0) { return cluster_->dc(i); }
  /// nullptr for an out-of-range index.
  StableStore* store(int i = 0) { return cluster_->store(i); }
  /// The channel binding for DC i; nullptr on the direct transport or for
  /// an out-of-range index. Exposes channel stats (messages sent, drops)
  /// to benches and tests.
  ChannelTransport* channel(int i = 0) { return cluster_->channel(0, i); }
  int num_dcs() const { return cluster_->num_dcs(); }
  /// The underlying topology (to grow a 1-TC deployment's tooling into
  /// the multi-TC API without rewiring).
  Cluster* cluster() { return cluster_.get(); }

  // -- Convenience transaction API ---------------------------------------------
  StatusOr<TxnId> Begin() { return tc()->Begin(); }
  Status Commit(TxnId txn) { return tc()->Commit(txn); }
  Status Abort(TxnId txn) { return tc()->Abort(txn); }
  Status CreateTable(TableId table) { return tc()->CreateTable(table); }

  // -- Fault injection -----------------------------------------------------------
  /// Kills DC i: its cache, duplicate filter and volatile DC-log tail
  /// vanish; in-flight requests to it are dropped.
  void CrashDc(int i) { cluster_->CrashDc(i); }
  /// Revives DC i: local SMO recovery first (§5.2.2), then the TC
  /// redo-resends from the RSSP (§5.3.2 "DC Failure").
  Status RecoverDc(int i) { return cluster_->RecoverDc(i); }

  /// Kills the TC: volatile log tail, transaction state and locks vanish.
  void CrashTc() { cluster_->CrashTc(0); }
  /// TC restart per §5.3.2 "TC Failure".
  Status RestartTc() { return cluster_->RestartTc(0); }

 private:
  UnbundledDb() = default;

  std::unique_ptr<Cluster> cluster_;
};

/// RAII transaction helper: aborts on destruction unless committed.
class Txn {
 public:
  explicit Txn(TransactionComponent* tc) : tc_(tc) {
    StatusOr<TxnId> id = tc_->Begin();
    if (id.ok()) {
      id_ = *id;
    } else {
      status_ = id.status();
    }
  }
  ~Txn() {
    if (id_ != kInvalidTxnId && !finished_) tc_->Abort(id_);
  }
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  bool ok() const { return status_.ok(); }
  TxnId id() const { return id_; }

  Status Read(TableId table, const std::string& key, std::string* value) {
    return tc_->Read(id_, table, key, value);
  }
  Status Insert(TableId table, const std::string& key,
                const std::string& value) {
    return tc_->Insert(id_, table, key, value);
  }
  Status Update(TableId table, const std::string& key,
                const std::string& value) {
    return tc_->Update(id_, table, key, value);
  }
  Status Delete(TableId table, const std::string& key) {
    return tc_->Delete(id_, table, key);
  }
  Status Upsert(TableId table, const std::string& key,
                const std::string& value) {
    return tc_->Upsert(id_, table, key, value);
  }
  Status Scan(TableId table, const std::string& from, const std::string& to,
              uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out) {
    return tc_->Scan(id_, table, from, to, limit, out);
  }

  // -- Pipelined asynchronous surface -----------------------------------------
  // Submit without waiting; ops bound for the same DC coalesce into one
  // channel message. Await one handle, or Flush() the whole pipeline.
  // Commit/Abort flush implicitly.
  OpHandle ReadAsync(TableId table, const std::string& key) {
    return tc_->SubmitRead(id_, table, key);
  }
  OpHandle InsertAsync(TableId table, const std::string& key,
                       const std::string& value) {
    return tc_->SubmitInsert(id_, table, key, value);
  }
  OpHandle UpdateAsync(TableId table, const std::string& key,
                       const std::string& value) {
    return tc_->SubmitUpdate(id_, table, key, value);
  }
  OpHandle DeleteAsync(TableId table, const std::string& key) {
    return tc_->SubmitDelete(id_, table, key);
  }
  OpHandle UpsertAsync(TableId table, const std::string& key,
                       const std::string& value) {
    return tc_->SubmitUpsert(id_, table, key, value);
  }
  Status Await(OpHandle* handle, std::string* value = nullptr) {
    return tc_->Await(handle, value);
  }
  /// Drains every submitted-but-unawaited op of this transaction.
  Status Flush() { return tc_->AwaitAll(id_); }

  /// Pipelined multi-point-read: submits every key, then awaits them all
  /// — one batched round trip per DC instead of one per key. `values` is
  /// key-aligned; a missing key leaves its slot empty and NotFound is
  /// returned (after all keys were awaited).
  Status MultiRead(TableId table, const std::vector<std::string>& keys,
                   std::vector<std::string>* values) {
    values->assign(keys.size(), "");
    std::vector<OpHandle> handles;
    handles.reserve(keys.size());
    for (const auto& key : keys) {
      handles.push_back(tc_->SubmitRead(id_, table, key));
    }
    Status first;
    for (size_t i = 0; i < handles.size(); ++i) {
      Status s = tc_->Await(&handles[i], &(*values)[i]);
      if (first.ok() && !s.ok()) first = s;
    }
    return first;
  }

  Status Commit() {
    Status s = tc_->Commit(id_);
    // A failed commit (e.g. a pipelined op's error surfacing at the
    // drain) leaves the transaction open — keep the RAII abort armed so
    // its locks are released on scope exit.
    if (s.ok() || s.IsNotFound()) finished_ = true;
    return s;
  }
  Status Abort() {
    finished_ = true;
    return tc_->Abort(id_);
  }

 private:
  TransactionComponent* tc_;
  TxnId id_ = kInvalidTxnId;
  Status status_;
  bool finished_ = false;
};

}  // namespace untx
