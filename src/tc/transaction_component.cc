#include "tc/transaction_component.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include "common/coding.h"

namespace untx {

namespace {

/// Conflict-gate key for in-flight pipelined operations.
std::string InflightKey(TableId table, const std::string& key) {
  std::string out;
  PutFixed32(&out, table);
  out += key;
  return out;
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// ---- RangePartitionConfig ----------------------------------------------------

uint32_t RangePartitionConfig::PartitionOf(const std::string& key) const {
  // Partition i covers [boundaries[i-1], boundaries[i]).
  auto it = std::upper_bound(boundaries.begin(), boundaries.end(), key);
  return static_cast<uint32_t>(it - boundaries.begin());
}

std::pair<uint32_t, uint32_t> RangePartitionConfig::Overlapping(
    const std::string& from, const std::string& to) const {
  const uint32_t lo = PartitionOf(from);
  const uint32_t hi =
      to.empty() ? Count() - 1
                 // `to` is exclusive: key `to` itself is not read, so a
                 // partition starting exactly at `to` is not needed.
                 : PartitionOf(to);
  return {lo, hi};
}

// ---- Construction -------------------------------------------------------------

TransactionComponent::TransactionComponent(TcOptions options,
                                           std::vector<DcBinding> dcs,
                                           Router router)
    : options_(options),
      dcs_(std::move(dcs)),
      router_(std::move(router)),
      log_(options.log),
      locks_(std::make_unique<LockManager>(options.locks)) {
  assert(!dcs_.empty());
  for (auto& binding : dcs_) {
    binding.client->set_op_reply_handler(
        [this](const OperationReply& reply) { OnOperationReply(reply); });
    binding.client->set_control_reply_handler(
        [this](const ControlReply& reply) { OnControlReply(reply); });
    binding.client->set_scan_chunk_handler(
        [this](const ScanStreamChunk& chunk) { OnScanChunk(chunk); });
  }
}

TransactionComponent::~TransactionComponent() { Stop(); }

Status TransactionComponent::Start() {
  stopping_.store(false);
  // Fresh start: no redo is pending anywhere, so arm the LWM contract.
  for (const auto& binding : dcs_) {
    ControlRequest req;
    req.type = ControlType::kRestartEnd;
    req.tc_id = options_.tc_id;
    req.seq = 0;
    binding.client->SendControl(req);
  }
  if (options_.start_daemons) {
    control_daemon_.Start(
        std::chrono::milliseconds(options_.control_interval_ms),
        [this] { PushControls(); });
    resend_daemon_.Start(
        std::chrono::milliseconds(options_.resend_interval_ms),
        [this] { ResendPass(); });
    if (options_.group_commit) {
      // Committers Poke() the forcer on demand, so commit latency tracks
      // the force cost — not this interval. The periodic tick is only
      // the idle backstop for unforced non-commit appends; clamp it to
      // >= 1ms so a sub-millisecond commit window doesn't spin an idle
      // core at kHz rates. Grouping still happens naturally: while one
      // force is in progress, later committers append, wait, and ride
      // the next force together.
      group_commit_daemon_.Start(
          std::chrono::microseconds(
              std::max(1000u, options_.group_commit_interval_us)),
          [this] {
            if (!crashed_.load()) log_.Force();
          });
    }
  }
  return Status::OK();
}

void TransactionComponent::Stop() {
  stopping_.store(true);
  control_daemon_.Stop();
  resend_daemon_.Stop();
  group_commit_daemon_.Stop();
}

DcId TransactionComponent::Route(TableId table,
                                 const std::string& key) const {
  if (router_) return router_(table, key);
  return dcs_.front().id;
}

DcClient* TransactionComponent::ClientFor(DcId dc) const {
  for (const auto& binding : dcs_) {
    if (binding.id == dc) return binding.client;
  }
  return dcs_.front().client;
}

// ---- Reply plumbing -----------------------------------------------------------

void TransactionComponent::OnOperationReply(const OperationReply& reply) {
  if (crashed_.load()) return;
  // Count idempotence hits up front: a was_duplicate reply usually races
  // a non-duplicate one for the same LSN and loses the outstanding-op
  // lookup below — it must still be visible in the stats.
  if (reply.was_duplicate) stats_.dup_replies.fetch_add(1);
  std::shared_ptr<OutstandingOp> op;
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    auto it = outstanding_.find(reply.lsn);
    if (it == outstanding_.end() || it->second->completed) {
      return;  // duplicate or late reply — idempotence already paid for it
    }
    op = it->second;
    op->completed = true;
    op->reply = reply;
    // The DC durably appended this op to its redo log at `rlsn`: record
    // it so a failover/local-recovery resend can skip every op the
    // revived DC's log already holds (the suffix-only resend). Duplicate
    // replies answered from the DC's idempotence carry rlsn 0 and must
    // ERASE any prior record, not just leave none: a record taken before
    // a DC crash can name a volatile log position the revived DC reused
    // for a different op, and skipping on it would lose this op at the
    // next promoted standby. Erasure keeps the op conservatively
    // resendable (a redundant resend is absorbed as an abLSN duplicate).
    if (reply.rlsn != 0) {
      acked_rlsns_[op->dc][reply.lsn] = reply.rlsn;
    } else {
      auto acked_it = acked_rlsns_.find(op->dc);
      if (acked_it != acked_rlsns_.end()) acked_it->second.erase(reply.lsn);
    }
    outstanding_.erase(it);
    // Only pipelined ops enter the per-key conflict gate and the
    // backpressure window; probes, recovery resends and promotes skip
    // both (and the gate-key allocation).
    if (op->pipelined) {
      // Release the conflict gate for pipelined successors.
      auto key_it = inflight_keys_.find(
          InflightKey(op->request.table_id, op->request.key));
      if (key_it != inflight_keys_.end()) {
        auto& ops = key_it->second;
        ops.erase(std::remove(ops.begin(), ops.end(), op), ops.end());
        if (ops.empty()) inflight_keys_.erase(key_it);
      }
      // Drain the backpressure window and wake blocked submitters.
      if (op->txn != kInvalidTxnId) ReleaseWindowSlotLocked(op->txn, op->dc);
    }
  }
  if (op->needs_seal) {
    TcLogRecord rec;
    rec.type = op->record_type;
    rec.txn = op->txn;
    rec.op = op->request.op;
    rec.table_id = op->request.table_id;
    rec.key = op->request.key;
    rec.value = op->request.value;
    rec.versioned = op->request.versioned;
    rec.applied = reply.status.ok() && IsWriteOp(op->request.op);
    rec.has_before = reply.has_before;
    rec.before = reply.value;
    rec.undo_target = op->undo_target;
    std::string payload;
    rec.EncodeTo(&payload);
    log_.Seal(op->request.lsn - 1, std::move(payload));
  }
  op->done.Notify();
}

void TransactionComponent::OnControlReply(const ControlReply& reply) {
  if (reply.seq == 0) return;  // fire-and-forget
  std::shared_ptr<PendingControl> pending;
  {
    std::lock_guard<std::mutex> guard(control_mu_);
    auto it = pending_controls_.find(reply.seq);
    if (it == pending_controls_.end()) return;
    pending = it->second;
    pending_controls_.erase(it);
  }
  pending->reply = reply;
  pending->done.Notify();
}

void TransactionComponent::OnScanChunk(const ScanStreamChunk& chunk) {
  if (crashed_.load()) return;
  std::shared_ptr<ScanStream> stream;
  {
    std::lock_guard<std::mutex> guard(stream_mu_);
    auto it = streams_.find(chunk.stream_id);
    if (it == streams_.end()) return;  // stale stream (restarted or done)
    stream = it->second;
  }
  std::lock_guard<std::mutex> guard(stream->mu);
  if (chunk.chunk_index < stream->next_index) return;  // duplicate
  const auto now = std::chrono::steady_clock::now();
  if (stream->has_arrival) {
    const int64_t gap_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - stream->last_arrival)
            .count();
    stream->ewma_gap_us = stream->ewma_gap_us == 0
                              ? gap_us
                              : (3 * stream->ewma_gap_us + gap_us) / 4;
  }
  stream->last_arrival = now;
  stream->has_arrival = true;
  stream->chunks.emplace(chunk.chunk_index, chunk);
  stream->cv.notify_all();
}

StatusOr<ControlReply> TransactionComponent::ControlAwait(
    DcId dc, ControlRequest req, uint32_t timeout_ms) {
  auto pending = std::make_shared<PendingControl>();
  {
    std::lock_guard<std::mutex> guard(control_mu_);
    req.seq = next_control_seq_++;
    pending_controls_[req.seq] = pending;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // Control messages ride the same lossy transport: resend until acked.
  for (;;) {
    ClientFor(dc)->SendControl(req);
    if (pending->done.WaitFor(std::chrono::milliseconds(
            std::max<uint32_t>(options_.resend_interval_ms, 20)))) {
      return pending->reply;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      std::lock_guard<std::mutex> guard(control_mu_);
      pending_controls_.erase(req.seq);
      return Status::TimedOut("control request not acknowledged");
    }
  }
}

void TransactionComponent::SendToDc(const std::shared_ptr<OutstandingOp>& op,
                                    bool is_resend) {
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    auto it = dc_recovering_.find(op->dc);
    if (it != dc_recovering_.end() && it->second && is_resend) {
      return;  // hold resends while the DC replays its redo
    }
    op->last_send = std::chrono::steady_clock::now();
  }
  if (is_resend) stats_.resends.fetch_add(1);
  ClientFor(op->dc)->SendOperation(op->request);
}

void TransactionComponent::ResendPass() {
  if (crashed_.load()) return;
  std::vector<std::shared_ptr<OutstandingOp>> stale;
  const auto now = std::chrono::steady_clock::now();
  const auto age = std::chrono::milliseconds(options_.resend_interval_ms);
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    for (auto& [lsn, op] : outstanding_) {
      // Recovery resends are retried by RedoResend's own ordered
      // suffix-resend loop; an individual background resend here could
      // deliver a CLR BEFORE the forward op it compensates (separate
      // messages reorder on the wire) and corrupt replayed history.
      if (op->request.recovery_resend) continue;
      if (!op->completed && now - op->last_send >= age) {
        stale.push_back(op);
      }
    }
  }
  for (auto& op : stale) SendToDc(op, /*is_resend=*/true);
}

void TransactionComponent::PushControls() {
  if (crashed_.load()) return;
  log_.Force();
  const Lsn eosl = log_.stable_end();
  const Lsn lwm = log_.sealed_prefix_end();
  for (const auto& binding : dcs_) {
    ControlRequest req;
    req.tc_id = options_.tc_id;
    req.seq = 0;  // fire-and-forget
    req.type = ControlType::kEndOfStableLog;
    req.lsn = eosl;
    binding.client->SendControl(req);
    req.type = ControlType::kLowWaterMark;
    req.lsn = lwm;
    binding.client->SendControl(req);
  }
}

// ---- Operation execution -------------------------------------------------------

bool TransactionComponent::WaitForConflicts(const OperationRequest& req) {
  // The §1.2 obligation: never two conflicting operations in flight. The
  // lock manager already serializes conflicts ACROSS transactions; within
  // one transaction, pipelined submits against the same key must drain
  // their predecessors (a write waits for everything on the key, a read
  // waits for in-flight writes) so the channel cannot reorder them.
  const bool is_write = IsWriteOp(req.op);
  const std::string gate = InflightKey(req.table_id, req.key);
  for (;;) {
    std::shared_ptr<OutstandingOp> predecessor;
    {
      std::lock_guard<std::mutex> guard(out_mu_);
      auto it = inflight_keys_.find(gate);
      if (it != inflight_keys_.end()) {
        for (const auto& op : it->second) {
          if (op->completed) continue;
          if (is_write || IsWriteOp(op->request.op)) {
            predecessor = op;
            break;
          }
        }
      }
    }
    if (!predecessor) return true;
    // The predecessor may still sit in a coalescing queue: flush, then
    // wait for its reply (the resend daemon guarantees progress).
    ClientFor(predecessor->dc)->FlushOperations();
    if (!predecessor->done.WaitFor(
            std::chrono::milliseconds(options_.op_timeout_ms))) {
      return false;  // the predecessor is stuck (e.g. its DC is down)
    }
  }
}

void TransactionComponent::ReleaseWindowSlotLocked(TxnId txn, DcId dc) {
  auto it = window_counts_.find({txn, dc});
  if (it == window_counts_.end()) return;  // cap off, or cleared by Crash()
  if (--it->second == 0) window_counts_.erase(it);
  window_cv_.notify_all();
}

bool TransactionComponent::WaitForWindow(TxnId txn, DcId dc) {
  const uint32_t cap = options_.max_outstanding_ops;
  if (cap == 0 || txn == kInvalidTxnId) return true;
  const auto window_key = std::make_pair(txn, dc);
  // Check-and-reserve must be one atomic step: concurrent submitters on
  // the same (txn, DC) would otherwise each pass the check and jointly
  // overshoot the cap. The slot is released by the reply handler (or by
  // SubmitOp itself if the submit fails after the reservation).
  auto try_reserve = [&]() {
    uint32_t& count = window_counts_[window_key];
    if (count >= cap) return false;
    ++count;
    return true;
  };
  {
    // Common case: the window has room — one map lookup, no waiting.
    std::lock_guard<std::mutex> guard(out_mu_);
    if (try_reserve()) return true;
  }
  stats_.backpressure_waits.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.op_timeout_ms);
  const auto interval = std::chrono::milliseconds(
      std::max<uint32_t>(options_.resend_interval_ms, 10));
  for (;;) {
    // The window may still sit in a coalescing queue: push it onto the
    // wire (outside out_mu_ — the reply handler needs that lock), then
    // wait for completions to drain it.
    ClientFor(dc)->FlushOperations();
    std::unique_lock<std::mutex> lock(out_mu_);
    bool reserved = false;
    window_cv_.wait_for(lock, interval,
                        [&] { return (reserved = try_reserve()); });
    if (reserved || try_reserve()) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
  }
}

std::shared_ptr<TransactionComponent::OutstandingOp>
TransactionComponent::SubmitOp(OperationRequest req, TxnId txn,
                               TcLogRecordType record_type, Lsn undo_target,
                               bool pipelined, Status* error) {
  auto fail = [error](Status s) -> std::shared_ptr<OutstandingOp> {
    if (error != nullptr) *error = std::move(s);
    return nullptr;
  };
  if (crashed_.load()) return fail(Status::Crashed("tc is down"));
  const DcId dc = Route(req.table_id, req.key);
  if (pipelined && !WaitForConflicts(req)) {
    return fail(
        Status::TimedOut("conflicting in-flight op never completed"));
  }
  if (pipelined && !WaitForWindow(txn, dc)) {
    return fail(Status::Busy("outstanding-op window to the DC is full"));
  }
  if (crashed_.load()) {
    // The window slot reserved above is never consumed: hand it back.
    if (pipelined && txn != kInvalidTxnId) {
      std::lock_guard<std::mutex> guard(out_mu_);
      ReleaseWindowSlotLocked(txn, dc);
    }
    return fail(Status::Crashed("tc is down"));
  }

  auto op = std::make_shared<OutstandingOp>();
  const uint64_t index = log_.Reserve();
  req.tc_id = options_.tc_id;
  req.lsn = index + 1;
  req.versioned = req.versioned && IsWriteOp(req.op);
  op->request = req;
  op->txn = txn;
  op->record_type = record_type;
  op->undo_target = undo_target;
  op->pipelined = pipelined;
  op->dc = dc;
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    outstanding_[req.lsn] = op;
    op->last_send = std::chrono::steady_clock::now();
    if (pipelined) {
      inflight_keys_[InflightKey(req.table_id, req.key)].push_back(op);
      // The backpressure slot was already reserved by WaitForWindow.
    }
  }
  if (pipelined && txn != kInvalidTxnId &&
      record_type == TcLogRecordType::kOperation) {
    std::lock_guard<std::mutex> guard(txn_mu_);
    auto it = txns_.find(txn);
    if (it != txns_.end()) it->second.pending_ops.push_back(op);
  }
  stats_.ops_sent.fetch_add(1);
  if (pipelined) {
    ClientFor(op->dc)->QueueOperation(op->request);
  } else {
    ClientFor(op->dc)->SendOperation(op->request);
  }
  return op;
}

StatusOr<OperationReply> TransactionComponent::AwaitOp(
    const std::shared_ptr<OutstandingOp>& op) {
  if (op->pipelined && !op->completed) {
    ClientFor(op->dc)->FlushOperations();
  }
  if (!op->done.WaitFor(std::chrono::milliseconds(options_.op_timeout_ms))) {
    // The op stays outstanding; the resend daemon keeps trying (a down DC
    // blocks its updaters, §6.2.2). The caller sees a timeout.
    return Status::TimedOut("operation not acknowledged in time");
  }
  return op->reply;
}

void TransactionComponent::HarvestReply(
    const std::shared_ptr<OutstandingOp>& op) {
  // Read `completed` under out_mu_: the await may have TIMED OUT with
  // the reply handler mid-assignment of op->reply. Observing completed
  // under the same lock that published it guarantees the reply is whole.
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    if (!op->completed) return;
  }
  std::lock_guard<std::mutex> guard(txn_mu_);
  if (op->harvested) return;
  op->harvested = true;
  auto it = txns_.find(op->txn);
  if (it == txns_.end()) return;
  auto& pending = it->second.pending_ops;
  pending.erase(std::remove(pending.begin(), pending.end(), op),
                pending.end());
  FoldReplyLocked(&it->second, *op);
}

void TransactionComponent::FoldReplyLocked(TxnState* state,
                                           const OutstandingOp& op) {
  const OperationReply& reply = op.reply;
  if (!reply.status.ok() || !IsWriteOp(op.request.op) ||
      op.record_type != TcLogRecordType::kOperation) {
    return;
  }
  const TableId table = op.request.table_id;
  const std::string& key = op.request.key;
  switch (op.request.op) {
    case OpType::kInsert:
      state->undo_chain.push_back(
          UndoEntry{reply.lsn, OpType::kInsert, table, key, "", false});
      break;
    case OpType::kUpdate:
      state->undo_chain.push_back(
          UndoEntry{reply.lsn, OpType::kUpdate, table, key, reply.value,
                    true});
      break;
    case OpType::kDelete:
      state->undo_chain.push_back(
          UndoEntry{reply.lsn, OpType::kDelete, table, key, reply.value,
                    true});
      break;
    case OpType::kUpsert:
      state->undo_chain.push_back(
          UndoEntry{reply.lsn, OpType::kUpsert, table, key, reply.value,
                    reply.has_before});
      break;
    default:
      return;  // version/DDL ops carry no logical undo
  }
  state->written_keys.emplace_back(table, key);
}

StatusOr<OperationReply> TransactionComponent::ExecuteOp(
    OperationRequest req, TxnId txn, TcLogRecordType record_type,
    Lsn undo_target) {
  Status error = Status::Crashed("tc is down");
  auto op = SubmitOp(std::move(req), txn, record_type, undo_target,
                     /*pipelined=*/false, &error);
  if (!op) return error;
  return AwaitOp(op);
}

// ---- Locking helpers -----------------------------------------------------------

Status TransactionComponent::LockForWrite(TxnId txn, TableId table,
                                          const std::string& key,
                                          bool is_insert) {
  if (options_.range_protocol == RangeLockProtocol::kPartition) {
    return locks_->Lock(txn, RangeLockName(table,
                                           options_.partitions.PartitionOf(key)),
                        LockMode::kExclusive);
  }
  Status s = locks_->Lock(txn, RecordLockName(table, key),
                          LockMode::kExclusive);
  if (!s.ok()) return s;
  if (is_insert && options_.insert_phantom_protection) {
    // Key-range-style protection: probe and instant-lock the next key so
    // a serializable scan covering the gap blocks this insert (§3.1).
    OperationRequest probe;
    probe.op = OpType::kProbeNext;
    probe.table_id = table;
    probe.key = key;
    probe.limit = 2;
    stats_.probes.fetch_add(1);
    StatusOr<OperationReply> reply = ExecuteOp(probe, txn);
    if (!reply.ok()) return reply.status();
    return LockGap(txn, table, key, reply->keys);
  }
  return Status::OK();
}

Status TransactionComponent::LockGap(TxnId txn, TableId table,
                                     const std::string& key,
                                     const std::vector<std::string>& keys) {
  std::string next_name = TableEofLockName(table);
  for (const auto& k : keys) {
    if (k != key) {
      next_name = RecordLockName(table, k);
      break;
    }
  }
  return locks_->LockInstant(txn, next_name, LockMode::kExclusive);
}

Status TransactionComponent::LockForRead(TxnId txn, TableId table,
                                         const std::string& key) {
  if (options_.range_protocol == RangeLockProtocol::kPartition) {
    return locks_->Lock(txn, RangeLockName(table,
                                           options_.partitions.PartitionOf(key)),
                        LockMode::kShared);
  }
  return locks_->Lock(txn, RecordLockName(table, key), LockMode::kShared);
}

// ---- Pipelined asynchronous surface ---------------------------------------------

TransactionComponent::OpHandle TransactionComponent::SubmitLocked(
    TxnId txn, OperationRequest req) {
  OpHandle handle;
  Status error = Status::Crashed("tc is down");
  handle.op_ = SubmitOp(std::move(req), txn, TcLogRecordType::kOperation,
                        kInvalidLsn, /*pipelined=*/true, &error);
  if (!handle.op_) handle.submit_status_ = error;
  return handle;
}

TransactionComponent::OpHandle TransactionComponent::SubmitRead(
    TxnId txn, TableId table, const std::string& key) {
  OpHandle handle;
  Status s = LockForRead(txn, table, key);
  if (!s.ok()) {
    if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
    handle.submit_status_ = s;
    return handle;
  }
  OperationRequest req;
  req.op = OpType::kRead;
  req.table_id = table;
  req.key = key;
  req.read_flavor = ReadFlavor::kOwn;
  return SubmitLocked(txn, std::move(req));
}

TransactionComponent::OpHandle TransactionComponent::SubmitInsert(
    TxnId txn, TableId table, const std::string& key,
    const std::string& value) {
  OpHandle handle;
  Status s = LockForWrite(txn, table, key, /*is_insert=*/true);
  if (!s.ok()) {
    if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
    handle.submit_status_ = s;
    return handle;
  }
  OperationRequest req;
  req.op = OpType::kInsert;
  req.table_id = table;
  req.key = key;
  req.value = value;
  req.versioned = options_.versioning;
  return SubmitLocked(txn, std::move(req));
}

TransactionComponent::OpHandle TransactionComponent::SubmitUpdate(
    TxnId txn, TableId table, const std::string& key,
    const std::string& value) {
  OpHandle handle;
  Status s = LockForWrite(txn, table, key, /*is_insert=*/false);
  if (!s.ok()) {
    if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
    handle.submit_status_ = s;
    return handle;
  }
  OperationRequest req;
  req.op = OpType::kUpdate;
  req.table_id = table;
  req.key = key;
  req.value = value;
  req.versioned = options_.versioning;
  return SubmitLocked(txn, std::move(req));
}

TransactionComponent::OpHandle TransactionComponent::SubmitDelete(
    TxnId txn, TableId table, const std::string& key) {
  OpHandle handle;
  Status s = LockForWrite(txn, table, key, /*is_insert=*/false);
  if (!s.ok()) {
    if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
    handle.submit_status_ = s;
    return handle;
  }
  OperationRequest req;
  req.op = OpType::kDelete;
  req.table_id = table;
  req.key = key;
  req.versioned = options_.versioning;
  return SubmitLocked(txn, std::move(req));
}

TransactionComponent::OpHandle TransactionComponent::SubmitUpsert(
    TxnId txn, TableId table, const std::string& key,
    const std::string& value) {
  // Under fetch-ahead phantom protection an upsert first tries the key in
  // place: a present key changes no key range, so its X lock covers the
  // write and that one round trip is the whole upsert. Only an absent
  // key pays the gap lock, taken from the refusal's next key.
  const bool in_place =
      options_.insert_phantom_protection &&
      options_.range_protocol == RangeLockProtocol::kFetchAhead;
  // The in-place attempt needs only the key's own X lock.
  Status s = LockForWrite(txn, table, key, /*is_insert=*/!in_place);
  OperationRequest req;
  req.op = OpType::kUpsert;
  req.table_id = table;
  req.key = key;
  req.value = value;
  req.versioned = options_.versioning;
  if (s.ok() && in_place) {
    OperationRequest attempt = req;
    attempt.if_present = true;
    OpHandle tried = SubmitLocked(txn, std::move(attempt));
    if (!tried.op_) return tried;
    StatusOr<OperationReply> reply = AwaitOp(tried.op_);
    // Applied, failed or timed out: the caller's Await reports it.
    if (!reply.ok() || !reply->absent) return tried;
    stats_.probes.fetch_add(1);
    DropRefusedAttempt(tried.op_);
    s = LockGap(txn, table, key, reply->keys);
  }
  if (!s.ok()) {
    if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
    OpHandle handle;
    handle.submit_status_ = s;
    return handle;
  }
  return SubmitLocked(txn, std::move(req));
}

void TransactionComponent::DropRefusedAttempt(
    const std::shared_ptr<OutstandingOp>& op) {
  std::lock_guard<std::mutex> guard(txn_mu_);
  op->harvested = true;  // a refusal carries no undo
  auto it = txns_.find(op->txn);
  if (it == txns_.end()) return;
  auto& pending = it->second.pending_ops;
  // The attempt was the submitter's latest op, so it sits at the back
  // unless another thread submitted to the same txn meanwhile.
  if (!pending.empty() && pending.back() == op) {
    pending.pop_back();
    return;
  }
  auto pos = std::find(pending.begin(), pending.end(), op);
  if (pos != pending.end()) pending.erase(pos);
}

Status TransactionComponent::Await(OpHandle* handle, std::string* value) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  if (!handle->submit_status_.ok()) return handle->submit_status_;
  if (!handle->op_) return Status::InvalidArgument("empty handle");
  StatusOr<OperationReply> reply = AwaitOp(handle->op_);
  if (!reply.ok()) return reply.status();
  HarvestReply(handle->op_);
  if (reply->status.ok() && value != nullptr &&
      handle->op_->request.op == OpType::kRead) {
    *value = reply->value;
  }
  return reply->status;
}

Status TransactionComponent::AwaitAll(TxnId txn) {
  std::vector<std::shared_ptr<OutstandingOp>> pending;
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return Status::OK();  // nothing pending
    pending = it->second.pending_ops;
  }
  if (pending.empty()) return Status::OK();
  // One flush per DC pushes every coalesced batch onto the wire at once.
  for (const auto& binding : dcs_) binding.client->FlushOperations();
  Status first;
  for (const auto& op : pending) {
    StatusOr<OperationReply> reply = AwaitOp(op);
    const Status s = reply.ok() ? reply->status : reply.status();
    if (first.ok() && !s.ok()) first = s;
  }
  // Harvest in one pass: fold every completed reply, then compact the
  // pending list once. Ops that did not complete stay pending for Abort.
  std::vector<bool> completed(pending.size());
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    for (size_t i = 0; i < pending.size(); ++i) {
      completed[i] = pending[i]->completed;
    }
  }
  std::lock_guard<std::mutex> guard(txn_mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) return first;
  for (size_t i = 0; i < pending.size(); ++i) {
    OutstandingOp& op = *pending[i];
    if (!completed[i] || op.harvested) continue;
    op.harvested = true;
    FoldReplyLocked(&it->second, op);
  }
  auto& list = it->second.pending_ops;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [](const std::shared_ptr<OutstandingOp>& op) {
                              return op->harvested;
                            }),
             list.end());
  return first;
}

// ---- Transaction API ------------------------------------------------------------

StatusOr<TxnId> TransactionComponent::Begin() {
  if (crashed_.load()) return Status::Crashed("tc is down");
  TxnId id;
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    id = next_txn_++;
    txns_[id] = TxnState{id, {}, {}, {}};
  }
  TcLogRecord rec;
  rec.type = TcLogRecordType::kBegin;
  rec.txn = id;
  std::string payload;
  rec.EncodeTo(&payload);
  log_.Append(std::move(payload));
  stats_.txns_begun.fetch_add(1);
  return id;
}

// The blocking API is the async surface awaited immediately: one submit,
// one await, identical per-op behavior — and one code path to maintain.

Status TransactionComponent::Read(TxnId txn, TableId table,
                                  const std::string& key,
                                  std::string* value) {
  OpHandle handle = SubmitRead(txn, table, key);
  return Await(&handle, value);
}

Status TransactionComponent::Insert(TxnId txn, TableId table,
                                    const std::string& key,
                                    const std::string& value) {
  OpHandle handle = SubmitInsert(txn, table, key, value);
  return Await(&handle);
}

Status TransactionComponent::Update(TxnId txn, TableId table,
                                    const std::string& key,
                                    const std::string& value) {
  OpHandle handle = SubmitUpdate(txn, table, key, value);
  return Await(&handle);
}

Status TransactionComponent::Delete(TxnId txn, TableId table,
                                    const std::string& key) {
  OpHandle handle = SubmitDelete(txn, table, key);
  return Await(&handle);
}

Status TransactionComponent::Upsert(TxnId txn, TableId table,
                                    const std::string& key,
                                    const std::string& value) {
  OpHandle handle = SubmitUpsert(txn, table, key, value);
  return Await(&handle);
}

Status TransactionComponent::CreateTable(TableId table,
                                         const std::string& routing_key) {
  OperationRequest req;
  req.op = OpType::kCreateTable;
  req.table_id = table;
  req.key = routing_key;
  StatusOr<OperationReply> reply = ExecuteOp(req, kInvalidTxnId);
  if (!reply.ok()) return reply.status();
  if (reply->status.ok()) {
    // DDL is auto-committed: force its log record so the table's
    // existence survives an immediate TC crash.
    log_.ForceTo(reply->lsn - 1);
  }
  return reply->status;
}

Status TransactionComponent::ReadShared(TableId table, const std::string& key,
                                        ReadFlavor flavor,
                                        std::string* value) {
  OperationRequest req;
  req.op = OpType::kRead;
  req.table_id = table;
  req.key = key;
  req.read_flavor = flavor;
  StatusOr<OperationReply> reply = ExecuteOp(req, kInvalidTxnId);
  if (!reply.ok()) return reply.status();
  if (reply->status.ok()) *value = reply->value;
  return reply->status;
}

// ---- Commit / Abort -------------------------------------------------------------

Status TransactionComponent::Commit(TxnId txn) {
  // Drain the pipeline first: every submitted op must have reported back
  // (and fed the undo chain) before the commit record is cut. A pipelined
  // op that failed surfaces here and blocks the commit — the transaction
  // stays open for the caller to abort.
  Status drain = AwaitAll(txn);
  if (!drain.ok()) return drain;

  TxnState state;
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return Status::NotFound("unknown transaction");
    state = it->second;
  }

  TcLogRecord rec;
  rec.type = TcLogRecordType::kCommit;
  rec.txn = txn;
  std::string payload;
  rec.EncodeTo(&payload);
  const uint64_t commit_index = log_.Append(std::move(payload));

  // Log force for durability (§4.1.1(4)); read-only txns skip the force.
  if (!state.undo_chain.empty()) {
    if (options_.group_commit) {
      // Wake the forcer now instead of waiting out its interval tick —
      // sub-millisecond group-commit windows stay sub-millisecond.
      stats_.group_commit_wakes.fetch_add(1);
      group_commit_daemon_.Poke();
      if (!log_.WaitStableThrough(commit_index, options_.commit_timeout_ms)) {
        return Status::TimedOut("group commit force did not complete");
      }
    } else {
      log_.ForceTo(commit_index);
    }
  }

  // §6.2.2: after the commit point, eliminate the before versions.
  if (options_.versioning && !state.written_keys.empty()) {
    Status s = FinishVersionedCommit(txn, state.written_keys);
    if (!s.ok()) return s;
  }

  locks_->ReleaseAll(txn);
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    txns_.erase(txn);
  }
  stats_.txns_committed.fetch_add(1);
  return Status::OK();
}

Status TransactionComponent::FinishVersionedCommit(
    TxnId txn,
    const std::vector<std::pair<TableId, std::string>>& written_keys) {
  if (crashed_.load()) return Status::Crashed("tc is down");
  // §6.2.2, batched: a K-key commit ships its kPromoteVersion ops as
  // ordered kOperationBatch messages — ceil(K / promote_batch_ops)
  // round trips per DC instead of one blocking trip per key. Each
  // promote still reserves its own LSN and seals a normal operation
  // record, so DC-crash redo resends them and repeated TC restarts stay
  // idempotent.
  std::set<std::pair<TableId, std::string>> seen;
  std::map<DcId, std::vector<std::pair<TableId, std::string>>> per_dc;
  for (const auto& [table, key] : written_keys) {
    if (!seen.insert({table, key}).second) continue;
    per_dc[Route(table, key)].emplace_back(table, key);
  }
  const size_t batch_cap = std::max<uint32_t>(1, options_.promote_batch_ops);
  for (auto& [dc, keys] : per_dc) {
    for (size_t base = 0; base < keys.size(); base += batch_cap) {
      const size_t count = std::min(batch_cap, keys.size() - base);
      std::vector<OperationRequest> chunk;
      std::vector<std::shared_ptr<OutstandingOp>> ops;
      chunk.reserve(count);
      ops.reserve(count);
      {
        std::lock_guard<std::mutex> guard(out_mu_);
        const auto now = std::chrono::steady_clock::now();
        for (size_t k = base; k < base + count; ++k) {
          OperationRequest req;
          req.op = OpType::kPromoteVersion;
          req.table_id = keys[k].first;
          req.key = keys[k].second;
          req.tc_id = options_.tc_id;
          req.lsn = log_.Reserve() + 1;
          auto op = std::make_shared<OutstandingOp>();
          op->request = req;
          op->txn = txn;
          op->dc = dc;
          op->last_send = now;
          outstanding_[req.lsn] = op;
          chunk.push_back(std::move(req));
          ops.push_back(std::move(op));
        }
      }
      stats_.ops_sent.fetch_add(chunk.size());
      stats_.promote_ops.fetch_add(chunk.size());
      stats_.promote_batches.fetch_add(1);
      ClientFor(dc)->SendOperationBatch(chunk);
      // Await the whole batch; a lost message is recovered per op by the
      // resend daemon (promotes are idempotent at the DC).
      for (const auto& op : ops) {
        StatusOr<OperationReply> reply = AwaitOp(op);
        if (!reply.ok()) return reply.status();
        if (!reply->status.ok()) return reply->status;
      }
    }
  }
  TcLogRecord end;
  end.type = TcLogRecordType::kTxnEnd;
  end.txn = txn;
  std::string payload;
  end.EncodeTo(&payload);
  log_.Append(std::move(payload));
  return Status::OK();
}

Status TransactionComponent::UndoTxnLocked(TxnState* state) {
  // Submit inverse logical operations in reverse chronological order
  // (§4.1.1(2b)), logging each as a CLR. Individually-awaited pipelined
  // ops may have been harvested out of submission order; LSN order is the
  // chronology that matters.
  std::stable_sort(state->undo_chain.begin(), state->undo_chain.end(),
                   [](const UndoEntry& a, const UndoEntry& b) {
                     return a.lsn < b.lsn;
                   });
  for (auto it = state->undo_chain.rbegin(); it != state->undo_chain.rend();
       ++it) {
    OperationRequest inverse;
    inverse.table_id = it->table;
    inverse.key = it->key;
    if (options_.versioning) {
      inverse.op = OpType::kRollbackVersion;
    } else {
      switch (it->op) {
        case OpType::kInsert:
          inverse.op = OpType::kDelete;
          break;
        case OpType::kUpdate:
          inverse.op = OpType::kUpdate;
          inverse.value = it->before;
          break;
        case OpType::kDelete:
          inverse.op = OpType::kInsert;
          inverse.value = it->before;
          break;
        case OpType::kUpsert:
          if (it->has_before) {
            inverse.op = OpType::kUpdate;
            inverse.value = it->before;
          } else {
            inverse.op = OpType::kDelete;
          }
          break;
        default:
          continue;
      }
    }
    StatusOr<OperationReply> reply =
        ExecuteOp(inverse, state->id, TcLogRecordType::kClr, it->lsn);
    if (!reply.ok()) return reply.status();
    // NotFound during versioned rollback is fine (idempotent).
  }
  return Status::OK();
}

Status TransactionComponent::Abort(TxnId txn) {
  // Drain the pipeline so every applied write is in the undo chain; the
  // ops' logical statuses don't matter (we are rolling back anyway).
  AwaitAll(txn);

  TxnState state;
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return Status::NotFound("unknown transaction");
    state = it->second;
  }
  Status undo = UndoTxnLocked(&state);
  if (!undo.ok()) return undo;

  TcLogRecord rec;
  rec.type = TcLogRecordType::kAbort;
  rec.txn = txn;
  std::string payload;
  rec.EncodeTo(&payload);
  log_.Append(std::move(payload));

  locks_->ReleaseAll(txn);
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    txns_.erase(txn);
  }
  stats_.txns_aborted.fetch_add(1);
  return Status::OK();
}

// ---- Checkpoint -------------------------------------------------------------------

Lsn TransactionComponent::rssp() const {
  std::lock_guard<std::mutex> guard(rssp_mu_);
  return rssp_;
}

bool TransactionComponent::AnyDcRecoveringLocked() const {
  for (const auto& [dc, recovering] : dc_recovering_) {
    if (recovering) return true;
  }
  return false;
}

size_t TransactionComponent::outstanding_ops() {
  std::lock_guard<std::mutex> guard(out_mu_);
  return outstanding_.size();
}

Status TransactionComponent::TakeCheckpoint() {
  if (crashed_.load()) return Status::Crashed("tc is down");
  // A DC that is down or replaying its redo would acknowledge a
  // checkpoint over pages that lack the redo, and truncation could drop
  // records its redo indexed but has not shipped yet.
  const Status dc_recovering = Status::Busy("a dc is recovering");
  uint64_t gate_closes;
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    if (AnyDcRecoveringLocked()) return dc_recovering;
    gate_closes = dc_gate_closes_;
  }
  // Candidate RSSP: every op at or below the LWM has completed; ask the
  // DCs to make pages with ops below it stable.
  log_.Force();
  const Lsn candidate = log_.sealed_prefix_end();
  PushControls();
  // A replicating DC may GRANT less than asked: it clamps below the
  // oldest op its slowest standby has not acked, so our log keeps what a
  // failover would need to resend. The RSSP advances only to the
  // smallest grant across DCs.
  Lsn granted_min = candidate;
  for (const auto& binding : dcs_) {
    ControlRequest req;
    req.type = ControlType::kCheckpoint;
    req.tc_id = options_.tc_id;
    req.lsn = candidate;
    StatusOr<ControlReply> reply = ControlAwait(binding.id, req, 60000);
    if (!reply.ok()) return reply.status();
    if (!reply->status.ok()) return reply->status;
    if (reply->rlsn != 0 && static_cast<Lsn>(reply->rlsn) < granted_min) {
      granted_min = static_cast<Lsn>(reply->rlsn);
    }
  }
  {
    // Re-check and advance the RSSP as one step: a DC recovery that
    // starts after this point indexes its redo from the new RSSP, which
    // the truncation below never passes.
    std::lock_guard<std::mutex> guard(out_mu_);
    if (AnyDcRecoveringLocked() || dc_gate_closes_ != gate_closes) {
      return dc_recovering;
    }
    std::lock_guard<std::mutex> rssp_guard(rssp_mu_);
    if (granted_min > rssp_) rssp_ = granted_min;
  }
  TcLogRecord rec;
  rec.type = TcLogRecordType::kCheckpoint;
  rec.rssp = granted_min;
  std::string payload;
  rec.EncodeTo(&payload);
  const uint64_t index = log_.Append(std::move(payload));
  log_.ForceTo(index);

  // Contract termination (§4.2): the log below min(RSSP, oldest active
  // txn begin) is no longer needed for redo or undo.
  Lsn oldest_active = granted_min;
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    for (const auto& [id, state] : txns_) {
      for (const auto& entry : state.undo_chain) {
        oldest_active = std::min(oldest_active, entry.lsn);
      }
    }
  }
  const Lsn keep_from = std::min(granted_min, oldest_active);
  if (keep_from > 1) log_.TruncatePrefix(keep_from - 1);
  {
    // Acked-rlsn records below the truncation point can never be resent
    // again; drop them with the log they describe.
    std::lock_guard<std::mutex> guard(out_mu_);
    for (auto& [dc, acked] : acked_rlsns_) {
      acked.erase(acked.begin(), acked.lower_bound(keep_from));
    }
  }
  stats_.checkpoints.fetch_add(1);
  return Status::OK();
}

// ---- Failures ---------------------------------------------------------------------

void TransactionComponent::Crash() {
  crashed_.store(true);
  log_.Crash();
  // Wake every waiter with a crash indication; volatile state is gone.
  std::map<Lsn, std::shared_ptr<OutstandingOp>> orphans;
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    orphans.swap(outstanding_);
    inflight_keys_.clear();
    window_counts_.clear();
    // Acked-rlsn records are volatile: a restarted TC full-resends.
    acked_rlsns_.clear();
    // The DC-recovering gates are volatile state too: Restart() performs
    // the full redo-resend itself, and a surviving gate would hold every
    // post-restart streamed scan forever.
    dc_recovering_.clear();
    window_cv_.notify_all();
    dc_ready_cv_.notify_all();
  }
  for (auto& [lsn, op] : orphans) {
    op->completed = true;
    op->reply.status = Status::Crashed("tc crashed");
    op->done.Notify();
  }
  {
    std::lock_guard<std::mutex> guard(control_mu_);
    for (auto& [seq, pending] : pending_controls_) {
      pending->reply.status = Status::Crashed("tc crashed");
      pending->done.Notify();
    }
    pending_controls_.clear();
  }
  {
    std::lock_guard<std::mutex> guard(stream_mu_);
    for (auto& [id, stream] : streams_) {
      std::lock_guard<std::mutex> stream_guard(stream->mu);
      stream->failed = true;
      stream->cv.notify_all();
    }
    streams_.clear();
  }
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    txns_.clear();
  }
  locks_ = std::make_unique<LockManager>(options_.locks);
}

Status TransactionComponent::Analyze(AnalysisResult* out) {
  out->rssp = 1;
  const uint64_t begin = log_.truncated_prefix();
  const uint64_t end = log_.stable_end();
  if (begin > 0) out->rssp = begin + 1;
  std::map<TxnId, bool> versioned_txn;
  for (uint64_t i = begin; i < end; ++i) {
    std::string payload;
    if (!log_.ReadAt(i, &payload).ok()) {
      return Status::Corruption("unreadable tc log record");
    }
    Slice in(payload);
    TcLogRecord rec;
    if (!TcLogRecord::DecodeFrom(&in, &rec)) {
      return Status::Corruption("bad tc log record");
    }
    const Lsn lsn = i + 1;
    if (const std::optional<DcId> dc = RedoTarget(rec)) {
      out->redo[*dc].push_back(i);
    }
    switch (rec.type) {
      case TcLogRecordType::kCheckpoint:
        if (rec.rssp > out->rssp) out->rssp = rec.rssp;
        break;
      case TcLogRecordType::kBegin:
        out->losers[rec.txn] = TxnState{rec.txn, {}, {}, {}};
        break;
      case TcLogRecordType::kOperation: {
        if (rec.txn == kInvalidTxnId || !rec.applied || !IsWriteOp(rec.op) ||
            rec.op == OpType::kPromoteVersion ||
            rec.op == OpType::kRollbackVersion) {
          break;
        }
        // A checkpoint keeps the log from an open txn's first operation,
        // so its begin record may be truncated: the operation itself
        // makes the txn a loser until its commit or abort shows up.
        TxnState& state =
            out->losers.try_emplace(rec.txn, TxnState{rec.txn, {}, {}, {}})
                .first->second;
        state.undo_chain.push_back(UndoEntry{lsn, rec.op, rec.table_id,
                                             rec.key, rec.before,
                                             rec.has_before});
        state.written_keys.emplace_back(rec.table_id, rec.key);
        if (rec.versioned) versioned_txn[rec.txn] = true;
        break;
      }
      case TcLogRecordType::kClr:
        out->undone[rec.txn].push_back(rec.undo_target);
        break;
      case TcLogRecordType::kCommit: {
        auto it = out->losers.find(rec.txn);
        if (it != out->losers.end()) {
          if (versioned_txn.count(rec.txn) > 0) {
            out->committed_pending_promote[rec.txn] =
                it->second.written_keys;
          }
          out->losers.erase(it);
        }
        break;
      }
      case TcLogRecordType::kAbort:
        out->losers.erase(rec.txn);
        break;
      case TcLogRecordType::kTxnEnd:
        out->committed_pending_promote.erase(rec.txn);
        break;
    }
  }
  // Redo starts at the RSSP, which the last checkpoint record fixed only
  // once the scan had passed the records below it.
  for (auto it = out->redo.begin(); it != out->redo.end();) {
    auto& indices = it->second;
    indices.erase(indices.begin(),
                  std::lower_bound(indices.begin(), indices.end(),
                                   out->rssp - 1));
    it = indices.empty() ? out->redo.erase(it) : std::next(it);
  }
  return Status::OK();
}

std::optional<DcId> TransactionComponent::RedoTarget(
    const TcLogRecord& rec) const {
  if (rec.type != TcLogRecordType::kOperation &&
      rec.type != TcLogRecordType::kClr) {
    return std::nullopt;
  }
  if (!IsWriteOp(rec.op)) return std::nullopt;  // reads have no redo effect
  // Logically-failed operations (NotFound / AlreadyExists) had no
  // effect; re-executing them against recovered state could produce a
  // DIFFERENT outcome. Version ops are always resent (idempotent).
  if (!rec.applied && rec.op != OpType::kPromoteVersion &&
      rec.op != OpType::kRollbackVersion) {
    return std::nullopt;
  }
  return Route(rec.table_id, rec.key);
}

Status TransactionComponent::RedoResend(Lsn from_lsn, DcId only_dc,
                                        bool all_dcs,
                                        uint64_t dc_redo_end) {
  // Snapshot the acked-rlsn records for the target DC: ops the revived
  // DC's redo log already holds (recorded rlsn <= its surviving end) are
  // skipped below — the suffix-only resend.
  std::map<Lsn, uint64_t> acked;
  if (dc_redo_end != 0 && !all_dcs) {
    std::lock_guard<std::mutex> guard(out_mu_);
    auto it = acked_rlsns_.find(only_dc);
    if (it != acked_rlsns_.end()) acked = it->second;
  }
  const uint64_t begin =
      std::max<uint64_t>(from_lsn == 0 ? 0 : from_lsn - 1,
                         log_.truncated_prefix());
  // Resend through the sealed prefix, not just the stable one: a healthy
  // TC resending after a DC crash or an escalation (§6.1.2) still owns
  // its sealed-but-unforced tail (e.g. post-commit version promotes).
  // After a TC crash, Crash() already dropped the volatile tail, so
  // sealed == stable and this is exactly the stable log.
  const uint64_t end = log_.sealed_prefix_end();

  // Index the redo operations per DC, in LSN order. A key maps to exactly
  // one DC, so per-DC order is all that conflicting operations need
  // ("redo repeats history by delivering operations in the correct order
  // to the DC", §3.2).
  RedoIndex index;
  for (uint64_t i = begin; i < end; ++i) {
    std::string payload;
    if (!log_.ReadAt(i, &payload).ok()) {
      return Status::Corruption("unreadable tc log record in redo range");
    }
    Slice in(payload);
    TcLogRecord rec;
    if (!TcLogRecord::DecodeFrom(&in, &rec)) {
      return Status::Corruption("bad tc log record in redo range");
    }
    const std::optional<DcId> dc = RedoTarget(rec);
    if (!dc || (!all_dcs && *dc != only_dc)) continue;
    if (dc_redo_end != 0 && !all_dcs) {
      auto ack_it = acked.find(static_cast<Lsn>(i + 1));
      if (ack_it != acked.end() && ack_it->second <= dc_redo_end) {
        stats_.suffix_skipped_ops.fetch_add(1);
        continue;
      }
    }
    index[*dc].push_back(i);
  }
  return ShipRedo(index);
}

Status TransactionComponent::ShipRedo(const RedoIndex& index) {
  // The DCs are independent, so their streams run concurrently: restart
  // takes as long as the slowest DC's redo, not the sum of them all.
  const auto start = std::chrono::steady_clock::now();
  std::vector<Status> results(index.size());
  std::vector<std::thread> workers;
  workers.reserve(index.size());
  size_t slot = 0;
  for (const auto& stream : index) {
    workers.emplace_back([this, &stream, &result = results[slot++]] {
      result = ShipDcRedo(stream.first, stream.second);
    });
  }
  for (auto& worker : workers) worker.join();
  stats_.redo_ship_us.fetch_add(MicrosSince(start));
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status TransactionComponent::ShipDcRedo(DcId dc,
                                        const std::vector<uint64_t>& indices) {
  // Ordered kOperationBatch messages — one round trip per batch instead
  // of one per op. A batch executes in request order at the DC
  // (PerformBatch) and is awaited before the next is sent, preserving
  // LSN order.
  static const bool trace_redo = getenv("UNTX_TRACE") != nullptr;
  const size_t batch_cap = std::max<uint32_t>(1, options_.recovery_batch_ops);
  for (size_t base = 0; base < indices.size(); base += batch_cap) {
    const size_t count = std::min(batch_cap, indices.size() - base);
    std::vector<OperationRequest> chunk;
    chunk.reserve(count);
    for (size_t k = base; k < base + count; ++k) {
      const uint64_t i = indices[k];
      // A record the index named must still be there: skipping it would
      // silently lose its effect at the DC.
      std::string payload;
      if (!log_.ReadAt(i, &payload).ok()) {
        return Status::Corruption("indexed redo record unreadable");
      }
      Slice in(payload);
      TcLogRecord rec;
      if (!TcLogRecord::DecodeFrom(&in, &rec)) {
        return Status::Corruption("indexed redo record undecodable");
      }
      OperationRequest req;
      req.tc_id = options_.tc_id;
      req.lsn = i + 1;
      req.op = rec.op;
      req.table_id = rec.table_id;
      req.key = std::move(rec.key);
      req.value = std::move(rec.value);
      req.versioned = rec.versioned;
      req.recovery_resend = true;
      if (trace_redo) {
        fprintf(stderr, "[tc%u] REDO lsn=%llu op=%d t=%u key=%s dc=%u\n",
                options_.tc_id, (unsigned long long)req.lsn, (int)req.op,
                req.table_id, req.key.c_str(), dc);
      }
      chunk.push_back(std::move(req));
    }
    std::vector<std::shared_ptr<OutstandingOp>> ops;
    ops.reserve(chunk.size());
    {
      std::lock_guard<std::mutex> guard(out_mu_);
      const auto now = std::chrono::steady_clock::now();
      for (const auto& req : chunk) {
        auto op = std::make_shared<OutstandingOp>();
        op->request = req;
        op->dc = dc;
        op->needs_seal = false;
        // Stamp the send time: ResendPass must not judge the batch
        // stale on its next tick and flood per-op resends while the
        // batch message is legitimately in flight.
        op->last_send = now;
        outstanding_[req.lsn] = op;
        ops.push_back(std::move(op));
      }
    }
    // Send directly: the per-DC "recovering" gate only holds back the
    // background resend daemon, not the recovery driver itself.
    stats_.recovery_resent_ops.fetch_add(chunk.size());
    stats_.recovery_resend_msgs.fetch_add(1);
    ClientFor(dc)->SendOperationBatch(chunk);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.op_timeout_ms);
    const auto resend_age =
        std::chrono::milliseconds(options_.resend_interval_ms);
    auto last_batch_send = std::chrono::steady_clock::now();
    for (size_t i = 0; i < ops.size(); ++i) {
      while (!ops[i]->done.WaitFor(std::chrono::milliseconds(
          std::max<uint32_t>(options_.resend_interval_ms, 10)))) {
        const auto now = std::chrono::steady_clock::now();
        if (now > deadline) {
          std::lock_guard<std::mutex> guard(out_mu_);
          for (size_t j = i; j < ops.size(); ++j) {
            outstanding_.erase(ops[j]->request.lsn);
          }
          return Status::TimedOut("recovery resend not acknowledged");
        }
        // One resend per resend_interval for the whole batch (the
        // ResendPass contract) — per-op waits must not compound into
        // several suffix resends inside one interval while the batch is
        // still legitimately in flight.
        if (now - last_batch_send < resend_age) continue;
        // A lost batch (or reply) loses every op it carried: resend the
        // still-unacknowledged suffix as one message. Ops before the
        // suffix are complete, so order is preserved; re-executions are
        // absorbed by the DC's idempotence.
        std::vector<OperationRequest> again;
        {
          std::lock_guard<std::mutex> guard(out_mu_);
          for (size_t j = i; j < ops.size(); ++j) {
            if (ops[j]->completed) continue;
            ops[j]->last_send = now;  // keep ResendPass off this batch
            again.push_back(ops[j]->request);
          }
        }
        if (again.empty()) continue;  // completed while assembling
        stats_.resends.fetch_add(1);
        stats_.recovery_resend_msgs.fetch_add(1);
        last_batch_send = now;
        ClientFor(dc)->SendOperationBatch(again);
      }
      if (ops[i]->reply.status.IsCrashed()) {
        // The TC crashed mid-batch: deregister the unacknowledged
        // remainder so the resend daemon doesn't hammer the DC with
        // orphaned recovery ops nobody awaits. (The failed recovery will
        // be re-driven from the log.)
        std::lock_guard<std::mutex> guard(out_mu_);
        for (size_t j = i + 1; j < ops.size(); ++j) {
          outstanding_.erase(ops[j]->request.lsn);
        }
        return Status::Crashed("crash during recovery resend");
      }
    }
  }
  return Status::OK();
}

Status TransactionComponent::Restart(std::vector<TcId>* escalate_out) {
  // The stable log is all that survived (§5.3.2 "TC Failure").
  crashed_.store(false);
  stats_.recoveries.fetch_add(1);
  {
    // Any per-DC recovering gate predates the crash: this restart
    // redo-resends to every DC itself, and a stale gate would hold
    // post-restart streamed scans forever.
    std::lock_guard<std::mutex> guard(out_mu_);
    dc_recovering_.clear();
    dc_ready_cv_.notify_all();
  }

  auto stage_start = std::chrono::steady_clock::now();
  AnalysisResult analysis;
  Status s = Analyze(&analysis);
  stats_.restart_analyze_us.fetch_add(MicrosSince(stage_start));
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> guard(rssp_mu_);
    rssp_ = analysis.rssp;
  }

  // 1. Reset: each DC discards state reflecting operations beyond the
  //    stable log end (they are lost forever). Push fresh EOSL/LWM first
  //    so the DC can settle (force) every DC-log batch that is still
  //    eligible before deciding what to discard.
  stage_start = std::chrono::steady_clock::now();
  PushControls();
  const Lsn stable_end = log_.stable_end();
  std::vector<TcId> escalate;
  auto report_escalations = [&escalate, escalate_out] {
    if (escalate_out == nullptr) return;
    std::sort(escalate.begin(), escalate.end());
    escalate.erase(std::unique(escalate.begin(), escalate.end()),
                   escalate.end());
    *escalate_out = escalate;
  };
  for (const auto& binding : dcs_) {
    ControlRequest req;
    req.type = ControlType::kRestartBegin;
    req.tc_id = options_.tc_id;
    req.lsn = stable_end;
    StatusOr<ControlReply> reply = ControlAwait(binding.id, req, 60000);
    if (!reply.ok()) {
      report_escalations();
      return reply.status();
    }
    for (TcId tc : reply->escalate_tcs) escalate.push_back(tc);
    if (!reply->status.ok()) {
      // A failed reset may still have dropped other TCs' effects: they
      // must resend whether or not this restart is retried.
      report_escalations();
      return reply->status;
    }
  }
  PushControls();
  stats_.restart_reset_us.fetch_add(MicrosSince(stage_start));

  // 2. Redo: ship the index the analysis scan built from the RSSP — per
  //    DC in LSN order, one concurrent stream per DC.
  s = ShipRedo(analysis.redo);
  if (!s.ok()) return s;

  // 3. Undo losers with inverse logical operations (CLR-logged).
  {
    std::lock_guard<std::mutex> guard(txn_mu_);
    TxnId max_seen = next_txn_;
    for (const auto& [id, state] : analysis.losers) {
      max_seen = std::max(max_seen, id + 1);
    }
    next_txn_ = max_seen;
  }
  for (auto& [id, state] : analysis.losers) {
    // Skip operations already compensated by a stable CLR.
    const auto undone_it = analysis.undone.find(id);
    if (undone_it != analysis.undone.end()) {
      std::set<Lsn> undone(undone_it->second.begin(),
                           undone_it->second.end());
      auto& chain = state.undo_chain;
      chain.erase(std::remove_if(chain.begin(), chain.end(),
                                 [&undone](const UndoEntry& e) {
                                   return undone.count(e.lsn) > 0;
                                 }),
                  chain.end());
    }
    s = UndoTxnLocked(&state);
    if (!s.ok()) return s;
    TcLogRecord rec;
    rec.type = TcLogRecordType::kAbort;
    rec.txn = id;
    std::string payload;
    rec.EncodeTo(&payload);
    log_.Append(std::move(payload));
  }

  // 4. Finish version promotion for committed-but-unpromoted txns.
  for (const auto& [id, keys] : analysis.committed_pending_promote) {
    s = FinishVersionedCommit(id, keys);
    if (!s.ok()) return s;
  }

  // 5. Resume normal processing.
  for (const auto& binding : dcs_) {
    ControlRequest req;
    req.type = ControlType::kRestartEnd;
    req.tc_id = options_.tc_id;
    ControlAwait(binding.id, req, 10000);
  }
  log_.Force();
  PushControls();
  report_escalations();
  return Status::OK();
}

void TransactionComponent::OnDcCrash(DcId dc) {
  std::lock_guard<std::mutex> guard(out_mu_);
  dc_recovering_[dc] = true;
  ++dc_gate_closes_;
}

Status TransactionComponent::OnDcRestart(DcId dc) {
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    dc_recovering_[dc] = true;
    ++dc_gate_closes_;
  }
  PushControls();
  // Ask the revived DC whether it recovered (or was promoted) with a
  // redo-log prefix intact: if so, only ops past that prefix — the
  // unacknowledged in-flight suffix — need resending. rlsn 0 (no log,
  // or state not known to reflect it) degrades to the full resend.
  uint64_t dc_redo_end = 0;
  {
    ControlRequest req;
    req.type = ControlType::kQueryReplication;
    req.tc_id = options_.tc_id;
    StatusOr<ControlReply> qr = ControlAwait(dc, req, 10000);
    if (qr.ok() && qr->status.ok() && qr->replication_enabled) {
      dc_redo_end = qr->rlsn;
    }
  }
  Status s = RedoResend(rssp(), dc, /*all_dcs=*/false, dc_redo_end);
  {
    std::lock_guard<std::mutex> guard(out_mu_);
    dc_recovering_[dc] = false;
    dc_ready_cv_.notify_all();
  }
  if (s.ok()) {
    // Redo complete: re-arm the LWM contract at the recovered DC.
    ControlRequest req;
    req.type = ControlType::kRestartEnd;
    req.tc_id = options_.tc_id;
    ControlAwait(dc, req, 10000);
  }
  resend_daemon_.Poke();
  return s;
}

Status TransactionComponent::ResendFromRssp() {
  Status s = RedoResend(rssp(), /*only_dc=*/0, /*all_dcs=*/true);
  if (!s.ok()) return s;
  // Escalated resend complete (§6.1.2): re-arm the LWM contract.
  for (const auto& binding : dcs_) {
    ControlRequest req;
    req.type = ControlType::kRestartEnd;
    req.tc_id = options_.tc_id;
    ControlAwait(binding.id, req, 10000);
  }
  return s;
}

}  // namespace untx
