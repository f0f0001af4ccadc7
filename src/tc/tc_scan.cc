// TransactionComponent, scan half: the §3.1 range scans and the
// streamed-scan machinery they run on (one credited kScanStream per
// range, chunk reassembly, stall detection and resume). The rest of the
// class lives in transaction_component.cc.
#include "tc/transaction_component.h"

#include <algorithm>
#include <set>

namespace untx {

std::chrono::milliseconds TransactionComponent::StallWait(
    const std::shared_ptr<ScanStream>& stream, std::chrono::milliseconds cap) {
  int64_t ewma_us;
  {
    std::lock_guard<std::mutex> guard(stream->mu);
    ewma_us = stream->ewma_gap_us;
  }
  if (ewma_us <= 0) return cap;  // no signal yet: the conservative wait
  const auto adaptive =
      std::chrono::milliseconds(std::max<int64_t>(2, (4 * ewma_us) / 1000));
  return std::min(adaptive, cap);
}

Status TransactionComponent::WaitStreamChunk(
    const std::shared_ptr<ScanStream>& stream, std::chrono::milliseconds wait,
    ScanStreamChunk* chunk, bool* got) {
  *got = false;
  std::unique_lock<std::mutex> lock(stream->mu);
  stream->cv.wait_for(lock, wait, [&] {
    return stream->failed || stream->chunks.count(stream->next_index) > 0;
  });
  if (stream->failed) return Status::Crashed("tc crashed during scan");
  auto it = stream->chunks.find(stream->next_index);
  if (it == stream->chunks.end()) return Status::OK();  // stall
  *chunk = std::move(it->second);
  stream->chunks.erase(it);
  ++stream->next_index;
  *got = true;
  return Status::OK();
}

Status TransactionComponent::WaitDcReady(
    DcId dc, std::chrono::steady_clock::time_point deadline) {
  // Hold the attempt while the DC replays its redo: a stream issued
  // mid-redo would scan a partially re-populated tree and could declare
  // the range exhausted early. Every gate-opening path notifies
  // dc_ready_cv_, so the wait ends the moment redo completes instead of
  // on the next poll tick; the 50ms slice only bounds a lost wakeup.
  std::unique_lock<std::mutex> lock(out_mu_);
  for (;;) {
    auto it = dc_recovering_.find(dc);
    const bool recovering = it != dc_recovering_.end() && it->second;
    if (!recovering) return Status::OK();
    if (crashed_.load()) return Status::Crashed("tc is down");
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) {
      return Status::TimedOut("scan held for dc recovery");
    }
    dc_ready_cv_.wait_until(
        lock, std::min(deadline, now + std::chrono::milliseconds(50)));
  }
}

Status TransactionComponent::StreamScan(
    TableId table, const std::string& from, const std::string& to,
    uint32_t limit, ReadFlavor flavor,
    const std::function<bool(const std::string&, const std::string&)>&
        emit_row) {
  std::string last_key;  // monotonic dedup filter across restarts
  bool have_last = false;
  uint64_t delivered = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.op_timeout_ms);
  const auto chunk_wait = std::chrono::milliseconds(
      std::max<uint32_t>(options_.resend_interval_ms, 20));
  const uint32_t credit = options_.scan_credit_chunks;
  stats_.scan_streams.fetch_add(1);
  for (bool first_attempt = true;; first_attempt = false) {
    if (crashed_.load()) return Status::Crashed("tc is down");
    if (!first_attempt) stats_.scan_restarts.fetch_add(1);
    ScanStreamRequest sreq;
    sreq.base.op = OpType::kScanRange;
    sreq.base.tc_id = options_.tc_id;
    sreq.base.lsn = next_stream_id_.fetch_add(1);  // stream id, not a log LSN
    sreq.base.table_id = table;
    sreq.base.key = have_last ? last_key : from;
    sreq.base.exclusive_start = have_last;
    sreq.base.end_key = to;
    sreq.base.read_flavor = flavor;
    sreq.base.limit =
        limit == 0 ? 0 : limit - static_cast<uint32_t>(delivered);
    sreq.chunk_rows = options_.scan_stream_chunk;
    sreq.credit_chunks = credit;
    auto stream = std::make_shared<ScanStream>();
    {
      std::lock_guard<std::mutex> guard(stream_mu_);
      streams_[sreq.base.lsn] = stream;
    }
    auto deregister = [&] {
      std::lock_guard<std::mutex> guard(stream_mu_);
      streams_.erase(sreq.base.lsn);
    };
    const DcId dc = Route(table, sreq.base.key);
    Status ready = WaitDcReady(dc, deadline);
    if (!ready.ok()) {
      deregister();
      return ready;
    }
    ClientFor(dc)->SendScanStream(sreq);
    // Flow control: the DC pauses after `credit` chunks; replenish (with
    // an ABSOLUTE window, so duplicated credits are harmless) as the
    // cursor drains. On a stall the credit is re-sent before the stream
    // is given up — a lost credit must not wedge the scan.
    uint32_t allowed = credit;
    int stall_resends = 0;
    auto send_credit = [&](bool resend) {
      ScanCreditRequest cr;
      cr.tc_id = options_.tc_id;
      cr.stream_id = sreq.base.lsn;
      cr.allowed_chunks = allowed;
      ClientFor(dc)->SendScanCredit(cr);
      if (resend) {
        stats_.scan_credit_resends.fetch_add(1);
      } else {
        stats_.scan_credits_sent.fetch_add(1);
      }
    };
    auto send_close = [&] {
      ScanCreditRequest cr;
      cr.tc_id = options_.tc_id;
      cr.stream_id = sreq.base.lsn;
      cr.allowed_chunks = allowed;
      cr.close = true;
      ClientFor(dc)->SendScanCredit(cr);
    };
    // Continuity cursor: each consumed chunk must have been produced
    // from exactly the position the previous one ended at. A duplicated
    // stream request yields two executions whose chunk boundaries can
    // diverge under concurrent writes; without this check, chunk k of
    // one execution spliced with chunk k+1 of the other could skip keys.
    std::string expected_key = sreq.base.key;
    bool expected_exclusive = sreq.base.exclusive_start;
    for (;;) {
      ScanStreamChunk chunk;
      bool got = false;
      Status ws =
          WaitStreamChunk(stream, StallWait(stream, chunk_wait), &chunk, &got);
      if (!ws.ok()) {
        deregister();
        return ws;
      }
      if (!got) {
        if (std::chrono::steady_clock::now() > deadline) {
          send_close();
          deregister();
          return Status::TimedOut("scan stream stalled");
        }
        // The next in-order chunk is missing. The DC may merely have
        // lost our credit and parked — resend it (absolute, so a
        // duplicate is harmless) before giving up.
        if (stall_resends < 2) {
          ++stall_resends;
          send_credit(/*resend=*/true);
          continue;
        }
        // Lost or late for real: re-issue from the resume point under a
        // fresh id.
        send_close();
        deregister();
        break;  // restart
      }
      stall_resends = 0;
      if (!chunk.status.ok()) {
        deregister();
        return chunk.status;  // logical failure (crashed never arrives)
      }
      if (chunk.resume_key != expected_key ||
          chunk.resume_exclusive != expected_exclusive) {
        // Discontinuous chunk (a divergent duplicate execution): drop
        // the stream and re-issue from the last delivered key.
        send_close();
        deregister();
        if (std::chrono::steady_clock::now() > deadline) {
          return Status::TimedOut("scan stream lost continuity");
        }
        break;  // restart
      }
      if (!chunk.keys.empty()) {
        expected_key = chunk.keys.back();
        expected_exclusive = true;
      }
      stats_.scan_chunks.fetch_add(1);
      for (size_t i = 0; i < chunk.keys.size(); ++i) {
        const std::string& key = chunk.keys[i];
        // Drop keys already delivered by an earlier attempt (or by a
        // duplicated stream execution racing this one).
        if (have_last && key <= last_key) continue;
        stats_.scan_rows.fetch_add(1);
        ++delivered;
        last_key = key;
        have_last = true;
        if (!emit_row(key, chunk.values[i])) {
          send_close();
          deregister();
          return Status::OK();  // caller hit its limit
        }
      }
      if (chunk.done) {
        deregister();
        return Status::OK();
      }
      // Replenish once half the window has drained.
      uint32_t consumed;
      {
        std::lock_guard<std::mutex> lock(stream->mu);
        consumed = stream->next_index;
      }
      if ((allowed - consumed) * 2 <= credit) {
        allowed = consumed + credit;
        send_credit(/*resend=*/false);
      }
    }
  }
}

Status TransactionComponent::FetchAheadStreamScan(
    TxnId txn, TableId table, const std::string& from, const std::string& to,
    uint32_t limit, std::vector<std::pair<std::string, std::string>>* out) {
  // The §3.1 fetch-ahead protocol folded into ONE probe-mode stream:
  // chunk = speculative probe for one window (every physical key + the
  // fencepost in next_key), locks taken at the TC, then the validated
  // read is a kScanCredit REWIND answered from the same DC cursor — no
  // blocking ScanRange messages at all. Each rewind also grants one
  // speculative chunk past itself, so window k+1's probe is on the wire
  // while window k's rows are delivered.
  std::string pos = from;  // start of the current (unvalidated) window
  bool pos_exclusive = false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.op_timeout_ms);
  const auto chunk_wait = std::chrono::milliseconds(
      std::max<uint32_t>(options_.resend_interval_ms, 20));
  stats_.scan_streams.fetch_add(1);
  for (bool first_attempt = true;; first_attempt = false) {
    if (crashed_.load()) return Status::Crashed("tc is down");
    if (!first_attempt) stats_.scan_restarts.fetch_add(1);
    ScanStreamRequest sreq;
    sreq.base.op = OpType::kScanRange;
    sreq.base.tc_id = options_.tc_id;
    sreq.base.lsn = next_stream_id_.fetch_add(1);
    sreq.base.table_id = table;
    sreq.base.key = pos;
    sreq.base.exclusive_start = pos_exclusive;
    sreq.base.end_key = to;
    sreq.base.read_flavor = ReadFlavor::kOwn;
    sreq.base.limit = 0;  // the TC enforces the row limit
    sreq.chunk_rows = std::max<uint32_t>(1, options_.fetch_ahead_batch);
    sreq.credit_chunks = 1;  // exactly one speculative window at a time
    sreq.probe_rows = true;
    auto stream = std::make_shared<ScanStream>();
    {
      std::lock_guard<std::mutex> guard(stream_mu_);
      streams_[sreq.base.lsn] = stream;
    }
    auto deregister = [&] {
      std::lock_guard<std::mutex> guard(stream_mu_);
      streams_.erase(sreq.base.lsn);
    };
    const DcId dc = Route(table, pos);
    Status ready = WaitDcReady(dc, deadline);
    if (!ready.ok()) {
      deregister();
      return ready;
    }
    ClientFor(dc)->SendScanStream(sreq);
    uint32_t next_produce = 1;  // the DC pauses here until a credit
    ScanCreditRequest last_credit;
    bool have_credit = false;
    auto send_close = [&] {
      ScanCreditRequest cr;
      cr.tc_id = options_.tc_id;
      cr.stream_id = sreq.base.lsn;
      cr.allowed_chunks = next_produce;
      cr.close = true;
      ClientFor(dc)->SendScanCredit(cr);
    };
    // Waits for the next in-order chunk, re-sending the last credit on
    // a stall. Returns +1 got, 0 restart-the-stream, -1 fatal (*fail).
    auto await_chunk = [&](ScanStreamChunk* chunk, Status* fail) -> int {
      int stalls = 0;
      for (;;) {
        bool got = false;
        Status ws =
            WaitStreamChunk(stream, StallWait(stream, chunk_wait), chunk, &got);
        if (!ws.ok()) {
          *fail = ws;
          return -1;
        }
        if (got) return 1;
        if (std::chrono::steady_clock::now() > deadline) {
          *fail = Status::TimedOut("scan stream stalled");
          return -1;
        }
        if (have_credit && stalls < 2) {
          // The credit (not the chunk) may be what was lost: resend it.
          ++stalls;
          stats_.scan_credit_resends.fetch_add(1);
          ClientFor(dc)->SendScanCredit(last_credit);
          continue;
        }
        return 0;
      }
    };
    bool restart = false;
    bool first_window = true;
    while (!restart) {
      // 1. The speculative probe chunk for the current window. If it is
      // already buffered, its round trip fully overlapped the previous
      // window's validation and delivery.
      {
        std::lock_guard<std::mutex> lock(stream->mu);
        if (!first_window &&
            stream->chunks.count(stream->next_index) > 0) {
          stats_.scan_prefetch_hits.fetch_add(1);
        }
      }
      first_window = false;
      ScanStreamChunk probe;
      Status fail = Status::OK();
      int w = await_chunk(&probe, &fail);
      if (w < 0) {
        send_close();
        deregister();
        return fail;
      }
      if (w == 0) {
        restart = true;
        break;
      }
      if (!probe.status.ok()) {
        if (probe.status.IsBusy()) {
          restart = true;  // transient SMO race at the DC
          break;
        }
        send_close();
        deregister();
        return probe.status;
      }
      if (probe.resume_key != pos || probe.resume_exclusive != pos_exclusive) {
        restart = true;  // foreign execution; cannot trust the window
        break;
      }
      // 2. Lock the window (every physical key — probe semantics, so a
      // tombstoned record's writer blocks us) plus the fencepost or the
      // EOF sentinel for phantom safety.
      for (const auto& k : probe.keys) {
        Status s =
            locks_->Lock(txn, RecordLockName(table, k), LockMode::kShared);
        if (!s.ok()) {
          if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
          send_close();
          deregister();
          return s;
        }
      }
      const std::string fencepost = probe.next_key;
      {
        Status s = fencepost.empty()
                       ? locks_->Lock(txn, TableEofLockName(table),
                                      LockMode::kShared)
                       : locks_->Lock(txn, RecordLockName(table, fencepost),
                                      LockMode::kShared);
        if (!s.ok()) {
          if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
          send_close();
          deregister();
          return s;
        }
      }
      // 3. Validated read: rewind the DC cursor over the locked window.
      // "Should the records be different from the ones that were locked,
      // this subsequent request becomes again a speculative request."
      std::set<std::string> locked(probe.keys.begin(), probe.keys.end());
      ScanStreamChunk vchunk;
      bool validated = false;
      // A mid-range rewind yields TWO chunks (the re-read plus one
      // speculative window past it); the final window's rewind — empty
      // fencepost, re-read to the end bound — yields only the re-read.
      const uint32_t chunks_per_rewind = fencepost.empty() ? 1 : 2;
      for (int round = 0; round < 8 && !validated; ++round) {
        ScanCreditRequest cr;
        cr.tc_id = options_.tc_id;
        cr.stream_id = sreq.base.lsn;
        cr.rewind = true;
        cr.expect_chunk = next_produce;
        cr.rewind_key = pos;
        cr.rewind_exclusive = pos_exclusive;
        cr.rewind_upto = fencepost;
        // The rewind chunk plus (mid-range) ONE speculative window past
        // it — the next window's probe prefetched while this one is
        // finished.
        cr.allowed_chunks = next_produce + chunks_per_rewind;
        last_credit = cr;
        have_credit = true;
        next_produce += chunks_per_rewind;
        ClientFor(dc)->SendScanCredit(cr);
        stats_.scan_credits_sent.fetch_add(1);
        if (round > 0 && !fencepost.empty()) {
          // Each extra round leaves one stale speculative chunk (probed
          // from the pre-revalidation cursor) in the buffer: drain it.
          ScanStreamChunk stale;
          w = await_chunk(&stale, &fail);
          if (w < 0) {
            send_close();
            deregister();
            return fail;
          }
          if (w == 0) break;  // restart
        }
        w = await_chunk(&vchunk, &fail);
        if (w < 0) {
          send_close();
          deregister();
          return fail;
        }
        if (w == 0) break;  // restart
        if (!vchunk.status.ok()) {
          if (vchunk.status.IsBusy()) break;  // SMO-racing rewind: restart
          send_close();
          deregister();
          return vchunk.status;
        }
        if (vchunk.resume_key != pos ||
            vchunk.resume_exclusive != pos_exclusive) {
          break;  // foreign chunk; restart
        }
        bool all_locked = true;
        for (const auto& k : vchunk.keys) {
          if (locked.count(k) != 0) continue;
          Status s =
              locks_->Lock(txn, RecordLockName(table, k), LockMode::kShared);
          if (!s.ok()) {
            if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
            send_close();
            deregister();
            return s;
          }
          locked.insert(k);
          all_locked = false;
        }
        validated = all_locked;
      }
      if (!validated) {
        // Either a restart-worthy stall or 8 racing rounds: re-issue the
        // stream for this window (locks are kept; re-probing is safe).
        restart = true;
        break;
      }
      stats_.scan_validated_windows.fetch_add(1);
      stats_.scan_chunks.fetch_add(1);
      // 4. Deliver the window's visible rows, in order.
      std::set<uint32_t> invisible(vchunk.invisible.begin(),
                                   vchunk.invisible.end());
      for (size_t i = 0; i < vchunk.keys.size(); ++i) {
        if (invisible.count(static_cast<uint32_t>(i)) != 0) continue;
        stats_.scan_rows.fetch_add(1);
        out->emplace_back(vchunk.keys[i], vchunk.values[i]);
        if (limit != 0 && out->size() >= limit) {
          send_close();
          deregister();
          return Status::OK();
        }
      }
      if (fencepost.empty() || vchunk.done) {
        send_close();  // probe cursors are not auto-evicted on done
        deregister();
        return Status::OK();
      }
      // 5. Advance: the next window starts AT the fencepost (inclusive),
      // and its speculative probe chunk is already in flight.
      pos = fencepost;
      pos_exclusive = false;
    }
    send_close();
    deregister();
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::TimedOut("fetch-ahead scan stream stalled");
    }
  }
}

Status TransactionComponent::Scan(
    TxnId txn, TableId table, const std::string& from, const std::string& to,
    uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  // Pipelined writes still in flight could race the probe/read windows;
  // drain the transaction's pipeline before scanning. A drained op's
  // failure must not be swallowed here — this is the first await point,
  // so surface it exactly as Commit would.
  Status drain = AwaitAll(txn);
  if (!drain.ok()) return drain;

  if (options_.range_protocol == RangeLockProtocol::kPartition) {
    // §3.1 "Range locks": lock every overlapping partition, then read.
    auto [lo, hi] = options_.partitions.Overlapping(from, to);
    for (uint32_t i = lo; i <= hi; ++i) {
      Status s =
          locks_->Lock(txn, RangeLockName(table, i), LockMode::kShared);
      if (!s.ok()) {
        if (s.IsDeadlock()) stats_.deadlocks.fetch_add(1);
        return s;
      }
    }
    // Partition locks already cover the whole range: the read is one
    // streamed request with chunked replies.
    return StreamScan(table, from, to, limit, ReadFlavor::kOwn,
                      [&](const std::string& k, const std::string& v) {
                        out->emplace_back(k, v);
                        return limit == 0 || out->size() < limit;
                      });
  }

  // §3.1 "Fetch ahead protocol" folded into one probe-mode stream:
  // speculative probes arrive as credited chunks and the validated
  // window read is a cursor rewind — zero blocking ScanRange messages.
  return FetchAheadStreamScan(txn, table, from, to, limit, out);
}

Status TransactionComponent::ScanShared(
    TableId table, const std::string& from, const std::string& to,
    uint32_t limit, ReadFlavor flavor,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  // One kScanStream request per range; the DC streams chunked replies
  // while the TC consumes — no per-window blocking round trips.
  return StreamScan(table, from, to, limit, flavor,
                    [&](const std::string& k, const std::string& v) {
                      out->emplace_back(k, v);
                      return limit == 0 || out->size() < limit;
                    });
}

}  // namespace untx
