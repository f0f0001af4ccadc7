#include "tc/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/coding.h"

namespace untx {

std::string RecordLockName(TableId table, const std::string& key) {
  std::string name;
  name.push_back('K');
  PutFixed32(&name, table);
  name += key;
  return name;
}

std::string RangeLockName(TableId table, uint32_t range_idx) {
  std::string name;
  name.push_back('R');
  PutFixed32(&name, table);
  PutFixed32(&name, range_idx);
  return name;
}

std::string TableEofLockName(TableId table) {
  std::string name;
  name.push_back('E');
  PutFixed32(&name, table);
  return name;
}

LockManager::LockManager(LockManagerOptions options) : options_(options) {}

bool LockManager::CompatibleLocked(const LockEntry& entry, TxnId txn,
                                   LockMode mode) const {
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::GrantLocked(LockEntry* entry, TxnId txn, LockMode mode) {
  for (auto& [holder, held_mode] : entry->holders) {
    if (holder == txn) {
      if (mode == LockMode::kExclusive &&
          held_mode == LockMode::kShared) {
        held_mode = LockMode::kExclusive;
        ++stats_.upgrades;
      }
      return;
    }
  }
  entry->holders.emplace_back(txn, mode);
}

std::vector<TxnId> LockManager::BlockersLocked(const LockEntry& entry,
                                               TxnId txn,
                                               LockMode mode) const {
  std::vector<TxnId> blockers;
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn) continue;
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      blockers.push_back(holder);
    }
  }
  return blockers;
}

Status LockManager::Lock(TxnId txn, const std::string& name, LockMode mode) {
  return Acquire(txn, name, mode, /*instant=*/false);
}

Status LockManager::LockInstant(TxnId txn, const std::string& name,
                                LockMode mode) {
  return Acquire(txn, name, mode, /*instant=*/true);
}

Status LockManager::Acquire(TxnId txn, const std::string& name,
                            LockMode mode, bool instant) {
  std::unique_lock<std::mutex> lock(mu_);
  // An instant lock releases a new grant in the critical section that
  // made it, so it makes none: it passes once no conflicting lock is
  // held or queued ahead, and only a lock the txn already holds is
  // upgraded (and kept). Nobody holds or awaits a name without an entry.
  if (instant && table_.count(name) == 0) {
    ++stats_.acquisitions;
    return Status::OK();
  }
  LockEntry& entry = table_[name];

  // Already held strongly enough?
  for (const auto& [holder, held_mode] : entry.holders) {
    if (holder == txn &&
        (held_mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      return Status::OK();
    }
  }

  // Fast path: compatible and nobody queued ahead (except when upgrading,
  // which may barge — the holder would otherwise deadlock behind itself).
  const bool holds_already =
      std::any_of(entry.holders.begin(), entry.holders.end(),
                  [txn](const auto& h) { return h.first == txn; });
  if (CompatibleLocked(entry, txn, mode) &&
      (entry.waiters.empty() || holds_already)) {
    ++stats_.acquisitions;
    if (instant && !holds_already) return Status::OK();
    GrantLocked(&entry, txn, mode);
    held_[txn].insert(name);
    return Status::OK();
  }

  // Must wait.
  ++stats_.waits;
  Waiter waiter{txn, mode, instant, false};
  entry.waiters.push_back(&waiter);

  auto cleanup = [&](bool remove_edges) {
    auto& waiters = table_[name].waiters;
    auto it = std::find(waiters.begin(), waiters.end(), &waiter);
    if (it != waiters.end()) waiters.erase(it);
    if (remove_edges) wait_graph_.RemoveWaiter(txn);
  };

  if (options_.deadlock_detection) {
    wait_graph_.AddEdges(txn, BlockersLocked(entry, txn, mode));
    if (!wait_graph_.FindCycleFrom(txn).empty()) {
      ++stats_.deadlocks;
      cleanup(/*remove_edges=*/true);
      WakeWaitersLocked(&table_[name]);
      return Status::Deadlock("lock wait would close a cycle");
    }
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.wait_timeout_ms);
  for (;;) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        !waiter.granted) {
      ++stats_.timeouts;
      cleanup(true);
      return Status::TimedOut("lock wait timed out");
    }
    if (waiter.granted) {
      // WakeWaitersLocked granted us and, unless we are an instant lock
      // the txn did not hold, added us to holders.
      wait_graph_.RemoveWaiter(txn);
      ++stats_.acquisitions;
      if (!instant) {
        held_[txn].insert(name);
      } else if (auto it = table_.find(name);
                 it != table_.end() && it->second.holders.empty() &&
                 it->second.waiters.empty()) {
        table_.erase(it);
      }
      return Status::OK();
    }
    if (options_.deadlock_detection) {
      // Blockers may have changed; refresh edges and re-check.
      wait_graph_.RemoveWaiter(txn);
      wait_graph_.AddEdges(txn, BlockersLocked(table_[name], txn, mode));
      if (!wait_graph_.FindCycleFrom(txn).empty()) {
        ++stats_.deadlocks;
        cleanup(true);
        WakeWaitersLocked(&table_[name]);
        return Status::Deadlock("lock wait would close a cycle");
      }
    }
  }
}

void LockManager::WakeWaitersLocked(LockEntry* entry) {
  // Grant from the front of the queue while compatible (FIFO fairness).
  // After an X grant only the same txn's waiters are compatible; they
  // are granted too, or they would wait behind their own lock.
  // The granted prefix leaves the queue in one erase.
  size_t granted = 0;
  while (granted < entry->waiters.size()) {
    Waiter* w = entry->waiters[granted];
    if (!CompatibleLocked(*entry, w->txn, w->mode)) break;
    w->granted = true;
    ++granted;
    // An instant lock its txn does not hold passes without a grant.
    if (w->instant &&
        std::none_of(entry->holders.begin(), entry->holders.end(),
                     [w](const auto& h) { return h.first == w->txn; })) {
      continue;
    }
    GrantLocked(entry, w->txn, w->mode);
  }
  if (granted == 0) return;
  entry->waiters.erase(entry->waiters.begin(),
                       entry->waiters.begin() + granted);
  cv_.notify_all();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  auto held_it = held_.find(txn);
  if (held_it == held_.end()) {
    wait_graph_.RemoveTxn(txn);
    return;
  }
  for (const std::string& name : held_it->second) {
    auto table_it = table_.find(name);
    if (table_it == table_.end()) continue;
    LockEntry& entry = table_it->second;
    entry.holders.erase(
        std::remove_if(entry.holders.begin(), entry.holders.end(),
                       [txn](const auto& h) { return h.first == txn; }),
        entry.holders.end());
    if (entry.holders.empty() && entry.waiters.empty()) {
      table_.erase(table_it);
    } else {
      WakeWaitersLocked(&entry);
    }
  }
  held_.erase(held_it);
  wait_graph_.RemoveTxn(txn);
  cv_.notify_all();
}

size_t LockManager::HeldCount(TxnId txn) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

LockManagerStats LockManager::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

}  // namespace untx
