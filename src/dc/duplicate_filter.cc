#include "dc/duplicate_filter.h"

#include <algorithm>

namespace untx {

std::vector<DuplicateFilter::Slot*>::iterator DuplicateFilter::RunningLocked(
    const Ticket& ticket) {
  auto run = std::find(running_.begin(), running_.end(), ticket.slot);
  if (run != running_.end() && (*run)->serial != ticket.serial) {
    run = running_.end();
  }
  return run;
}

void DuplicateFilter::LandLocked(std::vector<Slot*>::iterator run) {
  (*run)->serial = 0;
  *run = running_.back();
  running_.pop_back();
}

void DuplicateFilter::PruneLocked(Window* w, Lsn lwm) {
  while (!w->slots.empty() && w->slots.begin()->first <= lwm) {
    Slot* slot = &w->slots.begin()->second;
    if (slot->serial != 0) {
      LandLocked(std::find(running_.begin(), running_.end(), slot));
    }
    spare_.Erase(&w->slots, w->slots.begin());
  }
  cv_.notify_all();
}

DuplicateFilter::Verdict DuplicateFilter::Admit(
    const OperationRequest& req,
    std::chrono::steady_clock::time_point deadline, OperationReply* reply,
    Ticket* ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Window& w = windows_[req.tc_id];
    if (!req.recovery_resend && req.lsn <= w.floor) {
      reply->was_duplicate = true;
      return Verdict::kBelowFloor;
    }
    auto it = w.slots.empty() || w.slots.rbegin()->first < req.lsn
                  ? w.slots.end()
                  : w.slots.lower_bound(req.lsn);
    const bool found = it != w.slots.end() && it->first == req.lsn;
    if (found && it->second.serial != 0) {
      // A copy is executing: wait until its slot leaves the in-flight
      // state (answered, abandoned or dropped), then decide again.
      const Ticket running{req.tc_id, req.lsn, it->second.serial,
                           &it->second};
      if (!cv_.wait_until(lock, deadline, [&] {
            return RunningLocked(running) == running_.end();
          })) {
        reply->status = Status::TimedOut("duplicate kept executing");
        return Verdict::kTimedOut;
      }
      continue;
    }
    if (found && !req.recovery_resend) {
      *reply = it->second.reply;
      reply->was_duplicate = true;
      return Verdict::kAnswered;
    }
    if (!found) {
      it = spare_.Insert(&w.slots, it, req.lsn);
      it->second.serial = 0;
    }
    Slot& slot = it->second;
    const bool keyed = req.op != OpType::kCreateTable;
    if (keyed && std::any_of(running_.begin(), running_.end(),
                             [&](const Slot* s) {
                               return s->keyed && s->table == req.table_id &&
                                      s->key == req.key;
                             })) {
      reply->status = Status::Conflict(
          "concurrent conflicting operation — TC contract violation");
      slot.reply = *reply;
      return Verdict::kConflict;
    }
    slot.serial = ++last_serial_;
    slot.keyed = keyed;
    slot.table = req.table_id;
    slot.key.assign(req.key);
    running_.push_back(&slot);
    *ticket = Ticket{req.tc_id, req.lsn, slot.serial, &slot};
    return Verdict::kEnter;
  }
}

void DuplicateFilter::Answer(const Ticket& ticket,
                             const OperationReply& reply) {
  std::lock_guard<std::mutex> guard(mu_);
  auto run = RunningLocked(ticket);
  if (run == running_.end()) return;
  ticket.slot->reply = reply;
  LandLocked(run);
  cv_.notify_all();
}

void DuplicateFilter::Abandon(const Ticket& ticket) {
  std::lock_guard<std::mutex> guard(mu_);
  auto run = RunningLocked(ticket);
  if (run == running_.end()) return;
  LandLocked(run);
  Window& w = windows_[ticket.tc];
  spare_.Erase(&w.slots, w.slots.find(ticket.lsn));
  cv_.notify_all();
}

void DuplicateFilter::Advance(TcId tc, Lsn lwm, bool armed) {
  std::lock_guard<std::mutex> guard(mu_);
  Window& w = windows_[tc];
  if (armed && lwm > w.floor) w.floor = lwm;
  PruneLocked(&w, lwm);
}

void DuplicateFilter::Forget(TcId tc) {
  std::lock_guard<std::mutex> guard(mu_);
  PruneLocked(&windows_[tc], kMaxLsn);
  windows_[tc].floor = 0;
}

void DuplicateFilter::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& entry : windows_) {
    PruneLocked(&entry.second, kMaxLsn);
    entry.second.floor = 0;
  }
}

}  // namespace untx
