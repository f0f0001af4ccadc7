// DuplicateFilter: the DC's exactly-once gate for writes (§4.2).
//
// Every copy of a write (a channel duplicate, a TC resend) must get the
// reply of its one execution, before-image included, and no two
// conflicting writes may execute at once (the TC's §1.2 obligation). For
// each TC the filter keeps a window of slots by LSN, above the TC's
// floor: the last LWM the DC accepted. A slot is in flight (its write
// executes; the slot holds table and key) or answered (it holds the
// reply). LSNs reach a DC sparsely, so a window is a map on recycled
// nodes; they reach it nearly in order, so a slot past the newest one is
// added without a search. The same-key probe scans only the writes in
// flight.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "dc/dc_api.h"
#include "util/node_pool.h"

namespace untx {

class DuplicateFilter {
  struct Slot;

 public:
  enum class Verdict {
    kEnter,       ///< execute, then Answer() or Abandon() the ticket
    kAnswered,    ///< *reply is the stored reply, marked duplicate
    kBelowFloor,  ///< at or below the floor: *reply is an empty duplicate
    kConflict,    ///< the key is in flight under another id: *reply, stored
    kTimedOut,    ///< a copy of it kept executing past the deadline
  };
  /// One admission; `serial` tells it from a later one of the same id
  /// (or a later user of the same slot).
  struct Ticket {
    TcId tc = 0;
    Lsn lsn = kInvalidLsn;
    uint64_t serial = 0;
    Slot* slot = nullptr;
  };

  /// Admits one write; `reply` carries req's tc_id and lsn. A copy of a
  /// write in flight waits for that write's answer (or, if it is
  /// abandoned, enters itself). Recovery resends skip the stored replies
  /// and the floor, which describe pre-regression executions, but take
  /// part in the same-key probe.
  Verdict Admit(const OperationRequest& req,
                std::chrono::steady_clock::time_point deadline,
                OperationReply* reply, Ticket* ticket);
  /// Stores an entered write's reply; a no-op once its slot was dropped.
  void Answer(const Ticket& ticket, const OperationReply& reply);
  /// Drops an entered write's slot: it did not complete (Busy, Crashed).
  void Abandon(const Ticket& ticket);

  /// Drops `tc`'s slots at or below `lwm`. `armed` (the TC's LWM contract
  /// is armed at this DC) makes `lwm` the TC's floor as well.
  void Advance(TcId tc, Lsn lwm, bool armed);
  /// Drops `tc`'s window and floor: a reset reverted its executions, and
  /// a new incarnation may reuse LSNs at or below the old floor.
  void Forget(TcId tc);
  /// Forget() for every TC: a DC crash or a replica wipe.
  void Clear();

 private:
  struct Slot {
    uint64_t serial = 0;  ///< nonzero while in flight
    bool keyed = false;   ///< in the same-key probe (not kCreateTable)
    TableId table = kInvalidTableId;
    std::string key;
    OperationReply reply;
  };
  using Slots = std::map<Lsn, Slot>;
  struct Window {
    Lsn floor = 0;
    Slots slots;
  };

  /// The entry of running_ for the slot `ticket` entered, or end() once
  /// that slot left the in-flight state.
  std::vector<Slot*>::iterator RunningLocked(const Ticket& ticket);
  /// Takes a slot out of the in-flight state.
  void LandLocked(std::vector<Slot*>::iterator run);
  /// Drops w's slots at or below `lwm`, waking the copies that wait.
  void PruneLocked(Window* w, Lsn lwm);

  std::mutex mu_;
  std::condition_variable cv_;  ///< a slot left the in-flight state
  std::map<TcId, Window> windows_;
  NodePool<Slots> spare_{1024};
  std::vector<Slot*> running_;  ///< the slots in flight
  uint64_t last_serial_ = 0;
};

}  // namespace untx
