// DuplicateFilter on its own, without a DC: the per-TC LSN window that
// answers every copy of a write with the reply of its one execution,
// detects same-key conflicts, and answers stale copies below the TC's
// floor.
#include "dc/duplicate_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace untx {
namespace {

using Verdict = DuplicateFilter::Verdict;
using Clock = std::chrono::steady_clock;

constexpr TableId kTable = 1;

OperationRequest Write(TcId tc, Lsn lsn, const std::string& key,
                       bool recovery = false) {
  OperationRequest req;
  req.tc_id = tc;
  req.lsn = lsn;
  req.op = OpType::kUpdate;
  req.table_id = kTable;
  req.key = key;
  req.recovery_resend = recovery;
  return req;
}

/// The reply PerformImpl starts from: correlated, otherwise empty.
OperationReply Blank(const OperationRequest& req) {
  OperationReply reply;
  reply.tc_id = req.tc_id;
  reply.lsn = req.lsn;
  return reply;
}

OperationReply Updated(const OperationRequest& req,
                       const std::string& before) {
  OperationReply reply = Blank(req);
  reply.value = before;
  reply.has_before = true;
  return reply;
}

/// Admits `req`, which must enter, and returns its ticket.
DuplicateFilter::Ticket Enter(DuplicateFilter* filter,
                              const OperationRequest& req) {
  OperationReply reply = Blank(req);
  DuplicateFilter::Ticket ticket;
  EXPECT_EQ(filter->Admit(req, Clock::now(), &reply, &ticket),
            Verdict::kEnter);
  return ticket;
}

/// Admits `req`; a copy of a write in flight waits up to `wait`.
Verdict AdmitOnly(DuplicateFilter* filter, const OperationRequest& req,
                  OperationReply* reply = nullptr,
                  std::chrono::milliseconds wait =
                      std::chrono::milliseconds(20)) {
  OperationReply local = Blank(req);
  DuplicateFilter::Ticket ticket;
  const Verdict verdict =
      filter->Admit(req, Clock::now() + wait, &local, &ticket);
  if (reply != nullptr) *reply = local;
  return verdict;
}

/// Admits a copy of `req` on another thread, where it waits for the
/// original in flight.
class WaitingCopy {
 public:
  WaitingCopy(DuplicateFilter* filter, const OperationRequest& req)
      : thread_([this, filter, req] {
          verdict_ = AdmitOnly(filter, req, &reply_, std::chrono::seconds(30));
          returned_at_ = Clock::now();
          returned_.store(true);
        }) {}
  WaitingCopy(const WaitingCopy&) = delete;
  WaitingCopy& operator=(const WaitingCopy&) = delete;
  ~WaitingCopy() {
    if (thread_.joinable()) thread_.join();
  }
  bool returned() const { return returned_.load(); }
  /// Joins; how long the copy took to return after `since`.
  Clock::duration Join(Clock::time_point since) {
    thread_.join();
    return returned_at_ - since;
  }
  Verdict verdict() const { return verdict_; }
  const OperationReply& reply() const { return reply_; }

 private:
  Verdict verdict_ = Verdict::kTimedOut;
  OperationReply reply_;
  Clock::time_point returned_at_;
  std::atomic<bool> returned_{false};
  std::thread thread_;
};

TEST(DuplicateFilterTest, CopyGetsTheAnswerWithItsBeforeImage) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 7, "k");
  const DuplicateFilter::Ticket ticket = Enter(&filter, req);
  filter.Answer(ticket, Updated(req, "before"));

  OperationReply copy;
  ASSERT_EQ(AdmitOnly(&filter, req, &copy), Verdict::kAnswered);
  EXPECT_TRUE(copy.status.ok());
  EXPECT_TRUE(copy.was_duplicate);
  EXPECT_TRUE(copy.has_before);
  EXPECT_EQ(copy.value, "before");
  EXPECT_EQ(copy.lsn, 7u);
  // Answered slots are no longer in flight: the key is free again.
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 8, "k")), Verdict::kEnter);
}

TEST(DuplicateFilterTest, WaitingCopyWakesOnTheAnswer) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 7, "k");
  const DuplicateFilter::Ticket original = Enter(&filter, req);
  WaitingCopy copy(&filter, req);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(copy.returned()) << "the copy must wait for the original";
  const Clock::time_point answered_at = Clock::now();
  filter.Answer(original, Updated(req, "before"));
  // Woken by the answer itself, far inside the 30 s deadline.
  EXPECT_LT(copy.Join(answered_at), std::chrono::seconds(5));
  ASSERT_EQ(copy.verdict(), Verdict::kAnswered);
  EXPECT_TRUE(copy.reply().was_duplicate);
  EXPECT_EQ(copy.reply().value, "before");
}

TEST(DuplicateFilterTest, ClearWakesAWaitingCopy) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 7, "k");
  Enter(&filter, req);
  WaitingCopy copy(&filter, req);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Clock::time_point cleared_at = Clock::now();
  filter.Clear();
  EXPECT_LT(copy.Join(cleared_at), std::chrono::seconds(5));
  // The original's slot is gone: the copy executes itself.
  EXPECT_EQ(copy.verdict(), Verdict::kEnter);
}

TEST(DuplicateFilterTest, AbandonLetsAWaitingCopyExecute) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 7, "k");
  const DuplicateFilter::Ticket original = Enter(&filter, req);
  WaitingCopy copy(&filter, req);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Clock::time_point abandoned_at = Clock::now();
  filter.Abandon(original);
  EXPECT_LT(copy.Join(abandoned_at), std::chrono::seconds(5));
  EXPECT_EQ(copy.verdict(), Verdict::kEnter);
}

TEST(DuplicateFilterTest, WaitTimesOutWhileTheOriginalRuns) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 7, "k");
  Enter(&filter, req);
  OperationReply reply;
  ASSERT_EQ(AdmitOnly(&filter, req, &reply), Verdict::kTimedOut);
  EXPECT_TRUE(reply.status.IsTimedOut());
}

TEST(DuplicateFilterTest, SameKeyOtherLsnIsAConflict) {
  DuplicateFilter filter;
  const DuplicateFilter::Ticket first = Enter(&filter, Write(1, 5, "hot"));

  OperationReply reply;
  ASSERT_EQ(AdmitOnly(&filter, Write(1, 6, "hot"), &reply),
            Verdict::kConflict);
  EXPECT_TRUE(reply.status.IsConflict());
  // Another TC's write on the key conflicts too; another key does not.
  EXPECT_EQ(AdmitOnly(&filter, Write(2, 6, "hot")), Verdict::kConflict);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 9, "cold")), Verdict::kEnter);
  // So does a recovery resend: it takes part in the probe.
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 4, "hot", /*recovery=*/true)),
            Verdict::kConflict);

  // The Conflict is stored: a copy of the refused write gets it again.
  ASSERT_EQ(AdmitOnly(&filter, Write(1, 6, "hot"), &reply),
            Verdict::kAnswered);
  EXPECT_TRUE(reply.status.IsConflict());

  // Once the first write is answered, the key is free.
  filter.Answer(first, Blank(Write(1, 5, "hot")));
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 10, "hot")), Verdict::kEnter);
}

/// Two TC threads interleaving far-apart LSN runs: a write in flight
/// below many answered slots is still found by the same-key probe, and
/// an LWM that drops its slot frees its key.
TEST(DuplicateFilterTest, InFlightWriteBelowAnsweredOnesStillConflicts) {
  DuplicateFilter filter;
  Enter(&filter, Write(1, 100000, "hot"));
  for (Lsn lsn = 2000000; lsn < 2001000; ++lsn) {
    const OperationRequest req = Write(1, lsn, "k" + std::to_string(lsn));
    filter.Answer(Enter(&filter, req), Updated(req, "v"));
  }
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 2001000, "hot")), Verdict::kConflict);
  filter.Advance(1, 100000, /*armed=*/false);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 2001001, "hot")), Verdict::kEnter);
}

TEST(DuplicateFilterTest, CreateTableTakesNoPartInTheKeyProbe) {
  DuplicateFilter filter;
  OperationRequest create = Write(1, 5, "");
  create.op = OpType::kCreateTable;
  Enter(&filter, create);
  OperationRequest again = create;
  again.tc_id = 2;
  EXPECT_EQ(AdmitOnly(&filter, again), Verdict::kEnter);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 6, "")), Verdict::kEnter);
}

TEST(DuplicateFilterTest, AtOrBelowTheFloorIsAnsweredWithoutEntering) {
  DuplicateFilter filter;
  const DuplicateFilter::Ticket live = Enter(&filter, Write(1, 12, "k"));
  filter.Advance(1, 10, /*armed=*/true);

  OperationReply reply;
  ASSERT_EQ(AdmitOnly(&filter, Write(1, 10, "k"), &reply),
            Verdict::kBelowFloor);
  EXPECT_TRUE(reply.status.ok());
  EXPECT_TRUE(reply.was_duplicate);
  EXPECT_FALSE(reply.has_before);
  // A late copy below the floor never enters: it neither conflicts with
  // the write in flight on its key nor blocks that write's next op.
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 3, "k")), Verdict::kBelowFloor);
  filter.Answer(live, Blank(Write(1, 12, "k")));
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 13, "k")), Verdict::kEnter);
  // Floors are per TC.
  EXPECT_EQ(AdmitOnly(&filter, Write(2, 3, "j")), Verdict::kEnter);
  // A lower LWM never lowers the floor.
  filter.Advance(1, 5, /*armed=*/true);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 8, "x")), Verdict::kBelowFloor);
}

TEST(DuplicateFilterTest, UnarmedLwmPrunesButKeepsTheFloor) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 20, "k");
  filter.Answer(Enter(&filter, req), Updated(req, "before"));
  filter.Advance(1, 25, /*armed=*/false);
  // The stored reply is gone, and no floor answers for it.
  EXPECT_EQ(AdmitOnly(&filter, req), Verdict::kEnter);
}

TEST(DuplicateFilterTest, RecoveryResendBypassesTheAnsweredLookup) {
  DuplicateFilter filter;
  const OperationRequest req = Write(1, 7, "k");
  filter.Answer(Enter(&filter, req), Updated(req, "pre-regression"));

  const OperationRequest redo = Write(1, 7, "k", /*recovery=*/true);
  const DuplicateFilter::Ticket ticket = Enter(&filter, redo);
  // While the redo executes, a plain copy waits for it.
  EXPECT_EQ(AdmitOnly(&filter, req), Verdict::kTimedOut);
  filter.Answer(ticket, Updated(redo, "post-regression"));
  OperationReply reply;
  ASSERT_EQ(AdmitOnly(&filter, req, &reply), Verdict::kAnswered);
  EXPECT_EQ(reply.value, "post-regression");

  // Recovery resends also pass the floor.
  filter.Advance(1, 50, /*armed=*/true);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 30, "r", /*recovery=*/true)),
            Verdict::kEnter);
}

TEST(DuplicateFilterTest, ForgetLetsANewIncarnationReuseLsns) {
  DuplicateFilter filter;
  filter.Answer(Enter(&filter, Write(2, 60, "z")),
                Updated(Write(2, 60, "z"), "other tc"));
  filter.Answer(Enter(&filter, Write(1, 120, "a")),
                Updated(Write(1, 120, "a"), "old"));
  const DuplicateFilter::Ticket stale = Enter(&filter, Write(1, 130, "b"));
  filter.Advance(1, 100, /*armed=*/true);
  ASSERT_EQ(AdmitOnly(&filter, Write(1, 50, "c")), Verdict::kBelowFloor);

  // The TC restarts from a stable end below its old LWM: its new ops
  // reuse LSNs at or below the old floor and must execute.
  filter.Forget(1);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 50, "c")), Verdict::kEnter);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 120, "a")), Verdict::kEnter);

  // The old incarnation's op still executing answers into nothing: the
  // new incarnation's LSN 130 gets its own reply, not the stale one.
  const OperationRequest reused = Write(1, 130, "b");
  const DuplicateFilter::Ticket fresh = Enter(&filter, reused);
  filter.Answer(stale, Updated(reused, "stale"));
  EXPECT_EQ(AdmitOnly(&filter, reused), Verdict::kTimedOut);
  filter.Answer(fresh, Updated(reused, "fresh"));
  OperationReply reply;
  ASSERT_EQ(AdmitOnly(&filter, reused, &reply), Verdict::kAnswered);
  EXPECT_EQ(reply.value, "fresh");
  // Other TCs keep their windows.
  ASSERT_EQ(AdmitOnly(&filter, Write(2, 60, "z"), &reply), Verdict::kAnswered);
  EXPECT_EQ(reply.value, "other tc");
}

TEST(DuplicateFilterTest, SparseAndOutOfOrderLsns) {
  DuplicateFilter filter;
  // Far-apart LSNs with no LWM, as two TC threads racing on one DC.
  const std::vector<Lsn> lsns = {100000, 2000000, 100001, 5, 2000002,
                                 99999,  2000001, 6,      150};
  for (Lsn lsn : lsns) {
    const OperationRequest req = Write(1, lsn, "k" + std::to_string(lsn));
    filter.Answer(Enter(&filter, req), Updated(req, std::to_string(lsn)));
  }
  for (Lsn lsn : lsns) {
    OperationReply reply;
    ASSERT_EQ(AdmitOnly(&filter, Write(1, lsn, "x"), &reply),
              Verdict::kAnswered)
        << lsn;
    EXPECT_EQ(reply.value, std::to_string(lsn));
  }
  filter.Advance(1, 100000, /*armed=*/true);
  EXPECT_EQ(AdmitOnly(&filter, Write(1, 150, "x")), Verdict::kBelowFloor);
  OperationReply reply;
  ASSERT_EQ(AdmitOnly(&filter, Write(1, 100001, "x"), &reply),
            Verdict::kAnswered);
  EXPECT_EQ(reply.value, "100001");
}

/// Random admissions (mostly ascending, some out of order, some
/// abandoned) and LWM advances against a std::map model.
TEST(DuplicateFilterTest, MatchesAMapModel) {
  DuplicateFilter filter;
  std::mt19937 rng(7);
  std::map<Lsn, std::string> answered;  // the model: LSN -> before-image
  Lsn next = 1;
  Lsn floor = 0;
  for (int step = 0; step < 20000; ++step) {
    const int dice = static_cast<int>(rng() % 100);
    if (dice < 70) {
      // A new write, sometimes a straggler a little below the front.
      Lsn lsn = next;
      next += 1 + rng() % 3;
      if (dice < 10 && next > floor + 40) lsn = next - 1 - rng() % 30;
      if (lsn <= floor || answered.count(lsn) > 0) continue;
      const OperationRequest req = Write(1, lsn, "k" + std::to_string(lsn));
      const DuplicateFilter::Ticket ticket = Enter(&filter, req);
      if (dice % 7 == 0) {
        filter.Abandon(ticket);
      } else {
        filter.Answer(ticket, Updated(req, "v" + std::to_string(lsn)));
        answered[lsn] = "v" + std::to_string(lsn);
      }
    } else if (dice < 75 && next > 200) {
      // The LWM trails the front.
      const Lsn lwm = next - 100 - rng() % 100;
      if (lwm > floor) {
        filter.Advance(1, lwm, /*armed=*/true);
        floor = lwm;
        answered.erase(answered.begin(), answered.upper_bound(lwm));
      }
    } else if (next > 1) {
      // A copy of a recent LSN.
      const Lsn lsn = next - 1 - rng() % std::min<Lsn>(next - 1, 300);
      const OperationRequest copy = Write(1, lsn, "probe");
      OperationReply reply = Blank(copy);
      DuplicateFilter::Ticket ticket;
      const Verdict verdict =
          filter.Admit(copy, Clock::now(), &reply, &ticket);
      auto it = answered.find(lsn);
      if (lsn <= floor) {
        ASSERT_EQ(verdict, Verdict::kBelowFloor) << lsn;
      } else if (it != answered.end()) {
        ASSERT_EQ(verdict, Verdict::kAnswered) << lsn;
        ASSERT_EQ(reply.value, it->second);
      } else {
        // Never seen (or abandoned): the copy entered; settle it.
        ASSERT_EQ(verdict, Verdict::kEnter) << lsn;
        filter.Answer(ticket, Updated(copy, "p"));
        answered[lsn] = "p";
      }
    }
  }
}

}  // namespace
}  // namespace untx
