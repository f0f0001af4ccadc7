// Shared helpers for the experiment benches. Each bench file's header
// comment names its experiment (C1–C10, F1–F2) and the paper section it
// measures.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "kernel/unbundled_db.h"
#include "monolithic/engine.h"

namespace untx {
namespace bench {

inline std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

/// Canonical small-footprint options so unbundled and monolithic runs
/// compare like for like.
inline UnbundledDbOptions DefaultDbOptions() {
  UnbundledDbOptions options;
  options.tc.control_interval_ms = 10;
  options.tc.resend_interval_ms = 100;
  // Benches measure the common path; phantom probes are benched
  // explicitly in C1.
  options.tc.insert_phantom_protection = false;
  return options;
}

/// Loads n rows through committed transactions.
inline void Load(UnbundledDb* db, TableId table, int n,
                 const std::string& value = "payload-0123456789") {
  for (int i = 0; i < n; ++i) {
    Txn txn(db->tc());
    txn.Insert(table, Key(i), value);
    txn.Commit();
  }
}

/// Standard TC counters for bench output: operation traffic, the resend
/// daemon's work, and how often the DC answered from its idempotence
/// machinery instead of executing (dup_replies).
inline void ReportTcStats(benchmark::State& state,
                          const TransactionComponent& tc) {
  const TcStats& stats = tc.stats();
  state.counters["ops_sent"] = static_cast<double>(stats.ops_sent.load());
  state.counters["resends"] = static_cast<double>(stats.resends.load());
  state.counters["dup_replies"] =
      static_cast<double>(stats.dup_replies.load());
  if (stats.scan_streams.load() > 0) {
    state.counters["scan_streams"] =
        static_cast<double>(stats.scan_streams.load());
    state.counters["scan_rows"] =
        static_cast<double>(stats.scan_rows.load());
    state.counters["scan_restarts"] =
        static_cast<double>(stats.scan_restarts.load());
  }
  if (stats.promote_batches.load() > 0) {
    state.counters["promote_batches"] =
        static_cast<double>(stats.promote_batches.load());
    state.counters["promote_ops"] =
        static_cast<double>(stats.promote_ops.load());
  }
}

}  // namespace bench
}  // namespace untx
