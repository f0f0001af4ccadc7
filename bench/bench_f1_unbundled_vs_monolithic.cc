// Experiment F1 (Figure 1, §1.2, §7): the unbundled TC/DC kernel vs the
// integrated monolithic baseline on identical single-node OLTP
// operations. The paper predicts the unbundled kernel "inevitably has
// longer code paths"; this bench quantifies the overhead of the
// arm's-length interaction (LSN reservation, request/reply structs,
// idempotence bookkeeping, duplicate filter) against the bundled call path.
#include "bench_util.h"

namespace untx {
namespace bench {
namespace {

constexpr TableId kTable = 1;
constexpr int kPreload = 2000;

UnbundledDb* GetUnbundled() {
  static std::unique_ptr<UnbundledDb> db = [] {
    auto d = std::move(UnbundledDb::Open(DefaultDbOptions())).ValueOrDie();
    d->CreateTable(kTable);
    Load(d.get(), kTable, kPreload);
    return d;
  }();
  return db.get();
}

monolithic::MonolithicEngine* GetMonolithic() {
  static std::unique_ptr<StableStore> store =
      std::make_unique<StableStore>();
  static std::unique_ptr<monolithic::MonolithicEngine> engine = [] {
    auto e = std::make_unique<monolithic::MonolithicEngine>(store.get());
    e->Initialize();
    e->CreateTable(kTable);
    for (int i = 0; i < kPreload; ++i) {
      TxnId txn = std::move(e->Begin()).ValueOrDie();
      e->Insert(txn, kTable, Key(i), "payload-0123456789");
      e->Commit(txn);
    }
    return e;
  }();
  return engine.get();
}

void BM_Unbundled_ReadTxn(benchmark::State& state) {
  UnbundledDb* db = GetUnbundled();
  int i = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    std::string value;
    txn.Read(kTable, Key(i++ % kPreload), &value);
    txn.Commit();
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_Unbundled_ReadTxn);

void BM_Monolithic_ReadTxn(benchmark::State& state) {
  auto* engine = GetMonolithic();
  int i = 0;
  for (auto _ : state) {
    TxnId txn = std::move(engine->Begin()).ValueOrDie();
    std::string value;
    engine->Read(txn, kTable, Key(i++ % kPreload), &value);
    engine->Commit(txn);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_Monolithic_ReadTxn);

void BM_Unbundled_UpdateTxn(benchmark::State& state) {
  UnbundledDb* db = GetUnbundled();
  int i = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    txn.Update(kTable, Key(i++ % kPreload), "updated-payload-XY");
    txn.Commit();
  }
}
BENCHMARK(BM_Unbundled_UpdateTxn);

void BM_Monolithic_UpdateTxn(benchmark::State& state) {
  auto* engine = GetMonolithic();
  int i = 0;
  for (auto _ : state) {
    TxnId txn = std::move(engine->Begin()).ValueOrDie();
    engine->Update(txn, kTable, Key(i++ % kPreload), "updated-payload-XY");
    engine->Commit(txn);
  }
}
BENCHMARK(BM_Monolithic_UpdateTxn);

void BM_Unbundled_Mix5R1W(benchmark::State& state) {
  UnbundledDb* db = GetUnbundled();
  int i = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    std::string value;
    for (int r = 0; r < 5; ++r) {
      txn.Read(kTable, Key((i + r * 37) % kPreload), &value);
    }
    txn.Update(kTable, Key(i % kPreload), "mix-updated");
    txn.Commit();
    ++i;
  }
}
BENCHMARK(BM_Unbundled_Mix5R1W);

void BM_Monolithic_Mix5R1W(benchmark::State& state) {
  auto* engine = GetMonolithic();
  int i = 0;
  for (auto _ : state) {
    TxnId txn = std::move(engine->Begin()).ValueOrDie();
    std::string value;
    for (int r = 0; r < 5; ++r) {
      engine->Read(txn, kTable, Key((i + r * 37) % kPreload), &value);
    }
    engine->Update(txn, kTable, Key(i % kPreload), "mix-updated");
    engine->Commit(txn);
    ++i;
  }
}
BENCHMARK(BM_Monolithic_Mix5R1W);

// Heterogeneous-DC instantiation (Figure 1): one TC spanning 3 DCs;
// transactions touch all of them.
void BM_Unbundled_ThreeDcTxn(benchmark::State& state) {
  static std::unique_ptr<UnbundledDb> db = [] {
    UnbundledDbOptions options = DefaultDbOptions();
    options.num_dcs = 3;
    auto d = std::move(UnbundledDb::Open(options)).ValueOrDie();
    for (TableId t : {1, 2, 3}) d->CreateTable(t);
    return d;
  }();
  int i = 0;
  for (auto _ : state) {
    Txn txn(db->tc());
    txn.Upsert(1, Key(i % 500), "a");
    txn.Upsert(2, Key(i % 500), "b");
    txn.Upsert(3, Key(i % 500), "c");
    txn.Commit();
    ++i;
  }
}
BENCHMARK(BM_Unbundled_ThreeDcTxn);

}  // namespace
}  // namespace bench
}  // namespace untx

BENCHMARK_MAIN();
