// Heap allocations per transaction on the TC -> DC op path.
//
// Global operator new is replaced by one that counts calls on the calling
// thread. With the TC daemons off and direct bindings, a transaction runs
// entirely on the client thread (the DC executes inline), so the
// thread-local count is the whole transaction's allocation cost: TC
// bookkeeping, the TC log record, the DC's leaf and duplicate-filter work and
// the lock manager.
//
// The budgets are half the per-transaction counts this test measured on
// the op path before each op's key, value and before-image were copied
// once and moved after that (223.85 allocations per 8-upsert txn and
// 127.84 per 8-read txn), rounded up. Sanitizer runtimes allocate on
// their own account, so under ASan or TSan the counts are printed and
// the assertions skipped.
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernel/cluster.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UNTX_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UNTX_ALLOC_SANITIZED 1
#endif
#endif

namespace {
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace untx {
namespace {

constexpr TableId kTable = 1;
constexpr uint32_t kKeys = 2000;
constexpr int kOpsPerTxn = 8;
constexpr int kTxns = 400;

// Upserts: the count with the DC's duplicate filter (85.85; its window
// gains a node per write until an LWM prunes it), rounded up. Reads:
// half the count before the copy-once op path, rounded up.
constexpr double kUpsertTxnBudget = 86;
constexpr double kReadTxnBudget = 64;

std::string Key(uint32_t i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08u", i);
  return buf;
}

// The benchmark's layout: blocks of eight keys alternate between 2 DCs.
DcId BlockRouter(TableId, const std::string& key) {
  return static_cast<DcId>(
      (strtoul(key.c_str() + 1, nullptr, 10) >> 3) % 2);
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_dcs = 2;
    TcSpec spec;
    spec.options.tc_id = 1;
    spec.options.start_daemons = false;
    options.tcs.push_back(spec);
    options.default_router = BlockRouter;
    cluster_ = std::move(Cluster::Open(std::move(options))).ValueOrDie();
    tc_ = cluster_->tc(0);
    ASSERT_TRUE(tc_->CreateTable(kTable, Key(0)).ok());
    ASSERT_TRUE(tc_->CreateTable(kTable, Key(8)).ok());
    for (uint32_t i = 0; i < kKeys; ++i) {
      keys_.push_back(Key(i));
      values_.push_back(std::string(100, static_cast<char>('a' + i % 26)));
    }
    for (uint32_t base = 0; base < kKeys; base += 500) {
      auto txn = tc_->Begin();
      ASSERT_TRUE(txn.ok());
      for (uint32_t i = base; i < base + 500; ++i) {
        tc_->SubmitInsert(*txn, kTable, keys_[i], values_[i]);
      }
      ASSERT_TRUE(tc_->Commit(*txn).ok());
    }
  }

  /// Runs `txns` transactions of 8 upserts (or reads) of present keys and
  /// returns the allocations per transaction on this thread.
  double AllocsPerTxn(bool write, int txns) {
    std::vector<OpHandle> handles;
    handles.reserve(kOpsPerTxn);
    std::string value;
    value.reserve(256);
    uint32_t next = 0;
    const uint64_t before = t_allocs;
    for (int t = 0; t < txns; ++t) {
      auto txn = tc_->Begin();
      EXPECT_TRUE(txn.ok());
      handles.clear();
      for (int i = 0; i < kOpsPerTxn; ++i) {
        const uint32_t k = (next++ * 7919) % kKeys;
        handles.push_back(write ? tc_->SubmitUpsert(*txn, kTable, keys_[k],
                                                    values_[(k + 1) % kKeys])
                                : tc_->SubmitRead(*txn, kTable, keys_[k]));
      }
      for (auto& handle : handles) {
        EXPECT_TRUE(tc_->Await(&handle, &value).ok());
      }
      EXPECT_TRUE(tc_->Commit(*txn).ok());
    }
    return static_cast<double>(t_allocs - before) / txns;
  }

  std::unique_ptr<Cluster> cluster_;
  TransactionComponent* tc_ = nullptr;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

TEST_F(AllocBudgetTest, UpsertTxnStaysWithinBudget) {
  AllocsPerTxn(/*write=*/true, 50);  // warm-up: containers reach size
  const double per_txn = AllocsPerTxn(/*write=*/true, kTxns);
  printf("allocations per 8-upsert txn: %.2f (budget %.0f)\n", per_txn,
         kUpsertTxnBudget);
#ifndef UNTX_ALLOC_SANITIZED
  EXPECT_LE(per_txn, kUpsertTxnBudget);
#endif
}

TEST_F(AllocBudgetTest, ReadTxnStaysWithinBudget) {
  AllocsPerTxn(/*write=*/false, 50);
  const double per_txn = AllocsPerTxn(/*write=*/false, kTxns);
  printf("allocations per 8-read txn: %.2f (budget %.0f)\n", per_txn,
         kReadTxnBudget);
#ifndef UNTX_ALLOC_SANITIZED
  EXPECT_LE(per_txn, kReadTxnBudget);
#endif
}

}  // namespace
}  // namespace untx
