#include "alloc/tbuddy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "alloc/config.hpp"
#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {
namespace {

class TBuddyTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPool = 4 * 1024 * 1024;  // 1024 pages
  TBuddyTest() : pool_(kPool), buddy_(pool_.get(), kPool) {}
  test::AlignedPool pool_;
  TBuddy buddy_;
};

TEST_F(TBuddyTest, InitialState) {
  EXPECT_EQ(buddy_.max_order(), 10u);  // 2^10 pages
  EXPECT_EQ(buddy_.available(10), 1u);
  for (std::uint32_t h = 0; h < 10; ++h) EXPECT_EQ(buddy_.available(h), 0u);
  EXPECT_EQ(buddy_.free_bytes(), kPool);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, SingleAllocFree) {
  void* p = buddy_.allocate(0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(buddy_.contains(p));
  EXPECT_TRUE(util::is_aligned(p, kPageSize));
  EXPECT_EQ(buddy_.free_bytes(), kPool - kPageSize);
  buddy_.free(p);
  if (buddy_.quicklist_enabled()) {
    // Deferred coalescing parks the freed page in the order-0 quicklist,
    // invisible to the free-space accounting until flushed.
    EXPECT_EQ(buddy_.quicklist_count(0), 1u);
    EXPECT_EQ(buddy_.trim(), 1u);
  }
  EXPECT_EQ(buddy_.free_bytes(), kPool);
  // Full merge back to a single root block.
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, AlignmentMatchesOrder) {
  for (std::uint32_t order = 0; order <= 5; ++order) {
    void* p = buddy_.allocate(order);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(util::is_aligned(p, kPageSize << order))
        << "order " << order << " block not size-aligned";
    buddy_.free(p);
  }
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, DisjointAllocations) {
  std::vector<void*> ptrs;
  std::set<std::uintptr_t> starts;
  for (int i = 0; i < 64; ++i) {
    void* p = buddy_.allocate(2);  // 16 KB each
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(starts.insert(reinterpret_cast<std::uintptr_t>(p)).second);
    std::memset(p, i, kPageSize << 2);  // touch the whole block
    ptrs.push_back(p);
  }
  // Ranges must not overlap: starts are 16 KB apart at least.
  std::uintptr_t prev = 0;
  for (std::uintptr_t s : starts) {
    if (prev != 0) {
      EXPECT_GE(s - prev, kPageSize << 2);
    }
    prev = s;
  }
  for (void* p : ptrs) buddy_.free(p);
  buddy_.trim();  // flush deferred coalescing before asserting full merge
  EXPECT_TRUE(buddy_.check_consistency());
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
}

TEST_F(TBuddyTest, ExhaustionAtOrderZero) {
  const std::size_t pages = kPool / kPageSize;
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < pages; ++i) {
    void* p = buddy_.allocate(0);
    ASSERT_NE(p, nullptr) << "failed at page " << i;
    ptrs.push_back(p);
  }
  // Pool exactly exhausted: no fragmentation in the buddy range.
  EXPECT_EQ(buddy_.allocate(0), nullptr);
  EXPECT_EQ(buddy_.free_bytes(), 0u);
  for (void* p : ptrs) buddy_.free(p);
  buddy_.trim();
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, WholePoolAllocation) {
  void* p = buddy_.allocate(buddy_.max_order());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p, pool_.get());
  EXPECT_EQ(buddy_.allocate(0), nullptr);  // nothing left
  buddy_.free(p);
  EXPECT_EQ(buddy_.available(buddy_.max_order()), 1u);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, OversizedOrderFails) {
  EXPECT_EQ(buddy_.allocate(buddy_.max_order() + 1), nullptr);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, AllocateBytesRounds) {
  void* p = buddy_.allocate_bytes(kPageSize + 1);  // -> order 1
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(util::is_aligned(p, 2 * kPageSize));
  buddy_.free(p);
  EXPECT_EQ(buddy_.allocate_bytes(0), nullptr);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, MergeCascadesAcrossOrders) {
  // Allocate 4 sibling order-0 pages, free them all: they must cascade
  // into one order-2 block (observable via the order-2 semaphore or a
  // subsequent aligned allocation).
  std::vector<void*> ptrs;
  for (int i = 0; i < 4; ++i) ptrs.push_back(buddy_.allocate(0));
  for (void* p : ptrs) ASSERT_NE(p, nullptr);
  for (void* p : ptrs) buddy_.free(p);
  buddy_.trim();  // cached frees only cascade once flushed
  EXPECT_TRUE(buddy_.check_consistency());
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_GT(buddy_.stats().merges, 0u);
}

TEST_F(TBuddyTest, MixedOrdersChurn) {
  util::Xorshift rng(99);
  std::vector<std::pair<void*, int>> live;
  for (int iter = 0; iter < 2000; ++iter) {
    if (!live.empty() && (rng.next() & 1)) {
      const std::size_t k = rng.next_below(live.size());
      buddy_.free(live[k].first);
      live[k] = live.back();
      live.pop_back();
    } else {
      const std::uint32_t order = static_cast<std::uint32_t>(
          rng.next_below(6));
      void* p = buddy_.allocate(order);
      if (p != nullptr) {
        // Write a canary at both ends.
        auto* c = static_cast<unsigned char*>(p);
        c[0] = 0xAA;
        c[(kPageSize << order) - 1] = 0xBB;
        live.emplace_back(p, order);
      }
    }
  }
  for (auto& [p, order] : live) buddy_.free(p);
  buddy_.trim();
  EXPECT_TRUE(buddy_.check_consistency());
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
}

TEST_F(TBuddyTest, ConcurrentAllocFreeGpu) {
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failures{0};
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    auto& rng = t.rng();
    for (int round = 0; round < 4; ++round) {
      const std::uint32_t order = static_cast<std::uint32_t>(
          rng.next_below(4));
      void* p = buddy_.allocate(order);
      if (p == nullptr) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::memset(p, 0x5A, 64);  // touch start of block
      t.yield();
      buddy_.free(p);
    }
  });
  buddy_.trim();
  EXPECT_TRUE(buddy_.check_consistency());
  EXPECT_EQ(buddy_.free_bytes(), kPool);
  EXPECT_EQ(buddy_.largest_free_block(), kPool)
      << "free blocks failed to merge back";
}

TEST_F(TBuddyTest, ConcurrentDistinctOrdersConserveMemory) {
  gpu::Device dev(test::small_device());
  // Threads allocate-and-hold; total handed out must never exceed pool.
  std::atomic<std::uint64_t> granted_bytes{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::atomic<void*>> slots(1024);
  dev.launch_linear(1024, 64, [&](gpu::ThreadCtx& t) {
    const std::uint32_t order = t.global_rank() % 3;
    void* p = buddy_.allocate(order);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    granted_bytes.fetch_add(kPageSize << order);
    slots[t.global_rank()].store(p);
  });
  EXPECT_LE(granted_bytes.load(), kPool);
  // Everything granted is disjoint: free them all and expect full merge.
  for (auto& s : slots) {
    if (void* p = s.load()) buddy_.free(p);
  }
  buddy_.trim();
  EXPECT_TRUE(buddy_.check_consistency());
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
}

// --- quicklist front-end (deferred coalescing; INTERNALS §4c) --------------

TEST_F(TBuddyTest, QuicklistLifoReuse) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  void* p1 = buddy_.allocate(0);
  void* p2 = buddy_.allocate(0);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  buddy_.free(p2);
  buddy_.free(p1);
  EXPECT_EQ(buddy_.quicklist_count(0), 2u);
  // Most recently freed block comes back first, straight off the stack.
  EXPECT_EQ(buddy_.allocate(0), p1);
  EXPECT_EQ(buddy_.allocate(0), p2);
  EXPECT_EQ(buddy_.stats().quicklist_hits, 2u);
  EXPECT_EQ(buddy_.quicklist_count(0), 0u);
  buddy_.free(p1);
  buddy_.free(p2);
  buddy_.trim();
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, QuicklistInvisibleToAccounting) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  void* p = buddy_.allocate(3);
  ASSERT_NE(p, nullptr);
  const std::size_t free_before = buddy_.free_bytes();
  const std::uint64_t avail_before = buddy_.available(3);
  const std::size_t largest_before = buddy_.largest_free_block();
  buddy_.free(p);
  // The cached block keeps its node Busy and its semaphore unit consumed:
  // every accounting probe must read exactly as if it were still
  // allocated. This is the invariant that keeps largest_free_block() and
  // exhaustion decisions correct with the cache on.
  EXPECT_EQ(buddy_.quicklist_count(3), 1u);
  EXPECT_EQ(buddy_.free_bytes(), free_before);
  EXPECT_EQ(buddy_.available(3), avail_before);
  EXPECT_EQ(buddy_.largest_free_block(), largest_before);
  EXPECT_TRUE(buddy_.check_consistency());
  EXPECT_EQ(buddy_.trim(), 1u);
  EXPECT_EQ(buddy_.free_bytes(), kPool);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, QuicklistHighWaterSpillFlushesToLowWater) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  const std::uint32_t cap = quicklist_capacity(0, buddy_.max_order());
  ASSERT_EQ(cap, 32u);  // kQuicklistHighWater at this pool size
  const std::uint32_t low = quicklist_low_water(cap);
  std::vector<void*> ptrs;
  for (std::uint32_t i = 0; i < cap + 8; ++i) {
    void* p = buddy_.allocate(0);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (std::uint32_t i = 0; i < cap; ++i) buddy_.free(ptrs[i]);
  EXPECT_EQ(buddy_.quicklist_count(0), cap);
  EXPECT_EQ(buddy_.stats().quicklist_spills, 0u);
  // The next free overflows the high-water mark: hysteresis drains the
  // list down to low-water and sends the overflowing block through the
  // merging free path, buying cap/2 more O(1) frees before the next spill.
  buddy_.free(ptrs[cap]);
  EXPECT_EQ(buddy_.stats().quicklist_spills, 1u);
  EXPECT_EQ(buddy_.stats().quicklist_flushes, cap - low);
  EXPECT_EQ(buddy_.quicklist_count(0), low);
  for (std::uint32_t i = cap + 1; i < cap + 8; ++i) buddy_.free(ptrs[i]);
  EXPECT_EQ(buddy_.quicklist_count(0), low + 7);
  EXPECT_EQ(buddy_.stats().quicklist_spills, 1u);  // no further spill
  buddy_.trim();
  EXPECT_EQ(buddy_.quicklist_count(0), 0u);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, QuicklistFlushOnTrimReformsMaximalBlocks) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  std::vector<void*> ptrs;
  for (int i = 0; i < 16; ++i) {
    void* p = buddy_.allocate(0);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) buddy_.free(p);
  // Deferred coalescing: the freed siblings sit unmerged in the cache.
  EXPECT_EQ(buddy_.quicklist_count(0), 16u);
  EXPECT_LT(buddy_.largest_free_block(), kPool);
  const std::uint64_t merges_before = buddy_.stats().merges;
  EXPECT_EQ(buddy_.trim(), 16u);
  // The flush pushed them through the real free path: merges cascaded
  // and the pool is one maximal block again.
  EXPECT_GT(buddy_.stats().merges, merges_before);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, DisablingQuicklistFlushes) {
  void* p = buddy_.allocate(0);
  ASSERT_NE(p, nullptr);
  buddy_.set_quicklist(true);
  buddy_.free(p);
  EXPECT_EQ(buddy_.quicklist_count(0), 1u);
  buddy_.set_quicklist(false);  // flushes: paper-faithful config reachable
  EXPECT_EQ(buddy_.quicklist_count(0), 0u);
  EXPECT_EQ(buddy_.free_bytes(), kPool);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  // With the cache off, frees take the merging path directly.
  void* q = buddy_.allocate(0);
  buddy_.free(q);
  EXPECT_EQ(buddy_.quicklist_count(0), 0u);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, QuicklistServesBeforeTreeUnderExhaustion) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  // Exhaust the pool, free a handful (they cache), and reallocate: the
  // cached blocks must be handed out even though the tree itself reports
  // nothing available (pops run before the semaphore).
  const std::size_t pages = kPool / kPageSize;
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < pages; ++i) {
    void* p = buddy_.allocate(0);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 8; ++i) buddy_.free(ptrs[i]);
  EXPECT_EQ(buddy_.quicklist_count(0), 8u);
  EXPECT_EQ(buddy_.free_bytes(), 0u);  // cached blocks stay invisible
  for (int i = 0; i < 8; ++i) {
    ptrs[i] = buddy_.allocate(0);
    EXPECT_NE(ptrs[i], nullptr) << "cached block not served at exhaustion";
  }
  EXPECT_EQ(buddy_.allocate(0), nullptr);  // now truly exhausted
  for (void* p : ptrs) buddy_.free(p);
  buddy_.trim();
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, PoolPressureFlushesQuicklistsAndRetries) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  // Fill the pool with order-0 pages, free them all (32 stay cached at
  // order 0, the rest merge), then ask for a block larger than anything
  // the tree can currently form: the allocation must flush the cached
  // pages, let them coalesce, and succeed instead of reporting OOM.
  const std::size_t pages = kPool / kPageSize;
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < pages; ++i) {
    void* p = buddy_.allocate(0);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) buddy_.free(p);
  ASSERT_GT(buddy_.quicklist_count(0), 0u);
  void* big = buddy_.allocate(buddy_.max_order());
  EXPECT_NE(big, nullptr)
      << "pool pressure failed to reclaim quicklisted blocks";
  buddy_.free(big);
  buddy_.trim();
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, ExhaustedTreeFailsOnceWithoutRecursing) {
  // One live block covers the pool: no order has available or expected
  // units and nothing is cached, so a page request is refused by the
  // exhaustion verdict at once. It must not walk the split path up
  // through all eleven orders, counting a failure and a quicklist miss
  // at each.
  void* whole = buddy_.allocate(buddy_.max_order());
  ASSERT_NE(whole, nullptr);
  const TBuddyStats before = buddy_.stats();
  EXPECT_EQ(buddy_.allocate(0), nullptr);
  const TBuddyStats after = buddy_.stats();
  EXPECT_EQ(after.failed_allocs - before.failed_allocs, 1u);
  EXPECT_EQ(after.quicklist_misses - before.quicklist_misses,
            buddy_.quicklist_enabled() ? 1u : 0u);
  EXPECT_EQ(after.splits, before.splits);
  EXPECT_TRUE(buddy_.check_consistency());
  buddy_.free(whole);
  buddy_.trim();
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, QuicklistedBuddiesMergeToServeTheOrderAbove) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  // Two buddy pages, then one block of every order 1..9: the first split
  // chain left exactly one available block per order, so the tree is
  // empty. Freeing the two pages caches them at order 0, where only a
  // flush can merge them into the order-1 block a request needs. The
  // exhaustion verdict must count the lower-order quicklists.
  void* p0 = buddy_.allocate(0);
  void* p1 = buddy_.allocate(0);
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p0) ^
                reinterpret_cast<std::uintptr_t>(p1),
            kPageSize)
      << "the first two pages of a fresh tree are buddies";
  std::vector<void*> rest;
  for (std::uint32_t h = 1; h < buddy_.max_order(); ++h) {
    rest.push_back(buddy_.allocate(h));
    ASSERT_NE(rest.back(), nullptr) << "order " << h;
  }
  ASSERT_EQ(buddy_.free_bytes(), 0u);
  buddy_.free(p0);
  buddy_.free(p1);
  ASSERT_EQ(buddy_.quicklist_count(0), 2u);
  void* pair = buddy_.allocate(1);
  EXPECT_EQ(pair, std::min(p0, p1)) << "the flushed pages merged into it";
  EXPECT_TRUE(buddy_.check_consistency());
  if (pair != nullptr) buddy_.free(pair);
  for (void* p : rest) buddy_.free(p);
  buddy_.trim();
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, CasClaimWinsUncontended) {
  buddy_.set_quicklist(false);  // force every allocation through the tree
  void* p = buddy_.allocate(0);
  ASSERT_NE(p, nullptr);
  // Uncontended, the optimistic CAS always wins.
  EXPECT_GT(buddy_.stats().cas_claims, 0u);
  EXPECT_EQ(buddy_.stats().lock_claims, 0u);
  buddy_.free(p);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(TBuddyTest, QuicklistConcurrentChurnPreservesInvariants) {
  if (!buddy_.quicklist_enabled()) GTEST_SKIP() << "quicklist off by default";
  gpu::Device dev(test::small_device());
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    auto& rng = t.rng();
    for (int round = 0; round < 4; ++round) {
      const std::uint32_t order =
          static_cast<std::uint32_t>(rng.next_below(4));
      void* p = buddy_.allocate(order);
      if (p == nullptr) continue;
      std::memset(p, 0x5A, 64);
      t.yield();
      buddy_.free(p);
    }
  });
  // Quiescent: cached bytes + accounted free bytes must equal the pool
  // (every block is either cached-Busy or semaphore-visible, never both).
  std::size_t cached_bytes = 0;
  for (std::uint32_t h = 0; h <= buddy_.max_order(); ++h) {
    cached_bytes += static_cast<std::size_t>(buddy_.quicklist_count(h)) *
                    (kPageSize << h);
  }
  EXPECT_EQ(buddy_.free_bytes() + cached_bytes, kPool);
  EXPECT_TRUE(buddy_.check_consistency());
  buddy_.trim();
  EXPECT_EQ(buddy_.free_bytes(), kPool);
  EXPECT_EQ(buddy_.largest_free_block(), kPool);
  EXPECT_TRUE(buddy_.check_consistency());
}

// Property sweep over pool sizes: invariants hold after heavy churn.
class TBuddyProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TBuddyProperty, ChurnPreservesInvariants) {
  const std::size_t pool_bytes = GetParam();
  test::AlignedPool pool(pool_bytes);
  TBuddy buddy(pool.get(), pool_bytes);
  util::Xorshift rng(pool_bytes);
  std::vector<void*> live;
  for (int iter = 0; iter < 1500; ++iter) {
    if (!live.empty() && rng.next_below(100) < 45) {
      const std::size_t k = rng.next_below(live.size());
      buddy.free(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      const std::uint32_t order = static_cast<std::uint32_t>(
          rng.next_below(buddy.max_order() + 1));
      if (void* p = buddy.allocate(order)) live.push_back(p);
    }
  }
  EXPECT_TRUE(buddy.check_consistency());
  for (void* p : live) buddy.free(p);
  buddy.trim();
  EXPECT_TRUE(buddy.check_consistency());
  EXPECT_EQ(buddy.largest_free_block(), pool_bytes);
}

INSTANTIATE_TEST_SUITE_P(Pools, TBuddyProperty,
                         ::testing::Values(64 * 1024, 256 * 1024,
                                           1024 * 1024, 8 * 1024 * 1024));

TEST(TBuddyRace, SimultaneousSplittersOfAFreshTreeAllSucceed) {
  // 2^k requests of order max-k exactly tile a fresh tree, so every one
  // must succeed however the requesters interleave. A requester that
  // finds no unit at its order must meet the splitters above it (their
  // promises raise E at the lower order before they take the block that
  // moves down), not declare the tree exhausted in between. Four workers
  // run the requesters on four SMs in parallel. The race is rare: an
  // exhaustion scan read bottom up failed about one repetition in 7,000
  // here, so this test catches it only now and then.
  constexpr std::size_t kPool = 256 * kPageSize;
  gpu::Device dev(test::small_device(/*num_sms=*/4, 512, /*workers=*/4));
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const std::uint32_t n = 1u << k;
    for (int rep = 0; rep < 1000; ++rep) {
      test::AlignedPool pool(kPool);
      TBuddy buddy(pool.get(), kPool);
      const std::uint32_t order = buddy.max_order() - k;
      std::vector<std::atomic<void*>> got(n);
      std::atomic<std::uint32_t> arrived{0};
      dev.launch_linear(n, 1, [&](gpu::ThreadCtx& t) {
        // Start together, so the requests overlap in time.
        arrived.fetch_add(1, std::memory_order_relaxed);
        while (arrived.load(std::memory_order_relaxed) < n) t.yield();
        got[t.global_rank()].store(buddy.allocate(order));
      });
      std::set<void*> distinct;
      for (auto& g : got) {
        if (void* p = g.load()) distinct.insert(p);
      }
      ASSERT_EQ(distinct.size(), n) << "k=" << k << " rep " << rep;
      EXPECT_EQ(buddy.stats().failed_allocs, 0u);
      for (void* p : distinct) buddy.free(p);
      buddy.trim();
      ASSERT_TRUE(buddy.check_consistency());
      ASSERT_EQ(buddy.largest_free_block(), kPool);
    }
  }
}

TEST(TBuddySmall, MinimalPoolSinglePage) {
  test::AlignedPool pool(kPageSize);
  TBuddy buddy(pool.get(), kPageSize);
  EXPECT_EQ(buddy.max_order(), 0u);
  void* p = buddy.allocate(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(buddy.allocate(0), nullptr);
  buddy.free(p);
  EXPECT_EQ(buddy.available(0), 1u);
  EXPECT_TRUE(buddy.check_consistency());
}

}  // namespace
}  // namespace toma::alloc
