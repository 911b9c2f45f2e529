// The magazines: UAlloc's per-(SM, size-class) cache of claimed blocks.
// Covers the policy table, the slab refill of the 8..64 B classes and
// its LIFO hits, spill hysteresis, the claimed-while-cached invariant
// (trim/flush drain, truthful exhaustion, the pressure flush), cross-SM
// free-to-freeing-SM handoff, the sibling sweep's no-refill rule, and the
// front-end toggle matrix. The stream-ordered interplay lives in
// stream_async_test.cpp (routing of 8..64 B async frees); the
// OS-thread/TSan leg lives in integration/host_stress_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "gpusim/this_thread.hpp"
#include "support/test_support.hpp"
#include "util/prng.hpp"

namespace toma::alloc {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

TEST(Magazine, PolicyTableKeepsEachClassesNumbers) {
  // 8..64 B carry the numbers of the former fast lane, 128 B..1 KiB those
  // of the former magazines, each written here from its own formula.
  EXPECT_EQ(kMagazineRefillClasses, 4u);
  EXPECT_EQ(kMagazineRefillBatches, 4u);
  EXPECT_EQ(kMagazineMaxSlab, 256u);
  for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
    SCOPED_TRACE(::testing::Message() << size_of_class(c) << " B");
    const MagazinePolicy& pol = kMagazinePolicy[c];
    const std::uint32_t bin = bin_capacity(c);
    if (size_of_class(c) <= 64) {
      const std::uint32_t cap = std::max(2 * bin, 256u);
      EXPECT_EQ(pol.capacity, cap);
      EXPECT_EQ(pol.low_water, cap / 2);
      EXPECT_EQ(pol.slab, std::min(bin, 256u));
      EXPECT_EQ(pol.top_up, cap / 4);
      EXPECT_LT(c, kMagazineRefillClasses);
      EXPECT_TRUE(magazine_refills(size_of_class(c)));
      // A fresh slab is never spilled straight back, a top-up has room
      // to restock before the next crossing, and a gated refill reaches
      // the low-water mark within its batch ceiling.
      EXPECT_LE(pol.slab, pol.low_water);
      EXPECT_LT(pol.top_up, pol.low_water);
      EXPECT_GE(kMagazineRefillBatches * pol.slab, pol.low_water + 1);
    } else {
      EXPECT_EQ(pol.capacity, 2 * bin);
      EXPECT_EQ(pol.low_water, pol.capacity);
      EXPECT_EQ(pol.slab, 0u);
      EXPECT_EQ(pol.top_up, 0u);
      EXPECT_GE(c, kMagazineRefillClasses);
      EXPECT_FALSE(magazine_refills(size_of_class(c)));
    }
  }
  EXPECT_FALSE(magazine_refills(4096));
}

TEST(Magazine, PushPastCapacitySpillsExactlyThatBlock) {
  // A class without refill spills exactly the block that crossed the
  // capacity; every earlier push stays cached.
  constexpr std::size_t kPool = 8 * kMiB;
  test::AlignedPool pool(kPool);
  TBuddy buddy(pool.get(), kPool);
  UAlloc ua(buddy, /*num_arenas=*/1);
  ua.set_magazines(true);
  const std::uint32_t cls = size_class_of(128);
  const std::uint32_t cap = kMagazinePolicy[cls].capacity;
  std::vector<void*> held;
  for (std::uint32_t i = 0; i <= cap; ++i) {
    void* p = ua.allocate(128);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  for (std::uint32_t i = 0; i < cap; ++i) ua.free(held[i]);
  ASSERT_EQ(ua.arena(0).magazine_count(cls), cap);
  const UAllocStats before = ua.stats();
  EXPECT_EQ(before.magazine_spills, 0u);

  void* last = held[cap];
  ua.free(last);
  const UAllocStats after = ua.stats();
  EXPECT_EQ(ua.arena(0).magazine_count(cls), cap);
  EXPECT_EQ(after.magazine_spills, 1u);
  EXPECT_EQ(after.magazine_spill_blocks, 1u);
  EXPECT_EQ(after.frees - before.frees, 1u);  // one block re-entered a bin
  std::uint32_t idx;
  BinHeader* bin = ua.decode_block(last, &idx);
  EXPECT_FALSE(bin->bitmap().test(idx)) << "the spilled block is not free";
  for (std::uint32_t i = 0; i < cap; ++i) {
    bin = ua.decode_block(held[i], &idx);
    EXPECT_TRUE(bin->bitmap().test(idx)) << "cached block " << i << " spilled";
  }
  EXPECT_TRUE(ua.check_consistency());
  EXPECT_EQ(ua.release_cached(), cap);
  EXPECT_TRUE(ua.check_consistency());
}

TEST(Magazine, MissRefillsSlabThenHitsLifo) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true});
  const std::uint32_t cls = size_class_of(16);
  const MagazinePolicy& pol = kMagazinePolicy[cls];
  // A solo (host) miss refills until the magazine reaches the low-water
  // mark: after b batches it holds b*slab - 1 (one block went to the
  // caller), so the loop runs ceil((low_water + 1) / slab) batches.
  const std::uint32_t batches = (pol.low_water + 1 + pol.slab - 1) / pol.slab;

  // First allocation: a miss that buys whole slabs, one bulk-semaphore
  // transaction each.
  void* p1 = ga.malloc(16);
  ASSERT_NE(p1, nullptr);
  auto st = ga.stats();
  EXPECT_EQ(st.lane.hits, 0u);
  EXPECT_EQ(st.lane.misses, 1u);
  EXPECT_EQ(st.lane.refills, batches);
  EXPECT_EQ(st.lane.refill_blocks, batches * pol.slab);
  EXPECT_EQ(st.lane.cached, batches * pol.slab - 1);
  // Every slab block left the bins; the stock still counts as claimed.
  EXPECT_EQ(st.ualloc.allocs, batches * pol.slab);
  EXPECT_EQ(st.ualloc.frees, 0u);

  // Free caches the block; the next malloc pops it back, LIFO. (The stock
  // sits well above the top-up trigger, so the pop stays a pure hit.)
  ga.free(p1);
  st = ga.stats();
  EXPECT_EQ(st.lane.cached, batches * pol.slab);
  void* p2 = ga.malloc(16);
  EXPECT_EQ(p2, p1);
  st = ga.stats();
  EXPECT_EQ(st.lane.hits, 1u);
  EXPECT_EQ(st.lane.misses, 1u);  // still just the initial refill
  EXPECT_EQ(st.lane.topups, 0u);

  ga.free(p2);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Magazine, LargeClassesNeverRefill) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true});
  for (std::size_t size : {128, 256, 1024, 4096}) {
    void* p = ga.malloc(size);
    ASSERT_NE(p, nullptr);
    ga.free(p);
  }
  const auto st = ga.stats();
  EXPECT_EQ(st.lane.hits + st.lane.misses, 0u);  // no 8..64 B traffic
  EXPECT_EQ(st.ualloc.magazine_refills, 0u);
  EXPECT_EQ(st.ualloc.magazine_misses, 3u);  // 128, 256, 1024 B
  EXPECT_EQ(st.ualloc.magazine_cached, 3u);
  EXPECT_EQ(st.ualloc.allocs, 3u);  // one block each, no slab
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Magazine, SpillHysteresisBoundsOccupancy) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true});
  const std::uint32_t cls = size_class_of(64);
  const std::uint32_t cap = kMagazinePolicy[cls].capacity;

  // Hold three capacities' worth of live 64 B blocks, then free them all
  // from this one thread: the pushes must repeatedly cross the capacity
  // and drain back to the low-water mark — never past the bound.
  std::vector<void*> held;
  std::set<void*> seen;
  for (std::uint32_t i = 0; i < 3 * cap; ++i) {
    void* p = ga.malloc(64);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate address";
    held.push_back(p);
  }
  for (void* p : held) ga.free(p);

  const auto st = ga.stats();
  EXPECT_GE(st.lane.spills, 2u);
  EXPECT_GT(st.lane.spill_blocks, 0u);
  EXPECT_LE(st.lane.cached, static_cast<std::uint64_t>(cap));
  EXPECT_TRUE(ga.check_consistency());  // re-checks every magazine's bound

  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(Magazine, TrimDrainsMagazines) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true});
  std::vector<void*> held;
  for (int i = 0; i < 100; ++i) {
    void* p = ga.malloc(8);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  for (void* p : held) ga.free(p);
  ASSERT_GT(ga.stats().lane.cached, 0u);

  // Cached blocks pin their bins (claimed-while-cached); trim must drain
  // the magazines first or the pool could never coalesce.
  ga.trim();
  const auto st = ga.stats();
  EXPECT_EQ(st.lane.cached, 0u);
  EXPECT_GT(st.lane.flushes, 0u);
  EXPECT_EQ(st.ualloc.allocs, st.ualloc.frees);
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Magazine, RuntimeToggleFlushesAndReroutes) {
  GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true});
  void* p = ga.malloc(32);
  ASSERT_NE(p, nullptr);
  ga.free(p);
  ASSERT_GT(ga.stats().lane.cached, 0u);

  // Disabling flushes every cached block back into the bin accounting.
  ga.ualloc().set_magazines(false);
  auto st = ga.stats();
  EXPECT_EQ(st.lane.cached, 0u);
  EXPECT_GT(st.lane.flushes, 0u);

  // While off, small allocations take the paper's path: no cache traffic.
  const std::uint64_t hits = st.lane.hits;
  const std::uint64_t misses = st.lane.misses;
  void* q = ga.malloc(32);
  ASSERT_NE(q, nullptr);
  ga.free(q);
  st = ga.stats();
  EXPECT_EQ(st.lane.hits, hits);
  EXPECT_EQ(st.lane.misses, misses);
  EXPECT_EQ(st.lane.cached, 0u);

  // Re-enabling restores the fast path.
  ga.ualloc().set_magazines(true);
  void* r = ga.malloc(32);
  ASSERT_NE(r, nullptr);
  ga.free(r);
  st = ga.stats();
  EXPECT_GT(st.lane.hits + st.lane.misses, hits + misses);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(Magazine, ToggleMatrixChurn) {
  // The magazines must compose with every front-end configuration: buddy
  // quicklists and HeapSan each ON/OFF, with the magazines ON and OFF.
  // (stream_async is a Pool toggle; its interplay is covered in
  // stream_async_test.cpp and the CI stream_async=0 arm.)
  for (int mask = 0; mask < 8; ++mask) {
    const bool mags = (mask & 1) != 0;
    const bool quick = (mask & 2) != 0;
    const bool hsan = (mask & 4) != 0;
    SCOPED_TRACE(::testing::Message() << "magazines=" << mags
                                      << " quicklist=" << quick
                                      << " heapsan=" << hsan);
    GpuAllocator ga(HeapConfig{.pool_bytes = 8 * kMiB,
                               .num_arenas = 2,
                               .heapsan = hsan,
                               .magazines = mags,
                               .quicklist = quick});
    test::run_os_threads(4, [&](unsigned tid) {
      util::Xorshift rng(tid * 977 + mask);
      void* held[4] = {};
      std::size_t sizes[4] = {};
      for (int i = 0; i < 800; ++i) {
        const int slot = static_cast<int>(rng.next_below(4));
        if (held[slot] != nullptr) {
          auto* c = static_cast<unsigned char*>(held[slot]);
          ASSERT_EQ(c[0], 0x42);
          ASSERT_EQ(c[sizes[slot] - 1], 0x24);
          ga.free(held[slot]);
          held[slot] = nullptr;
        }
        // Mostly refill-class sizes, with excursions above them.
        const std::size_t size = std::size_t{8} << rng.next_below(6);
        void* p = ga.malloc(size);
        if (p != nullptr) {
          auto* c = static_cast<unsigned char*>(p);
          c[0] = 0x42;
          c[size - 1] = 0x24;
          held[slot] = p;
          sizes[slot] = size;
        }
      }
      for (void* p : held) {
        if (p != nullptr) ga.free(p);
      }
    });
    const auto st = ga.stats();
    if (!mags) {
      EXPECT_EQ(st.ualloc.magazine_hits + st.ualloc.magazine_misses, 0u);
      EXPECT_EQ(st.ualloc.magazine_cached, 0u);
    } else {
      EXPECT_GT(st.lane.refills, 0u);  // the slab refill actually engaged
    }
    EXPECT_TRUE(ga.check_consistency());
    ga.trim();
    EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
    EXPECT_EQ(ga.stats().ualloc.magazine_cached, 0u);
  }
}

TEST(Magazine, CrossSmFreeLandsOnFreeingSm) {
  // Producer threads on SM 0 allocate; consumers on SM 1 free. The frees
  // must cache in the *freeing* SM's magazine, and the next SM-1
  // allocations must recycle exactly those blocks.
  gpu::Device dev(test::small_device(2, 512, 1));
  alloc::GpuAllocator ga(HeapConfig{.pool_bytes = 16 * kMiB,
                                    .num_arenas = 2,
                                    .heapsan = false,
                                    .magazines = true});
  constexpr std::uint32_t kN = 64;
  constexpr std::size_t kSize = 32;
  const std::uint32_t cls = size_class_of(kSize);
  ASSERT_LT(kN, kMagazinePolicy[cls].low_water);  // no spill interferes
  const auto count = [&](std::uint32_t sm) {
    return ga.ualloc().arena(sm).magazine_count(cls);
  };

  std::vector<std::atomic<void*>> slots(kN);
  std::atomic<std::uint32_t> claimed{0};

  // Phase A: the first kN threads on SM 0 allocate.
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_ordinal(2) != 0) return;
    const std::uint32_t i = claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kN) return;
    void* p = ga.malloc(kSize);
    if (p != nullptr) std::memset(p, 0x5A, kSize);
    slots[i].store(p, std::memory_order_release);
  });
  ASSERT_GE(claimed.load(), kN) << "SM 0 hosted too few threads";
  std::set<void*> produced;
  for (auto& s : slots) {
    ASSERT_NE(s.load(), nullptr);
    produced.insert(s.load());
  }
  const std::uint32_t sm0_before = count(0);
  ASSERT_EQ(count(1), 0u);

  // Phase B: the first kN threads on SM 1 free them.
  claimed.store(0);
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_ordinal(2) != 1) return;
    const std::uint32_t i = claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kN) return;
    void* p = slots[i].exchange(nullptr);
    auto* c = static_cast<unsigned char*>(p);
    if (c[0] != 0x5A || c[kSize - 1] != 0x5A) std::abort();
    ga.free(p);
  });
  ASSERT_GE(claimed.load(), kN) << "SM 1 hosted too few threads";
  EXPECT_EQ(count(1), kN);
  EXPECT_EQ(count(0), sm0_before);

  // Phase C: SM 1 reallocates — every block must come from its own stock.
  const std::uint64_t hits_before = ga.stats().lane.hits;
  claimed.store(0);
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_ordinal(2) != 1) return;
    const std::uint32_t i = claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kN) return;
    slots[i].store(ga.malloc(kSize), std::memory_order_release);
  });
  // The drain dips below the top-up trigger, so the first popper restocks
  // the magazine proactively — it ends re-stocked, not empty. The
  // recycling proof below is the real invariant: every *produced* block
  // popped out before the top-up's fresh blocks landed on top.
  EXPECT_GE(ga.stats().lane.topups, 1u);
  EXPECT_LE(count(1), kMagazinePolicy[cls].capacity);
  EXPECT_GE(ga.stats().lane.hits - hits_before, kN);
  std::set<void*> recycled;
  for (auto& s : slots) {
    ASSERT_NE(s.load(), nullptr);
    recycled.insert(s.load());
  }
  EXPECT_EQ(recycled, produced) << "SM 1 did not recycle the freed blocks";

  for (auto& s : slots) ga.free(s.load());
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(Magazine, ExhaustionYieldsSameCapacityAcrossRounds) {
  // The magazines must not shrink the pool's effective capacity: a second
  // allocate-to-exhaustion round through cached blocks must reach exactly
  // the same count as the first round on a fresh pool.
  GpuAllocator ga(HeapConfig{.pool_bytes = 512 * 1024,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true});
  const auto fill = [&](std::vector<void*>& out) {
    while (void* p = ga.malloc(64)) out.push_back(p);
  };
  std::vector<void*> round1;
  fill(round1);
  ASSERT_GT(round1.size(), 1000u);
  for (void* p : round1) ga.free(p);

  std::vector<void*> round2;
  fill(round2);
  EXPECT_EQ(round2.size(), round1.size())
      << "caching changed the pool's effective capacity";
  for (void* p : round2) ga.free(p);

  ga.trim();
  EXPECT_EQ(ga.stats().ualloc.magazine_cached, 0u);
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  EXPECT_TRUE(ga.check_consistency());
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
  EXPECT_EQ(st.ualloc.allocs, st.ualloc.frees);
}

/// Phase 1 of the exhaustion tests below: one SM-0 thread fills a fixed
/// 512 KiB pool with 64 B blocks. Returns them; the pool is then full and
/// every magazine empty.
std::vector<void*> exhaust_from_sm0(gpu::Device& dev, GpuAllocator& ga) {
  std::vector<void*> held;
  held.reserve(16 * 1024);
  std::atomic<std::uint32_t> claimed{0};
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_ordinal(2) != 0) return;
    if (claimed.fetch_add(1, std::memory_order_relaxed) != 0) return;
    while (void* p = ga.malloc(64)) held.push_back(p);
  });
  return held;
}

/// Run `fn` on exactly one thread of SM `sm`.
template <class Fn>
void on_one_thread_of(gpu::Device& dev, std::uint32_t sm, Fn fn) {
  std::atomic<std::uint32_t> claimed{0};
  dev.launch_linear(1024, 512, [&](gpu::ThreadCtx&) {
    if (gpu::this_thread::sm_id_or_ordinal(2) != sm) return;
    if (claimed.fetch_add(1, std::memory_order_relaxed) != 0) return;
    fn();
  });
  ASSERT_GT(claimed.load(), 0u) << "SM " << sm << " hosted no thread";
}

TEST(Magazine, SiblingSweepPopsStockButNeverRefills) {
  // Exhaustion-truthfulness, same class: blocks cached on SM 1 are, to
  // the bins, still allocated. An SM-0 request of that class that finds
  // its own arena dry reaches them through the sibling sweep — a pop on
  // SM 1's magazine, with no flush and no slab fetched into it.
  gpu::Device dev(test::small_device(2, 512, 1));
  GpuAllocator ga(HeapConfig{.pool_bytes = 512 * 1024,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true,
                             .chunk_bytes = 512 * 1024});
  std::vector<void*> held = exhaust_from_sm0(dev, ga);
  ASSERT_GT(held.size(), 1000u);
  ASSERT_EQ(ga.stats().ualloc.magazine_cached, 0u);

  constexpr std::uint32_t kFreed = 32;
  const std::uint32_t cls = size_class_of(64);
  ASSERT_LT(kFreed, kMagazinePolicy[cls].low_water);
  on_one_thread_of(dev, 1, [&] {
    for (std::uint32_t i = 0; i < kFreed; ++i) {
      ga.free(held.back());
      held.pop_back();
    }
  });
  ASSERT_EQ(ga.ualloc().arena(1).magazine_count(cls), kFreed);

  const auto before = ga.stats();
  std::uint32_t got = 0;
  on_one_thread_of(dev, 0, [&] {
    for (std::uint32_t i = 0; i <= kFreed; ++i) {
      if (void* p = ga.malloc(64)) {
        held.push_back(p);
        ++got;
      }
    }
  });
  const auto after = ga.stats();
  EXPECT_EQ(got, kFreed) << "the sibling's stock was not reachable";
  EXPECT_EQ(after.lane.hits - before.lane.hits, kFreed);
  EXPECT_EQ(after.ualloc.arena_fallbacks - before.ualloc.arena_fallbacks,
            kFreed);
  EXPECT_EQ(after.lane.flushes, before.lane.flushes);
  EXPECT_EQ(after.lane.refills, before.lane.refills);
  EXPECT_EQ(after.lane.topups, before.lane.topups);
  EXPECT_EQ(ga.ualloc().arena(1).magazine_count(cls), 0u);
  EXPECT_EQ(after.failed_mallocs - before.failed_mallocs, 1u);

  for (void* p : held) ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

TEST(Magazine, PressureFlushMakesAnotherSmsStockReachable) {
  // Exhaustion-truthfulness, across classes: SM 1 caches two whole bins
  // of 64 B blocks, so the full pool has no free bin slot. An SM-0 request
  // for 32 B finds no 32 B block anywhere, the sibling sweep included;
  // only malloc's pressure flush — which republishes the 8..64 B stock of
  // every SM — retires a bin and makes its slot reachable.
  gpu::Device dev(test::small_device(2, 512, 1));
  GpuAllocator ga(HeapConfig{.pool_bytes = 512 * 1024,
                             .num_arenas = 2,
                             .heapsan = false,
                             .magazines = true,
                             .chunk_bytes = 512 * 1024});
  std::vector<void*> held = exhaust_from_sm0(dev, ga);
  ASSERT_GT(held.size(), 1000u);

  // Pick two bins whose every block is held.
  const std::uint32_t cls64 = size_class_of(64);
  std::map<BinHeader*, std::vector<void*>> by_bin;
  for (void* p : held) {
    std::uint32_t idx;
    by_bin[ga.ualloc().decode_block(p, &idx)].push_back(p);
  }
  std::vector<void*> stock;
  for (auto& [bin, blocks] : by_bin) {
    if (blocks.size() != bin->capacity) continue;
    stock.insert(stock.end(), blocks.begin(), blocks.end());
    if (stock.size() == 2 * bin_capacity(cls64)) break;
  }
  ASSERT_EQ(stock.size(), 2 * bin_capacity(cls64));
  ASSERT_LE(stock.size(), kMagazinePolicy[cls64].capacity);
  const std::set<void*> stocked(stock.begin(), stock.end());
  held.erase(std::remove_if(held.begin(), held.end(),
                            [&](void* p) { return stocked.count(p) != 0; }),
             held.end());
  on_one_thread_of(dev, 1, [&] {
    for (void* p : stock) ga.free(p);
  });
  ASSERT_EQ(ga.ualloc().arena(1).magazine_count(cls64), stock.size());

  const auto before = ga.stats();
  void* q = nullptr;
  on_one_thread_of(dev, 0, [&] { q = ga.malloc(32); });
  const auto after = ga.stats();
  ASSERT_NE(q, nullptr) << "OOM reported while SM 1 held cached blocks";
  EXPECT_GE(after.lane.flushes - before.lane.flushes, stock.size());
  EXPECT_EQ(ga.ualloc().arena(1).magazine_count(cls64), 0u);
  EXPECT_EQ(after.failed_mallocs, before.failed_mallocs);
  held.push_back(q);

  for (void* p : held) ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

}  // namespace
}  // namespace toma::alloc
