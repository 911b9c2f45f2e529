#include "alloc/ualloc.hpp"

#include <gtest/gtest.h>

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

class UAllocTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPool = 16 * 1024 * 1024;
  UAllocTest()
      : pool_(kPool), buddy_(pool_.get(), kPool), ua_(buddy_, /*arenas=*/2) {}
  test::AlignedPool pool_;
  TBuddy buddy_;
  UAlloc ua_;
};

// One warp of 32 lanes allocating `size` once each from a fresh
// one-arena UAlloc. Checks the 32 blocks are distinct and free cleanly;
// returns the stats after the take and, in `stocked`, what the class's
// magazine then held.
UAllocStats one_warp_take(std::size_t size, bool coalesce, bool magazines,
                          std::uint32_t* stocked = nullptr) {
  constexpr std::size_t kPool = 4 * kChunkSize;
  test::AlignedPool pool(kPool);
  TBuddy buddy(pool.get(), kPool);
  UAlloc ua(buddy, /*num_arenas=*/1);
  ua.set_magazines(magazines);
  ua.set_coalescing(coalesce);
  std::vector<void*> got(32);
  gpu::Device dev(test::small_device());
  dev.launch_linear(32, 32, [&](gpu::ThreadCtx& t) {
    got[t.global_rank()] = ua.allocate(size);
  });
  const std::set<void*> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), 32u) << "duplicate blocks";
  EXPECT_EQ(unique.count(nullptr), 0u);
  const UAllocStats st = ua.stats();
  if (stocked != nullptr) {
    *stocked = ua.arena(0).magazine_count(size_class_of(size));
  }
  for (void* p : got) {
    if (p != nullptr) ua.free(p);
  }
  EXPECT_TRUE(ua.check_consistency());
  return st;
}

TEST_F(UAllocTest, GeometryConstants) {
  EXPECT_EQ(bin_capacity(size_class_of(8)), 512u);
  EXPECT_EQ(bin_capacity(size_class_of(16)), 256u);
  EXPECT_EQ(bin_capacity(size_class_of(128)), 32u);
  EXPECT_EQ(bin_capacity(size_class_of(256)), 15u);  // no tail: 3968/256
  EXPECT_EQ(bin_capacity(size_class_of(512)), 7u);
  EXPECT_EQ(bin_capacity(size_class_of(1024)), 3u);
}

TEST_F(UAllocTest, NeverPageAligned) {
  for (std::size_t size : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    void* p = ua_.allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(util::is_aligned(p, kPageSize))
        << "UAlloc returned page-aligned block for size " << size;
    ua_.free(p);
  }
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, RoundTripAllSizes) {
  for (std::size_t size : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    void* p = ua_.allocate(size);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xCD, size);
    ua_.free(p);
  }
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, DistinctAddressesWithinBin) {
  std::set<void*> seen;
  std::vector<void*> ptrs;
  for (int i = 0; i < 600; ++i) {  // more than one 8B bin (512 cap)
    void* p = ua_.allocate(8);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate address";
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, BlocksDoNotOverlap) {
  // Write a distinct pattern into every allocation, then verify all.
  constexpr int kN = 256;
  std::vector<void*> ptrs(kN);
  std::vector<std::size_t> sizes(kN);
  util::Xorshift rng(5);
  for (int i = 0; i < kN; ++i) {
    sizes[i] = std::size_t{8} << rng.next_below(8);
    ptrs[i] = ua_.allocate(sizes[i]);
    ASSERT_NE(ptrs[i], nullptr);
    std::memset(ptrs[i], i & 0xff, sizes[i]);
  }
  for (int i = 0; i < kN; ++i) {
    auto* c = static_cast<unsigned char*>(ptrs[i]);
    for (std::size_t k = 0; k < sizes[i]; ++k) {
      ASSERT_EQ(c[k], i & 0xff) << "allocation " << i << " corrupted";
    }
    ua_.free(ptrs[i]);
  }
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, TailBlocksUsedForSmallSizes) {
  // Fill a whole 8 B bin: 512 blocks only fit because the 128 B tail is
  // appended (3968/8 = 496 without it). Verify the tail blocks land in
  // header bins 0/1 of the chunk and round-trip correctly.
  std::vector<void*> ptrs;
  int tail_blocks = 0;
  for (int i = 0; i < 512; ++i) {
    void* p = ua_.allocate(8);
    ASSERT_NE(p, nullptr);
    const std::uintptr_t off =
        reinterpret_cast<std::uintptr_t>(p) % kChunkSize;
    if (off / kBinSize < kHeaderBins) ++tail_blocks;
    std::memset(p, 0x77, 8);
    ptrs.push_back(p);
  }
  EXPECT_GT(tail_blocks, 0) << "no allocations used the tail space";
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, ExhaustedBinUnlinksAndRelists) {
  // Exhaust one bin of 1 KB blocks (capacity 3), then free: the bin must
  // leave the free-list when empty and return when blocks come back.
  std::vector<void*> ptrs;
  for (int i = 0; i < 3; ++i) {
    void* p = ua_.allocate(1024);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  const auto st1 = ua_.stats();
  EXPECT_GE(st1.bin_unlinks, 1u);
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, FullyFreedBinsRetire) {
  // Allocate enough 1 KB blocks for several bins, free all, and confirm
  // bins were retired back to their chunks.
  std::vector<void*> ptrs;
  for (int i = 0; i < 30; ++i) {
    void* p = ua_.allocate(1024);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ua_.free(p);
  const auto st = ua_.stats();
  EXPECT_GT(st.bins_created, 0u);
  EXPECT_GT(st.bins_retired, 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, ChunkRetirementReturnsMemoryToBuddy) {
  const std::size_t before = buddy_.free_bytes();
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    void* p = ua_.allocate(64);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  EXPECT_LT(buddy_.free_bytes(), before);
  for (void* p : ptrs) ua_.free(p);
  EXPECT_TRUE(ua_.check_consistency());
  // Retire hysteresis keeps the last bin of the class cached; an explicit
  // trim scavenges it and every chunk returns to the buddy.
  ua_.trim();
  // Retired chunks land in the buddy's order-6 quicklist (deferred
  // coalescing); flush it so they show up in the free-space accounting.
  buddy_.trim();
  EXPECT_EQ(ua_.stats().chunks_created, ua_.stats().chunks_retired);
  EXPECT_EQ(buddy_.free_bytes(), before);
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(UAllocTest, ConcurrentSameClassGpu) {
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(4096, 128, [&](gpu::ThreadCtx& t) {
    void* p = ua_.allocate(32);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    std::memset(p, static_cast<int>(t.global_rank() & 0xff), 32);
    t.yield();
    auto* c = static_cast<unsigned char*>(p);
    for (int k = 0; k < 32; ++k) {
      if (c[k] != (t.global_rank() & 0xff)) std::abort();
    }
    ua_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, ConcurrentMixedClassesChurnGpu) {
  gpu::Device dev(test::small_device());
  dev.launch_linear(2048, 64, [&](gpu::ThreadCtx& t) {
    auto& rng = t.rng();
    void* held[3] = {};
    std::size_t held_size[3] = {};
    for (int round = 0; round < 6; ++round) {
      const int slot = static_cast<int>(rng.next_below(3));
      if (held[slot] != nullptr) {
        // Verify canary before freeing.
        auto* c = static_cast<unsigned char*>(held[slot]);
        if (c[0] != 0xEE || c[held_size[slot] - 1] != 0xEF) std::abort();
        ua_.free(held[slot]);
        held[slot] = nullptr;
      }
      const std::size_t size = std::size_t{8} << rng.next_below(8);
      void* p = ua_.allocate(size);
      if (p != nullptr) {
        auto* c = static_cast<unsigned char*>(p);
        c[0] = 0xEE;
        c[size - 1] = 0xEF;
        held[slot] = p;
        held_size[slot] = size;
      }
      t.yield();
    }
    for (auto& p : held) {
      if (p != nullptr) ua_.free(p);
    }
  });
  EXPECT_TRUE(ua_.check_consistency());
  EXPECT_TRUE(buddy_.check_consistency());
}

TEST_F(UAllocTest, CrossArenaFree) {
  // Allocate from arena 0's SM, free from a thread on the other SM: the
  // free must route to the owning arena via the chunk header.
  gpu::Device dev(test::small_device(2, 256, 1));
  std::atomic<void*> handoff{nullptr};
  std::atomic<int> phase{0};
  dev.launch(gpu::Dim3{2}, gpu::Dim3{1}, [&](gpu::ThreadCtx& t) {
    if (t.block_rank() == 0) {
      handoff.store(ua_.allocate(64), std::memory_order_release);
      phase.store(1, std::memory_order_release);
    } else {
      while (phase.load(std::memory_order_acquire) == 0) t.yield();
      void* p = handoff.load(std::memory_order_acquire);
      ASSERT_NE(p, nullptr);
      ua_.free(p);
    }
  });
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, CoalescedWarpAllocationsAreDistinct) {
  // Full warps allocating the same class exercise the coalesced path:
  // one semaphore wait / one grown bin per group. Every member must get
  // a distinct block, and all blocks free cleanly.
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 2048;
  std::vector<std::atomic<void*>> slots(kThreads);
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    void* p = ua_.allocate(64);
    ASSERT_NE(p, nullptr);
    std::memset(p, static_cast<int>(t.global_rank() & 0xff), 64);
    slots[t.global_rank()].store(p);
    t.yield();
    auto* c = static_cast<unsigned char*>(p);
    for (int i = 0; i < 64; ++i) {
      if (c[i] != (t.global_rank() & 0xff)) std::abort();
    }
  });
  std::set<void*> unique;
  for (auto& s : slots) {
    void* p = s.load();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(unique.insert(p).second) << "duplicate block";
  }
  // Lanes met in groups larger than one, and each lane's visit counted
  // one magazine hit (its own pop or its leader's) or one miss.
  const UAllocStats st = ua_.stats();
  EXPECT_GT(st.coalesced_groups, 0u);
  EXPECT_GT(st.coalesced_threads, st.coalesced_groups);
  if (ua_.magazines_enabled()) {
    EXPECT_EQ(st.magazine_hits + st.magazine_misses, kThreads);
  }
  for (auto& s : slots) ua_.free(s.load());
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, CoalescingTogglesOff) {
  ua_.set_coalescing(false);
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(1024, 64, [&](gpu::ThreadCtx& t) {
    void* p = ua_.allocate(32);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    t.yield();
    ua_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(ua_.stats().coalesced_groups, 0u);
  EXPECT_TRUE(ua_.check_consistency());
  ua_.set_coalescing(true);
  // The switch reaches every group take, refill classes included; on,
  // every class whose bin holds a warp (8-128 B) groups its warp-mates,
  // with magazines on or off.
  for (const bool mags : {true, false}) {
    for (std::size_t size = kMinAlloc; size <= kMaxUAllocSize; size *= 2) {
      SCOPED_TRACE(testing::Message() << size << " B, magazines " << mags);
      EXPECT_EQ(one_warp_take(size, false, mags).coalesced_groups, 0u);
      const bool groups = bin_capacity(size_class_of(size)) >= 32;
      EXPECT_EQ(one_warp_take(size, true, mags).coalesced_groups > 0,
                groups);
    }
  }
}

TEST_F(UAllocTest, CoalescedMixedWithIndividual) {
  // Half the lanes allocate a coalescable class (64 B), half a class too
  // small to coalesce (1 KB, capacity 3): groups and singletons interleave.
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    const std::size_t size = (t.lane_id() % 2 == 0) ? 64 : 1024;
    void* p = ua_.allocate(size);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    std::memset(p, 0x5E, size);
    t.yield();
    ua_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, HostThreadsFallbackPath) {
  // UAlloc works from plain OS threads too (arena chosen by thread hash).
  test::run_os_threads(4, [&](unsigned tid) {
    util::Xorshift rng(tid);
    std::vector<void*> held;
    for (int i = 0; i < 500; ++i) {
      if (!held.empty() && (rng.next() & 1)) {
        ua_.free(held.back());
        held.pop_back();
      } else {
        const std::size_t size = std::size_t{8} << rng.next_below(8);
        if (void* p = ua_.allocate(size)) held.push_back(p);
      }
    }
    for (void* p : held) ua_.free(p);
  });
  EXPECT_TRUE(ua_.check_consistency());
}

// ---------------------------------------------------------------------------
// Magazine front-end (docs/INTERNALS.md §4b)
// ---------------------------------------------------------------------------

TEST_F(UAllocTest, MagazineHitReusesFreedBlock) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  // 128 B: a class whose magazine is stocked by frees only (the 8..64 B
  // slab refill is covered in magazine_test.cpp).
  void* p = ua_.allocate(128);
  ASSERT_NE(p, nullptr);
  ua_.free(p);
  // The block parks in this thread's arena magazine, bitmap bit still set.
  EXPECT_EQ(ua_.stats().magazine_cached, 1u);
  void* q = ua_.allocate(128);
  EXPECT_EQ(q, p) << "LIFO magazine must return the block just freed";
  const auto st = ua_.stats();
  EXPECT_EQ(st.magazine_hits, 1u);
  EXPECT_EQ(st.magazine_cached, 0u);
  ua_.free(q);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, MagazineBoundedAndSpills) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  // 1 KB class: bin capacity 3, so the magazine caps at 6. Freeing 10
  // blocks from one host thread parks 6 and spills 4 through the paper's
  // free path.
  const std::uint32_t cls = size_class_of(1024);
  const std::uint32_t cap = kMagazinePolicy[cls].capacity;
  ASSERT_EQ(cap, 6u);
  std::vector<void*> ptrs;
  for (int i = 0; i < 10; ++i) {
    void* p = ua_.allocate(1024);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ua_.free(p);
  const auto st = ua_.stats();
  EXPECT_EQ(st.magazine_cached, cap);
  EXPECT_EQ(st.magazine_spills, 10u - cap);
  EXPECT_EQ(st.magazine_spill_blocks, 10u - cap);  // one block per spill
  std::uint32_t total = 0;
  for (std::uint32_t a = 0; a < ua_.num_arenas(); ++a) {
    total += ua_.arena(a).magazine_count(cls);
    EXPECT_LE(ua_.arena(a).magazine_count(cls), cap);
  }
  EXPECT_EQ(total, cap);
  EXPECT_TRUE(ua_.check_consistency());  // validates cached-bit integrity
  EXPECT_EQ(ua_.release_cached(), cap);
  EXPECT_EQ(ua_.stats().magazine_cached, 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, MagazineAccountingInvariantAfterFlush) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  // allocs counts blocks claimed out of the bins and frees blocks
  // published back, and a cached block stays claimed: at every quiescent
  // point allocs - frees == live + cached. With the magazines on, every
  // publication is a spill or a flush.
  util::Xorshift rng(11);
  std::vector<void*> held;
  for (int i = 0; i < 2000; ++i) {
    if (!held.empty() && (rng.next() & 1)) {
      ua_.free(held.back());
      held.pop_back();
    } else {
      const std::size_t size = std::size_t{8} << rng.next_below(8);
      if (void* p = ua_.allocate(size)) held.push_back(p);
    }
  }
  auto st = ua_.stats();
  EXPECT_EQ(st.allocs - st.frees, held.size() + st.magazine_cached);
  for (void* p : held) ua_.free(p);
  st = ua_.stats();
  EXPECT_EQ(st.allocs - st.frees, st.magazine_cached);
  ua_.release_cached();
  st = ua_.stats();
  EXPECT_EQ(st.magazine_cached, 0u);
  EXPECT_EQ(st.allocs, st.frees);
  EXPECT_EQ(st.frees, st.magazine_spill_blocks + st.magazine_flushes);
  EXPECT_GT(st.magazine_refills, 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, MagazinesDisabledMatchesPaperPath) {
  const bool was_on = ua_.magazines_enabled();
  ua_.set_magazines(false);
  void* p = ua_.allocate(64);
  ASSERT_NE(p, nullptr);
  ua_.free(p);
  const auto st = ua_.stats();
  EXPECT_EQ(st.magazine_hits, 0u);
  EXPECT_EQ(st.magazine_misses, 0u);
  EXPECT_EQ(st.magazine_cached, 0u);
  // Disabled means the free went straight through publish_free_block, so
  // the block is claimable again without any flush.
  EXPECT_EQ(ua_.release_cached(), 0u);
  EXPECT_TRUE(ua_.check_consistency());
  ua_.set_magazines(was_on);
}

TEST_F(UAllocTest, DisablingMagazinesFlushesCachedBlocks) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  void* p = ua_.allocate(128);
  ASSERT_NE(p, nullptr);
  ua_.free(p);
  ASSERT_EQ(ua_.stats().magazine_cached, 1u);
  const bool was_on = ua_.magazines_enabled();
  ua_.set_magazines(false);
  const auto st = ua_.stats();
  EXPECT_EQ(st.magazine_cached, 0u);
  EXPECT_EQ(st.magazine_flushes, 1u);
  EXPECT_TRUE(ua_.check_consistency());
  ua_.set_magazines(was_on);
}

TEST_F(UAllocTest, CrossSmFreeParksInFreeingSmsMagazine) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  // Alloc on SM i, free on SM j: the block must land in arena j's
  // magazine (the freeing SM reuses it locally next), never arena i's.
  // 128 B is stocked by frees only, so the counts are exact.
  gpu::Device dev(test::small_device(2, 256, 1));
  std::atomic<void*> handoff{nullptr};
  std::atomic<int> phase{0};
  std::atomic<std::uint32_t> alloc_sm{0}, free_sm{0};
  dev.launch(gpu::Dim3{2}, gpu::Dim3{1}, [&](gpu::ThreadCtx& t) {
    if (t.block_rank() == 0) {
      alloc_sm.store(t.sm_id());
      handoff.store(ua_.allocate(128), std::memory_order_release);
      phase.store(1, std::memory_order_release);
    } else {
      while (phase.load(std::memory_order_acquire) == 0) t.yield();
      free_sm.store(t.sm_id());
      void* p = handoff.load(std::memory_order_acquire);
      ASSERT_NE(p, nullptr);
      ua_.free(p);
    }
  });
  const std::uint32_t cls = size_class_of(128);
  const std::uint32_t freeing_arena = free_sm.load() % ua_.num_arenas();
  EXPECT_EQ(ua_.arena(freeing_arena).magazine_count(cls), 1u);
  if (alloc_sm.load() % ua_.num_arenas() != freeing_arena) {
    EXPECT_EQ(
        ua_.arena(alloc_sm.load() % ua_.num_arenas()).magazine_count(cls),
        0u);
  }
  EXPECT_EQ(ua_.stats().magazine_cached, 1u);
  EXPECT_TRUE(ua_.check_consistency());
  EXPECT_EQ(ua_.release_cached(), 1u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, HostThreadFreeOfDeviceAllocation) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  // Device threads allocate; plain OS threads free. The host-side frees
  // park in hash-chosen arenas and the accounting still closes.
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 512;
  std::vector<std::atomic<void*>> slots(kThreads);
  dev.launch_linear(kThreads, 64, [&](gpu::ThreadCtx& t) {
    slots[t.global_rank()].store(ua_.allocate(32));
  });
  test::run_os_threads(4, [&](unsigned tid) {
    for (std::uint64_t i = tid; i < kThreads; i += 4) {
      if (void* p = slots[i].load()) ua_.free(p);
    }
  });
  const std::uint32_t cls = size_class_of(32);
  const std::uint32_t cap = kMagazinePolicy[cls].capacity;
  std::uint64_t cached = 0;
  for (std::uint32_t a = 0; a < ua_.num_arenas(); ++a) {
    EXPECT_LE(ua_.arena(a).magazine_count(cls), cap);
    cached += ua_.arena(a).magazine_count(cls);
  }
  // Every block was freed: only cached ones are still claimed, and every
  // block published back so far was spilled.
  const auto st = ua_.stats();
  EXPECT_EQ(st.magazine_cached, cached);
  EXPECT_EQ(st.allocs - st.frees, cached);
  EXPECT_EQ(st.frees, st.magazine_spill_blocks);
  EXPECT_TRUE(ua_.check_consistency());
  ua_.release_cached();
  EXPECT_EQ(ua_.stats().magazine_cached, 0u);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, CoalescedWarpDrawsFromMagazineFirst) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  // Churn a full warp through alloc/free twice: round two's allocations
  // should be satisfied by the magazines the round-one frees filled, so
  // lanes peel off before the coalescing rendezvous.
  gpu::Device dev(test::small_device());
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    for (int round = 0; round < 4; ++round) {
      void* p = ua_.allocate(64);
      ASSERT_NE(p, nullptr);
      std::memset(p, 0xA5, 64);
      t.yield();
      ua_.free(p);
    }
  });
  const auto st = ua_.stats();
  EXPECT_GT(st.magazine_hits, 0u);
  EXPECT_TRUE(ua_.check_consistency());
  ua_.release_cached();
  EXPECT_TRUE(ua_.check_consistency());
}

TEST_F(UAllocTest, TrimFlushesMagazines) {
  if (!ua_.magazines_enabled()) GTEST_SKIP() << "magazines off by default";
  const std::size_t before = buddy_.free_bytes();
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) {
    void* p = ua_.allocate(256);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) ua_.free(p);
  EXPECT_GT(ua_.stats().magazine_cached, 0u);
  // trim() must flush the magazines first or cached blocks pin their bins
  // (and chunks) forever.
  ua_.trim();
  buddy_.trim();  // retired chunks sit in the buddy quicklist until flushed
  EXPECT_EQ(ua_.stats().magazine_cached, 0u);
  EXPECT_EQ(buddy_.free_bytes(), before);
  EXPECT_TRUE(ua_.check_consistency());
}

TEST(UAllocCoalescing, WarpMissOnEmptyMagazineIsOneGroupTake) {
  // A full warp that misses an empty 64 B magazine meets once: its leader
  // takes one slab (one new bin of 64 blocks) in one transaction, hands
  // each lane its own block and stocks the other 32. Every lane counts
  // one miss; the take counts one refill of all 64 blocks.
  std::uint32_t stocked = 0;
  const UAllocStats st = one_warp_take(64, /*coalesce=*/true,
                                       /*magazines=*/true, &stocked);
  EXPECT_EQ(st.coalesced_groups, 1u);
  EXPECT_EQ(st.coalesced_threads, 32u);
  EXPECT_EQ(st.bins_created, 1u);
  EXPECT_EQ(st.magazine_refills, 1u);
  EXPECT_EQ(st.magazine_refill_blocks, 64u);
  EXPECT_EQ(st.magazine_misses, 32u);
  EXPECT_EQ(st.magazine_hits, 0u);
  EXPECT_EQ(stocked, 32u) << "the slab's surplus was not stocked";
  // Switched off, the same warp forms no group: each lane misses alone.
  EXPECT_EQ(one_warp_take(64, /*coalesce=*/false, /*magazines=*/true)
                .coalesced_groups,
            0u);
}

TEST(UAllocArenaFallback, SingleChunkPoolServesAllArenas) {
  // Regression for the fig7 8 B anomaly: with a pool of exactly one chunk
  // and two arenas, whichever arena won the chunk race was the only one
  // that could ever allocate — chunks are arena-private, so every thread
  // routed to the losing arena failed while the pool sat mostly free
  // (the 8 B row showed a 67% failure rate against ~3% for its
  // neighbours). allocate() must sweep the sibling arenas before
  // reporting OOM.
  constexpr std::size_t kPool = kChunkSize;
  test::AlignedPool pool(kPool);
  TBuddy buddy(pool.get(), kPool);
  UAlloc ua(buddy, /*num_arenas=*/2);

  // Home arena 0 acquires the pool's only chunk.
  void* a0 = ua.allocate_from(0, 8);
  ASSERT_NE(a0, nullptr);
  // Arena 1 owns no chunk and cannot grow one; the fallback sweep must
  // serve it from arena 0's chunk instead of failing.
  void* a1 = ua.allocate_from(1, 8);
  ASSERT_NE(a1, nullptr);
  EXPECT_GE(ua.stats().arena_fallbacks, 1u);

  ua.free(a0);
  ua.free(a1);
  EXPECT_TRUE(ua.check_consistency());
}

TEST(UAllocExhaustion, WarpGroupsHandTheLastBlocksToLanes) {
  // A warp group's take is all-or-nothing: a group that finds fewer free
  // blocks than lanes and cannot grow a bin gets none. Its lanes must then
  // take one block at a time, or the class's last blocks strand behind
  // warp-sized demands. One arena, a one-chunk pool: one warp of 24 lanes
  // (24 does not divide the pool's 1984 blocks of 128 B; capacity 32, so
  // the class coalesces) must take exactly as many blocks as one host
  // thread does, with magazines off and on (128 B never refills).
  constexpr std::size_t kPool = kChunkSize;
  constexpr std::size_t kSize = 128;
  const auto fill = [&](bool in_kernel, bool magazines = false) {
    test::AlignedPool pool(kPool);
    TBuddy buddy(pool.get(), kPool);
    UAlloc ua(buddy, /*num_arenas=*/1);
    ua.set_magazines(magazines);
    std::vector<void*> held(kPool / kSize);
    std::atomic<std::size_t> n{0};
    const auto take_all = [&] {
      while (void* p = ua.allocate(kSize)) {
        held[n.fetch_add(1, std::memory_order_relaxed)] = p;
      }
    };
    if (in_kernel) {
      gpu::Device dev(test::small_device());
      dev.launch_linear(24, 24, [&](gpu::ThreadCtx&) { take_all(); });
    } else {
      take_all();
    }
    for (std::size_t i = 0; i < n.load(); ++i) ua.free(held[i]);
    EXPECT_TRUE(ua.check_consistency());
    return n.load();
  };
  const std::size_t solo = fill(false);
  EXPECT_EQ(solo, std::size_t{kDataBins} * 32);
  EXPECT_EQ(fill(true), solo) << "warp groups stranded the last blocks";
  EXPECT_EQ(fill(true, /*magazines=*/true), solo)
      << "warp groups stranded the last blocks behind the magazine";
}

}  // namespace
}  // namespace toma::alloc
