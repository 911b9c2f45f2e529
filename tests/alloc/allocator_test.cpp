#include "alloc/allocator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {
namespace {

class GpuAllocatorTest : public ::testing::Test {
 protected:
  GpuAllocatorTest() : ga_({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 2}) {}
  GpuAllocator ga_;
};

TEST_F(GpuAllocatorTest, ZeroSizeReturnsNull) {
  EXPECT_EQ(ga_.malloc(0), nullptr);
  ga_.free(nullptr);  // must be a no-op
}

TEST_F(GpuAllocatorTest, EffectiveSizeRouting) {
  EXPECT_EQ(GpuAllocator::effective_size(1), 8u);     // min alloc
  EXPECT_EQ(GpuAllocator::effective_size(8), 8u);
  EXPECT_EQ(GpuAllocator::effective_size(9), 16u);
  EXPECT_EQ(GpuAllocator::effective_size(1000), 1024u);
  EXPECT_EQ(GpuAllocator::effective_size(1025), 4096u);  // 2 KB degenerate
  EXPECT_EQ(GpuAllocator::effective_size(2048), 4096u);
  EXPECT_EQ(GpuAllocator::effective_size(4096), 4096u);
  EXPECT_EQ(GpuAllocator::effective_size(5000), 8192u);
  EXPECT_EQ(GpuAllocator::effective_size(512 * 1024), 512u * 1024);
}

TEST_F(GpuAllocatorTest, SmallSizesComeFromUAlloc) {
  for (std::size_t size : {1, 8, 100, 1024}) {
    void* p = ga_.malloc(size);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(util::is_aligned(p, kPageSize)) << "size " << size;
    ga_.free(p);
  }
}

TEST_F(GpuAllocatorTest, LargeSizesComeFromTBuddy) {
  for (std::size_t size : {2048, 4096, 10000, 262144}) {
    void* p = ga_.malloc(size);
    ASSERT_NE(p, nullptr);
    if (ga_.heapsan_enabled()) {
      // HeapSan returns base + left redzone, so the *user* pointer is
      // deliberately unaligned; the underlying block is still page-aligned.
      EXPECT_FALSE(util::is_aligned(p, kPageSize)) << "size " << size;
    } else {
      EXPECT_TRUE(util::is_aligned(p, kPageSize)) << "size " << size;
    }
    ga_.free(p);
  }
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(GpuAllocatorTest, FreeRoutesByAlignment) {
  // Interleave small and large allocations, free in shuffled order; the
  // alignment-based routing must send each pointer home.
  util::Xorshift rng(17);
  std::vector<void*> ptrs;
  for (int i = 0; i < 400; ++i) {
    const std::size_t size =
        (i % 2 == 0) ? (std::size_t{8} << rng.next_below(8))
                     : (std::size_t{4096} << rng.next_below(4));
    void* p = ga_.malloc(size);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  // Shuffle.
  for (std::size_t i = ptrs.size(); i > 1; --i) {
    std::swap(ptrs[i - 1], ptrs[rng.next_below(i)]);
  }
  for (void* p : ptrs) ga_.free(p);
  EXPECT_TRUE(ga_.check_consistency());
  ga_.trim();  // scavenge hysteresis-cached bins
  EXPECT_EQ(ga_.buddy().largest_free_block(), test::expected_coalesced_block(ga_));
}

TEST_F(GpuAllocatorTest, OversizedRequestFailsCleanly) {
  EXPECT_EQ(ga_.malloc(ga_.pool_bytes() * 2), nullptr);
  EXPECT_EQ(ga_.stats().failed_mallocs, 1u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(GpuAllocatorTest, WholePoolRoundTrip) {
  // Under HeapSan the redzones count against the block, so the largest
  // satisfiable request is the pool minus both zones.
  const std::size_t overhead =
      ga_.heapsan_enabled() ? ga_.heapsan().wrap_size(0) : 0;
  void* p = ga_.malloc(ga_.pool_bytes() - overhead);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(ga_.malloc(8), nullptr);  // UAlloc cannot grow a chunk now
  ga_.free(p);
  void* q = ga_.malloc(8);
  EXPECT_NE(q, nullptr);
  ga_.free(q);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(GpuAllocatorTest, StatsCount) {
  void* a = ga_.malloc(64);
  void* b = ga_.malloc(8192);
  ga_.free(a);
  ga_.free(b);
  const auto st = ga_.stats();
  EXPECT_EQ(st.mallocs, 2u);
  EXPECT_EQ(st.frees, 2u);
  EXPECT_EQ(st.failed_mallocs, 0u);
}

TEST_F(GpuAllocatorTest, UsableSize) {
  void* small = ga_.malloc(50);
  void* big = ga_.malloc(5000);
  if (ga_.heapsan_enabled()) {
    // Class slack beyond the request is redzone: usable == requested.
    EXPECT_EQ(ga_.usable_size(small), 50u);
    EXPECT_EQ(ga_.usable_size(big), 5000u);
  } else {
    EXPECT_EQ(ga_.usable_size(small), 64u);    // rounded to the class
    EXPECT_EQ(ga_.usable_size(big), 8192u);    // rounded to the order
  }
  ga_.free(small);
  ga_.free(big);
}

TEST_F(GpuAllocatorTest, CallocZeroesAndChecksOverflow) {
  auto* p = static_cast<unsigned char*>(ga_.calloc(16, 33));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 16 * 33; ++i) ASSERT_EQ(p[i], 0);
  ga_.free(p);
  EXPECT_EQ(ga_.calloc(SIZE_MAX / 2, 4), nullptr);  // overflow
  EXPECT_EQ(ga_.calloc(0, 8), nullptr);
}

TEST_F(GpuAllocatorTest, CallocOverflowCountsAsFailedAttempt) {
  const auto before = ga_.stats();
  EXPECT_EQ(ga_.calloc(SIZE_MAX / 2, 4), nullptr);
  const auto after = ga_.stats();
  // The overflow early-return is still an allocation attempt: it must bump
  // both counters, keeping mallocs == frees + failed_mallocs.
  EXPECT_EQ(after.mallocs, before.mallocs + 1);
  EXPECT_EQ(after.failed_mallocs, before.failed_mallocs + 1);
  EXPECT_EQ(after.frees, before.frees);
  EXPECT_EQ(after.mallocs, after.frees + after.failed_mallocs);
}

TEST_F(GpuAllocatorTest, CallocAndReallocKeepStatsConsistent) {
  void* a = ga_.calloc(4, 16);
  ASSERT_NE(a, nullptr);
  void* b = ga_.realloc(nullptr, 32);   // malloc path
  ASSERT_NE(b, nullptr);
  b = ga_.realloc(b, 20);               // same class: no new allocation
  b = ga_.realloc(b, 4096);             // cross-class: malloc + free
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(ga_.realloc(b, 0), nullptr);  // free path
  ga_.free(a);
  EXPECT_EQ(ga_.calloc(0, 8), nullptr);   // zero-size: not an attempt
  const auto st = ga_.stats();
  EXPECT_EQ(st.mallocs, 3u);  // calloc, realloc(nullptr), cross-class grow
  EXPECT_EQ(st.frees, 3u);    // cross-class free, realloc(b,0), free(a)
  EXPECT_EQ(st.failed_mallocs, 0u);
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

TEST_F(GpuAllocatorTest, ReallocSemantics) {
  // nullptr -> malloc.
  auto* p = static_cast<unsigned char*>(ga_.realloc(nullptr, 40));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 40);

  // Grow within the same class: pointer unchanged.
  void* same = ga_.realloc(p, 60);
  EXPECT_EQ(same, p);

  // Grow across classes: contents preserved.
  auto* q = static_cast<unsigned char*>(ga_.realloc(p, 500));
  ASSERT_NE(q, nullptr);
  EXPECT_NE(q, static_cast<void*>(p));
  for (int i = 0; i < 40; ++i) ASSERT_EQ(q[i], 0x5A);

  // Grow into the buddy range.
  auto* r = static_cast<unsigned char*>(ga_.realloc(q, 10000));
  ASSERT_NE(r, nullptr);
  for (int i = 0; i < 40; ++i) ASSERT_EQ(r[i], 0x5A);

  // Shrink back to a small class.
  auto* s = static_cast<unsigned char*>(ga_.realloc(r, 16));
  ASSERT_NE(s, nullptr);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(s[i], 0x5A);

  // realloc(p, 0) frees.
  EXPECT_EQ(ga_.realloc(s, 0), nullptr);
  EXPECT_TRUE(ga_.check_consistency());
  ga_.trim();
  EXPECT_EQ(ga_.buddy().largest_free_block(), test::expected_coalesced_block(ga_));
}

TEST_F(GpuAllocatorTest, ReallocInPlaceFastPath) {
  if (ga_.heapsan_enabled()) {
    // The exact class-boundary arithmetic below assumes no redzone
    // overhead; HeapSanTest.ReallocMovesAndResizesInPlace covers the
    // sanitized equivalent.
    GTEST_SKIP() << "boundary sizes assume redzone-free classes";
  }
  // Any size that rounds to the block's existing capacity returns the same
  // pointer with no copy and no malloc/free — counted in reallocs_inplace.
  auto* p = static_cast<unsigned char*>(ga_.malloc(40));  // 64 B class
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 40);
  const auto before = ga_.stats();
  EXPECT_EQ(ga_.realloc(p, 33), p);  // shrink within class
  EXPECT_EQ(ga_.realloc(p, 64), p);  // grow to exact capacity
  EXPECT_EQ(ga_.realloc(p, 64), p);  // same size again
  const auto mid = ga_.stats();
  EXPECT_EQ(mid.reallocs, before.reallocs + 3);
  EXPECT_EQ(mid.reallocs_inplace, before.reallocs_inplace + 3);
  EXPECT_EQ(mid.mallocs, before.mallocs);  // no round trip happened
  EXPECT_EQ(mid.frees, before.frees);
  for (int i = 0; i < 33; ++i) ASSERT_EQ(p[i], 0x5A);

  // The buddy side takes the same fast path: 8 KB order, resized within.
  void* big = ga_.malloc(5000);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(ga_.realloc(big, 8192), big);
  EXPECT_EQ(ga_.realloc(big, 4097), big);
  const auto after = ga_.stats();
  EXPECT_EQ(after.reallocs_inplace, mid.reallocs_inplace + 2);

  // Crossing a class boundary still moves (and counts as a plain realloc).
  void* moved = ga_.realloc(p, 65);
  EXPECT_NE(moved, static_cast<void*>(p));
  const auto last = ga_.stats();
  EXPECT_EQ(last.reallocs, after.reallocs + 1);
  EXPECT_EQ(last.reallocs_inplace, after.reallocs_inplace);
  ga_.free(moved);
  ga_.free(big);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(GpuAllocatorTest, ReallocInKernel) {
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> bad{0};
  dev.launch_linear(512, 64, [&](gpu::ThreadCtx& t) {
    auto* p = static_cast<std::uint32_t*>(ga_.malloc(8));
    if (p == nullptr) return;
    p[0] = static_cast<std::uint32_t>(t.global_rank());
    std::size_t cur = 8;
    for (int g = 0; g < 6; ++g) {  // grow 8 -> 16 KB doubling
      cur *= 4;
      auto* np = static_cast<std::uint32_t*>(ga_.realloc(p, cur));
      if (np == nullptr) break;
      p = np;
      if (p[0] != t.global_rank()) bad.fetch_add(1);
      t.yield();
    }
    ga_.free(p);
  });
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_TRUE(ga_.check_consistency());
}

TEST_F(GpuAllocatorTest, ConcurrentMixedKernel) {
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(4096, 128, [&](gpu::ThreadCtx& t) {
    auto& rng = t.rng();
    const std::size_t size = std::size_t{8} << rng.next_below(11);  // 8B..8KB
    void* p = ga_.malloc(size);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    std::memset(p, 0x3C, std::min<std::size_t>(size, 128));
    t.yield();
    ga_.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ga_.check_consistency());
  ga_.trim();
  EXPECT_EQ(ga_.buddy().largest_free_block(), test::expected_coalesced_block(ga_));
}

}  // namespace
}  // namespace toma::alloc
