#include "alloc/stream.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "alloc/pool.hpp"
#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"

namespace toma::alloc {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

// HeapSan bypasses stream reuse and deferral by design (a sanitized
// pointer is not a raw block base); these tests exercise the deferral
// machinery, so they pin it off. HeapSanEngagedBypassesDeferral turns it
// back on to check the passthrough.
HeapConfig small_cfg() {
  return HeapConfig{.pool_bytes = 8 * kMiB, .num_arenas = 2, .heapsan = false};
}

TEST(StreamAsync, FreeIsDeferredUntilSync) {
  Pool pool("sa-defer", small_cfg());
  pool.set_async(true);  // the suite tests the machinery, not the default
  gpu::Stream s;
  void* p = pool.malloc(128);
  ASSERT_NE(p, nullptr);

  pool.free_async(p, s);
  // Nothing reached the allocator: the block is parked on the stream,
  // still charged to the accounting.
  EXPECT_EQ(pool.stats().alloc.frees, 0u);
  EXPECT_EQ(pool.stats().stream.pending, 1u);
  EXPECT_EQ(pool.bytes_in_use(), 128u);

  EXPECT_EQ(pool.sync(s), 1u);
  EXPECT_EQ(pool.stats().alloc.frees, 1u);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(StreamAsync, SameStreamReusesPendingBlock) {
  Pool pool("sa-reuse", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(256);
  ASSERT_NE(p, nullptr);
  pool.free_async(p, s);

  // Stream order makes the pending block reusable without touching the
  // allocator: same pointer, no new malloc, no drain.
  void* q = pool.malloc_async(256, s);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.stats().stream.reuse_hits, 1u);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.stats().alloc.mallocs, 1u);  // only the original
  EXPECT_EQ(pool.bytes_in_use(), 256u);

  pool.free(q);
  pool.sync(s);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(StreamAsync, ReuseRequiresExactCapacity) {
  Pool pool("sa-exact", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(128);
  ASSERT_NE(p, nullptr);
  pool.free_async(p, s);

  // A different size class cannot take the pending block.
  void* q = pool.malloc_async(256, s);
  EXPECT_NE(q, p);
  ASSERT_NE(q, nullptr);
  EXPECT_GE(pool.stats().stream.reuse_misses, 1u);
  pool.free(q);
  pool.sync(s);
}

TEST(StreamAsync, CrossStreamNeverReuses) {
  Pool pool("sa-cross", small_cfg());
  pool.set_async(true);
  gpu::Stream s1, s2;
  void* p = pool.malloc(256);
  ASSERT_NE(p, nullptr);
  pool.free_async(p, s1);

  // s2 has no ordering relationship with s1's pending free: the block
  // must not be handed out until s1 synchronizes.
  void* q = pool.malloc_async(256, s2);
  EXPECT_NE(q, p);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(pool.stats().stream.reuse_hits, 0u);
  EXPECT_EQ(pool.stats().stream.pending, 1u);

  pool.free(q);
  pool.sync(s1);
  pool.sync(s2);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
}

TEST(StreamAsync, LargeBlocksReuseByExactSize) {
  Pool pool("sa-large", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(8 * 1024);  // TBuddy route, page aligned
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % kPageSize, 0u);
  pool.free_async(p, s);

  void* q = pool.malloc_async(8 * 1024, s);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.stats().stream.reuse_hits, 1u);
  pool.free(q);
  pool.sync(s);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(StreamAsync, OverflowCapForcesInlineDrain) {
  Pool pool("sa-overflow", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  std::vector<void*> held;
  held.reserve(kStreamPendingCap);
  for (std::uint32_t i = 0; i < kStreamPendingCap; ++i) {
    void* p = pool.malloc(128);  // above the refill classes: defers
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  for (void* p : held) pool.free_async(p, s);
  // The cap-th deferred free drained the slot inline — an unsynchronized
  // stream cannot strand unbounded memory.
  EXPECT_GE(pool.stats().stream.overflow_drains, 1u);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  pool.sync(s);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(StreamAsync, AsyncOffDegeneratesToImmediateFree) {
  Pool pool("sa-off", small_cfg());
  pool.set_async(false);
  gpu::Stream s;
  void* p = pool.malloc(128);
  ASSERT_NE(p, nullptr);
  pool.free_async(p, s);
  EXPECT_EQ(pool.stats().alloc.frees, 1u);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);

  // malloc_async still works; it is plain malloc.
  void* q = pool.malloc_async(128, s);
  ASSERT_NE(q, nullptr);
  pool.free(q);
}

TEST(StreamAsync, TurningAsyncOffDrainsPending) {
  Pool pool("sa-toggle", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(128);
  pool.free_async(p, s);
  EXPECT_EQ(pool.stats().stream.pending, 1u);
  pool.set_async(false);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
}

TEST(StreamAsync, HeapSanEngagedBypassesDeferral) {
  HeapConfig cfg = small_cfg();
  cfg.heapsan = true;
  Pool pool("sa-san", cfg);
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(128);
  ASSERT_NE(p, nullptr);
  // Sanitized pointers are not raw block bases; deferring them would
  // blind the sanitizer, so free_async must free immediately...
  pool.free_async(p, s);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  // ...and malloc_async must never serve reuse.
  void* q = pool.malloc_async(128, s);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(pool.stats().stream.reuse_hits, 0u);
  pool.free(q);
  pool.sync(s);
}

TEST(StreamAsync, TrimDrainsPendingFirst) {
  Pool pool("sa-trim", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(128);
  pool.free_async(p, s);
  pool.trim();
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
}

TEST(StreamAsync, ReleaseStreamForgetsSlot) {
  Pool pool("sa-release", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  void* p = pool.malloc(128);
  pool.free_async(p, s);
  EXPECT_EQ(pool.release_stream(s), 1u);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
}

TEST(StreamAsync, DrainBatchesAreCounted) {
  Pool pool("sa-batch", small_cfg());
  pool.set_async(true);
  gpu::Stream s;
  std::vector<void*> held;
  for (int i = 0; i < 100; ++i) held.push_back(pool.malloc(128));
  for (void* p : held) pool.free_async(p, s);
  pool.sync(s);
  const StreamFrontEndStats st = pool.stats().stream;
  EXPECT_EQ(st.deferred, 100u);
  EXPECT_EQ(st.drained, 100u);
  EXPECT_EQ(st.drain_batches, 1u);  // one batch, one grace-period cluster
}

TEST(StreamAsync, SmallFreesRouteThroughMagazineNotPendingList) {
  Pool pool("sa-mag", small_cfg());
  pool.set_async(true);
  pool.allocator().ualloc().set_magazines(true);
  gpu::Stream s;
  void* p = pool.malloc(16);
  ASSERT_NE(p, nullptr);

  // Sizes of the refill classes bypass the per-(pool, stream) pending
  // machinery: the free completes immediately and the block lands in the
  // freeing SM's magazine.
  pool.free_async(p, s);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_GE(pool.stats().alloc.lane.cached, 1u);

  // The next small malloc_async picks the block up from the magazine in
  // O(1) — same recycling the pending scan provided, without the scan.
  void* q = pool.malloc_async(16, s);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool.stats().stream.reuse_hits, 0u);
  EXPECT_GE(pool.stats().alloc.lane.hits, 1u);
  pool.free(q);
  pool.sync(s);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(StreamAsync, MagazinesOffRestorePendingDeferral) {
  Pool pool("sa-mag-off", small_cfg());
  pool.set_async(true);
  pool.allocator().ualloc().set_magazines(false);
  gpu::Stream s;
  void* p = pool.malloc(16);
  ASSERT_NE(p, nullptr);
  pool.free_async(p, s);
  // Without the magazines, small frees defer like every other size.
  EXPECT_EQ(pool.stats().stream.pending, 1u);
  EXPECT_EQ(pool.sync(s), 1u);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(StreamAsync, KernelChurnWithPerWarpStreams) {
  // Device-side shape: concurrent fibers allocate, write, and free_async
  // onto a handful of streams; host syncs them all afterwards.
  Pool pool("sa-kernel", HeapConfig{.pool_bytes = 16 * kMiB,
                                    .num_arenas = 2,
                                    .heapsan = false});
  gpu::Device dev(test::small_device());
  constexpr int kStreams = 4;
  gpu::Stream streams[kStreams];
  std::atomic<std::uint64_t> ok{0};
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    gpu::Stream& s = streams[t.global_rank() % kStreams];
    const std::size_t size = 16u << (t.global_rank() % 5);  // 16..256 B
    auto* p = static_cast<std::uint8_t*>(pool.malloc_async(size, s));
    if (p == nullptr) return;
    p[0] = static_cast<std::uint8_t>(t.global_rank());
    p[size - 1] = 0x7f;
    t.yield();
    if (p[size - 1] == 0x7f) ok.fetch_add(1);
    pool.free_async(p, s);
  });
  EXPECT_EQ(ok.load(), 2048u);
  for (auto& s : streams) pool.sync(s);
  EXPECT_EQ(pool.stats().stream.pending, 0u);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

}  // namespace
}  // namespace toma::alloc
