#include "alloc/pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma::alloc {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

HeapConfig small_cfg() {
  return HeapConfig{.pool_bytes = 4 * kMiB, .num_arenas = 2};
}

TEST(HeapConfig, Validity) {
  EXPECT_TRUE(HeapConfig{}.valid());
  EXPECT_FALSE(HeapConfig{.pool_bytes = 3 * kMiB}.valid());       // not pow2
  EXPECT_FALSE(HeapConfig{.pool_bytes = kChunkSize / 2}.valid());  // too small
  EXPECT_FALSE(HeapConfig{.num_arenas = 0}.valid());
}

TEST(Quota, RejectsWithQuotaStatusAndRecovers) {
  HeapConfig cfg = small_cfg();
  cfg.quota_bytes = 64 * 1024;
  GpuAllocator a(cfg);
  const std::size_t kib = test::request_for_slot(a, 1024);

  std::vector<void*> held;
  AllocStatus st = AllocStatus::kOk;
  for (;;) {
    void* p = a.malloc(kib, &st);
    if (p == nullptr) break;
    held.push_back(p);
  }
  EXPECT_EQ(st, AllocStatus::kQuota);
  EXPECT_EQ(held.size(), 64u);  // 64 KiB quota / 1 KiB blocks
  EXPECT_EQ(a.bytes_in_use(), cfg.quota_bytes);
  EXPECT_GE(a.stats().quota_rejects, 1u);

  // Usage drains -> the quota admits again.
  a.free(held.back());
  held.pop_back();
  void* p = a.malloc(kib, &st);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(st, AllocStatus::kOk);
  held.push_back(p);

  for (void* q : held) a.free(q);
  test::flush_quarantine(a);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_TRUE(a.check_consistency());
}

TEST(Quota, ChargesBlockGranularityForLargeAllocs) {
  HeapConfig cfg = small_cfg();
  cfg.quota_bytes = 64 * 1024;
  GpuAllocator a(cfg);
  // 5000 B rounds to an order-1 buddy block (8 KiB) — that is what the
  // quota must charge, not the request.
  void* p = a.malloc(5000);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.bytes_in_use(), 8u * 1024u);
  a.free(p);
  test::flush_quarantine(a);
  EXPECT_EQ(a.bytes_in_use(), 0u);
}

TEST(Quota, LoweringBelowUsageRejectsUntilDrained) {
  GpuAllocator a(small_cfg());
  void* p = a.malloc(1024);
  ASSERT_NE(p, nullptr);
  a.set_quota(512);  // below the 1 KiB already live
  AllocStatus st;
  EXPECT_EQ(a.malloc(64, &st), nullptr);
  EXPECT_EQ(st, AllocStatus::kQuota);
  a.free(p);
  EXPECT_NE(p = a.malloc(64, &st), nullptr);
  EXPECT_EQ(st, AllocStatus::kOk);
  a.free(p);
}

TEST(PoolManager, CreateFindDestroy) {
  PoolManager& mgr = PoolManager::instance();
  ASSERT_EQ(mgr.find("pm-basic"), nullptr);
  Pool* pool = mgr.create("pm-basic", small_cfg());
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->name(), "pm-basic");
  EXPECT_EQ(mgr.find("pm-basic"), pool);
  EXPECT_EQ(mgr.create("pm-basic", small_cfg()), nullptr);  // duplicate
  EXPECT_TRUE(mgr.destroy("pm-basic"));
  EXPECT_EQ(mgr.find("pm-basic"), nullptr);
  EXPECT_FALSE(mgr.destroy("pm-basic"));
}

TEST(PoolManager, RejectsInvalidConfigAndEmptyName) {
  PoolManager& mgr = PoolManager::instance();
  EXPECT_EQ(mgr.create("", small_cfg()), nullptr);
  EXPECT_EQ(mgr.create("pm-bad", HeapConfig{.pool_bytes = 12345}), nullptr);
}

TEST(PoolManager, DefaultPoolRefusesDestroy) {
  PoolManager& mgr = PoolManager::instance();
  Pool& pool = mgr.default_pool(small_cfg());
  EXPECT_EQ(pool.name(), PoolManager::kDefaultName);
  EXPECT_TRUE(mgr.has_default());
  EXPECT_FALSE(mgr.destroy(PoolManager::kDefaultName));
  EXPECT_TRUE(mgr.has_default());
}

TEST(PoolManager, QuotaIsolationBetweenPools) {
  // The tenant story: pool A at quota fails with kQuota while pool B,
  // sharing nothing with A, keeps allocating at full speed.
  PoolManager& mgr = PoolManager::instance();
  HeapConfig cfg_a = small_cfg();
  cfg_a.quota_bytes = 32 * 1024;
  Pool* a = mgr.create("pm-tenant-a", cfg_a);
  Pool* b = mgr.create("pm-tenant-b", small_cfg());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  std::vector<void*> held_a;
  AllocStatus st = AllocStatus::kOk;
  for (;;) {
    void* p = a->malloc(512, &st);
    if (p == nullptr) break;
    held_a.push_back(p);
  }
  EXPECT_EQ(st, AllocStatus::kQuota);

  // B is unaffected: every allocation succeeds while A is pinned at
  // quota, and A still rejects throughout.
  std::vector<void*> held_b;
  for (int i = 0; i < 1000; ++i) {
    void* p = b->malloc(512, &st);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(st, AllocStatus::kOk);
    held_b.push_back(p);
  }
  EXPECT_EQ(a->malloc(512, &st), nullptr);
  EXPECT_EQ(st, AllocStatus::kQuota);

  for (void* p : held_a) a->free(p);
  for (void* p : held_b) b->free(p);
  EXPECT_TRUE(a->check_consistency());
  EXPECT_TRUE(b->check_consistency());
  EXPECT_TRUE(mgr.destroy("pm-tenant-a"));
  EXPECT_TRUE(mgr.destroy("pm-tenant-b"));
}

TEST(Pool, ReleaseThresholdTrimsAtSync) {
  HeapConfig cfg = small_cfg();
  cfg.release_threshold = 0;  // CUDA default: release everything at sync
  cfg.heapsan = false;  // HeapSan bypasses stream deferral by design
  Pool pool("rt-test", cfg);
  pool.set_async(true);  // deferral is required; don't rely on the default
  gpu::Stream s;

  // Churn enough 128 B blocks to strand whole chunks in the UAlloc caches
  // (above the magazines' refill classes, so the frees actually defer).
  std::vector<void*> held;
  for (int i = 0; i < 2000; ++i) held.push_back(pool.malloc(128));
  for (void* p : held) pool.free_async(p, s);
  EXPECT_GT(pool.stats().stream.pending, 0u);

  const std::size_t n = pool.sync(s);
  EXPECT_EQ(n, held.size());
  EXPECT_GE(pool.stats().threshold_trims, 1u);
  // Everything the caches strand returns to the buddy tree: nothing is
  // live, so nothing may stay stranded above the (zero) threshold.
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_EQ(pool.stranded_bytes(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

TEST(Pool, RetainAllNeverTrims) {
  Pool pool("rt-retain", small_cfg());  // default: kReleaseRetainAll
  gpu::Stream s;
  std::vector<void*> held;
  for (int i = 0; i < 500; ++i) held.push_back(pool.malloc(64));
  for (void* p : held) pool.free_async(p, s);
  pool.sync(s);
  EXPECT_EQ(pool.stats().threshold_trims, 0u);
}

TEST(Pool, SloTargetAndViolationAccounting) {
  HeapConfig cfg = small_cfg();
  cfg.slo_latency_ns = 7500;
  Pool pool("slo-test", cfg);
  EXPECT_EQ(pool.slo_latency(), 7500u);
  EXPECT_EQ(pool.stats().slo_target_ns, 7500u);
  EXPECT_EQ(pool.stats().slo_violations, 0u);

  // A 1 ns target makes every timed op a violation (telemetry builds
  // only: without instrumentation the latency path compiles out).
  pool.set_slo_latency(1);
  for (int i = 0; i < 64; ++i) {
    void* p = pool.malloc(64);
    ASSERT_NE(p, nullptr);
    pool.free(p);
  }
#if TOMA_TELEMETRY
  EXPECT_GE(pool.stats().slo_violations, 64u)
      << "every op must breach a 1 ns SLO";
#else
  EXPECT_EQ(pool.stats().slo_violations, 0u);
#endif

  // 0 disables tracking: the count freezes.
  pool.set_slo_latency(0);
  const std::uint64_t frozen = pool.stats().slo_violations;
  void* p = pool.malloc(64);
  pool.free(p);
  EXPECT_EQ(pool.stats().slo_violations, frozen);
}

TEST(Pool, KernelChurnThroughPool) {
  Pool pool("kernel-pool", HeapConfig{.pool_bytes = 16 * kMiB, .num_arenas = 2});
  gpu::Device dev(test::small_device());
  gpu::Stream s;
  std::atomic<std::uint64_t> ok{0};
  dev.launch_linear(1024, 128, [&](gpu::ThreadCtx& t) {
    auto* p = static_cast<std::uint8_t*>(pool.malloc_async(96, s));
    if (p == nullptr) return;
    std::memset(p, 0x5a, 96);
    t.yield();
    if (p[95] == 0x5a) ok.fetch_add(1);
    pool.free_async(p, s);
  });
  EXPECT_EQ(ok.load(), 1024u);
  pool.sync(s);
  test::flush_quarantine(pool.allocator());
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

}  // namespace
}  // namespace toma::alloc
