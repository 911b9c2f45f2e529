#include "alloc/device_heap.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "alloc/pool.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma::alloc {
namespace {

TEST(DeviceHeap, InstallAndUninstall) {
  GpuAllocator heap(4 * 1024 * 1024, 2);
  GpuAllocator* prev = set_device_heap(&heap);
  EXPECT_EQ(device_heap(), &heap);
  void* p = device_malloc(64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(heap.stats().mallocs, 1u);
  device_free(p);
  EXPECT_EQ(heap.stats().frees, 1u);
  set_device_heap(prev);
}

TEST(DeviceHeap, ScopeRestoresPrevious) {
  GpuAllocator outer(4 * 1024 * 1024, 2);
  GpuAllocator inner(4 * 1024 * 1024, 2);
  GpuAllocator* prev = set_device_heap(&outer);
  {
    DeviceHeapScope scope(inner);
    EXPECT_EQ(device_heap(), &inner);
  }
  EXPECT_EQ(device_heap(), &outer);
  set_device_heap(prev);
}

TEST(DeviceHeap, FreeNullWithoutHeapIsSafe) {
  GpuAllocator* prev = set_device_heap(nullptr);
  device_free(nullptr);
  set_device_heap(prev);
}

TEST(DeviceHeap, KernelUsesGlobalInterface) {
  // The paper's usage shape: kernels call the standard interface without
  // threading an allocator handle through every function.
  GpuAllocator heap(16 * 1024 * 1024, 2);
  DeviceHeapScope scope(heap);
  gpu::Device dev(test::small_device());
  std::atomic<std::uint64_t> ok{0};
  dev.launch_linear(2048, 128, [&](gpu::ThreadCtx& t) {
    auto* p = static_cast<std::uint8_t*>(device_malloc(48));
    if (p == nullptr) return;
    std::memset(p, 0x44, 48);
    t.yield();
    if (p[47] == 0x44) ok.fetch_add(1);
    device_free(p);
  });
  EXPECT_EQ(ok.load(), 2048u);
  EXPECT_TRUE(heap.check_consistency());
}

TEST(DeviceHeap, EnsureMismatchIsReportedNotSilent) {
  // Regression: ensure_device_heap used to ignore a conflicting
  // pool_bytes request silently. It still returns the existing heap, but
  // the mismatch must now be observable.
  GpuAllocator heap(4 * 1024 * 1024, 2);
  GpuAllocator* prev = set_device_heap(&heap);
#if TOMA_TELEMETRY
  const std::uint64_t before =
      obs::registry().counter("device_heap.ensure_mismatch").value();
#endif
  GpuAllocator& got = ensure_device_heap(8 * 1024 * 1024);
  EXPECT_EQ(&got, &heap);  // the request did NOT resize/replace the heap
#if TOMA_TELEMETRY
  EXPECT_EQ(obs::registry().counter("device_heap.ensure_mismatch").value(),
            before + 1);
#endif
  // "Don't care" (0) and matching sizes are not mismatches.
  ensure_device_heap();
  ensure_device_heap(4 * 1024 * 1024);
#if TOMA_TELEMETRY
  EXPECT_EQ(obs::registry().counter("device_heap.ensure_mismatch").value(),
            before + 1);
#endif
  set_device_heap(prev);
}

TEST(DeviceHeap, LazyCreationRoutesThroughDefaultPool) {
  // The implicit heap is the PoolManager's default pool, so the legacy
  // globals and the toma_* C API share one heap. Its HeapSan switch
  // follows the process default (TOMA_HEAP_DEFAULTS=heapsan=1 turns it
  // on without a rebuild).
  GpuAllocator* prev = set_device_heap(nullptr);
  GpuAllocator& heap = ensure_device_heap();
  EXPECT_TRUE(PoolManager::instance().has_default());
  EXPECT_EQ(&heap, &PoolManager::instance().default_pool().allocator());
  EXPECT_EQ(device_heap(), &heap);
  EXPECT_EQ(heap.heapsan_enabled(), heap_defaults().heapsan);
  set_device_heap(prev);
}

}  // namespace
}  // namespace toma::alloc
