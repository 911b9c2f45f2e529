#include "alloc/device_heap.hpp"

#include <atomic>
#include <cstdio>

#include "alloc/pool.hpp"
#include "obs/telemetry.hpp"

namespace toma::alloc {

namespace {
std::atomic<GpuAllocator*> g_heap{nullptr};
std::atomic<bool> g_mismatch_warned{false};
}  // namespace

GpuAllocator* set_device_heap(GpuAllocator* heap) {
  return g_heap.exchange(heap, std::memory_order_acq_rel);
}

bool install_device_heap_if_absent(GpuAllocator* heap) {
  GpuAllocator* expected = nullptr;
  return g_heap.compare_exchange_strong(expected, heap,
                                        std::memory_order_acq_rel);
}

GpuAllocator* device_heap() {
  return g_heap.load(std::memory_order_acquire);
}

GpuAllocator& ensure_device_heap(std::size_t pool_bytes,
                                 std::uint32_t num_arenas) {
  GpuAllocator* heap = device_heap();
  if (heap == nullptr) {
    HeapConfig cfg;
    if (pool_bytes != 0) cfg.pool_bytes = pool_bytes;
    if (num_arenas != 0) cfg.num_arenas = num_arenas;
    // The implicit heap is the manager's "default" pool (first call
    // wins; default_pool installs it as the device heap if none exists).
    // It lives for the process, as CUDA's device heap does.
    Pool& pool = PoolManager::instance().default_pool(cfg);
    heap = device_heap();
    if (heap == nullptr) heap = &pool.allocator();
  }
  // A caller asking for a specific size must learn when it lost the
  // race (or arrived after an explicit install) with a different
  // geometry — the old behaviour was to ignore the request silently.
  if (pool_bytes != 0 && heap->pool_bytes() != pool_bytes) {
    TOMA_CTR_INC("device_heap.ensure_mismatch");
    if (!g_mismatch_warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "[toma] warning: ensure_device_heap(pool_bytes=%zu) "
                   "ignored; device heap already exists with pool_bytes=%zu\n",
                   pool_bytes, heap->pool_bytes());
    }
  }
  return *heap;
}

void* device_malloc(std::size_t size) {
  return ensure_device_heap().malloc(size);
}

void device_free(void* p) {
  if (p == nullptr) return;
  GpuAllocator* heap = device_heap();
  if (heap != nullptr) heap->free(p);
}

}  // namespace toma::alloc
