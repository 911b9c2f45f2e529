// Shared helpers for the toma test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/allocator.hpp"
#include "gpusim/gpusim.hpp"

namespace toma::test {

/// The buddy block everything should coalesce back to once `ga` is fully
/// freed and trimmed. A fixed pool re-forms one block spanning the pool;
/// an elastic pool re-forms the largest aligned block its mapped
/// footprint can hold — chunks map contiguously from the pool base, so
/// that is the floor power of two of mapped_bytes().
std::size_t expected_coalesced_block(const alloc::GpuAllocator& ga);

/// The request whose block is exactly `slot` bytes in `ga`: `slot` itself,
/// less the two HeapSan redzones while new allocations are sanitized.
/// Tests that count blocks per pool, quota or chunk size their requests
/// with this, so the count holds in HeapSan builds too.
std::size_t request_for_slot(alloc::GpuAllocator& ga, std::size_t slot);

/// Evict every HeapSan-quarantined block of `ga` (a no-op unless HeapSan
/// is engaged). Quarantined blocks stay allocated and charged, so a drain
/// check runs this first.
void flush_quarantine(alloc::GpuAllocator& ga);

/// A small simulated device suitable for unit tests (fast to construct,
/// enough concurrency to expose races). The default worker count honours
/// the TOMA_WORKERS environment variable (the CI workers-matrix legs set
/// it to 2 and 4) and falls back to one worker — single-worker runs are
/// deterministic. Pass an explicit count to pin it (determinism tests
/// pass 1; stealing tests pass >1).
gpu::DeviceConfig small_device(std::uint32_t num_sms = 2,
                               std::uint32_t threads_per_sm = 512,
                               std::uint32_t workers = 0);

/// Run `fn` concurrently on `nthreads` plain OS threads (for testing the
/// primitives' host-side fallback paths).
void run_os_threads(unsigned nthreads,
                    const std::function<void(unsigned)>& fn);

/// Aligned scratch pool for allocator tests (freed automatically).
class AlignedPool {
 public:
  explicit AlignedPool(std::size_t bytes, std::size_t alignment = 0);
  ~AlignedPool();
  AlignedPool(const AlignedPool&) = delete;
  AlignedPool& operator=(const AlignedPool&) = delete;

  void* get() const { return p_; }
  std::size_t size() const { return bytes_; }

 private:
  void* p_;
  std::size_t bytes_;
};

}  // namespace toma::test
