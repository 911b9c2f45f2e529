#include "support/test_support.hpp"

#include <cstdlib>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace toma::test {

std::size_t expected_coalesced_block(const alloc::GpuAllocator& ga) {
  return std::size_t{1} << util::log2_floor(ga.mapped_bytes());
}

gpu::DeviceConfig small_device(std::uint32_t num_sms,
                               std::uint32_t threads_per_sm,
                               std::uint32_t workers) {
  if (workers == 0) {
    // Defer to the CI matrix (TOMA_WORKERS=N) but never to hardware
    // concurrency: an unadorned local test run stays single-worker
    // deterministic regardless of the host.
    const char* s = std::getenv("TOMA_WORKERS");
    const long n = s != nullptr ? std::strtol(s, nullptr, 10) : 0;
    workers = n > 0 ? static_cast<std::uint32_t>(n) : 1;
  }
  gpu::DeviceConfig cfg;
  cfg.num_sms = num_sms;
  cfg.max_threads_per_sm = threads_per_sm;
  cfg.num_workers = workers;
  return cfg;
}

std::size_t request_for_slot(alloc::GpuAllocator& ga, std::size_t slot) {
  return ga.heapsan_enabled() ? slot - ga.heapsan().wrap_size(0) : slot;
}

void flush_quarantine(alloc::GpuAllocator& ga) {
  if (ga.heapsan().engaged()) ga.heapsan().flush_quarantine();
}

void run_os_threads(unsigned nthreads,
                    const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

AlignedPool::AlignedPool(std::size_t bytes, std::size_t alignment)
    : bytes_(bytes) {
  if (alignment == 0) alignment = bytes;
  p_ = std::aligned_alloc(alignment, bytes);
  TOMA_ASSERT(p_ != nullptr);
}

AlignedPool::~AlignedPool() { std::free(p_); }

}  // namespace toma::test
