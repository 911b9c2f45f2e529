// High-concurrency stress: many waves of threads hammering the allocator
// with mixed sizes, cross-thread frees, and full quiescent verification
// between phases. Sized to stay minutes-fast on a single-core host while
// still driving tens of thousands of logical threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma {
namespace {

TEST(Stress, ManyWavesMixedSizes) {
  gpu::Device dev(test::small_device(4, 512, 1));
  alloc::GpuAllocator ga(64 * 1024 * 1024, dev.num_sms());
  constexpr std::uint64_t kThreads = 20000;
  std::atomic<std::uint64_t> completed{0};
#if TOMA_TELEMETRY
  const obs::Snapshot obs_before = obs::registry().snapshot();
#endif

  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() >= kThreads) return;
    auto& rng = t.rng();
    void* held[2] = {};
    std::size_t sizes[2] = {};
    for (int round = 0; round < 4; ++round) {
      const int slot = static_cast<int>(rng.next() & 1);
      if (held[slot] != nullptr) {
        auto* c = static_cast<unsigned char*>(held[slot]);
        if (c[0] != 0x42 || c[sizes[slot] - 1] != 0x24) std::abort();
        ga.free(held[slot]);
        held[slot] = nullptr;
      }
      const std::size_t size = std::size_t{8} << rng.next_below(13);  // ..32KB
      void* p = ga.malloc(size);
      if (p != nullptr) {
        auto* c = static_cast<unsigned char*>(p);
        c[0] = 0x42;
        c[size - 1] = 0x24;
        held[slot] = p;
        sizes[slot] = size;
      }
      t.yield();
    }
    for (int s = 0; s < 2; ++s) {
      if (held[s] != nullptr) ga.free(held[s]);
    }
    completed.fetch_add(1, std::memory_order_relaxed);
  });

  EXPECT_EQ(completed.load(), kThreads);
  EXPECT_TRUE(ga.check_consistency());
  // Retirement on the free path is opportunistic; trim() scavenges the
  // bins/chunks whose retirement backed off under contention.
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga))
      << "memory failed to coalesce after full free + trim";
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);

  // trim() flushed the magazines and every block was freed, so every
  // block claimed out of the bins (by a caller or a slab refill) was
  // published back; with the magazines on, each publication was a spill
  // or a flush. Nothing may still be cached.
  const auto& us = st.ualloc;
  EXPECT_EQ(us.magazine_cached, 0u);
  EXPECT_EQ(us.allocs, us.frees) << "a claimed block leaked";
  if (ga.ualloc().magazines_enabled()) {
    EXPECT_EQ(us.frees, us.magazine_spill_blocks + us.magazine_flushes)
        << "magazine accounting leaked a block";
  }

#if TOMA_TELEMETRY
  // Telemetry invariant: the sharded counters must agree exactly with the
  // allocator's own (exact, atomic) statistics — a lost counter bump means
  // sharding misrouted or a path is uninstrumented. This allocator is the
  // only one live during the launch, so the registry delta is all ours.
  // A counter whose call site never executed is absent, which counts as 0.
  const obs::Snapshot obs_delta =
      obs::registry().snapshot().diff_since(obs_before);
  const auto ctr = [&](const char* name) -> std::uint64_t {
    const auto it = obs_delta.counters.find(name);
    return it == obs_delta.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(ctr("alloc.malloc"), st.mallocs);
  EXPECT_EQ(ctr("alloc.free"), st.frees);
  EXPECT_EQ(ctr("alloc.failed"), st.failed_mallocs);
  EXPECT_EQ(ctr("ualloc.magazine.hit"), st.ualloc.magazine_hits);
  EXPECT_EQ(ctr("ualloc.magazine.miss"), st.ualloc.magazine_misses);
  EXPECT_EQ(ctr("ualloc.magazine.refill"), st.ualloc.magazine_refills);
  EXPECT_EQ(ctr("ualloc.magazine.refill_blocks"),
            st.ualloc.magazine_refill_blocks);
  EXPECT_EQ(ctr("ualloc.magazine.topup"), st.ualloc.magazine_topups);
  EXPECT_EQ(ctr("ualloc.magazine.spill"), st.ualloc.magazine_spills);
  EXPECT_EQ(ctr("ualloc.magazine.spill_blocks"),
            st.ualloc.magazine_spill_blocks);
  EXPECT_EQ(ctr("ualloc.magazine.flush"), st.ualloc.magazine_flushes);
  // Latencies are sampled by call index (obs/sample.hpp): every sampled
  // malloc attempt records one sample in some size class, every sampled
  // free one sample, so each count follows exactly from the exact one.
  std::uint64_t hist_samples = 0;
  for (const auto& [name, h] : obs_delta.histograms) {
    if (name.rfind("alloc.malloc_ns[", 0) == 0) hist_samples += h.count;
  }
  EXPECT_EQ(hist_samples, obs::latency_sample_count(st.mallocs));
  EXPECT_EQ(obs_delta.histograms.at("alloc.free_ns").count,
            obs::latency_sample_count(st.frees));
#endif
}

TEST(Stress, SameSizeThundering) {
  // Every thread allocates the same size simultaneously: the worst case
  // for the class semaphore and bin lists.
  gpu::Device dev(test::small_device(4, 512, 1));
  alloc::GpuAllocator ga(64 * 1024 * 1024, dev.num_sms());
  constexpr std::uint64_t kThreads = 30000;
  std::atomic<std::uint64_t> failed{0};
  dev.launch_linear(kThreads, 256, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() >= kThreads) return;
    void* p = ga.malloc(32);
    if (p == nullptr) {
      failed.fetch_add(1);
      return;
    }
    std::memset(p, 7, 32);
    t.yield();
    ga.free(p);
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_TRUE(ga.check_consistency());
  const auto st = ga.stats();
  // Bin recycling must have happened at this scale.
  EXPECT_GT(st.ualloc.bins_created, 0u);
}

TEST(Stress, MultiWorkerTrueParallelism) {
  // Two OS workers drive four SMs: exercises genuine data races under
  // whatever parallelism the host provides.
  gpu::Device dev(test::small_device(4, 256, 2));
  alloc::GpuAllocator ga(32 * 1024 * 1024, dev.num_sms());
  std::atomic<std::uint64_t> completed{0};
  dev.launch_linear(8000, 128, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() >= 8000) return;  // grid rounds up to whole blocks
    auto& rng = t.rng();
    const std::size_t size = std::size_t{8} << rng.next_below(10);
    void* p = ga.malloc(size);
    if (p != nullptr) {
      static_cast<unsigned char*>(p)[0] = 1;
      t.yield();
      ga.free(p);
    }
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(completed.load(), 8000u);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Stress, AllocateHoldExhaustFreeRepeat) {
  // Saturating waves: allocate until OOM, then free everything; repeat.
  // Verifies the allocator fully recovers from exhaustion.
  gpu::Device dev(test::small_device(2, 512, 1));
  alloc::GpuAllocator ga(8 * 1024 * 1024, dev.num_sms());
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<std::atomic<void*>> held(4096);
    std::atomic<std::uint64_t> got{0};
    dev.launch_linear(4096, 128, [&](gpu::ThreadCtx& t) {
      void* p = ga.malloc(2048);  // degenerate class -> 4 KB pages
      if (p != nullptr) {
        held[t.global_rank()].store(p);
        got.fetch_add(1);
      }
    });
    // 8 MB / 4 KB = 2048 pages: exactly half the threads can win.
    EXPECT_EQ(got.load(), 2048u) << "wave " << wave;
    for (auto& h : held) {
      if (void* p = h.load()) ga.free(p);
    }
    ASSERT_TRUE(ga.check_consistency()) << "wave " << wave;
    ga.trim();  // flush the buddy quicklists so the freed pages coalesce
    ASSERT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  }
}

}  // namespace
}  // namespace toma
