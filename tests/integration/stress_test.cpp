// High-concurrency stress: many waves of threads hammering the allocator
// with mixed sizes, cross-thread frees, and full quiescent verification
// between phases. Sized to stay minutes-fast on a single-core host while
// still driving tens of thousands of logical threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma {
namespace {

// Many waves of mixed sizes on `workers` gpusim workers, then the
// quiescent checks and the telemetry invariant.
void many_waves_mixed_sizes(std::uint32_t workers) {
#if TOMA_TELEMETRY
  const obs::Snapshot obs_before = obs::registry().snapshot();
#endif
  auto dev_owner =
      std::make_unique<gpu::Device>(test::small_device(4, 512, workers));
  gpu::Device& dev = *dev_owner;
  const alloc::HeapConfig cfg{.pool_bytes = 64 * 1024 * 1024,
                              .num_arenas = dev.num_sms()};
  auto ga_owner = std::make_unique<alloc::GpuAllocator>(cfg);
  alloc::GpuAllocator& ga = *ga_owner;
  constexpr std::uint64_t kThreads = 20000;
  std::atomic<std::uint64_t> completed{0};

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
  // Telemetry invariant: every registry counter comes from a stats
  // owner's collector (obs/stats.hpp), so each must agree exactly with
  // the count its owner keeps — a misnamed or unexported field, a shard
  // the sums miss, or a collector that is not registered shows up here.
  // This device and allocator are the only ones live since obs_before,
  // so the registry delta is all theirs.
  const gpu::DeviceStats ds = dev.stats();
  const auto& bs = st.buddy;
  const vmm::BackingStats vs = ga.backing().stats();
  std::uint64_t full_barriers = 0, delegated_barriers = 0;
  for (std::uint32_t a = 0; a < ga.ualloc().num_arenas(); ++a) {
    full_barriers += ga.ualloc().arena(a).rcu().full_barriers();
    delegated_barriers += ga.ualloc().arena(a).rcu().delegated_barriers();
  }
  const std::pair<const char*, std::uint64_t> want[] = {
      {"alloc.malloc", st.mallocs},
      {"alloc.free", st.frees},
      {"alloc.failed", st.failed_mallocs},
      {"ualloc.magazine.hit", us.magazine_hits},
      {"ualloc.magazine.miss", us.magazine_misses},
      {"ualloc.magazine.refill", us.magazine_refills},
      {"ualloc.magazine.refill_blocks", us.magazine_refill_blocks},
      {"ualloc.magazine.topup", us.magazine_topups},
      {"ualloc.magazine.spill", us.magazine_spills},
      {"ualloc.magazine.spill_blocks", us.magazine_spill_blocks},
      {"ualloc.magazine.flush", us.magazine_flushes},
      {"ualloc.bin_create", us.bins_created},
      {"ualloc.bin_retire", us.bins_retired},
      {"ualloc.chunk_fetch", us.chunks_created},
      {"ualloc.chunk_retire", us.chunks_retired},
      {"ualloc.bin_unlink", us.bin_unlinks},
      {"ualloc.bin_relist", us.bin_relists},
      {"ualloc.list_retry", us.list_retries},
      {"ualloc.arena_fallback", us.arena_fallbacks},
      {"tbuddy.quicklist.hit", bs.quicklist_hits},
      {"tbuddy.quicklist.miss", bs.quicklist_misses},
      {"tbuddy.quicklist.spill", bs.quicklist_spills},
      {"tbuddy.quicklist.flush", bs.quicklist_flushes},
      {"tbuddy.split", bs.splits},
      {"tbuddy.merge", bs.merges},
      {"tbuddy.descent_retry", bs.descent_retries},
      {"tbuddy.claim.cas_fast", bs.cas_claims},
      {"tbuddy.claim.lock_slow", bs.lock_claims},
      // The twins of counts the scheduler, the SRCU domains and the
      // backing store keep. The pool's own SRCU domain runs no barrier
      // without defrag (its grace periods are polls), so the arenas'
      // domains are all of them.
      {"gpusim.fiber_resumes", ds.fiber_resumes},
      {"gpusim.warp.steps", ds.sched_rounds},
      {"gpusim.warp.parks", ds.warp_parks},
      {"gpusim.warp.unparks", ds.warp_unparks},
      {"gpusim.warp.steals", ds.warp_steals},
      {"gpusim.warp.wait_skips", ds.wait_skips},
      {"gpusim.blocks_admitted", ds.blocks_executed},
      {"sync.rcu.full_barrier", full_barriers},
      {"sync.rcu.delegated_barrier", delegated_barriers},
      {"vmm.map_bytes", vs.chunk_bytes * (cfg.initial_chunks + vs.grows)},
      {"vmm.unmap_bytes", vs.chunk_bytes * vs.shrinks},
  };
  const auto expect_counters = [&](const char* when) {
    const obs::Snapshot delta =
        obs::registry().snapshot().diff_since(obs_before);
    for (const auto& [name, value] : want) {
      const auto it = delta.counters.find(name);
      EXPECT_EQ(it == delta.counters.end() ? 0 : it->second, value)
          << name << " " << when;
    }
    return delta;
  };
  const obs::Snapshot obs_delta = expect_counters("with the owners live");
  EXPECT_GT(us.chunks_created, 0u);
  EXPECT_GT(bs.splits, 0u);
  EXPECT_GT(ds.fiber_resumes, 0u);
  EXPECT_GT(full_barriers, 0u);
  EXPECT_GT(vs.grows, 0u);
  // Latencies are sampled by each obs shard's call index (obs/sample.hpp):
  // every sampled malloc attempt records one sample in some size class,
  // every sampled free one sample, so each count follows exactly from
  // the per-shard counts.
  std::uint64_t want_mallocs = 0, want_frees = 0;
  for (std::uint32_t s = 0; s < obs::kShards; ++s) {
    want_mallocs += obs::latency_sample_count(ga.shard_mallocs(s));
    want_frees += obs::latency_sample_count(ga.shard_frees(s));
  }
  std::uint64_t hist_samples = 0;
  for (const auto& [name, h] : obs_delta.histograms) {
    if (name.rfind("alloc.malloc_ns[", 0) == 0) hist_samples += h.count;
  }
  EXPECT_EQ(hist_samples, want_mallocs);
  EXPECT_EQ(obs_delta.histograms.at("alloc.free_ns").count, want_frees);

  // Destroyed owners fold their last totals into the registry, so the
  // counters keep them.
  ga_owner.reset();
  dev_owner.reset();
  expect_counters("after the owners were destroyed");
#endif
}

TEST(Stress, ManyWavesMixedSizes) { many_waves_mixed_sizes(1); }

TEST(Stress, ManyWavesMixedSizesFourWorkers) { many_waves_mixed_sizes(4); }

TEST(Stress, SameSizeThundering) {
  // Every thread allocates the same size simultaneously: the worst case
  // for the class semaphore and bin lists.
  gpu::Device dev(test::small_device(4, 512, 1));
  alloc::GpuAllocator ga({.pool_bytes = 64 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
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
  alloc::GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
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
  alloc::GpuAllocator ga({.pool_bytes = 8 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
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
