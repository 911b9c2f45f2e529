#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "gpusim/this_thread.hpp"
#include "support/test_support.hpp"

namespace toma::gpu {
namespace {

TEST(Device, EveryThreadRunsOnce) {
  Device dev(test::small_device());
  std::atomic<std::uint64_t> count{0};
  dev.launch(Dim3{10}, Dim3{100}, [&](ThreadCtx&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1000u);
}

TEST(Device, GlobalRanksAreUniqueAndDense) {
  Device dev(test::small_device());
  const std::uint64_t total = 7 * 96;
  std::vector<std::atomic<int>> seen(total);
  dev.launch(Dim3{7}, Dim3{96}, [&](ThreadCtx& t) {
    seen[t.global_rank()].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < total; ++i) EXPECT_EQ(seen[i].load(), 1);
}

TEST(Device, ThreadIdentityFields) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  dev.launch(Dim3{4}, Dim3{70}, [&](ThreadCtx& t) {
    if (t.thread_rank() >= 70) bad.fetch_add(1);
    if (t.block_rank() >= 4) bad.fetch_add(1);
    if (t.warp_rank() != t.thread_rank() / 32) bad.fetch_add(1);
    if (t.lane_id() != t.thread_rank() % 32) bad.fetch_add(1);
    if (t.global_rank() != t.block_rank() * 70 + t.thread_rank())
      bad.fetch_add(1);
    if (t.sm_id() >= t.device().num_sms()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Device, Dim3Decode) {
  Dim3 d{4, 3, 2};
  EXPECT_EQ(d.count(), 24u);
  const Dim3 c0 = d.decode(0);
  EXPECT_EQ(c0.x, 0u);
  const Dim3 c5 = d.decode(5);
  EXPECT_EQ(c5.x, 1u);
  EXPECT_EQ(c5.y, 1u);
  EXPECT_EQ(c5.z, 0u);
  const Dim3 last = d.decode(23);
  EXPECT_EQ(last.x, 3u);
  EXPECT_EQ(last.y, 2u);
  EXPECT_EQ(last.z, 1u);
}

TEST(Device, ThreeDimensionalIds) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  dev.launch(Dim3{2, 2, 2}, Dim3{8, 2, 2}, [&](ThreadCtx& t) {
    const Dim3 ti = t.thread_idx();
    const Dim3 bd = t.block_dim();
    if (ti.x >= bd.x || ti.y >= bd.y || ti.z >= bd.z) bad.fetch_add(1);
    const Dim3 bi = t.block_idx();
    const Dim3 gd = t.grid_dim();
    if (bi.x >= gd.x || bi.y >= gd.y || bi.z >= gd.z) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Device, WaveExecutionBeyondResidency) {
  // Grid far larger than residency: 2 SMs x 512 = 1024 resident, grid 16k.
  Device dev(test::small_device(2, 512, 1));
  std::atomic<std::uint64_t> count{0};
  dev.launch_linear(16384, 128, [&](ThreadCtx& t) {
    t.yield();  // force scheduler interleaving
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 16384u);
  EXPECT_GE(dev.stats().blocks_executed, 128u);
}

TEST(Device, KernelExceptionPropagates) {
  Device dev(test::small_device());
  EXPECT_THROW(
      dev.launch(Dim3{1}, Dim3{32},
                 [&](ThreadCtx& t) {
                   if (t.thread_rank() == 7) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
}

TEST(Device, SharedMemoryPerBlock) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  dev.launch(Dim3{8}, Dim3{64}, [&](ThreadCtx& t) {
    auto* slots = static_cast<std::atomic<std::uint32_t>*>(t.shared_mem());
    // Each thread publishes into shared memory; thread 0 sums after a
    // barrier. Shared memory is zeroed at block start.
    slots[t.thread_rank()].store(1, std::memory_order_relaxed);
    t.sync_block();
    if (t.thread_rank() == 0) {
      std::uint32_t sum = 0;
      for (std::uint32_t i = 0; i < 64; ++i) sum += slots[i].load();
      if (sum != 64) bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Device, YieldPreservesForwardProgress) {
  // A thread yielding in a loop must not starve others on the same SM:
  // thread 0 spins until every other thread of its block sets a flag.
  Device dev(test::small_device(1, 256, 1));
  std::atomic<int> done_blocks{0};
  dev.launch(Dim3{4}, Dim3{64}, [&](ThreadCtx& t) {
    auto* flags = static_cast<std::atomic<std::uint32_t>*>(t.shared_mem());
    if (t.thread_rank() == 0) {
      for (;;) {
        std::uint32_t sum = 0;
        for (std::uint32_t i = 1; i < 64; ++i) sum += flags[i].load();
        if (sum == 63) break;
        t.yield();
      }
      done_blocks.fetch_add(1);
    } else {
      flags[t.thread_rank()].store(1);
    }
  });
  EXPECT_EQ(done_blocks.load(), 4);
}

TEST(Device, MultiWorkerLaunch) {
  // Even on a single-core host this exercises the multi-worker code path.
  Device dev(test::small_device(4, 256, 2));
  std::atomic<std::uint64_t> count{0};
  dev.launch_linear(4096, 64, [&](ThreadCtx& t) {
    t.yield();
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 4096u);
}

TEST(Device, RngIsPerThreadAndSeedStable) {
  Device dev(test::small_device());
  std::atomic<std::uint64_t> sum1{0}, sum2{0};
  auto kernel = [](std::atomic<std::uint64_t>& sum) {
    return [&sum](ThreadCtx& t) {
      sum.fetch_add(t.rng().next(), std::memory_order_relaxed);
    };
  };
  dev.launch(Dim3{4}, Dim3{64}, kernel(sum1));
  dev.launch(Dim3{4}, Dim3{64}, kernel(sum2));
  // Same grid, same per-thread seeds: identical aggregate.
  EXPECT_EQ(sum1.load(), sum2.load());
  EXPECT_NE(sum1.load(), 0u);
}

TEST(ThisThread, OutsideKernelFallbacks) {
  EXPECT_FALSE(this_thread::in_kernel());
  EXPECT_EQ(this_thread::current(), nullptr);
  this_thread::yield();  // must not crash
  const std::uint64_t a = this_thread::scatter_seed();
  const std::uint64_t b = this_thread::scatter_seed();
  EXPECT_NE(a, b);
  EXPECT_LT(this_thread::sm_id_or_ordinal(8), 8u);
}

TEST(ThisThread, InsideKernelIdentity) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  dev.launch(Dim3{2}, Dim3{32}, [&](ThreadCtx& t) {
    if (!this_thread::in_kernel()) bad.fetch_add(1);
    if (this_thread::current() != &t) bad.fetch_add(1);
    if (this_thread::sm_id_or_ordinal(t.device().num_sms()) != t.sm_id())
      bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_FALSE(this_thread::in_kernel());
}

}  // namespace
}  // namespace toma::gpu
