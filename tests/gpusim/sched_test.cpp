// Warp-queue scheduler tests: determinism of the single-worker mode,
// park/unpark correctness around barriers (including early exit), the
// analytic resume bound for parked warps, condition waits (skipped, not
// resumed; multi-worker hand-offs), and multi-worker completion with
// stealing.
#include "gpusim/sched.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/this_thread.hpp"
#include "support/test_support.hpp"

namespace toma::gpu {
namespace {

/// Barrier-heavy kernel with skewed per-warp work: lanes of warp w yield
/// w extra times per round before arriving, so faster warps block on the
/// barrier while the slowest warp finishes — exactly the shape where a
/// resume-everything scheduler burns spurious resumes and the warp
/// scheduler parks.
Kernel skewed_barrier_kernel(std::uint32_t rounds) {
  return [rounds](ThreadCtx& t) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      for (std::uint32_t i = 0; i < t.warp_rank(); ++i) t.yield();
      t.sync_block();
    }
  };
}

TEST(Scheduler, SingleWorkerDeterministicOrder) {
  // One worker, fixed geometry, no rng: two runs of the same launch must
  // step warps in the identical order (the record->replay contract).
  Device dev(test::small_device(2, 512, /*workers=*/1));
  std::vector<std::uint64_t> log1, log2;

  dev.set_sched_log(&log1);
  dev.launch(Dim3{6}, Dim3{128}, skewed_barrier_kernel(5));
  dev.set_sched_log(&log2);
  dev.launch(Dim3{6}, Dim3{128}, skewed_barrier_kernel(5));
  dev.set_sched_log(nullptr);

  ASSERT_FALSE(log1.empty());
  EXPECT_EQ(log1, log2);  // bit-identical schedule
}

TEST(Scheduler, ParkedWarpsAreNotResumed) {
  // Acceptance: a lane resumes at most once to start, once per yield and
  // once per barrier — a barrier-blocked lane costs no resume while it
  // waits. Lanes of warp w yield w times a round, so over R rounds a lane
  // of warp w resumes at most 1 + R * (w + 1) times. (A scheduler that
  // resumed every blocked lane every round measured 66,528 here.)
  constexpr std::uint32_t kRounds = 8;
  constexpr std::uint32_t kBlocks = 4;
  constexpr std::uint32_t kWarps = 8;  // 256 threads: skew across 8 warps
  constexpr std::uint32_t kLanes = 32;
  std::uint64_t bound = 0;
  for (std::uint32_t w = 0; w < kWarps; ++w) {
    bound += std::uint64_t{kBlocks} * kLanes * (1 + kRounds * (w + 1));
  }
  ASSERT_EQ(bound, 37888u);

  Device dev(test::small_device(2, 512, /*workers=*/1));
  dev.launch(Dim3{kBlocks}, Dim3{kWarps * kLanes},
             skewed_barrier_kernel(kRounds));
  const LaunchStats s = dev.stats().last_launch;

  EXPECT_GT(s.warp_parks, 0u);    // warps actually parked
  EXPECT_GT(s.warp_unparks, 0u);  // and were woken by the barrier
  EXPECT_LE(s.fiber_resumes, bound);
  std::printf("[  INFO  ] fiber resumes: %llu (bound %llu; parks=%llu "
              "unparks=%llu)\n",
              static_cast<unsigned long long>(s.fiber_resumes),
              static_cast<unsigned long long>(bound),
              static_cast<unsigned long long>(s.warp_parks),
              static_cast<unsigned long long>(s.warp_unparks));
}

TEST(Scheduler, UnparkOnEarlyThreadExit) {
  // Half the block exits without ever reaching the barrier; the other
  // half arrives and parks. The exiting lanes' live-count drop must wake
  // the parked warps (a missed wakeup here is a hang, caught by the ctest
  // timeout).
  Device dev(test::small_device(2, 512));
  std::atomic<std::uint64_t> synced{0};
  dev.launch(Dim3{4}, Dim3{128}, [&](ThreadCtx& t) {
    if (t.warp_rank() < 2) return;  // warps 0-1 exit early
    t.sync_block();
    synced.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(synced.load(), 4u * 64u);
}

TEST(Scheduler, MultiWorkerStealingCompletes) {
  // Four workers over four SMs: stealing and cross-worker unparks in
  // play. Correctness = every thread runs exactly once through repeated
  // barrier rounds.
  Device dev(test::small_device(4, 512, /*workers=*/4));
  std::atomic<std::uint64_t> count{0};
  dev.launch(Dim3{16}, Dim3{128}, [&](ThreadCtx& t) {
    for (std::uint32_t r = 0; r < 4; ++r) {
      for (std::uint32_t i = 0; i < t.warp_rank(); ++i) t.yield();
      t.sync_block();
    }
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 16u * 128u);
  EXPECT_GT(dev.stats().last_launch.fiber_resumes, 0u);
}

/// One block of `waiters + 1` threads: lane 0 yields `setter_yields` times
/// and then raises `flag`; every other lane waits for the flag, through
/// wait_until or, with `as_yield_loop`, a plain yield loop.
Kernel flag_wait_kernel(std::atomic<std::uint32_t>& flag,
                        std::atomic<std::uint32_t>& saw_flag,
                        std::uint32_t setter_yields, bool as_yield_loop) {
  return [&flag, &saw_flag, setter_yields, as_yield_loop](ThreadCtx& t) {
    if (t.thread_rank() == 0) {
      for (std::uint32_t i = 0; i < setter_yields; ++i) t.yield();
      flag.store(1, std::memory_order_release);
      return;
    }
    if (as_yield_loop) {
      while (flag.load(std::memory_order_acquire) == 0) t.yield();
    } else {
      t.wait_until(
          [&flag] { return flag.load(std::memory_order_acquire) != 0; });
    }
    saw_flag.fetch_add(1, std::memory_order_relaxed);
  };
}

TEST(Scheduler, ConditionWaitersAreNotResumed) {
  // N waiters on a flag that lane 0 raises after K yields. Beyond each
  // lane's first resume (which starts it), the setter costs K resumes and
  // each waiter exactly one — when the flag is up. The same kernel as a
  // yield loop resumes every waiter once per setter yield.
  constexpr std::uint32_t kWaiters = 63;
  constexpr std::uint32_t kSetterYields = 16;
  const Dim3 block{kWaiters + 1};

  auto run = [&](bool as_yield_loop) {
    Device dev(test::small_device(1, 512, /*workers=*/1));
    std::atomic<std::uint32_t> flag{0}, saw{0};
    dev.launch(Dim3{1}, block,
               flag_wait_kernel(flag, saw, kSetterYields, as_yield_loop));
    EXPECT_EQ(saw.load(), kWaiters);
    return dev.stats().last_launch;
  };
  const LaunchStats cond = run(false);
  const LaunchStats spin = run(true);

  const std::uint64_t starts = kWaiters + 1;
  EXPECT_LE(cond.fiber_resumes, starts + kWaiters + kSetterYields + 2);
  EXPECT_LT(cond.fiber_resumes, spin.fiber_resumes);
  EXPECT_GT(cond.wait_skips, 0u);    // the waiters were skipped, not resumed
  EXPECT_EQ(spin.wait_skips, 0u);    // plain yields leave lanes runnable
  EXPECT_EQ(cond.warp_parks, 0u);    // condition waits never park
  std::printf("[  INFO  ] fiber resumes: wait_until=%llu yield-loop=%llu "
              "(wait_skips=%llu)\n",
              static_cast<unsigned long long>(cond.fiber_resumes),
              static_cast<unsigned long long>(spin.fiber_resumes),
              static_cast<unsigned long long>(cond.wait_skips));
}

TEST(Scheduler, ConditionWaitMultiWorkerCompletes) {
  // A ticket chain across blocks on four workers: thread r waits until
  // the shared counter reaches r, then advances it. Every hand-off is a
  // condition wait that another worker may satisfy (blocks admit in rank
  // order, so the lowest waiting rank is always resident).
  Device dev(test::small_device(4, 512, /*workers=*/4));
  constexpr std::uint64_t kThreads = 8 * 128;
  std::atomic<std::uint64_t> next{0};
  dev.launch(Dim3{8}, Dim3{128}, [&](ThreadCtx& t) {
    const std::uint64_t me = t.global_rank();
    t.wait_until(
        [&next, me] { return next.load(std::memory_order_acquire) == me; });
    next.store(me + 1, std::memory_order_release);
  });
  EXPECT_EQ(next.load(), kThreads);
}

TEST(Scheduler, StatsAreCumulativeWithLastLaunch) {
  // DeviceStats fields are all cumulative; last_launch carries the most
  // recent launch's share (the mixed-semantics fix).
  Device dev(test::small_device(2, 512, /*workers=*/1));
  dev.launch(Dim3{4}, Dim3{64}, [](ThreadCtx&) {});
  const DeviceStats s1 = dev.stats();
  dev.launch(Dim3{2}, Dim3{64}, [](ThreadCtx&) {});
  const DeviceStats s2 = dev.stats();

  EXPECT_EQ(s1.launches, 1u);
  EXPECT_EQ(s2.launches, 2u);
  EXPECT_EQ(s1.blocks_executed, 4u);
  EXPECT_EQ(s2.blocks_executed, 6u);  // cumulative, not per-launch
  EXPECT_EQ(s2.last_launch.blocks, 2u);
  EXPECT_EQ(s2.last_launch.threads, 2u * 64u);
  EXPECT_EQ(s2.fiber_resumes,
            s1.fiber_resumes + s2.last_launch.fiber_resumes);
}

}  // namespace
}  // namespace toma::gpu
