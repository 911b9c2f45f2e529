#include "sync/bulk_semaphore.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"

namespace toma::sync {
namespace {

using WaitResult = BulkSemaphore::WaitResult;

TEST(BulkSemaphore, InitialValue) {
  BulkSemaphore sem(7);
  EXPECT_EQ(sem.value(), 7u);
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.reserved(), 0u);
}

TEST(BulkSemaphore, AcquireFromValue) {
  BulkSemaphore sem(4);
  EXPECT_EQ(sem.wait(1, 8), WaitResult::kAcquired);
  EXPECT_EQ(sem.wait(3, 8), WaitResult::kAcquired);
  EXPECT_EQ(sem.value(), 0u);
}

TEST(BulkSemaphore, ElectsGrowerAndTracksExpected) {
  BulkSemaphore sem(0);
  EXPECT_EQ(sem.wait(1, 4), WaitResult::kMustGrow);
  // Algorithm 1: E += B - N.
  EXPECT_EQ(sem.expected(), 3u);
  EXPECT_EQ(sem.value(), 0u);
}

TEST(BulkSemaphore, ConcurrentGrowersBothElected) {
  // The defining difference from counting semaphores (Figure 1(b)):
  // once a batch's expected units are fully reserved, the next arrival
  // becomes ANOTHER grower instead of blocking.
  BulkSemaphore sem(0);
  EXPECT_EQ(sem.wait(1, 4), WaitResult::kMustGrow);  // thread #0: E=3
  // Threads #1..#3 would reserve (covered by E=3). Thread #4 must grow.
  // Simulate the reservations directly: we cannot block here, so check
  // the decision arithmetic via expected availability.
  // C+E-R = 3 with three reservations -> 0, so a fourth wait grows:
  // emulate by consuming the expectation with a grower's failure signals.
  sem.signal(0, 3);  // grow failed: E back to 0
  EXPECT_EQ(sem.wait(1, 4), WaitResult::kMustGrow);
  EXPECT_EQ(sem.expected(), 3u);
}

TEST(BulkSemaphore, GrowerPublishesBatch) {
  BulkSemaphore sem(0);
  ASSERT_EQ(sem.wait(1, 4), WaitResult::kMustGrow);
  // Grower produced 4 units, keeps 1: signal(3, 3).
  sem.signal(3, 3);
  EXPECT_EQ(sem.value(), 3u);
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.wait(3, 4), WaitResult::kAcquired);
  EXPECT_EQ(sem.value(), 0u);
}

TEST(BulkSemaphore, FailedGrowthSignalsCondition) {
  BulkSemaphore sem(0);
  ASSERT_EQ(sem.wait(1, 4), WaitResult::kMustGrow);
  EXPECT_EQ(sem.expected(), 3u);
  sem.signal(0, 3);  // nothing produced
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.value(), 0u);
}

TEST(BulkSemaphore, TryWait) {
  BulkSemaphore sem(2);
  EXPECT_TRUE(sem.try_wait(1));
  EXPECT_TRUE(sem.try_wait(1));
  EXPECT_FALSE(sem.try_wait(1));
  // try_wait never grows and never reserves.
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.reserved(), 0u);
}

TEST(BulkSemaphore, SignalIsPlainRelease) {
  BulkSemaphore sem(0);
  sem.signal(5, 0);
  EXPECT_EQ(sem.value(), 5u);
}

TEST(BulkSemaphore, CountingSemanticsWhenBatchZero) {
  // With B == 0 ... bulk semaphores degenerate to counting semaphores
  // (paper §3.3). N == B is the smallest legal call; value-only flows:
  BulkSemaphore sem(3);
  EXPECT_EQ(sem.wait(2, 2), WaitResult::kAcquired);
  sem.signal(2, 0);
  EXPECT_EQ(sem.value(), 3u);
}

// --- concurrent batch-allocation protocol, on simulated GPU threads ------

struct BatchProtocolParam {
  std::uint32_t threads;
  std::uint32_t batch;
};

class BulkSemaphoreProtocol
    : public ::testing::TestWithParam<BatchProtocolParam> {};

TEST_P(BulkSemaphoreProtocol, EveryThreadGetsOneUnit) {
  const auto [threads, batch] = GetParam();
  gpu::Device dev(test::small_device(2, 1024, 1));
  BulkSemaphore sem(0);
  std::atomic<std::uint64_t> batches{0}, acquired{0};

  dev.launch_linear(threads, 128, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() >= threads) return;
    const auto r = sem.wait(1, batch);
    if (r == WaitResult::kMustGrow) {
      batches.fetch_add(1, std::memory_order_relaxed);
      sem.signal(batch - 1, batch - 1);  // produce batch, keep one unit
    }
    acquired.fetch_add(1, std::memory_order_relaxed);
  });

  EXPECT_EQ(acquired.load(), threads);
  // Conservation: units produced - units consumed == semaphore value.
  const std::uint64_t produced = batches.load() * batch;
  EXPECT_EQ(sem.value(), produced - threads);
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.reserved(), 0u);
  // At least ceil(threads/batch) batches were needed.
  EXPECT_GE(batches.load(), (threads + batch - 1) / batch);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BulkSemaphoreProtocol,
    ::testing::Values(BatchProtocolParam{64, 4}, BatchProtocolParam{256, 16},
                      BatchProtocolParam{1024, 32},
                      BatchProtocolParam{1000, 7},
                      BatchProtocolParam{4096, 512},
                      BatchProtocolParam{333, 2}));

TEST(BulkSemaphore, GrowWaitStormHasBoundedResumes) {
  // A storm of fibers each acquiring one unit, with growers that take
  // kGrowYields scheduling rounds to produce their batch. Reserved
  // waiters wait on the semaphore word, so the scheduler skips them while
  // a batch is in flight: resumes stay a small multiple of the thread
  // count plus the growers' own latency, instead of every waiter polling
  // once per grower yield.
  constexpr std::uint32_t kThreads = 2048;
  constexpr std::uint32_t kBatch = 64;
  constexpr std::uint32_t kGrowYields = 8;
  gpu::Device dev(test::small_device(2, 1024, 1));
  BulkSemaphore sem(0);
  std::atomic<std::uint64_t> batches{0}, acquired{0};

  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    if (sem.wait(1, kBatch) == WaitResult::kMustGrow) {
      batches.fetch_add(1, std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < kGrowYields; ++i) t.yield();
      sem.signal(kBatch - 1, kBatch - 1);
    }
    acquired.fetch_add(1, std::memory_order_relaxed);
  });

  EXPECT_EQ(acquired.load(), kThreads);
  EXPECT_EQ(sem.value(), batches.load() * kBatch - kThreads);
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.reserved(), 0u);
  const gpu::LaunchStats s = dev.stats().last_launch;
  // Per thread: the resume that starts it and one wake per reservation;
  // per grower: its modeled latency.
  EXPECT_LE(s.fiber_resumes, 2ull * kThreads + batches.load() * kGrowYields);
  EXPECT_GT(s.wait_skips, 0u);
  std::printf("[  INFO  ] storm: %llu resumes, %llu wait skips, %llu batches\n",
              static_cast<unsigned long long>(s.fiber_resumes),
              static_cast<unsigned long long>(s.wait_skips),
              static_cast<unsigned long long>(batches.load()));
}

TEST(SpinUntil, OsThreadsHandOffTickets) {
  // Off-kernel, spin_until polls with cpu_relax and then
  // std::this_thread::yield: a ticket passed round-robin between
  // preemptive threads must reach every holder in order.
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kRounds = 200;
  std::atomic<std::uint64_t> next{0};
  test::run_os_threads(kThreads, [&](unsigned id) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const std::uint64_t mine = r * kThreads + id;
      spin_until(
          [&next, mine] { return next.load(std::memory_order_acquire) == mine; });
      next.store(mine + 1, std::memory_order_release);
    }
  });
  EXPECT_EQ(next.load(), kThreads * kRounds);
}

TEST(BulkSemaphore, MixedProducersConsumersOnGpu) {
  // Producer/consumer flow without growth: producers signal, consumers
  // wait; totals must balance.
  gpu::Device dev(test::small_device());
  BulkSemaphore sem(0);
  const std::uint32_t pairs = 512;
  std::atomic<std::uint64_t> consumed{0};
  dev.launch(gpu::Dim3{8}, gpu::Dim3{128}, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() % 2 == 0) {
      sem.signal(1, 0);
    } else {
      // Consumers use try_wait polling (plain consumers, not two-stage).
      while (!sem.try_wait(1)) t.yield();
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(consumed.load(), pairs);
  EXPECT_EQ(sem.value(), 0u);
}

TEST(BulkSemaphore, HostThreadsProtocol) {
  // Same protocol exercised by preemptive OS threads (fallback paths).
  BulkSemaphore sem(0);
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kIters = 2000;
  constexpr std::uint32_t kBatch = 16;
  std::atomic<std::uint64_t> batches{0};
  test::run_os_threads(kThreads, [&](unsigned) {
    for (std::uint32_t i = 0; i < kIters; ++i) {
      if (sem.wait(1, kBatch) == WaitResult::kMustGrow) {
        batches.fetch_add(1, std::memory_order_relaxed);
        sem.signal(kBatch - 1, kBatch - 1);
      }
    }
  });
  const std::uint64_t produced = batches.load() * kBatch;
  EXPECT_EQ(sem.value(), produced - kThreads * kIters);
  EXPECT_EQ(sem.expected(), 0u);
  EXPECT_EQ(sem.reserved(), 0u);
}

}  // namespace
}  // namespace toma::sync
