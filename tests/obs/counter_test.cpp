// Sharded-counter semantics: aggregation, per-SM shard routing from
// inside simulated kernels, host-thread fallback sharding, and totals
// under concurrent fibers and OS threads.
#include "obs/counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma::obs {
namespace {

TEST(Counter, StartsAtZeroAndAggregates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(5);
  c.inc();
  EXPECT_EQ(c.value(), 6u);
}

TEST(Counter, HostThreadsLandOnStableShards) {
  Counter c;
  test::run_os_threads(4, [&](unsigned) {
    for (int i = 0; i < 1000; ++i) c.inc();
  });
  EXPECT_EQ(c.value(), 4000u);
  // Each host thread keeps one fixed shard, so the per-shard sums must
  // be multiples of its per-thread contribution.
  std::uint64_t shard_sum = 0;
  for (std::uint32_t s = 0; s < Counter::shard_count(); ++s) {
    EXPECT_EQ(c.shard_value(s) % 1000, 0u);
    shard_sum += c.shard_value(s);
  }
  EXPECT_EQ(shard_sum, 4000u);
}

TEST(Counter, SequentialHostThreadsLandOnDistinctShards) {
  // A host thread's shard is its first-use ordinal, so kShards threads
  // started one after another cover every shard once. A hash of the OS
  // thread id does not: glibc hands a joined thread's id to the next one.
  std::set<std::uint32_t> shards;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    std::uint32_t shard = 0;
    std::thread([&] { shard = current_shard(); }).join();
    shards.insert(shard);
  }
  EXPECT_EQ(shards.size(), kShards);
}

TEST(Counter, KernelFibersShardBySm) {
  // Each simulated thread bumps once; the scheduler pushes SM identity, so
  // every bump must land on the shard of the SM that ran the fiber.
  Counter c;
  gpu::Device dev(test::small_device(/*num_sms=*/2));
  constexpr std::uint64_t kThreads = 512;
  dev.launch_linear(kThreads, 64, [&](gpu::ThreadCtx& t) {
    c.inc();
#if TOMA_TELEMETRY
    // Sharding must match the SM the scheduler placed us on.
    EXPECT_EQ(current_shard(), t.sm_id() % kShards);
#else
    (void)t;
#endif
  });
  EXPECT_EQ(c.value(), kThreads);
#if TOMA_TELEMETRY
  // With a 2-SM device only shards 0 and 1 may be non-zero.
  std::uint64_t on_sm_shards = c.shard_value(0) + c.shard_value(1);
  EXPECT_EQ(on_sm_shards, kThreads);
#else
  // With telemetry off the scheduler does not push SM identity; bumps fall
  // back to the host-thread shard, so only totals are meaningful.
#endif
}

TEST(Counter, ConcurrentFibersAndHostThreadsDontLose) {
  Counter c;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> host_bumps{0};
  std::thread host([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      c.inc();
      host_bumps.fetch_add(1, std::memory_order_relaxed);
    }
  });
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 2048;
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    c.inc();
    if ((t.global_rank() & 7) == 0) gpu::this_thread::yield();
    c.inc();
  });
  stop.store(true);
  host.join();
  EXPECT_EQ(c.value(), 2 * kThreads + host_bumps.load());
}

TEST(CounterVec, ClampsOutOfRangeIndices) {
  CounterVec v(4);
  v.at(0).inc();
  v.at(3).inc();
  v.at(99).inc();  // clamps to last
  EXPECT_EQ(v.get(0).value(), 1u);
  EXPECT_EQ(v.get(3).value(), 2u);
  EXPECT_EQ(v.width(), 4u);
}

TEST(Registry, HandlesAreStableAndFindOrCreate) {
  Registry r;
  Counter& a = r.counter("test.a");
  Counter& a2 = r.counter("test.a");
  EXPECT_EQ(&a, &a2);
  a.add(3);
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counters.at("test.a"), 3u);
}

TEST(Registry, SnapshotDiffSubtracts) {
  Registry r;
  r.counter("d.x").add(10);
  const Snapshot before = r.snapshot();
  r.counter("d.x").add(7);
  r.counter("d.y").inc();
  const Snapshot delta = r.snapshot().diff_since(before);
  EXPECT_EQ(delta.counters.at("d.x"), 7u);
  EXPECT_EQ(delta.counters.at("d.y"), 1u);
}

#if TOMA_TELEMETRY
TEST(Macros, CounterMacroHitsGlobalRegistry) {
  const Snapshot before = registry().snapshot();
  for (int i = 0; i < 5; ++i) TOMA_CTR_INC("test.macro_counter");
  TOMA_CTR_ADD("test.macro_counter", 10);
  TOMA_CTRV_INC("test.macro_vec", 3, 1);
  const Snapshot delta = registry().snapshot().diff_since(before);
  EXPECT_EQ(delta.counters.at("test.macro_counter"), 15u);
  EXPECT_EQ(delta.counters.at("test.macro_vec[1]"), 1u);
}
#endif

}  // namespace
}  // namespace toma::obs
