// Exact per-shard statistics (obs/stats.hpp) and their export: shard
// routing from kernels and host threads, totals under concurrent fibers
// and OS threads, registry collectors that sum live owners and fold
// destroyed ones, and each owner as the source of its registry counters.
#include "obs/stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma::obs {
namespace {

TEST(ShardedStats, AddReturnsTheShardLocalIndex) {
  ShardedStats<2> st;
  EXPECT_EQ(st.add(0), 0u);
  EXPECT_EQ(st.add(0), 1u);
  EXPECT_EQ(st.add(0, 5), 2u);
  EXPECT_EQ(st.add(1), 0u) << "fields count separately";
  EXPECT_EQ(st.sum(0), 7u);
  EXPECT_EQ(st.shard(current_shard()).get(0), 7u)
      << "one host thread bumps one shard";
}

TEST(ShardedStats, KernelFibersShardBySm) {
  // Each SM's fibers bump the block of their own SM's shard, so every
  // shard-local index sequence starts at 0 — in telemetry-off builds too,
  // where the scheduler publishes the fiber identity all the same.
  constexpr std::uint32_t kSms = 4;
  gpu::Device dev(test::small_device(kSms, 256, 0));
  ShardedStats<1> st;
  std::atomic<std::uint64_t> firsts{0};
  dev.launch_linear(1024, 64, [&](gpu::ThreadCtx&) {
    if (st.add(0) == 0) firsts.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(st.sum(0), 1024u);
  std::uint64_t per_sm = 0;
  for (std::uint32_t s = 0; s < kSms; ++s) per_sm += st.shard(s).get(0);
  EXPECT_EQ(per_sm, 1024u) << "kernel bumps land on SM shards only";
  EXPECT_EQ(firsts.load(), kSms);
}

TEST(ShardedStats, ConcurrentHostThreadsLoseNothing) {
  ShardedStats<1> st;
  test::run_os_threads(4, [&](unsigned) {
    for (int i = 0; i < 10000; ++i) st.add(0);
  });
  EXPECT_EQ(st.sum(0), 40000u);
}

TEST(ShardedStats, HostThreadsLandOnStableShards) {
  ShardedStats<1> st;
  test::run_os_threads(4, [&](unsigned) {
    for (int i = 0; i < 1000; ++i) st.add(0);
  });
  EXPECT_EQ(st.sum(0), 4000u);
  // Each host thread keeps one fixed shard, so the per-shard sums must
  // be multiples of its per-thread contribution.
  std::uint64_t shard_sum = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(st.shard(s).get(0) % 1000, 0u);
    shard_sum += st.shard(s).get(0);
  }
  EXPECT_EQ(shard_sum, 4000u);
}

TEST(ShardedStats, SequentialHostThreadsLandOnDistinctShards) {
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

TEST(ShardedStats, ConcurrentFibersAndHostThreadsDontLose) {
  ShardedStats<1> st;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> host_bumps{0};
  std::thread host([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      st.add(0);
      host_bumps.fetch_add(1, std::memory_order_relaxed);
    }
  });
  gpu::Device dev(test::small_device());
  constexpr std::uint64_t kThreads = 2048;
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    st.add(0);
    if ((t.global_rank() & 7) == 0) gpu::this_thread::yield();
    st.add(0);
  });
  stop.store(true);
  host.join();
  EXPECT_EQ(st.sum(0), 2 * kThreads + host_bumps.load());
}

// A collector over a plain counter, standing in for a stats owner.
Registry::Collector counting(const std::atomic<std::uint64_t>& n) {
  return [&n](CounterTotals& out) {
    out["owner.events"] += n.load(std::memory_order_relaxed);
  };
}

TEST(Registry, CollectorsOfLiveOwnersSum) {
  Registry r;
  std::atomic<std::uint64_t> a{5}, b{7};
  r.add_collector(counting(a));
  r.add_collector(counting(b));
  EXPECT_EQ(r.snapshot().counters.at("owner.events"), 12u);
  b += 3;
  EXPECT_EQ(r.snapshot().counters.at("owner.events"), 15u);
}

TEST(Registry, SnapshotDiffSubtracts) {
  Registry r;
  std::atomic<std::uint64_t> x{10}, y{0};
  r.add_collector([&](CounterTotals& out) {
    out["d.x"] += x.load();
    if (y.load() != 0) out["d.y"] += y.load();  // a name that appears later
  });
  const Snapshot before = r.snapshot();
  x += 7;
  y += 1;
  const Snapshot delta = r.snapshot().diff_since(before);
  EXPECT_EQ(delta.counters.at("d.x"), 7u);
  EXPECT_EQ(delta.counters.at("d.y"), 1u);
}

TEST(Registry, RemovedCollectorFoldsSoCountersStayMonotonic) {
  Registry r;
  std::atomic<std::uint64_t> a{5}, b{7};
  const std::uint64_t ida = r.add_collector(counting(a));
  r.add_collector(counting(b));
  const Snapshot before = r.snapshot();
  a += 2;
  r.remove_collector(ida);
  a += 100;  // the owner is gone: nothing it does counts any more
  const Snapshot after = r.snapshot();
  EXPECT_EQ(after.counters.at("owner.events"), 14u);
  EXPECT_EQ(after.diff_since(before).counters.at("owner.events"), 2u);
  b += 1;
  EXPECT_EQ(r.snapshot().counters.at("owner.events"), 15u);
}

#if TOMA_TELEMETRY

std::uint64_t counter(const Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

TEST(StatsSource, AllocatorsAreTheSourceOfTheirCounters) {
  // Two live allocators sum; destroying one keeps its counts.
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 4 << 20;
  cfg.num_arenas = 2;
  const Snapshot before = registry().snapshot();
  auto a = std::make_unique<alloc::GpuAllocator>(cfg);
  alloc::GpuAllocator b(cfg);
  a->set_heapsan(true);
  for (int i = 0; i < 3; ++i) a->free(a->malloc(64));
  for (int i = 0; i < 4; ++i) b.free(b.malloc(8192));
  a->trim();  // drains a's quarantine: evictions, poison checks, a flush
  Snapshot d = registry().snapshot().diff_since(before);
  EXPECT_EQ(counter(d, "alloc.malloc"), 7u);
  EXPECT_EQ(counter(d, "alloc.free"), 7u);
  const std::uint64_t splits =
      a->stats().buddy.splits + b.stats().buddy.splits;
  EXPECT_GT(splits, 0u);
  EXPECT_EQ(counter(d, "tbuddy.split"), splits);
  // HeapSan is the source of its san.* counters.
  const san::HeapSanStats sa = a->stats().heapsan;
  const san::HeapSanStats sb = b.stats().heapsan;
  EXPECT_EQ(sa.quarantine_pushes, 3u);
  EXPECT_EQ(sa.quarantine_evictions, 3u);
  EXPECT_EQ(sa.quarantine_flushes, 1u);
  const auto expect_san = [&](const Snapshot& snap) {
    EXPECT_EQ(counter(snap, "san.redzone_check"),
              sa.redzone_checks + sb.redzone_checks);
    EXPECT_EQ(counter(snap, "san.poison_check"),
              sa.poison_checks + sb.poison_checks);
    EXPECT_EQ(counter(snap, "san.quarantine.push"),
              sa.quarantine_pushes + sb.quarantine_pushes);
    EXPECT_EQ(counter(snap, "san.quarantine.evict"),
              sa.quarantine_evictions + sb.quarantine_evictions);
    EXPECT_EQ(counter(snap, "san.quarantine.flush"),
              sa.quarantine_flushes + sb.quarantine_flushes);
  };
  expect_san(d);
  a.reset();
  d = registry().snapshot().diff_since(before);
  EXPECT_EQ(counter(d, "alloc.malloc"), 7u) << "a destroyed owner folds";
  EXPECT_EQ(counter(d, "tbuddy.split"), splits);
  expect_san(d);
  b.free(b.malloc(16));
  d = registry().snapshot().diff_since(before);
  EXPECT_EQ(counter(d, "alloc.malloc"), 8u);
}

TEST(StatsSource, LiveBytesFollowBytesInUseOnElasticPools) {
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 16 << 20;
  cfg.num_arenas = 2;
  cfg.heapsan = false;
  alloc::GpuAllocator ga(cfg);
  const auto live = [] {
    const Snapshot s = registry().snapshot();
    return static_cast<std::int64_t>(counter(s, "vmm.live_bytes.charged")) -
           static_cast<std::int64_t>(counter(s, "vmm.live_bytes.freed"));
  };
  const Snapshot s0 = registry().snapshot();
  const std::int64_t base = live();
  void* p = ga.malloc(1 << 16);
  void* q = ga.malloc(100);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(live() - base, static_cast<std::int64_t>(ga.bytes_in_use()));
  ga.free(p);
  const Snapshot s1 = registry().snapshot();
  EXPECT_EQ(live() - base, static_cast<std::int64_t>(ga.bytes_in_use()));
  EXPECT_GE(counter(s1, "vmm.live_bytes.charged"),
            counter(s0, "vmm.live_bytes.charged"));
  EXPECT_GE(counter(s1, "vmm.live_bytes.freed"),
            counter(s0, "vmm.live_bytes.freed") + (1 << 16))
      << "the drop since the last snapshot counts as freed";
  ga.free(q);
  EXPECT_EQ(live(), base);
}

#endif  // TOMA_TELEMETRY

}  // namespace
}  // namespace toma::obs
