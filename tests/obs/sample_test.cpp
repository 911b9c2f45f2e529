// Latency sampling (obs/sample.hpp): the 1-in-64 rule, OpTimer's shared
// clock reads, and the rule as the allocator and the pools apply it: the
// sampled operations repeat on every one-worker run, and each latency
// histogram holds exactly the number of samples the rule predicts from
// the allocator's per-shard call counts.
#include "obs/sample.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "support/test_support.hpp"

namespace toma::obs {
namespace {

TEST(LatencySampling, RuleTimesOneCallIn64) {
  EXPECT_EQ(kLatencySampleEvery, 64u);
  EXPECT_TRUE(latency_sampled(0));
  for (std::uint64_t i = 1; i < 64; ++i) EXPECT_FALSE(latency_sampled(i));
  EXPECT_TRUE(latency_sampled(64));
  EXPECT_TRUE(latency_sampled(640));
  EXPECT_EQ(latency_sample_count(0), 0u);
  EXPECT_EQ(latency_sample_count(1), 1u);
  EXPECT_EQ(latency_sample_count(64), 1u);
  EXPECT_EQ(latency_sample_count(65), 2u);
  EXPECT_EQ(latency_sample_count(6400), 100u);
}

#if TOMA_TELEMETRY

TEST(OpTimer, UntimedOperationRecordsNothing) {
  OpTimer t;
  EXPECT_EQ(t.stop(), 0u);
}

TEST(OpTimer, LayersShareOneLatency) {
  Histogram outer, inner;
  OpTimer t;
  t.record_into(outer);
  t.record_into(inner);  // the clock already runs: no second start
  const std::uint64_t dt = t.stop();
  const HistogramSnapshot a = outer.snapshot(), b = inner.snapshot();
  EXPECT_EQ(a.count, 1u);
  EXPECT_EQ(b.count, 1u);
  EXPECT_EQ(a.sum, dt);
  EXPECT_EQ(b.sum, dt);
  EXPECT_EQ(t.stop(), 0u) << "a stopped timer records nothing again";
  EXPECT_EQ(outer.snapshot().count, 1u);
}

bool site_a() { return TOMA_SITE_SAMPLED(); }
bool site_b() { return TOMA_SITE_SAMPLED(); }

TEST(LatencySampling, EachSiteCountsItsOwnCallsPerThread) {
  // A fresh thread starts every site at call index 0. Interleaving the
  // two sites must not shift either one's sample: each keeps its own
  // count, so a period-2 call pattern cannot alias the period-64 rule.
  std::vector<std::uint64_t> a_hits, b_hits;
  std::thread([&] {
    for (std::uint64_t i = 0; i < 640; ++i) {
      if (site_a()) a_hits.push_back(i);
      if (site_b()) b_hits.push_back(i);
    }
  }).join();
  ASSERT_EQ(a_hits.size(), 10u);
  EXPECT_EQ(a_hits, b_hits);
  for (std::size_t k = 0; k < a_hits.size(); ++k) EXPECT_EQ(a_hits[k], 64 * k);
}

std::uint64_t hist_count(const Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

std::uint64_t hist_sum(const Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

std::string malloc_series(std::uint32_t cls) {
  return "alloc.malloc_ns[" + std::to_string(cls) + "]";
}

constexpr std::uint32_t kClasses = 10;  // 8 B .. 4 KiB

struct ChurnSamples {
  std::array<std::uint64_t, kClasses> per_class{};  // alloc.malloc_ns[c]
  std::array<std::uint64_t, kClasses> predicted{};  // by call index
  std::uint64_t frees = 0;
  std::uint64_t mallocs_counted = 0, frees_counted = 0;
  // Σ over obs shards of latency_sample_count(the shard's calls).
  std::uint64_t malloc_formula = 0, free_formula = 0;
  std::uint32_t malloc_shards = 0;  // shards that counted a malloc
};

// One-worker churn on a fresh allocator. Each malloc takes its call index
// from its obs shard's `seq` right before the call: on one worker no other
// fiber runs in between, so it is the shard-local index the allocator's
// malloc count hands out and the test can predict which calls the rule
// times.
ChurnSamples one_worker_churn() {
  gpu::Device dev(test::small_device(4, 256, 1));
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 64 << 20;
  cfg.num_arenas = dev.num_sms();
  cfg.heapsan = false;  // class = log2(size) - 3 exactly
  alloc::GpuAllocator ga(cfg);
  constexpr std::uint64_t kThreads = 2048;
  std::vector<std::atomic<std::uint64_t>> seq(kShards);
  std::vector<std::atomic<std::uint32_t>> sampled(kClasses);
  const Snapshot before = registry().snapshot();
  dev.launch_linear(kThreads, 128, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() >= kThreads) return;
    auto& rng = t.rng();
    for (int round = 0; round < 6; ++round) {
      const auto cls = static_cast<std::uint32_t>(rng.next_below(kClasses));
      const std::uint64_t idx =
          seq[current_shard()].fetch_add(1, std::memory_order_relaxed);
      void* p = ga.malloc(std::size_t{8} << cls);
      if (latency_sampled(idx)) sampled[cls].fetch_add(1);
      t.yield();
      ga.free(p);
    }
  });
  const Snapshot d = registry().snapshot().diff_since(before);
  ChurnSamples out;
  for (std::uint32_t c = 0; c < kClasses; ++c) {
    out.per_class[c] = hist_count(d, malloc_series(c));
    out.predicted[c] = sampled[c].load();
  }
  out.frees = hist_count(d, "alloc.free_ns");
  const auto st = ga.stats();
  out.mallocs_counted = st.mallocs;
  out.frees_counted = st.frees;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    out.malloc_formula += latency_sample_count(ga.shard_mallocs(s));
    out.free_formula += latency_sample_count(ga.shard_frees(s));
    if (ga.shard_mallocs(s) != 0) ++out.malloc_shards;
  }
  return out;
}

TEST(LatencySampling, SameOpsSampledOnEveryOneWorkerRun) {
  const ChurnSamples a = one_worker_churn();
  const ChurnSamples b = one_worker_churn();
  EXPECT_EQ(a.mallocs_counted, 2048u * 6);
  EXPECT_EQ(a.per_class, a.predicted)
      << "the timed mallocs are those with shard-local index % 64 == 0";
  EXPECT_EQ(a.per_class, b.per_class) << "same ops sampled on every run";
  std::uint64_t total = 0;
  for (const std::uint64_t n : a.per_class) total += n;
  EXPECT_EQ(total, a.malloc_formula);
  EXPECT_EQ(a.frees, a.free_formula);
  EXPECT_EQ(a.malloc_shards, 4u) << "each SM counts on its own shard";
  EXPECT_EQ(b.malloc_formula, a.malloc_formula);
  EXPECT_EQ(b.frees, a.frees);
}

TEST(LatencySampling, FailedMallocsAreSampledToo) {
  // Quota rejections, calloc overflows and size-0 calls: the first two
  // count as mallocs and so take call indices (and samples); size 0 does
  // neither. The sample count still follows exactly from the counter.
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 4 << 20;
  cfg.num_arenas = 2;
  cfg.quota_bytes = 64 << 10;
  cfg.heapsan = false;
  alloc::GpuAllocator ga(cfg);
  const Snapshot before = registry().snapshot();
  std::vector<void*> held;
  for (int i = 0; i < 300; ++i) {
    if (void* p = ga.malloc(1024)) held.push_back(p);  // 64 fit the quota
    EXPECT_EQ(ga.calloc(SIZE_MAX, 2), nullptr);
    EXPECT_EQ(ga.malloc(0), nullptr);
  }
  for (void* p : held) ga.free(p);
  const Snapshot d = registry().snapshot().diff_since(before);
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, 600u);
  EXPECT_EQ(st.failed_mallocs, 600u - held.size());
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < 16; ++c) total += hist_count(d, malloc_series(c));
  EXPECT_EQ(total, latency_sample_count(st.mallocs));
  EXPECT_EQ(hist_count(d, "alloc.free_ns"), latency_sample_count(st.frees));
}

TEST(LatencySampling, SloPoolTimesEveryOpWithTheAllocatorsReads) {
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 4 << 20;
  cfg.num_arenas = 2;
  cfg.heapsan = false;
  cfg.slo_latency_ns = 1;  // every timed op breaches it
  alloc::Pool pool("sample-slo", cfg);
  const std::string pool_malloc = "pool.malloc_ns{pool=\"sample-slo\"}";
  const std::string alloc_64 = malloc_series(3);

  // The pool's first malloc is the allocator's call index 0: both layers
  // time it, with one latency from one pair of clock reads.
  Snapshot before = registry().snapshot();
  void* first = pool.malloc(64);
  Snapshot d = registry().snapshot().diff_since(before);
  ASSERT_EQ(hist_count(d, pool_malloc), 1u);
  ASSERT_EQ(hist_count(d, alloc_64), 1u);
  EXPECT_EQ(hist_sum(d, pool_malloc), hist_sum(d, alloc_64));

  // Calls 1..63 are the allocator's unsampled ones; the SLO pool still
  // times every one of them and checks each against the target.
  std::vector<void*> held{first};
  for (int i = 1; i < 64; ++i) held.push_back(pool.malloc(64));
  d = registry().snapshot().diff_since(before);
  EXPECT_EQ(hist_count(d, pool_malloc), 64u);
  EXPECT_EQ(hist_count(d, alloc_64), 1u);
  EXPECT_EQ(pool.stats().slo_violations, 64u);

  // A moving realloc is one op over an inner malloc (call index 64) and
  // free (index 0), both sampled: all three histograms get its latency.
  before = registry().snapshot();
  void* moved = pool.realloc(held.back(), 8192);
  ASSERT_NE(moved, nullptr);
  held.back() = moved;
  d = registry().snapshot().diff_since(before);
  EXPECT_EQ(hist_count(d, pool_malloc), 1u);
  EXPECT_EQ(hist_count(d, malloc_series(10)), 1u);
  EXPECT_EQ(hist_count(d, "alloc.free_ns"), 1u);
  EXPECT_EQ(hist_sum(d, malloc_series(10)), hist_sum(d, pool_malloc));
  EXPECT_EQ(hist_sum(d, "alloc.free_ns"), hist_sum(d, pool_malloc));
  for (void* p : held) pool.free(p);
}

TEST(LatencySampling, PoolWithoutSloSamplesOneCallIn64) {
  // On a fresh thread the pool's malloc site and the allocator's malloc
  // count both start at 0, so both layers time calls 0 and 64 and read
  // the clock for nothing else.
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 4 << 20;
  cfg.num_arenas = 2;
  cfg.heapsan = false;
  alloc::Pool pool("sample-plain", cfg);
  const std::string pool_malloc = "pool.malloc_ns{pool=\"sample-plain\"}";
  const Snapshot before = registry().snapshot();
  std::thread([&] {
    std::vector<void*> held;
    for (int i = 0; i < 128; ++i) held.push_back(pool.malloc(64));
    for (void* p : held) pool.free(p);
  }).join();
  const Snapshot d = registry().snapshot().diff_since(before);
  EXPECT_EQ(hist_count(d, pool_malloc), 2u);
  EXPECT_EQ(hist_count(d, malloc_series(3)), 2u);
  EXPECT_EQ(hist_sum(d, pool_malloc), hist_sum(d, malloc_series(3)));
  EXPECT_EQ(hist_count(d, "pool.free_ns{pool=\"sample-plain\"}"), 2u);
  EXPECT_EQ(pool.stats().slo_violations, 0u);
}

#endif  // TOMA_TELEMETRY

}  // namespace
}  // namespace toma::obs
