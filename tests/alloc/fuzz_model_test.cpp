// Model-based randomized testing of GpuAllocator.
//
// A shadow model tracks every live allocation (address, size, fill byte).
// Random malloc/free sequences — sequential, OS-thread-parallel, and
// GPU-kernel-parallel — are validated against the model:
//   * returned ranges lie inside the pool and are suitably aligned;
//   * no two live allocations overlap;
//   * canary bytes survive until free (no allocator metadata stomps
//     user data, no user data stomps another allocation);
//   * after freeing everything and trimming, the pool fully coalesces.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"
#include "util/prng.hpp"

namespace toma::alloc {
namespace {

class ShadowModel {
 public:
  void on_alloc(void* p, std::size_t size, std::uint8_t fill,
                std::uintptr_t pool_base, std::size_t pool_bytes) {
    std::lock_guard<std::mutex> g(mu_);
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    ASSERT_GE(a, pool_base) << "allocation below pool";
    ASSERT_LE(a + size, pool_base + pool_bytes) << "allocation beyond pool";
    // No overlap with any live allocation.
    auto it = live_.upper_bound(a);
    if (it != live_.begin()) {
      auto prev = std::prev(it);
      ASSERT_LE(prev->first + prev->second.size, a)
          << "overlaps predecessor";
    }
    if (it != live_.end()) {
      ASSERT_LE(a + size, it->first) << "overlaps successor";
    }
    live_.emplace(a, Rec{size, fill});
  }

  // Returns the expected fill byte.
  std::uint8_t on_free(void* p, std::size_t* size_out) {
    std::lock_guard<std::mutex> g(mu_);
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    auto it = live_.find(a);
    EXPECT_NE(it, live_.end()) << "free of unknown pointer";
    const std::uint8_t fill = it->second.fill;
    *size_out = it->second.size;
    live_.erase(it);
    return fill;
  }

  std::size_t live_count() {
    std::lock_guard<std::mutex> g(mu_);
    return live_.size();
  }

 private:
  struct Rec {
    std::size_t size;
    std::uint8_t fill;
  };
  std::mutex mu_;
  std::map<std::uintptr_t, Rec> live_;
};

struct Held {
  void* p = nullptr;
  std::size_t size = 0;
  std::uint8_t fill = 0;
};

void fuzz_worker(GpuAllocator& ga, ShadowModel& model, std::uint64_t seed,
                 int iters, std::size_t max_size_log2,
                 const std::function<void()>& pause) {
  util::Xorshift rng(seed);
  std::vector<Held> held;
  const auto base = reinterpret_cast<std::uintptr_t>(ga.buddy().pool_base());
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t roll = rng.next_below(100);
    const bool do_free = !held.empty() && roll < 40;
    const bool do_realloc = !held.empty() && !do_free && roll < 52;
    if (do_realloc) {
      // Resize a held block: contents up to min(old, new) must survive,
      // whether the allocator resized in place or moved the block.
      const std::size_t k = rng.next_below(held.size());
      Held h = held[k];
      const std::size_t new_size =
          1 + (std::size_t{1} << rng.next_below(max_size_log2));
      // Retire the model entry *before* realloc: a moving realloc frees
      // the old block inside the allocator, and a concurrent worker can
      // legitimately be handed that address before this thread runs
      // again — the model must not still claim it.
      std::size_t msize;
      const std::uint8_t fill = model.on_free(h.p, &msize);
      EXPECT_EQ(fill, h.fill);
      EXPECT_EQ(msize, h.size);
      void* np = ga.realloc(h.p, new_size);
      if (np == nullptr) {
        // OOM: the old block is untouched and still held — re-record it.
        model.on_alloc(h.p, h.size, h.fill, base, ga.pool_bytes());
        continue;
      }
      auto* c = static_cast<std::uint8_t*>(np);
      const std::size_t keep = std::min(h.size, new_size);
      for (std::size_t b = 0; b < keep; ++b) {
        ASSERT_EQ(c[b], h.fill) << "realloc lost byte " << b;
      }
      const auto nfill = static_cast<std::uint8_t>(rng.next() | 1);
      std::memset(np, nfill, new_size);
      model.on_alloc(np, new_size, nfill, base, ga.pool_bytes());
      held[k] = Held{np, new_size, nfill};
    } else if (do_free) {
      const std::size_t k = rng.next_below(held.size());
      Held h = held[k];
      held[k] = held.back();
      held.pop_back();
      // Canary check over the whole range.
      auto* c = static_cast<std::uint8_t*>(h.p);
      for (std::size_t b = 0; b < h.size; ++b) {
        ASSERT_EQ(c[b], h.fill) << "corruption at byte " << b;
      }
      std::size_t msize;
      const std::uint8_t fill = model.on_free(h.p, &msize);
      EXPECT_EQ(fill, h.fill);
      EXPECT_EQ(msize, h.size);
      ga.free(h.p);
    } else {
      // Sizes biased small, occasionally huge (buddy range).
      const std::size_t size =
          1 + (std::size_t{1} << rng.next_below(max_size_log2));
      void* p = ga.malloc(size);
      if (p == nullptr) continue;  // OOM is legal under pressure
      const std::size_t eff = GpuAllocator::effective_size(size);
      const auto fill = static_cast<std::uint8_t>(rng.next() | 1);
      std::memset(p, fill, size);
      model.on_alloc(p, size, fill, base, ga.pool_bytes());
      (void)eff;
      held.push_back(Held{p, size, fill});
    }
    if ((i & 15) == 0) pause();
  }
  for (Held& h : held) {
    auto* c = static_cast<std::uint8_t*>(h.p);
    for (std::size_t b = 0; b < h.size; ++b) {
      ASSERT_EQ(c[b], h.fill);
    }
    std::size_t msize;
    model.on_free(h.p, &msize);
    ga.free(h.p);
  }
}

TEST(FuzzModel, Sequential) {
  GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 2});
  ShadowModel model;
  fuzz_worker(ga, model, 0xF00D, 8000, 16, [] {});
  EXPECT_EQ(model.live_count(), 0u);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(FuzzModel, OsThreads) {
  GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 4});
  ShadowModel model;
  test::run_os_threads(4, [&](unsigned tid) {
    fuzz_worker(ga, model, 0xBEEF + tid, 3000, 14,
                [] { std::this_thread::yield(); });
  });
  EXPECT_EQ(model.live_count(), 0u);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(FuzzModel, GpuKernel) {
  gpu::Device dev(test::small_device(4, 512, 1));
  GpuAllocator ga({.pool_bytes = 64 * 1024 * 1024,
                   .num_arenas = dev.num_sms()});
  ShadowModel model;
  dev.launch_linear(512, 64, [&](gpu::ThreadCtx& t) {
    fuzz_worker(ga, model, 0xCAFE + t.global_rank(), 60, 13,
                [&t] { t.yield(); });
  });
  EXPECT_EQ(model.live_count(), 0u);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

// The caching front-ends (UAlloc magazines, TBuddy quicklists) reroute the
// hot paths entirely, so the model must hold under every toggle
// combination — not just the process default.
TEST(FuzzModel, ToggleMatrix) {
  for (const bool magazines : {false, true}) {
    for (const bool quicklist : {false, true}) {
      SCOPED_TRACE(testing::Message() << "magazines=" << magazines
                                      << " quicklist=" << quicklist);
      GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 2});
      ga.ualloc().set_magazines(magazines);
      ga.buddy().set_quicklist(quicklist);
      ShadowModel model;
      const std::uint64_t seed =
          0xAB1E + (magazines ? 2u : 0u) + (quicklist ? 1u : 0u);
      fuzz_worker(ga, model, seed, 4000, 15, [] {});
      EXPECT_EQ(model.live_count(), 0u);
      EXPECT_TRUE(ga.check_consistency());
      ga.trim();
      EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
    }
  }
}

// Same model, HeapSan interposed: redzones, poison and the quarantine must
// be invisible to a correct client (canaries intact, pool still coalesces).
TEST(FuzzModel, SequentialHeapSan) {
  GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 2});
  ga.set_heapsan(true);
  ShadowModel model;
  fuzz_worker(ga, model, 0x5A17, 6000, 15, [] {});
  EXPECT_EQ(model.live_count(), 0u);
  EXPECT_TRUE(ga.check_consistency());
  EXPECT_EQ(ga.stats().heapsan.live_blocks, 0u);
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(FuzzModel, GpuKernelMultiWorker) {
  gpu::Device dev(test::small_device(4, 256, 2));
  GpuAllocator ga({.pool_bytes = 64 * 1024 * 1024,
                   .num_arenas = dev.num_sms()});
  ShadowModel model;
  dev.launch_linear(256, 64, [&](gpu::ThreadCtx& t) {
    fuzz_worker(ga, model, 0xD00D + t.global_rank(), 40, 13,
                [&t] { t.yield(); });
  });
  EXPECT_EQ(model.live_count(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

}  // namespace
}  // namespace toma::alloc
