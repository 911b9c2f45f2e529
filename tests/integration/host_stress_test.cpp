// OS-thread-only allocator stress. Unlike stress_test.cpp this file never
// constructs a gpu::Device: the simulator's hand-rolled fiber context
// switching is invisible to ThreadSanitizer (it cannot track stack swaps),
// so this binary is the one the TSan CI job runs. Everything here executes
// on plain std::threads via the allocator's host fallback paths (arena
// selection by thread-id hash), which share all the concurrency machinery
// — semaphores, RCU lists, parked units, magazines — with the device path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/alloc.hpp"
#include "support/test_support.hpp"
#include "util/prng.hpp"

namespace toma {
namespace {

TEST(HostStress, MixedSizeChurn) {
  alloc::GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 4});
  test::run_os_threads(8, [&](unsigned tid) {
    util::Xorshift rng(tid * 7919 + 1);
    void* held[4] = {};
    std::size_t sizes[4] = {};
    for (int i = 0; i < 4000; ++i) {
      const int slot = static_cast<int>(rng.next_below(4));
      if (held[slot] != nullptr) {
        auto* c = static_cast<unsigned char*>(held[slot]);
        ASSERT_EQ(c[0], 0x42);
        ASSERT_EQ(c[sizes[slot] - 1], 0x24);
        ga.free(held[slot]);
        held[slot] = nullptr;
      }
      const std::size_t size = std::size_t{8} << rng.next_below(11);  // ..8KB
      void* p = ga.malloc(size);
      if (p != nullptr) {
        auto* c = static_cast<unsigned char*>(p);
        c[0] = 0x42;
        c[size - 1] = 0x24;
        held[slot] = p;
        sizes[slot] = size;
      }
    }
    for (void* p : held) {
      if (p != nullptr) ga.free(p);
    }
  });
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

TEST(HostStress, CrossThreadFreeMailboxes) {
  // Producer threads allocate and publish; consumer threads free blocks
  // they never allocated. Every free lands in the *freeing* thread's
  // hash-chosen arena magazine (or spills), exercising the cross-owner
  // paths: chunk-header decode, remote bin publication, magazine bounds.
  alloc::GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024, .num_arenas = 4});
  constexpr unsigned kPairs = 4;
  constexpr int kPerThread = 3000;
  struct Mailbox {
    std::vector<std::atomic<void*>> slots{kPerThread};
    std::atomic<int> produced{0};
  };
  std::vector<Mailbox> boxes(kPairs);

  test::run_os_threads(2 * kPairs, [&](unsigned tid) {
    util::Xorshift rng(tid * 31 + 5);
    if (tid < kPairs) {  // producer
      Mailbox& box = boxes[tid];
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t size = std::size_t{8} << rng.next_below(8);
        void* p = ga.malloc(size);
        if (p != nullptr) std::memset(p, 0x6B, size);
        box.slots[i].store(p, std::memory_order_release);
        box.produced.fetch_add(1, std::memory_order_release);
      }
    } else {  // consumer for producer tid - kPairs
      Mailbox& box = boxes[tid - kPairs];
      for (int i = 0; i < kPerThread; ++i) {
        while (box.produced.load(std::memory_order_acquire) <= i) {
          std::this_thread::yield();
        }
        if (void* p = box.slots[i].exchange(nullptr)) ga.free(p);
      }
    }
  });

  EXPECT_TRUE(ga.check_consistency());  // includes magazine-bit integrity
  test::flush_quarantine(ga);
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
  // Every block is freed (and out of any HeapSan quarantine), so only
  // cached ones are still claimed out of the bins: allocs - frees ==
  // cached, before and after the flush.
  EXPECT_EQ(st.ualloc.allocs - st.ualloc.frees, st.ualloc.magazine_cached);
  if (ga.ualloc().magazines_enabled()) {
    const std::size_t flushed = ga.ualloc().release_cached();
    const auto after = ga.stats().ualloc;
    EXPECT_EQ(after.magazine_cached, 0u);
    EXPECT_EQ(after.magazine_flushes,
              st.ualloc.magazine_flushes + flushed);
    EXPECT_EQ(after.allocs, after.frees);
    // With the magazines on, every block published back into a bin was
    // a spill or a flush.
    EXPECT_EQ(after.frees, after.magazine_spill_blocks + after.magazine_flushes);
  }
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(HostStress, BuddyQuicklistChurn) {
  // Hammer TBuddy directly from preemptive OS threads so ThreadSanitizer
  // watches the quicklists' lock-free Treiber stacks (push/pop/link
  // traffic) and the optimistic CAS claim racing the locked protocols.
  // One thread concurrently trim()s, racing the flush path against
  // same-order pushes and pops.
  constexpr std::size_t kPool = 16 * 1024 * 1024;
  test::AlignedPool pool(kPool);
  alloc::TBuddy buddy(pool.get(), kPool);
  std::atomic<bool> stop{false};
  test::run_os_threads(6, [&](unsigned tid) {
    if (tid == 0) {  // trimmer
      for (int i = 0; i < 300; ++i) {
        buddy.trim();
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    util::Xorshift rng(tid * 2654435761u + 17);
    std::vector<std::pair<void*, std::uint32_t>> held;
    while (!stop.load(std::memory_order_acquire)) {
      if (!held.empty() && (rng.next() & 1)) {
        const std::size_t k = rng.next_below(held.size());
        buddy.free(held[k].first);
        held[k] = held.back();
        held.pop_back();
      } else {
        const auto order = static_cast<std::uint32_t>(rng.next_below(5));
        if (void* p = buddy.allocate(order)) {
          auto* c = static_cast<unsigned char*>(p);
          c[0] = 0xA5;  // touch across the reuse boundary
          held.emplace_back(p, order);
        }
      }
    }
    for (auto& [p, order] : held) buddy.free(p);
  });
  EXPECT_TRUE(buddy.check_consistency());
  buddy.trim();
  EXPECT_EQ(buddy.free_bytes(), kPool);
  EXPECT_EQ(buddy.largest_free_block(), kPool);
  // Closed cache accounting at quiescence: every free either entered a
  // quicklist (later popped as a hit or evicted by a flush) or took the
  // merging path directly past a full list (one per spill event). allocs
  // need not equal frees — it also counts the internal splitter claims.
  const auto st = buddy.stats();
  EXPECT_EQ(st.quicklist_cached, 0u);
  if (buddy.quicklist_enabled()) {
    EXPECT_EQ(st.frees - st.quicklist_spills,
              st.quicklist_hits + st.quicklist_flushes);
  }
}

TEST(HostStress, QuicklistToggleRace) {
  // Flip the quicklist switch while other threads churn: like the
  // magazine toggle, the switch only gates *entry* into the fast path, so
  // every interleaving must keep the semaphore/tree accounting closed.
  constexpr std::size_t kPool = 8 * 1024 * 1024;
  test::AlignedPool pool(kPool);
  alloc::TBuddy buddy(pool.get(), kPool);
  std::atomic<bool> stop{false};
  test::run_os_threads(5, [&](unsigned tid) {
    if (tid == 0) {  // toggler
      for (int i = 0; i < 200; ++i) {
        buddy.set_quicklist(i % 2 == 0);
        std::this_thread::yield();
      }
      buddy.set_quicklist(true);
      stop.store(true, std::memory_order_release);
      return;
    }
    util::Xorshift rng(tid);
    std::vector<void*> held;
    while (!stop.load(std::memory_order_acquire)) {
      if (!held.empty() && (rng.next() & 1)) {
        buddy.free(held.back());
        held.pop_back();
      } else {
        const auto order = static_cast<std::uint32_t>(rng.next_below(4));
        if (void* p = buddy.allocate(order)) held.push_back(p);
      }
    }
    for (void* p : held) buddy.free(p);
  });
  EXPECT_TRUE(buddy.check_consistency());
  buddy.trim();
  EXPECT_EQ(buddy.free_bytes(), kPool);
  EXPECT_EQ(buddy.largest_free_block(), kPool);
}

TEST(HostStress, MagazineRefillToggleRace) {
  // Flip the magazines while other threads churn the refill classes: the
  // toggle's disable path flushes concurrently with pushes, pops, slab
  // refills and top-ups, so TSan watches the magazine lock and refill-gate
  // protocol and the claimed-while-cached handoff under preemptive
  // threads.
  alloc::GpuAllocator ga({.pool_bytes = 16 * 1024 * 1024, .num_arenas = 2});
  std::atomic<bool> stop{false};
  test::run_os_threads(5, [&](unsigned tid) {
    if (tid == 0) {  // toggler
      for (int i = 0; i < 200; ++i) {
        ga.ualloc().set_magazines(i % 2 == 0);
        std::this_thread::yield();
      }
      ga.ualloc().set_magazines(true);
      stop.store(true, std::memory_order_release);
      return;
    }
    util::Xorshift rng(tid * 131 + 7);
    std::vector<void*> held;
    while (!stop.load(std::memory_order_acquire)) {
      if (!held.empty() && (rng.next() & 1)) {
        ga.free(held.back());
        held.pop_back();
      } else {
        // Refill-class sizes only (8..64 B) so every op contends a
        // refilling magazine.
        const std::size_t size = std::size_t{8} << rng.next_below(4);
        if (void* p = ga.malloc(size)) held.push_back(p);
      }
    }
    for (void* p : held) ga.free(p);
  });
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.stats().ualloc.magazine_cached, 0u);
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
}

TEST(HostStress, VmmShrinkRace) {
  // Run shrink passes while other threads churn sizes that force growth:
  // grow-on-exhaustion (map + inject under the grow mutex) races ordinary
  // allocation, and shrink (extract + unmap) races frees pushing blocks
  // back into the tree. Every interleaving must keep the tree and mapping
  // accounting closed.
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 16 * 1024 * 1024;
  cfg.num_arenas = 2;
  alloc::GpuAllocator ga(cfg);
  std::atomic<bool> stop{false};
  test::run_os_threads(5, [&](unsigned tid) {
    if (tid == 0) {  // shrinker
      for (int i = 0; i < 200; ++i) {
        if (i % 16 == 0) ga.shrink_backing();
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    util::Xorshift rng(tid * 977 + 3);
    std::vector<void*> held;
    while (!stop.load(std::memory_order_acquire)) {
      if (!held.empty() && (rng.next() & 1)) {
        ga.free(held.back());
        held.pop_back();
      } else {
        // Mostly buddy-served sizes so the churn keeps crossing chunk
        // boundaries and re-triggering growth after shrink passes.
        const std::size_t size = std::size_t{1024} << rng.next_below(7);
        if (void* p = ga.malloc(size)) held.push_back(p);
      }
    }
    for (void* p : held) ga.free(p);
  });
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  ga.shrink_backing();
  EXPECT_TRUE(ga.check_consistency());
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  const auto st = ga.stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
  EXPECT_GE(st.vmm.mapped_chunks, 1u);
}

TEST(HostStress, MagazineToggleRace) {
  // Flip the magazine switch while other threads churn: the toggle only
  // gates *entry* into the cache, so every configuration interleaving must
  // keep the accounting closed and the structures consistent.
  alloc::GpuAllocator ga({.pool_bytes = 16 * 1024 * 1024, .num_arenas = 2});
  std::atomic<bool> stop{false};
  test::run_os_threads(5, [&](unsigned tid) {
    if (tid == 0) {  // toggler
      for (int i = 0; i < 200; ++i) {
        ga.ualloc().set_magazines(i % 2 == 0);
        std::this_thread::yield();
      }
      ga.ualloc().set_magazines(true);
      stop.store(true, std::memory_order_release);
      return;
    }
    util::Xorshift rng(tid);
    std::vector<void*> held;
    while (!stop.load(std::memory_order_acquire)) {
      if (!held.empty() && (rng.next() & 1)) {
        ga.free(held.back());
        held.pop_back();
      } else {
        const std::size_t size = std::size_t{8} << rng.next_below(8);
        if (void* p = ga.malloc(size)) held.push_back(p);
      }
    }
    for (void* p : held) ga.free(p);
  });
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
  EXPECT_TRUE(ga.check_consistency());
}

TEST(HostStress, DefragConcurrentChurn) {
  // Incremental compaction concurrent with allocator traffic: one thread
  // drives defrag_step() flat out while churners allocate, verify, and
  // free through a shared two-phase relocation registry. The registry
  // mutex is the host-side synchronization the two-phase contract
  // demands: prepare/commit take it, and a churner never reads or frees
  // a block the hooks currently have in flight. Everything else — the
  // census, parked frees at evacuating chunks, forwarding, the pool's
  // read sections, retirement unmaps racing growth — runs bare under TSan.
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 32 * 1024 * 1024;
  cfg.num_arenas = 2;
  alloc::GpuAllocator ga(cfg);

  struct Registry {
    std::mutex mu;
    std::unordered_map<std::uint64_t, void*> cur;    // tag -> address
    std::unordered_map<void*, std::uint64_t> by_ptr; // address -> tag
    void* pending = nullptr;  // block between prepare and commit
  } reg;

  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&reg](void* from, void*, std::size_t) {
        std::lock_guard<std::mutex> g(reg.mu);
        if (reg.by_ptr.count(from) == 0) return false;  // not ours: veto
        reg.pending = from;
        return true;
      },
      [&reg](void* from, void* to, std::size_t) {
        std::lock_guard<std::mutex> g(reg.mu);
        const std::uint64_t tag = reg.by_ptr.at(from);
        reg.by_ptr.erase(from);
        reg.by_ptr[to] = tag;
        reg.cur[tag] = to;
        reg.pending = nullptr;
      },
      [&reg](void*) {
        std::lock_guard<std::mutex> g(reg.mu);
        reg.pending = nullptr;
      }});

  // Free a registered block through the protocol: verify the tag, then
  // deregister under the lock and free outside it (a deregistered
  // pointer can no longer be admitted by prepare). In-flight blocks are
  // skipped — the caller retries after the move commits.
  const auto free_tag = [&](std::uint64_t tag) -> bool {
    void* p;
    {
      std::lock_guard<std::mutex> g(reg.mu);
      p = reg.cur.at(tag);
      if (p == reg.pending) return false;  // mid-move: retry later
      EXPECT_EQ(*static_cast<std::uint64_t*>(p), tag);
      reg.cur.erase(tag);
      reg.by_ptr.erase(p);
    }
    ga.free(p);
    return true;
  };

  // Pre-fragment across several backing chunks so the driver has real
  // evacuation work from the first step: fill 8 MiB of 1 KiB bin blocks,
  // keep every 16th.
  const std::size_t kib = test::request_for_slot(ga, 1024);
  for (std::uint64_t i = 0; i < 8192; ++i) {
    void* p = ga.malloc(kib);
    ASSERT_NE(p, nullptr);
    const std::uint64_t tag = (std::uint64_t{99} << 32) | i;
    *static_cast<std::uint64_t*>(p) = tag;
    std::lock_guard<std::mutex> g(reg.mu);
    reg.cur[tag] = p;
    reg.by_ptr[p] = tag;
  }
  for (std::uint64_t i = 0; i < 8192; ++i) {
    if (i % 16 != 0) {
      ASSERT_TRUE(free_tag((std::uint64_t{99} << 32) | i));
    }
  }

  constexpr unsigned kChurners = 3;
  std::atomic<unsigned> running{kChurners};
  test::run_os_threads(kChurners + 1, [&](unsigned tid) {
    if (tid == 0) {  // incremental defrag driver
      while (running.load(std::memory_order_acquire) > 0) {
        if (ga.defrag_step() == 0) std::this_thread::yield();
      }
      // Churn over: drain outstanding evacuation/forwarding state.
      for (int i = 0; i < 256; ++i) ga.defrag_step();
      return;
    }
    util::Xorshift rng(tid * 40503 + 11);
    std::vector<std::uint64_t> tags;
    std::uint64_t next_tag = std::uint64_t{tid} << 32;
    for (int op = 0; op < 3000; ++op) {
      if (!tags.empty() && (tags.size() > 48 || (rng.next() & 1))) {
        const std::size_t i = rng.next_below(tags.size());
        if (free_tag(tags[i])) {
          tags[i] = tags.back();
          tags.pop_back();
        }
        continue;
      }
      const std::size_t size = std::size_t{16} << rng.next_below(7);
      void* p = ga.malloc(size);
      if (p == nullptr) continue;
      const std::uint64_t tag = next_tag++;
      // Tag before registering: an unregistered block is vetoed by
      // prepare, so this plain write cannot race a relocation memcpy.
      *static_cast<std::uint64_t*>(p) = tag;
      std::lock_guard<std::mutex> g(reg.mu);
      reg.cur[tag] = p;
      reg.by_ptr[p] = tag;
      tags.push_back(tag);
    }
    while (!tags.empty()) {  // full drain, retrying in-flight blocks
      if (free_tag(tags.back())) {
        tags.pop_back();
      } else {
        std::this_thread::yield();
      }
    }
    running.fetch_sub(1, std::memory_order_release);
  });

  // Release the pre-fragment survivors (possibly relocated many times),
  // then let retirement reclaim whatever the final frees parked.
  std::vector<std::uint64_t> rest;
  for (const auto& kv : reg.cur) rest.push_back(kv.first);
  for (const std::uint64_t tag : rest) ASSERT_TRUE(free_tag(tag));
  for (int i = 0; i < 256; ++i) ga.defrag_step();

  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  ga.shrink_backing();
  EXPECT_TRUE(ga.check_consistency());
  const auto st = ga.stats();
  EXPECT_GT(st.defrag_steps, 0u);
  EXPECT_GT(st.defrag_moved_bytes, 0u);
  EXPECT_EQ(st.defrag_passes, 0u) << "incremental only: no sync pass ran";
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
  EXPECT_EQ(ga.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace toma
