// Elastic virtual backing store: chunk-table mechanics, grow-on-
// exhaustion, shrink-at-trim, the mapped-footprint quota gate, and
// defragmentation, quiescent and incremental (docs/INTERNALS.md §8).
#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/pool.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/recorder.hpp"
#include "support/test_support.hpp"
#include "toma/toma.h"
#include "util/bitops.hpp"
#include "vmm/backing.hpp"

namespace toma {
namespace {

using alloc::AllocStatus;
using alloc::GpuAllocator;
using alloc::HeapConfig;
using alloc::kChunkSize;

constexpr std::size_t kPool = 8 * 1024 * 1024;

HeapConfig elastic_cfg() {
  HeapConfig cfg;
  cfg.pool_bytes = kPool;
  cfg.num_arenas = 1;
  return cfg;
}

// The auto granule for an 8 MiB pool is the clamp floor (one UAlloc
// chunk); several tests below hard-code that geometry.
static_assert(alloc::vmm_chunk_bytes_for(kPool, 0) == kChunkSize);

TEST(BackingStore, MapsAndUnmapsChunks) {
  vmm::BackingStore bs(vmm::BackingConfig{
      .reserve_bytes = 4 * 1024 * 1024,
      .chunk_bytes = kChunkSize,
      .initial_chunks = 1,
      .max_chunks = 0,
  });
  // The reservation must be aligned to its own size — the
  // alignment-based free routing depends on it.
  EXPECT_TRUE(util::is_aligned(bs.base(), bs.reserve_bytes()));
  EXPECT_EQ(bs.chunk_count(), 16u);
  EXPECT_EQ(bs.max_chunks(), 16u);
  EXPECT_EQ(bs.mapped_chunks(), 1u);
  EXPECT_TRUE(bs.is_mapped(0));
  EXPECT_FALSE(bs.is_mapped(1));

  // map_next maps the lowest unmapped slot, and mapped memory is usable.
  void* c1 = bs.map_next();
  ASSERT_EQ(c1, bs.chunk_addr(1));
  std::memset(c1, 0xAB, kChunkSize);
  EXPECT_EQ(bs.mapped_bytes(), 2 * kChunkSize);
  EXPECT_EQ(bs.chunk_index(static_cast<char*>(c1) + 100), 1u);

  bs.unmap_chunk(1);
  EXPECT_FALSE(bs.is_mapped(1));
  EXPECT_EQ(bs.mapped_chunks(), 1u);
  // The freed slot is the lowest unmapped one again.
  EXPECT_EQ(bs.map_next(), bs.chunk_addr(1));
  EXPECT_TRUE(bs.is_mapped(1));
  EXPECT_EQ(bs.mapped_chunks(), 2u);

  const vmm::BackingStats st = bs.stats();
  EXPECT_EQ(st.grows, 2u);  // map_next only; the initial chunk is setup
  EXPECT_EQ(st.shrinks, 1u);
  EXPECT_EQ(st.chunk_bytes, kChunkSize);
  EXPECT_EQ(st.reserve_bytes, 4u * 1024 * 1024);
}

TEST(BackingStore, MapNextStopsAtMaxChunks) {
  vmm::BackingStore bs(vmm::BackingConfig{
      .reserve_bytes = 2 * 1024 * 1024,
      .chunk_bytes = kChunkSize,
      .initial_chunks = 1,
      .max_chunks = 3,
  });
  EXPECT_NE(bs.map_next(), nullptr);
  EXPECT_NE(bs.map_next(), nullptr);
  EXPECT_EQ(bs.map_next(), nullptr);  // ceiling
  EXPECT_EQ(bs.mapped_chunks(), 3u);
}

TEST(Vmm, PoolStartsSmallAndGrowsOnDemand) {
  GpuAllocator ga(elastic_cfg());
  EXPECT_EQ(ga.mapped_bytes(), kChunkSize);
  EXPECT_EQ(ga.pool_bytes(), kPool);

  // Far more small blocks than one chunk holds: growth must kick in and
  // every allocation must succeed (the reservation has plenty of room).
  std::vector<void*> held;
  for (int i = 0; i < 3000; ++i) {
    void* p = ga.malloc(256);
    ASSERT_NE(p, nullptr) << "allocation " << i;
    held.push_back(p);
  }
  EXPECT_GT(ga.stats().vmm.grows, 0u);
  EXPECT_GT(ga.mapped_bytes(), kChunkSize);
  EXPECT_LE(ga.mapped_bytes(), kPool);
  for (void* p : held) ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, GrowthCoalescesIntoLargeBlocks) {
  // A request larger than one backing chunk: freshly mapped chunks must
  // merge with their mapped neighbours inside the buddy tree until the
  // order fits (unmapped VA never merges — it was never injected).
  GpuAllocator ga(elastic_cfg());
  void* p = ga.malloc(512 * 1024);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(ga.mapped_bytes(), 2 * kChunkSize);
  ga.free(p);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, OomOnlyAfterMaxChunks) {
  HeapConfig cfg = elastic_cfg();
  cfg.max_chunks = 2;
  GpuAllocator ga(cfg);
  const std::size_t half_chunk = test::request_for_slot(ga, 128 * 1024);
  std::vector<void*> held;
  AllocStatus st = AllocStatus::kOk;
  for (;;) {
    void* p = ga.malloc(half_chunk, &st);
    if (p == nullptr) break;
    held.push_back(p);
  }
  // Two chunks of four half-chunk blocks, then true exhaustion.
  EXPECT_EQ(held.size(), 4u);
  EXPECT_EQ(st, AllocStatus::kOom);
  EXPECT_EQ(ga.stats().vmm.mapped_chunks, 2u);
  EXPECT_EQ(ga.stats().vmm.max_chunks, 2u);
  for (void* p : held) ga.free(p);
}

TEST(Vmm, FailureAtTheCeilingIsOomWhateverTheQuota) {
  // At its growth ceiling no quota would let a pool map another chunk,
  // so a malloc that fails there is exhaustion — kOom, no quota reject —
  // even with the quota at the ceiling. The same holds for a two-chunk
  // elastic pool and a one-chunk (fixed-size) one.
  HeapConfig capped = elastic_cfg();
  capped.max_chunks = 2;
  capped.quota_bytes = 2 * kChunkSize;
  HeapConfig one_chunk = elastic_cfg();
  one_chunk.pool_bytes = 2 * kChunkSize;
  one_chunk.chunk_bytes = one_chunk.pool_bytes;
  one_chunk.quota_bytes = one_chunk.pool_bytes;
  for (const HeapConfig& cfg : {capped, one_chunk}) {
    GpuAllocator ga(cfg);
    const std::size_t kib = test::request_for_slot(ga, 1024);
    std::vector<void*> held;
    AllocStatus st = AllocStatus::kOk;
    for (;;) {
      void* p = ga.malloc(kib, &st);
      if (p == nullptr) break;
      held.push_back(p);
    }
    // Two UAlloc chunks of 62 three-block 1 KiB bins: 372 KiB live, well
    // under the quota, so live-byte admission passed every request.
    EXPECT_EQ(held.size(), 2u * alloc::kDataBins *
                               alloc::bin_capacity(alloc::size_class_of(1024)));
    EXPECT_LT(ga.bytes_in_use(), cfg.quota_bytes);
    EXPECT_EQ(st, AllocStatus::kOom);
    EXPECT_EQ(ga.stats().quota_rejects, 0u);
    EXPECT_EQ(ga.mapped_bytes(), 2 * kChunkSize);
    for (void* p : held) ga.free(p);
    EXPECT_TRUE(ga.check_consistency());
  }
}

TEST(Vmm, ShrinkReturnsWholeFreeChunks) {
  GpuAllocator ga(elastic_cfg());
  std::vector<void*> held;
  for (int i = 0; i < 8; ++i) {
    void* p = ga.malloc(256 * 1024);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  const std::size_t peak = ga.mapped_bytes();
  EXPECT_GE(peak, 8 * kChunkSize);
  for (void* p : held) ga.free(p);

  ga.trim();
  const std::size_t unmapped = ga.shrink_backing();
  EXPECT_GT(unmapped, 0u);
  // Everything free shrinks to the floor (initial_chunks = 1)...
  EXPECT_EQ(ga.mapped_bytes(), kChunkSize);
  EXPECT_EQ(ga.stats().vmm.shrinks, unmapped);
  // ...and the floor chunk is still a usable, coalesced block.
  EXPECT_EQ(ga.buddy().largest_free_block(), kChunkSize);
  EXPECT_TRUE(ga.check_consistency());
  void* p = ga.malloc(1024);
  EXPECT_NE(p, nullptr);
  ga.free(p);
}

TEST(Vmm, ShrinkNeverDropsBelowInitialChunks) {
  HeapConfig cfg = elastic_cfg();
  cfg.initial_chunks = 3;
  GpuAllocator ga(cfg);
  EXPECT_EQ(ga.mapped_bytes(), 3 * kChunkSize);
  void* p = ga.malloc(4 * 256 * 1024);  // forces growth past the floor
  ASSERT_NE(p, nullptr);
  ga.free(p);
  ga.trim();
  ga.shrink_backing();
  EXPECT_EQ(ga.stats().vmm.mapped_chunks, 3u);
}

TEST(Vmm, QuotaChargesMappedBytesNotReservation) {
  // quota = 3 chunks. Fill exactly that much, then punch two half-chunk
  // holes in *different* chunks: the next 256 KB request passes live-byte
  // admission but cannot be served from the fragmented holes — and the
  // mapped-footprint gate must refuse to map a fourth chunk (kQuota, not
  // kOom: the reservation itself has plenty of room).
  HeapConfig cfg = elastic_cfg();
  cfg.quota_bytes = 3 * kChunkSize;
  GpuAllocator ga(cfg);
  const std::size_t half_chunk = test::request_for_slot(ga, 128 * 1024);
  const std::size_t whole_chunk = test::request_for_slot(ga, 256 * 1024);

  std::vector<void*> held;
  AllocStatus st = AllocStatus::kOk;
  for (int i = 0; i < 6; ++i) {
    void* p = ga.malloc(half_chunk, &st);
    ASSERT_NE(p, nullptr);
    held.push_back(p);
  }
  EXPECT_EQ(ga.mapped_bytes(), 3 * kChunkSize);

  // Group the blocks by owning 256 KB chunk and free one from each of
  // two different chunks (the holes cannot coalesce across chunks).
  std::map<std::uintptr_t, std::vector<void*>> by_chunk;
  for (void* p : held) {
    by_chunk[reinterpret_cast<std::uintptr_t>(p) / kChunkSize].push_back(p);
  }
  ASSERT_GE(by_chunk.size(), 2u);
  auto it = by_chunk.begin();
  void* hole_a = it->second.front();
  ++it;
  void* hole_b = it->second.front();
  ga.free(hole_a);
  ga.free(hole_b);
  held.erase(std::remove(held.begin(), held.end(), hole_a), held.end());
  held.erase(std::remove(held.begin(), held.end(), hole_b), held.end());

  void* p = ga.malloc(whole_chunk, &st);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(st, AllocStatus::kQuota);
  EXPECT_EQ(ga.mapped_bytes(), 3 * kChunkSize);  // the gate held
  EXPECT_GT(ga.stats().quota_rejects, 0u);

  // Raising the quota lifts the gate: the same request grows and lands.
  ga.set_quota(4 * kChunkSize);
  p = ga.malloc(whole_chunk, &st);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(st, AllocStatus::kOk);
  ga.free(p);
  for (void* q : held) ga.free(q);
}

TEST(Vmm, QuotaHeadroomRecoversAfterShrink) {
  // Regression: the quota must charge against mapped/live bytes, never
  // against high-water VA. A pool that grew to its quota, freed
  // everything and shrank must admit the same working set again.
  HeapConfig cfg = elastic_cfg();
  cfg.quota_bytes = 2 * kChunkSize;
  GpuAllocator ga(cfg);
  const std::size_t half_chunk = test::request_for_slot(ga, 128 * 1024);

  const auto fill = [&ga, half_chunk]() {
    std::vector<void*> held;
    AllocStatus st = AllocStatus::kOk;
    for (int i = 0; i < 4; ++i) {
      void* p = ga.malloc(half_chunk, &st);
      EXPECT_NE(p, nullptr) << "allocation " << i;
      EXPECT_EQ(st, AllocStatus::kOk);
      if (p != nullptr) held.push_back(p);
    }
    return held;
  };

  std::vector<void*> first = fill();
  EXPECT_EQ(ga.mapped_bytes(), 2 * kChunkSize);
  for (void* p : first) ga.free(p);
  ga.trim();
  ga.shrink_backing();
  EXPECT_EQ(ga.mapped_bytes(), kChunkSize);
  EXPECT_EQ(ga.bytes_in_use(), 0u);

  std::vector<void*> second = fill();  // full headroom again
  EXPECT_EQ(second.size(), 4u);
  for (void* p : second) ga.free(p);
}

// Fills 1 MiB of `size`-byte blocks (4096 x 256 B by default), keeps
// every 16th block (recorded in `cur` as address -> index, contents
// 0x40 + index % 64) and frees the rest, then trims and shrinks: every
// mapped chunk is left sparse.
void make_sparse_survivors(GpuAllocator& ga, std::map<void*, int>& cur,
                           std::size_t size = 256) {
  const int blocks = static_cast<int>((1u << 20) / size);
  std::vector<void*> held(blocks);
  for (int i = 0; i < blocks; ++i) {
    held[i] = ga.malloc(size);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), size);
  }
  for (int i = 0; i < blocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
}

// Checks every survivor's contents at its current address, frees them
// all, and checks the heap drained cleanly.
void verify_and_free_survivors(GpuAllocator& ga,
                               const std::map<void*, int>& cur,
                               std::size_t size = 256) {
  for (const auto& [p, orig] : cur) {
    std::vector<unsigned char> want(
        size, static_cast<unsigned char>(0x40 + orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), size), 0) << "block " << orig;
    ga.free(p);
  }
  test::flush_quarantine(ga);
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

std::uint32_t chunks_in(GpuAllocator& ga, vmm::ChunkState state) {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < ga.backing().chunk_count(); ++i) {
    if (ga.backing().chunk_state(i) == state) ++n;
  }
  return n;
}

TEST(Vmm, DefragCompactsSparseBinsAndShrinks) {
  // 64 B is a slab-refilled magazine class: the run's destination probes
  // must not stock a magazine with blocks a later victim would census as
  // live and move.
  for (const std::size_t size : {std::size_t{256}, std::size_t{64}}) {
  SCOPED_TRACE(::testing::Message() << size << " B");
  GpuAllocator ga(elastic_cfg());
  // Every bin is left sparse: live bytes fit one chunk, but the survivors
  // pin pages across every chunk — exactly the footprint defrag exists
  // to fix.
  std::map<void*, int> cur;
  make_sparse_survivors(ga, cur, size);
  const std::size_t mapped_before = ga.mapped_bytes();

  // Commit-only hooks: the quiescent driver admits every move. Entries
  // are re-keyed as blocks move, so multi-hop moves (a destination
  // evacuated again by a later victim) resolve correctly.
  ga.set_relocation_hooks(alloc::RelocationHooks{
      .commit = [&cur](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end()) << "relocation of an unknown block";
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      }});
  const std::size_t n = ga.defrag();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(ga.stats().defrag_moved_bytes, n);
  EXPECT_EQ(ga.stats().defrag_passes, 1u);
  EXPECT_EQ(ga.stats().defrag_steps, 0u);
  EXPECT_LT(ga.mapped_bytes(), mapped_before);
  EXPECT_TRUE(ga.check_consistency());

  // Contents follow the move, and the new pointers are live allocations.
  for (const auto& [p, orig] : cur) EXPECT_EQ(ga.usable_size(p), size);
  verify_and_free_survivors(ga, cur, size);
  }
}

TEST(ForwardTable, ResolvesConsumesAndPurges) {
  vmm::ForwardTable ft;
  char a, b, c;
  EXPECT_TRUE(ft.empty());
  EXPECT_EQ(ft.resolve(&a), &a);  // unknown pointers pass through

  ft.insert(&a, &b);
  EXPECT_FALSE(ft.empty());
  EXPECT_EQ(ft.resolve(&a), &b);
  EXPECT_EQ(ft.resolve(&b), &b);  // new addresses resolve to themselves

  // Consuming resolution at the old address: entry retired.
  bool forwarded = false;
  EXPECT_EQ(ft.on_free(&a, &forwarded), &b);
  EXPECT_TRUE(forwarded);
  EXPECT_TRUE(ft.empty());
  EXPECT_EQ(ft.resolve(&a), &a);

  // Dying under the new name retires the old-address entry too.
  ft.insert(&a, &b);
  EXPECT_EQ(ft.on_free(&b, &forwarded), &b);
  EXPECT_FALSE(forwarded);
  EXPECT_TRUE(ft.empty());

  // Multi-hop path compression: a -> b then b -> c leaves a -> c.
  ft.insert(&a, &b);
  ft.insert(&b, &c);
  EXPECT_EQ(ft.resolve(&a), &c);
  EXPECT_EQ(ft.size(), 1u);

  // Range purge by old address.
  ft.purge_range(&a, 1);
  EXPECT_TRUE(ft.empty());
}

// Drive one full incremental evacuation cycle on a quiescent heap via
// defrag_step alone: census -> evacuate (two-phase hooks) -> forwarding
// -> retirement by grace-period cookie -> unmap. The footprint must
// shrink without a single stop-the-world defrag() run.
TEST(Vmm, IncrementalDefragCompactsAndRetires) {
  HeapConfig cfg = elastic_cfg();
  GpuAllocator ga(cfg);

  std::map<void*, int> cur;  // current address -> original index
  int moving = -1;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) {
        EXPECT_EQ(moving, -1);  // one open move at a time
        const auto it = cur.find(from);
        if (it == cur.end()) return false;  // not ours: veto
        moving = it->second;
        return true;
      },
      [&](void* from, void* to, std::size_t) {
        ASSERT_GE(moving, 0);  // commit always matches a prepare
        cur.erase(from);
        cur[to] = moving;
        moving = -1;
      },
      nullptr});

  constexpr int kBlocks = 4096;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), 256);
  }
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
  const std::size_t mapped_before = ga.mapped_bytes();
  ASSERT_GT(mapped_before, 2 * kChunkSize);

  // Bounded slices with traffic interleaved: every step stays small, no
  // step is a whole pass.
  for (int round = 0; round < 512; ++round) {
    ga.defrag_step();
    if (round % 8 == 0) {
      void* t = ga.malloc(64);
      ASSERT_NE(t, nullptr);
      ga.free(t);
    }
  }
  EXPECT_EQ(moving, -1);
  const auto st = ga.stats();
  EXPECT_GT(st.defrag_steps, 0u);
  EXPECT_GT(st.defrag_moved_bytes, 0u);
  EXPECT_EQ(st.defrag_passes, 0u);  // never a sync pass
  EXPECT_LT(ga.mapped_bytes(), mapped_before);
  EXPECT_TRUE(ga.check_consistency());

  for (const auto& [p, orig] : cur) {
    std::vector<unsigned char> want(
        256, static_cast<unsigned char>(0x40 + orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 256), 0) << "block " << orig;
    EXPECT_EQ(ga.usable_size(p), 256u);
    ga.free(p);
  }
  test::flush_quarantine(ga);
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

// While a chunk is in kForwarding, the *old* addresses of its moved
// blocks must stay operable: usable_size resolves read-only, free and
// realloc consume the entry and land on the current block. The source
// chunk's slots are held until its grace period ends, so the old names
// can never alias fresh allocations while an entry is live.
TEST(Vmm, ForwardingResolvesStaleFreesAndReallocs) {
  HeapConfig cfg = elastic_cfg();
  GpuAllocator ga(cfg);

  std::map<void*, int> cur;
  std::vector<std::pair<void*, void*>> moves;  // (old, new) this step
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) {
        return cur.count(from) != 0;
      },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
        moves.emplace_back(from, to);
      },
      nullptr});

  constexpr int kBlocks = 4096;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(256);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x40 + (i % 64), 256);
  }
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 16 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();

  std::size_t stale_frees = 0;
  std::size_t stale_reallocs = 0;
  for (int round = 0; round < 512; ++round) {
    moves.clear();
    ga.defrag_step();
    // Entries from this step's moves are live at least until the chunk
    // retires (a later step): exercise the old names NOW.
    if (!moves.empty()) {
      auto [oldp, newp] = moves.front();
      // Read-only resolution: the old name reports the block's size.
      EXPECT_EQ(ga.usable_size(oldp), 256u);
      const int orig = cur.at(newp);
      if (stale_frees <= stale_reallocs) {
        ga.free(oldp);  // stale free: consumes the entry, frees the block
        cur.erase(newp);
        ++stale_frees;
      } else {
        // Stale realloc: resolves, grows, preserves contents.
        void* grown = ga.realloc(oldp, 512);
        ASSERT_NE(grown, nullptr);
        std::vector<unsigned char> want(
            256, static_cast<unsigned char>(0x40 + orig % 64));
        EXPECT_EQ(std::memcmp(grown, want.data(), 256), 0);
        cur.erase(newp);
        cur[grown] = orig;
        ++stale_reallocs;
      }
    }
  }
  EXPECT_GT(stale_frees, 0u);
  EXPECT_GT(stale_reallocs, 0u);
  EXPECT_EQ(ga.stats().defrag_forwarded, stale_frees + stale_reallocs);
  for (const auto& kv : cur) ga.free(kv.first);
  test::flush_quarantine(ga);
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

// HeapSan shadow entries relocate with the blocks under the incremental
// driver too: lookups and frees at the (possibly stale) user addresses
// keep resolving, and redzone checks hold at the new location.
TEST(Vmm, IncrementalDefragFollowsHeapSanShadow) {
  HeapConfig cfg = elastic_cfg();
  cfg.heapsan = true;
  GpuAllocator ga(cfg);

  std::map<void*, int> cur;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});

  constexpr int kBlocks = 2048;
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(192);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], 0x11 + (i % 64), 192);
  }
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }
  ga.trim();
  ga.shrink_backing();
  const std::size_t mapped_before = ga.mapped_bytes();

  for (int round = 0; round < 512; ++round) ga.defrag_step();
  EXPECT_GT(ga.stats().defrag_moved_bytes, 0u);
  EXPECT_LE(ga.mapped_bytes(), mapped_before);

  // Shadow lookups and redzone verification at the new addresses; the
  // free path would abort on any corrupted redzone.
  for (const auto& [p, orig] : cur) {
    EXPECT_EQ(ga.usable_size(p), 192u);
    std::vector<unsigned char> want(
        192, static_cast<unsigned char>(0x11 + orig % 64));
    EXPECT_EQ(std::memcmp(p, want.data(), 192), 0) << "block " << orig;
    ga.free(p);
  }
  ga.heapsan().flush_quarantine();  // frees are quarantined until flushed
  EXPECT_EQ(ga.bytes_in_use(), 0u);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Vmm, DefragFollowsHeapSanShadow) {
  HeapConfig cfg = elastic_cfg();
  cfg.heapsan = true;
  GpuAllocator ga(cfg);

  // Enough blocks to span several chunks: defrag compacts at chunk
  // granularity, so a single-chunk heap has nothing to evacuate.
  constexpr int kBlocks = 4096;
  static constexpr std::size_t kSize = 100;  // deliberately not a class size
  std::vector<void*> held(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    held[i] = ga.malloc(kSize);
    ASSERT_NE(held[i], nullptr);
    std::memset(held[i], i % 251, kSize);
  }
  std::map<void*, int> cur;  // current address -> pattern seed
  for (int i = 0; i < kBlocks; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      ga.free(held[i]);
    }
  }

  ga.set_relocation_hooks(alloc::RelocationHooks{
      .commit = [&cur](void* from, void* to, std::size_t bytes) {
        // With HeapSan engaged the hook carries *user* pointers and the
        // exact recorded request size, not the class capacity.
        EXPECT_EQ(bytes, kSize);
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end()) << "relocation of an unknown block";
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      }});
  const std::size_t n = ga.defrag();
  EXPECT_GT(n, 0u);

  // Shadow records follow moved blocks: exact usable size survives, the
  // payload is intact, and the sanitized free path (redzone verification
  // included) accepts the new pointer.
  for (const auto& [p, i] : cur) {
    EXPECT_EQ(ga.usable_size(p), kSize);
    std::vector<unsigned char> want(kSize, static_cast<unsigned char>(i % 251));
    EXPECT_EQ(std::memcmp(p, want.data(), kSize), 0) << "block " << i;
    ga.free(p);
  }
  EXPECT_EQ(ga.stats().heapsan.live_blocks, 0u);
  ga.heapsan().flush_quarantine();
  EXPECT_TRUE(ga.check_consistency());
}

// The quiescent driver takes over whatever defrag_step left in flight —
// a victim mid-sweep (kEvacuating) or a swept one awaiting retirement
// (kForwarding) — and finishes it, instead of refusing to run.
TEST(Vmm, DefragFinishesAnInFlightEvacuation) {
  for (const bool swept : {false, true}) {
    SCOPED_TRACE(swept ? "kForwarding" : "kEvacuating");
    GpuAllocator ga(elastic_cfg());
    std::map<void*, int> cur;
    ga.set_relocation_hooks(alloc::RelocationHooks{
        [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
        [&](void* from, void* to, std::size_t) {
          const auto it = cur.find(from);
          ASSERT_NE(it, cur.end());
          const int idx = it->second;
          cur.erase(it);
          cur[to] = idx;
        },
        nullptr});
    make_sparse_survivors(ga, cur);
    const std::size_t mapped_before = ga.mapped_bytes();

    // One slice: a one-block budget stops mid-sweep; an unbounded one
    // sweeps the victim clean and forwards it.
    ga.defrag_step(swept ? std::size_t{1} << 30 : 256);
    ASSERT_EQ(chunks_in(ga, swept ? vmm::ChunkState::kForwarding
                                  : vmm::ChunkState::kEvacuating),
              1u);
    const std::uint64_t step_bytes = ga.stats().defrag_moved_bytes;
    ASSERT_GT(step_bytes, 0u);

    const std::size_t n = ga.defrag();
    EXPECT_GT(n, 0u);
    EXPECT_EQ(ga.stats().defrag_moved_bytes, step_bytes + n);
    EXPECT_EQ(ga.stats().defrag_passes, 1u);
    EXPECT_EQ(chunks_in(ga, vmm::ChunkState::kEvacuating), 0u);
    EXPECT_EQ(chunks_in(ga, vmm::ChunkState::kForwarding), 0u);
    EXPECT_LT(ga.mapped_bytes(), mapped_before);
    EXPECT_TRUE(ga.check_consistency());
    verify_and_free_survivors(ga, cur);
  }
}

// defrag() needs no prepare hook, but honours a registered one: vetoed
// blocks keep their address and contents, the admitted ones move, and
// the run still ends — a victim its vetoes keep alive is abandoned and
// never chosen again within the call.
TEST(Vmm, DefragHonoursPrepareVetoes) {
  GpuAllocator ga(elastic_cfg());
  std::map<void*, int> cur;
  make_sparse_survivors(ga, cur);
  // The host refuses to move every other survivor.
  std::map<void*, int> pinned;
  for (const auto& [p, i] : cur) {
    if ((i / 16) % 2 == 0) pinned.emplace(p, i);
  }
  ASSERT_FALSE(pinned.empty());
  std::size_t vetoes = 0;
  std::size_t commits = 0;
  ga.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) {
        if (pinned.count(from) != 0) {
          ++vetoes;
          return false;
        }
        return cur.count(from) != 0;
      },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
        ++commits;
      },
      nullptr});

  const std::size_t n = ga.defrag();
  EXPECT_GT(n, 0u);
  EXPECT_GT(commits, 0u);
  EXPECT_GT(vetoes, 0u);
  EXPECT_EQ(ga.stats().defrag_moved_bytes, n);
  for (const auto& [p, i] : pinned) {
    const auto it = cur.find(p);
    ASSERT_NE(it, cur.end()) << "vetoed block " << i << " moved";
    EXPECT_EQ(it->second, i);
  }
  EXPECT_EQ(chunks_in(ga, vmm::ChunkState::kEvacuating), 0u);
  EXPECT_EQ(chunks_in(ga, vmm::ChunkState::kForwarding), 0u);
  EXPECT_TRUE(ga.check_consistency());
  verify_and_free_survivors(ga, cur);
}

TEST(Vmm, FixedPoolIsUnaffected) {
  // chunk_bytes = pool_bytes is the fixed-size pool: one chunk, mapped at
  // creation, which never grows, shrinks or yields a defrag victim.
  HeapConfig cfg = elastic_cfg();
  cfg.pool_bytes = 4 * 1024 * 1024;
  cfg.chunk_bytes = cfg.pool_bytes;
  GpuAllocator ga(cfg);
  EXPECT_EQ(ga.mapped_bytes(), cfg.pool_bytes);
  EXPECT_EQ(ga.shrink_backing(), 0u);
  EXPECT_EQ(ga.defrag(), 0u);
  EXPECT_EQ(ga.stats().vmm.grows, 0u);
  void* p = ga.malloc(64);
  EXPECT_NE(p, nullptr);
  ga.free(p);
  ga.trim();  // retire the carved UAlloc chunk so the tree re-coalesces
  EXPECT_EQ(ga.buddy().largest_free_block(), cfg.pool_bytes);
}

TEST(Vmm, CConfigVmmZeroIsAOneChunkPool) {
  // The C config's vmm = 0: all of pool_bytes mapped at creation, never
  // grown, even by an exhausting malloc; defrag finds nothing to move.
  toma_pool_config_t cfg = toma_pool_config_default();
  cfg.pool_bytes = 4 * 1024 * 1024;
  cfg.num_arenas = 1;
  cfg.vmm = 0;
  toma_pool_t pool = nullptr;
  ASSERT_EQ(toma_pool_create("vmm-c-fixed", &cfg, &pool), TOMA_OK);
  GpuAllocator& ga =
      alloc::PoolManager::instance().find("vmm-c-fixed")->allocator();
  EXPECT_EQ(ga.mapped_bytes(), cfg.pool_bytes);

  const std::size_t quarter_mib = test::request_for_slot(ga, 256 * 1024);
  std::vector<void*> held;
  toma_status_t st = TOMA_OK;
  for (;;) {
    void* p = toma_malloc(pool, quarter_mib, &st);
    if (p == nullptr) break;
    held.push_back(p);
  }
  EXPECT_EQ(held.size(), 16u);
  EXPECT_EQ(st, TOMA_ERR_OOM);
  EXPECT_EQ(ga.mapped_bytes(), cfg.pool_bytes);
  EXPECT_EQ(ga.stats().vmm.grows, 0u);

  // With a prepare hook the slice runs, and finds no victim.
  const toma_relocation_hooks_t hooks = {
      [](void*, void*, size_t, void*) { return 1; },
      [](void*, void*, size_t, void*) {}, nullptr, nullptr};
  ASSERT_EQ(toma_pool_set_relocation_hooks(pool, &hooks), TOMA_OK);
  for (std::size_t i = 0; i < held.size(); i += 2) toma_free(pool, held[i]);
  toma_defrag_stats_t ds{};
  EXPECT_EQ(toma_pool_defrag(pool, 0, &ds), TOMA_OK);
  EXPECT_EQ(ds.steps, 1u);
  EXPECT_EQ(ds.moved_bytes, 0u);
  for (std::size_t i = 1; i < held.size(); i += 2) toma_free(pool, held[i]);
  EXPECT_EQ(toma_pool_destroy(pool), TOMA_OK);
}

TEST(Vmm, PoolSyncRunsDefragWhenEnabled) {
  HeapConfig cfg = elastic_cfg();
  cfg.defrag_mode = alloc::DefragMode::kSync;
  cfg.release_threshold = 0;
  alloc::Pool pool("vmm-defrag-sync", cfg);
  gpu::Stream s;

  // Survivors WILL move (that is the opt-in): track current addresses
  // through a commit hook, as a defrag-tolerating host must.
  std::map<void*, int> cur;
  pool.set_relocation_hooks(alloc::RelocationHooks{
      .commit = [&cur](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end()) << "relocation of an unknown block";
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      }});

  std::vector<void*> held;
  for (int i = 0; i < 2048; ++i) held.push_back(pool.malloc(256));
  for (int i = 0; i < 2048; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      pool.free(held[i]);
    }
  }
  const std::size_t mapped_before = pool.stats().alloc.mapped_bytes;
  pool.sync(s);  // quiescent point: defrag + threshold trim + shrink
  EXPECT_GE(pool.stats().alloc.defrag_passes, 1u);
  EXPECT_GT(pool.stats().alloc.defrag_moved_bytes, 0u);
  // Compaction turned sparse bins into whole unmapped chunks.
  EXPECT_LT(pool.stats().alloc.mapped_bytes, mapped_before);
  for (const auto& [p, i] : cur) pool.free(p);
  pool.trim();
  EXPECT_EQ(pool.stranded_bytes(), 0u);
  EXPECT_TRUE(pool.check_consistency());
}

// kIncremental mode needs no explicit driver: steps piggyback on the
// pool's own async traffic (every kVmmDefragOpInterval-th op) and sync
// points. The sync pass must never run.
TEST(Vmm, PoolIncrementalDefragPiggybacksOnTraffic) {
  HeapConfig cfg = elastic_cfg();
  cfg.defrag_mode = alloc::DefragMode::kIncremental;
  cfg.release_threshold = 0;
  alloc::Pool pool("vmm-defrag-inc", cfg);

  std::map<void*, int> cur;
  pool.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
      },
      nullptr});

  std::vector<void*> held;
  for (int i = 0; i < 2048; ++i) held.push_back(pool.malloc(256));
  for (int i = 0; i < 2048; ++i) {
    if (i % 8 == 0) {
      cur[held[i]] = i;
    } else {
      pool.free(held[i]);
    }
  }
  pool.trim();
  const std::size_t mapped_before = pool.stats().alloc.mapped_bytes;

  // Plain traffic, no defrag calls anywhere: the op-interval tick does
  // all the driving.
  gpu::Stream s;
  for (int round = 0; round < 16384; ++round) {
    void* t = pool.malloc_async(64, s);
    ASSERT_NE(t, nullptr);
    pool.free_async(t, s);
    if (round % 64 == 63) pool.sync(s);
  }
  pool.sync(s);

  const auto st = pool.stats();
  EXPECT_GT(st.alloc.defrag_steps, 0u) << "ticks never fired";
  EXPECT_GT(st.alloc.defrag_moved_bytes, 0u);
  EXPECT_EQ(st.alloc.defrag_passes, 0u) << "no stop-the-world pass";
  EXPECT_LT(pool.stats().alloc.mapped_bytes, mapped_before);

  for (const auto& kv : cur) pool.free(kv.first);
  EXPECT_TRUE(pool.check_consistency());
}

// Slices run only on threads that call into the pool. A kernel launched
// while an incremental pool lives leaves it alone, however long the
// simulator's workers sit idle: its plain malloc/free drive no tick, and
// no scheduler slot steps the pool behind its back.
TEST(Vmm, PoolIncrementalDefragIgnoresIdleSchedulerWorkers) {
  HeapConfig cfg = elastic_cfg();
  cfg.defrag_mode = alloc::DefragMode::kIncremental;
  alloc::Pool pool("vmm-defrag-idle", cfg);
  // A prepare hook makes every step count, even one with nothing to move.
  pool.set_relocation_hooks(alloc::RelocationHooks{
      [](void*, void*, std::size_t) { return false; }, nullptr, nullptr});

  // One lane on one SM of a two-worker device: the other worker finds
  // nothing to run for the whole launch.
  gpu::Device dev(test::small_device(2, 256, /*workers=*/2));
  dev.launch(gpu::Dim3{1}, gpu::Dim3{1}, [&](gpu::ThreadCtx& t) {
    for (int i = 0; i < 256; ++i) {
      void* p = pool.malloc(64);
      ASSERT_NE(p, nullptr);
      pool.free(p);
      t.yield();
    }
  });
  EXPECT_EQ(pool.stats().alloc.defrag_steps, 0u);
  EXPECT_TRUE(pool.check_consistency());
}

// Records one deterministic workload and returns (trace, moved bytes).
// Ops are index-addressed so the logical sequence is identical whether
// or not blocks move underneath it.
obs::RecordedTrace record_defrag_workload(bool incremental,
                                          std::uint64_t* moved_bytes) {
  HeapConfig cfg = elastic_cfg();
  cfg.release_threshold = 0;
  if (incremental) cfg.defrag_mode = alloc::DefragMode::kIncremental;
  alloc::Pool pool("vmm-defrag-rec", cfg);

  std::map<void*, int> cur;          // current address -> index
  std::vector<void*> by_idx(2048);   // index -> current address
  pool.set_relocation_hooks(alloc::RelocationHooks{
      [&](void* from, void*, std::size_t) { return cur.count(from) != 0; },
      [&](void* from, void* to, std::size_t) {
        const auto it = cur.find(from);
        ASSERT_NE(it, cur.end());
        const int idx = it->second;
        cur.erase(it);
        cur[to] = idx;
        by_idx[idx] = to;
      },
      nullptr});

  obs::Recorder& r = obs::Recorder::instance();
  EXPECT_TRUE(r.start());
  for (int i = 0; i < 2048; ++i) {
    by_idx[i] = pool.malloc(256);
    EXPECT_NE(by_idx[i], nullptr);
  }
  for (int i = 0; i < 2048; ++i) {
    if (i % 16 == 0) {
      cur[by_idx[i]] = i;
    } else {
      pool.free(by_idx[i]);
    }
  }
  for (int round = 0; round < 512; ++round) {
    // Compaction is invisible to the recorder: moves emit no event and
    // rekey block identity in place.
    if (incremental) pool.defrag_step();
    if (round % 4 == 0) {
      void* t = pool.malloc(128);
      EXPECT_NE(t, nullptr);
      pool.free(t);
    }
    if (round % 32 == 0) {
      const int idx = (round / 32) * 16;  // a survivor, by index
      void* cur_addr = by_idx[idx];
      cur.erase(cur_addr);
      void* grown = pool.realloc(cur_addr, 512);
      EXPECT_NE(grown, nullptr);
      cur[grown] = idx;
      by_idx[idx] = grown;
    }
  }
  for (int i = 0; i < 2048; i += 16) pool.free(by_idx[i]);
  r.stop();
  *moved_bytes = pool.stats().alloc.defrag_moved_bytes;
  return r.trace();
}

// The flight recorder's contract under live compaction: a trace
// recorded while incremental defrag churns underneath is event-for-
// event bit-identical to the same workload with defrag off. Replay of
// either file reproduces the same logical history.
TEST(Vmm, RecorderTraceBitIdenticalUnderIncrementalDefrag) {
  std::uint64_t moved_off = 0;
  std::uint64_t moved_inc = 0;
  const obs::RecordedTrace off = record_defrag_workload(false, &moved_off);
  const obs::RecordedTrace inc = record_defrag_workload(true, &moved_inc);
  EXPECT_EQ(moved_off, 0u);
  EXPECT_GT(moved_inc, 0u) << "defrag never ran: the test proves nothing";

  ASSERT_EQ(inc.events.size(), off.events.size());
  for (std::size_t i = 0; i < inc.events.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&inc.events[i], &off.events[i],
                             sizeof(obs::RecordEvent)))
        << "event " << i << " diverged under incremental defrag";
  }
  // Every free in the defrag run resolved a known block: no event ever
  // fell back to the unknown-pointer id.
  for (const auto& e : inc.events) {
    if (e.op == obs::RecOp::kFree) {
      EXPECT_NE(e.block, 0u);
    }
  }
}

}  // namespace
}  // namespace toma
