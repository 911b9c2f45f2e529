#include "alloc/ualloc.hpp"

#include <cstdio>
#include <new>

#include "gpusim/this_thread.hpp"
#include "obs/telemetry.hpp"
#include "sync/backoff.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {

namespace {

/// Coalesce with warp-mates contending for the same object when running
/// inside a kernel; degrade to a singleton group otherwise.
gpu::CoalescedGroup group_for(const void* tag) {
  if (gpu::ThreadCtx* ctx = gpu::this_thread::current()) {
    return gpu::coalesce_warp(*ctx, tag);
  }
  return gpu::CoalescedGroup::singleton(gpu::this_thread::scatter_seed());
}

}  // namespace

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

Arena::Arena(UAlloc& parent, std::uint32_t index)
    : parent_(&parent), index_(index) {
  classes_.reserve(kNumSizeClasses);
  for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
    classes_.push_back(std::make_unique<SizeClassState>(rcu_));
  }
}

void* Arena::allocate(std::uint32_t cls, bool may_refill) {
  const bool mags = parent_->magazines_enabled();
  // Magazine front-end: cached blocks of this (arena, class) are served
  // in constant time, touching neither the semaphore nor the RCU bin
  // lists. Each lane pops for itself *before* any warp rendezvous, so a
  // coalesced group is formed only by the lanes the magazine could not
  // satisfy.
  if (mags) {
    Magazine& mag = magazines_[cls];
    const MagazinePolicy& pol = kMagazinePolicy[cls];
    if (void* p = mag.pop()) {
      parent_->count_hit(cls);
      // Proactive top-up: this pop drained the stock below the trigger,
      // so restock before the magazine runs empty. The popper already
      // holds its block — no caller is stalled on this slab — and a
      // magazine that never empties serves every other thread with a
      // plain pop instead of a warp rendezvous.
      if (may_refill && mag.count() < pol.top_up &&
          mag.try_begin_refill()) {
        parent_->st_.add(UAlloc::mag_stat(cls, UAlloc::kMagTopups));
        void* extra = refill(cls, kMagazineRefillBatches);
        if (extra != nullptr && !mag.push(extra, pol.capacity)) {
          // Frees filled the magazine while the slab was fetched.
          parent_->publish(extra);
          parent_->spill(mag, cls, 1);
        }
        mag.end_refill();
      }
      return p;
    }
  }
  // Transparent request coalescing (paper §2.2): warp-mates that missed
  // the same (arena, class) together meet once, and their leader takes
  // every member's block. Only when one bin can hold a warp's worth.
  constexpr std::uint32_t kWarpSize = 32;
  if (parent_->coalesce_ && parent_->class_capacity(cls) >= kWarpSize) {
    if (gpu::ThreadCtx* ctx = gpu::this_thread::current()) {
      const gpu::CoalescedGroup g =
          gpu::coalesce_warp(*ctx, classes_[cls].get());
      if (g.size() > 1) return allocate_grouped(cls, may_refill, *ctx, g);
    }
  }
  // Solo: a refill class fetches a slab under the single-refiller gate; a
  // refill that found no memory (or lost the gate) falls through to the
  // single-block take, which can succeed where a slab could not.
  void* p = nullptr;
  if (mags) {
    if (may_refill && kMagazinePolicy[cls].slab != 0) {
      p = refill_gated(cls);
    } else {
      parent_->count_miss(cls);
    }
  }
  if (p == nullptr) allocate_batch(cls, &p, 1);
  return p;
}

void* Arena::allocate_grouped(std::uint32_t cls, bool may_refill,
                              gpu::ThreadCtx& ctx,
                              const gpu::CoalescedGroup& g) {
  // A group is one warp's lanes: at most 64 (CoalescedGroup::mask).
  constexpr std::uint32_t kMaxGroup = 64;
  const std::uint32_t n = g.size();
  TOMA_DASSERT(n <= kMaxGroup);
  std::uint64_t handed[kMaxGroup];
  if (g.is_leader()) {
    UAlloc& ua = *parent_;
    auto& st = ua.st_.local();
    st.add(UAlloc::kCoalescedGroups);
    st.add(UAlloc::kCoalescedThreads, n);
    const bool mags = ua.magazines_enabled();
    const std::uint32_t slab = mags ? kMagazinePolicy[cls].slab : 0;
    void* blocks[kMaxGroup + kMagazineMaxSlab];
    // Stock that landed during the rendezvous (another warp's take, a
    // free) serves first, exactly as each lane's own pop would have.
    std::uint32_t got = 0;
    if (mags) {
      for (; got < n; ++got) {
        blocks[got] = magazines_[cls].pop();
        if (blocks[got] == nullptr) break;
      }
    }
    const std::uint32_t hits = got;
    if (got < n) {
      // One bulk transaction for the rest: one semaphore wait and one
      // claim walk or one new bin for the whole group. A refill class
      // takes a whole slab from any arena, as refill() does, and stocks
      // the surplus. (A home-only slab would send the lanes of an arena
      // out of chunks to its siblings one by one, where near exhaustion
      // their small takes fail while slab takers hold the expected
      // units.)
      const std::uint32_t rest = n - got;
      const std::uint32_t taken =
          may_refill && slab > rest
              ? ua.allocate_batch(index_, cls, blocks + got, slab)
              : allocate_batch(cls, blocks + got, rest);
      if (taken > rest) stock(cls, taken, blocks + n, taken - rest);
      got += taken < rest ? taken : rest;
    }
    if (mags) {
      st.add(UAlloc::mag_stat(cls, UAlloc::kMagHits), hits);
      st.add(UAlloc::mag_stat(cls, UAlloc::kMagMisses), n - hits);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      handed[i] = i < got ? reinterpret_cast<std::uintptr_t>(blocks[i]) : 0;
    }
  }
  void* p = reinterpret_cast<void*>(
      gpu::warp_scatter(ctx, g, g.is_leader() ? handed : nullptr));
  // The take fell short (the class's last blocks could not cover the
  // group and no bin could grow): re-probing one block at a time gives
  // the pool's final blocks to threads instead of stranding them behind
  // warp-sized demands.
  if (p == nullptr) allocate_batch(cls, &p, 1);
  return p;
}

void* Arena::refill_gated(std::uint32_t cls) {
  parent_->count_miss(cls);
  Magazine& mag = magazines_[cls];
  // Another thread already fetching this magazine's slab: don't pile on,
  // so an empty magazine costs at most one slab transaction no matter
  // how many threads miss it together.
  if (!mag.try_begin_refill()) return nullptr;
  void* p = refill(cls, kMagazineRefillBatches);
  mag.end_refill();
  return p;
}

void* Arena::refill(std::uint32_t cls, std::uint32_t max_batches) {
  // Each bulk transaction buys a whole slab: the semaphore wait, the RCU
  // traversal (or the fresh bin), and the listing dance are paid once per
  // slab instead of once per block.
  Magazine& mag = magazines_[cls];
  const MagazinePolicy& pol = kMagazinePolicy[cls];
  void* blocks[kMagazineMaxSlab];
  void* first = nullptr;
  for (std::uint32_t b = 0; b < max_batches; ++b) {
    // Stock to the low-water mark, not just one slab: consumers drain the
    // magazine while the batch claim runs, and a magazine that stays
    // stocked serves the next warps with a plain pop.
    if (first != nullptr && mag.count() >= pol.low_water) break;
    const std::uint32_t got =
        parent_->allocate_batch(index_, cls, blocks, pol.slab);
    if (got == 0) break;
    const std::uint32_t keep = first == nullptr ? 1 : 0;
    if (first == nullptr) first = blocks[0];
    if (!stock(cls, got, blocks + keep, got - keep)) break;
    // A short batch means the pool is tight; don't pound it for depth.
    if (got < pol.slab) break;
  }
  return first;
}

bool Arena::stock(std::uint32_t cls, std::uint32_t taken, void** surplus,
                  std::uint32_t n) {
  auto& st = parent_->st_.local();
  st.add(UAlloc::mag_stat(cls, UAlloc::kMagRefills));
  st.add(UAlloc::mag_stat(cls, UAlloc::kMagRefillBlocks), taken);
  if (n == 0) return true;
  // Link the surplus outside the magazine lock, splice in O(1).
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    *static_cast<void**>(surplus[i]) = surplus[i + 1];
  }
  Magazine& mag = magazines_[cls];
  // Frees may have piled on while the batch claim waited; keep the
  // capacity bound honest (and stop deepening into it).
  if (mag.push_chain(surplus[0], surplus[n - 1], n) <=
      kMagazinePolicy[cls].capacity) {
    return true;
  }
  parent_->spill(mag, cls, 0);
  return false;
}

std::uint32_t Arena::allocate_batch(std::uint32_t cls, void** out,
                                    std::uint32_t want) {
  SizeClassState& cs = *classes_[cls];
  const std::uint32_t cap = parent_->class_capacity(cls);
  const std::uint32_t n = want < cap ? want : cap;
  TOMA_DASSERT(n >= 1 && n <= kMagazineMaxSlab);
  // Stage 1: accounting. Either n claimable blocks are guaranteed to exist
  // (kAcquired) or we are elected to produce a fresh bin (kMustGrow) —
  // one bin for all n, blocks [0, n) pre-taken.
  if (cs.blocks.wait(n, cap) == sync::BulkSemaphore::WaitResult::kAcquired) {
    parent_->st_.add(UAlloc::kBinHits);
    claim_blocks(cls, n, out);
    return n;
  }
  parent_->st_.add(UAlloc::kBinMisses);
  TOMA_TRACE("ualloc.grow_bin", cls);
  BinHeader* bin = create_bin(cls, n);
  if (bin == nullptr) {
    cs.blocks.signal(0, cap - n);  // growth failed; let waiters re-decide
    return 0;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i] = parent_->block_addr(bin, i);
  }
  parent_->st_.add(UAlloc::kAllocs, n);
  return n;
}

void Arena::claim_blocks(std::uint32_t cls, std::uint32_t n, void** out) {
  SizeClassState& cs = *classes_[cls];
  UAlloc& ua = *parent_;
  TOMA_DASSERT(n <= kMagazineMaxSlab);
  std::uint32_t got = 0;
  sync::Backoff bo;
  while (got < n) {
    // Each bin this pass exhausts gave it at least one block, so there are
    // at most n <= kMagazineMaxSlab of them; a stack array keeps the claim
    // free of heap allocation.
    BinHeader* exhausted[kMagazineMaxSlab];
    std::uint32_t num_exhausted = 0;
    const std::uint32_t got_before = got;
    {
      // Stage 2: tracking. Walk the listed bins under RCU; each successful
      // free_count CAS reserves that many bitmap bits, which must then be
      // claimable.
      sync::RcuReadGuard guard(rcu_);
      for (sync::RcuListNode* node = cs.bins.reader_begin();
           !cs.bins.is_end(node) && got < n;
           node = sync::RcuList::reader_next(node)) {
        BinHeader* bin = UAlloc::bin_of_node(node);
        std::uint32_t fc = bin->free_count.load(std::memory_order_acquire);
        while (fc > 0) {
          const std::uint32_t take = fc < n - got ? fc : n - got;
          if (bin->free_count.compare_exchange_weak(
                  fc, fc - take, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            util::AtomicBitmapRef bm = bin->bitmap();
            for (std::uint32_t b = 0; b < take; ++b) {
              std::uint32_t idx;
              while ((idx = bm.claim_clear_bit(
                          gpu::this_thread::scatter_seed())) ==
                     util::AtomicBitmapRef::kNone) {
                gpu::this_thread::yield();
              }
              out[got++] = ua.block_addr(bin, idx);
            }
            if (fc == take) exhausted[num_exhausted++] = bin;
            break;  // took everything this bin had (or all we needed)
          }
        }
      }
    }
    // Outside the read-side critical section: a grace period may be
    // needed to unlink the bins we exhausted.
    for (std::uint32_t i = 0; i < num_exhausted; ++i) {
      ua.maybe_unlink_exhausted(exhausted[i]);
    }
    if (got < n && got == got_before) {
      ua.st_.add(UAlloc::kListRetries);
      bo.pause();
    }
  }
  ua.st_.add(UAlloc::kAllocs, n);
}

BinHeader* Arena::create_bin(std::uint32_t cls, std::uint32_t pre_claimed) {
  UAlloc& ua = *parent_;
  TOMA_DASSERT(pre_claimed >= 1 && pre_claimed <= ua.class_capacity(cls));
  void* base = claim_bin_slot();
  if (base == nullptr) return nullptr;

  char* cbase = static_cast<char*>(
      reinterpret_cast<void*>(util::align_down(
          reinterpret_cast<std::uintptr_t>(base), kChunkSize)));
  auto* chunk = reinterpret_cast<ChunkHeader*>(cbase);
  TOMA_DASSERT(chunk->magic == ChunkHeader::kMagic);

  auto* bin = new (base) BinHeader{};
  bin->chunk = chunk;
  bin->size_class = static_cast<std::uint8_t>(cls);
  bin->bin_index = static_cast<std::uint8_t>(
      (static_cast<char*>(base) - cbase) / kBinSize);
  bin->capacity = static_cast<std::uint16_t>(ua.class_capacity(cls));
  util::AtomicBitmapRef bm = bin->bitmap();
  bm.reset();
  for (std::uint32_t b = 0; b < pre_claimed; ++b) {
    const bool took = bm.try_set(b);  // creators' blocks
    TOMA_DASSERT(took);
    (void)took;
  }
  bin->free_count.store(bin->capacity - pre_claimed,
                        std::memory_order_relaxed);
  bin->parked.store(0, std::memory_order_relaxed);
  // kRelisting marks "insertion in progress" so a racing free parks its
  // unit and leaves the listing to us.
  bin->state.store(BinState::kRelisting, std::memory_order_release);
  // Header complete: publish the slot for bitmap-walking readers (the
  // defrag census). Release pairs with the census's acquire load.
  std::atomic_ref<std::uint64_t>(chunk->bin_published_word)
      .fetch_or(std::uint64_t{1} << bin->bin_index,
                std::memory_order_release);

  SizeClassState& cs = *classes_[cls];
  cs.bins.writer_lock();
  cs.bins.push_front_locked(&bin->list_node);
  cs.bins.writer_unlock();
  cs.listed.fetch_add(1, std::memory_order_acq_rel);
  bin->cold_lock.lock();
  bin->state.store(BinState::kListed, std::memory_order_release);
  bin->cold_lock.unlock();

  cs.blocks.signal(bin->capacity - pre_claimed,
                   bin->capacity - pre_claimed);
  ua.st_.add(UAlloc::kBinsCreated);
  bin->cold_lock.lock();
  ua.drain_parked(bin);  // pick up frees that raced the insertion
  return bin;
}

void* Arena::claim_bin_slot() {
  UAlloc& ua = *parent_;
  const auto res = bin_slots_.wait(1, kDataBins);

  if (res == sync::BulkSemaphore::WaitResult::kAcquired) {
    sync::Backoff bo;
    for (;;) {
      // The unit guarantees a clear bin bit exists in some listed chunk;
      // chunks are only unlisted by retirement, which consumed its slots
      // first. Traverse under the collective mutex (paper §4.2.2).
      gpu::CoalescedGroup g = group_for(&chunk_mu_);
      void* found = nullptr;
      {
        sync::CollectiveLockGuard lk(chunk_mu_, g);
        for (ChunkHeader& ch : chunks_) {
          const std::uint32_t idx = ch.bin_bitmap().claim_clear_bit(
              gpu::this_thread::scatter_seed());
          if (idx != util::AtomicBitmapRef::kNone) {
            found = reinterpret_cast<char*>(&ch) + idx * kBinSize;
            break;
          }
        }
      }
      if (found != nullptr) return found;
      bo.pause();
    }
  }

  // kMustGrow: carve a fresh chunk out of TBuddy. Warp-mates growing at
  // the same time coalesce and enter the chunk-list critical section
  // together, each publishing its own chunk.
  void* mem = ua.buddy_->allocate(kChunkOrder);
  if (mem == nullptr) {
    bin_slots_.signal(0, kDataBins - 1);
    return nullptr;
  }
  TOMA_DASSERT(util::is_aligned(mem, kChunkSize));
  auto* chunk = new (mem) ChunkHeader{};
  chunk->arena = this;
  chunk->magic = ChunkHeader::kMagic;
  util::AtomicBitmapRef bm = chunk->bin_bitmap();
  bm.reset();
  for (std::uint32_t b = 0; b < kHeaderBins; ++b) {
    const bool ok = bm.try_set(b);  // header bins are never allocatable
    TOMA_DASSERT(ok);
    (void)ok;
  }
  const bool ok2 = bm.try_set(kHeaderBins);  // our own bin slot (bin 2)
  TOMA_DASSERT(ok2);
  (void)ok2;

  {
    gpu::CoalescedGroup g = group_for(&chunk_mu_);
    sync::CollectiveLockGuard lk(chunk_mu_, g);
    // Intra-group serialization for the actual pointer splice: group
    // members hold the collective mutex together and take turns here.
    list_splice_mu_.lock();
    chunks_.push_back(chunk);
    list_splice_mu_.unlock();
  }
  bin_slots_.signal(kDataBins - 1, kDataBins - 1);
  ua.st_.add(UAlloc::kChunksCreated);
  TOMA_TRACE("ualloc.chunk_fetch", ua.st_.sum(UAlloc::kChunksCreated));
  return static_cast<char*>(mem) + kHeaderBins * kBinSize;
}

// ---------------------------------------------------------------------------
// UAlloc: construction and the hot entry points
// ---------------------------------------------------------------------------

UAlloc::UAlloc(TBuddy& buddy, std::uint32_t num_arenas, bool use_tails)
    : buddy_(&buddy), use_tails_(use_tails) {
  TOMA_ASSERT(num_arenas > 0);
  TOMA_ASSERT_MSG(buddy.page_size() == kPageSize,
                  "UAlloc geometry assumes 4 KB pages");
  arenas_.reserve(num_arenas);
  for (std::uint32_t i = 0; i < num_arenas; ++i) {
    arenas_.push_back(std::make_unique<Arena>(*this, i));
  }
}

UAlloc::~UAlloc() = default;

void* UAlloc::allocate(std::size_t size, bool refill) {
  const std::uint32_t a = gpu::this_thread::sm_id_or_ordinal(
      static_cast<std::uint32_t>(arenas_.size()));
  return allocate_from(a, size, refill);
}

template <typename Take>
auto UAlloc::sweep(std::uint32_t home_arena, const Take& take) {
  TOMA_DASSERT(home_arena < arenas_.size());
  // When the home arena is out, its chunk lists are drained and TBuddy
  // refused it a new chunk. Chunks are arena-private, so pool memory is
  // not fungible across SMs — another arena may still hold half-empty
  // chunks, a magazine stock of this class (or win a freshly coalesced
  // chunk). Sweep the siblings before reporting OOM; without this, a small
  // pool degenerates to "whichever arena grabbed the last chunk serves its
  // SM, every other SM fails 100%".
  const auto n = static_cast<std::uint32_t>(arenas_.size());
  for (std::uint32_t off = 0; off < n; ++off) {
    if (auto got = take(*arenas_[(home_arena + off) % n], off == 0)) {
      if (off != 0) st_.add(kArenaFallbacks);
      return got;
    }
  }
  return decltype(take(*arenas_[home_arena], true)){};
}

void* UAlloc::allocate_from(std::uint32_t home_arena, std::size_t size,
                            bool refill) {
  TOMA_DASSERT(util::is_pow2(size));
  TOMA_DASSERT(size >= kMinAlloc && size <= kMaxUAllocSize);
  const std::uint32_t cls = size_class_of(size);
  return sweep(home_arena, [&](Arena& a, bool home) {
    return a.allocate(cls, home && refill);
  });
}

std::uint32_t UAlloc::allocate_batch(std::uint32_t home_arena,
                                     std::uint32_t cls, void** out,
                                     std::uint32_t want) {
  TOMA_DASSERT(cls < kNumSizeClasses);
  return sweep(home_arena, [&](Arena& a, bool) {
    return a.allocate_batch(cls, out, want);
  });
}

void UAlloc::free(void* p) {
  std::uint32_t idx;
  BinHeader* bin = decode(p, &idx);
  free_decoded(bin, idx, p);
}

void UAlloc::free_decoded(BinHeader* bin, std::uint32_t idx, void* p) {
  if (magazines_enabled()) {
    // Cache into the *freeing* SM's arena (cheapest locality for the next
    // malloc here), whatever arena owns the bin — the block carries its
    // identity in the chunk/bin headers, so a later pop needs no routing.
    // The bitmap bit stays claimed while cached: to the accounting, the
    // block is still allocated.
    const std::uint32_t a = gpu::this_thread::sm_id_or_ordinal(
        static_cast<std::uint32_t>(arenas_.size()));
    const std::uint32_t cls = bin->size_class;
    Magazine& mag = arenas_[a]->magazines_[cls];
    if (mag.push(p, kMagazinePolicy[cls].capacity)) return;
    // Full: this block spills, and the hysteresis drains the magazine to
    // its low-water mark (nothing more where the two marks meet).
    free_slow(bin, idx);
    spill(mag, cls, 1);
    return;
  }
  free_slow(bin, idx);
}

void UAlloc::spill(Magazine& mag, std::uint32_t cls, std::uint64_t spilled) {
  // Hysteresis: drain to the low-water mark, so one crossing buys
  // capacity - low_water further O(1) frees.
  const std::uint32_t low = kMagazinePolicy[cls].low_water;
  while (mag.count() > low) {
    void* p = mag.pop();
    if (p == nullptr) break;
    publish(p);
    ++spilled;
  }
  auto& st = st_.local();
  st.add(mag_stat(cls, kMagSpills));
  st.add(mag_stat(cls, kMagSpillBlocks), spilled);
}

void UAlloc::publish(void* p) {
  std::uint32_t idx;
  BinHeader* bin = decode(p, &idx);
  free_slow(bin, idx);
}

void UAlloc::free_slow(BinHeader* bin, std::uint32_t idx) {
  TOMA_ASSERT_FMT(bin->bitmap().try_clear(idx),
                  "UAlloc double free: block %u of bin %p (class %u, %zu B) "
                  "in chunk %p of arena %u was already free",
                  idx, static_cast<void*>(bin), bin->size_class,
                  size_of_class(bin->size_class),
                  static_cast<void*>(bin->chunk), bin->chunk->arena->index());
  st_.add(kFrees);
  publish_free_block(bin);
}

std::size_t UAlloc::usable_size(void* p) const {
  std::uint32_t idx;
  BinHeader* bin = decode(p, &idx);
  return size_of_class(bin->size_class);
}

// ---------------------------------------------------------------------------
// Bin lifecycle
// ---------------------------------------------------------------------------

void UAlloc::publish_free_block(BinHeader* bin) {
  // Park under the cold lock. Until the unit is parked the freed block is
  // missing from free_count, so the bin cannot retire; once it is, only a
  // lock holder can drain it, and we hold the lock until we have.
  bin->cold_lock.lock();
  bin->parked.fetch_add(1, std::memory_order_acq_rel);
  drain_parked(bin);
}

void UAlloc::drain_parked(BinHeader* bin) {
  // Entered under the cold lock. A drainer that lets go of the lock may
  // find the bin retired and its slot rebuilt by create_bin, so every
  // path below touches the bin only while holding it.
  SizeClassState& cs = class_state(bin);
  for (;;) {
    const BinState st = bin->state.load(std::memory_order_acquire);

    if (st == BinState::kListed) {
      const std::uint32_t k =
          bin->parked.exchange(0, std::memory_order_acq_rel);
      if (k == 0) {
        bin->cold_lock.unlock();
        return;
      }
      const std::uint32_t fc =
          bin->free_count.fetch_add(k, std::memory_order_acq_rel) + k;
      if (fc == bin->capacity && try_retire_bin(bin, k)) {
        // try_retire_bin released the cold lock and consumed the blocks;
        // the k parked units must not be signaled.
        return;
      }
      bin->cold_lock.unlock();
      cs.blocks.signal(k, 0);
      return;
    }

    if (st == BinState::kUnlisted) {
      if (bin->parked.load(std::memory_order_acquire) == 0) {
        bin->cold_lock.unlock();
        return;
      }
      // kRelisting keeps every other drainer out while the list lock is
      // taken without the cold lock: they park and leave the units to us.
      bin->state.store(BinState::kRelisting, std::memory_order_release);
      bin->cold_lock.unlock();
      cs.bins.writer_lock();
      cs.bins.push_front_locked(&bin->list_node);
      cs.bins.writer_unlock();
      cs.listed.fetch_add(1, std::memory_order_acq_rel);
      bin->cold_lock.lock();
      bin->state.store(BinState::kListed, std::memory_order_release);
      st_.add(kBinRelists);
      continue;  // still locked: drain the parked units into the semaphore
    }

    // kDraining / kRelisting / kRetiring: the transition owner drains
    // again, under the lock, once the state settles, and will see our
    // parked units.
    bin->cold_lock.unlock();
    return;
  }
}

void UAlloc::maybe_unlink_exhausted(BinHeader* bin) {
  bin->cold_lock.lock();
  if (bin->state.load(std::memory_order_acquire) != BinState::kListed ||
      bin->free_count.load(std::memory_order_acquire) != 0) {
    bin->cold_lock.unlock();
    return;
  }
  // With fc == 0 under the cold lock the counter is stable: claims are
  // gated by fc > 0 and drains hold this lock.
  bin->state.store(BinState::kDraining, std::memory_order_release);
  bin->cold_lock.unlock();

  SizeClassState& cs = class_state(bin);
  cs.bins.writer_lock();
  cs.bins.unlink_locked(&bin->list_node);
  cs.bins.writer_unlock();
  cs.listed.fetch_sub(1, std::memory_order_acq_rel);
  st_.add(kBinUnlinks);

  // Deferred completion: the bin may be re-linked only after every reader
  // that might still be traversing it has exited. Delegated to an
  // already-waiting barrier whenever possible (paper §4.2.1).
  bin->rcu_cb.fn = &UAlloc::drain_grace_cb;
  class_arena(bin).rcu().barrier_conditional(&bin->rcu_cb);
}

bool UAlloc::try_retire_bin(BinHeader* bin, std::uint32_t unsignaled) {
  // Preconditions: cold lock held, state == kListed, free_count just
  // reached capacity (all blocks free, none outstanding => no concurrent
  // frees are possible; only claims race with us, gated by the CAS).
  SizeClassState& cs = class_state(bin);
  // Hysteresis: keep the last listed bin of a class as a cache even when
  // fully free. Alloc/free oscillation would otherwise retire and regrow
  // a bin (one RCU grace period + one chunk-bitmap round-trip) on every
  // cycle; real allocators retain empty containers for exactly this
  // reason. trim() overrides the policy for explicit scavenging. Checked
  // before the gate CAS: an early return must leave free_count intact.
  if (!bin->retire_even_if_last &&
      cs.listed.load(std::memory_order_acquire) < 2) {
    return false;
  }
  // Retire-pin during evacuation: the incremental compactor reads bin
  // headers in this range without a lock, which is sound only because
  // no slot here can be released and re-initialized mid-sweep.
  const auto addr = reinterpret_cast<std::uintptr_t>(bin);
  if (addr >= evac_lo_.load(std::memory_order_relaxed) &&
      addr < evac_hi_.load(std::memory_order_acquire)) {
    return false;
  }
  std::uint32_t expect = bin->capacity;
  if (!bin->free_count.compare_exchange_strong(expect, 0,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
    return false;  // a claim slipped in; the bin is live again
  }
  const std::uint32_t need = bin->capacity - unsignaled;
  if (need > 0 && !cs.blocks.try_wait(need)) {
    // Units are out with active claimants; retiring now would starve
    // them. Restore visibility and carry on.
    bin->free_count.store(bin->capacity, std::memory_order_release);
    return false;
  }
  bin->state.store(BinState::kRetiring, std::memory_order_release);
  bin->cold_lock.unlock();

  cs.bins.writer_lock();
  cs.bins.unlink_locked(&bin->list_node);
  cs.bins.writer_unlock();
  cs.listed.fetch_sub(1, std::memory_order_acq_rel);

  bin->rcu_cb.fn = &UAlloc::retire_grace_cb;
  class_arena(bin).rcu().barrier_conditional(&bin->rcu_cb);
  return true;
}

void UAlloc::drain_grace_cb(sync::RcuCallback* cb) {
  BinHeader* bin = bin_of_cb(cb);
  bin->chunk->arena->parent().finish_drain(bin);
}

void UAlloc::retire_grace_cb(sync::RcuCallback* cb) {
  BinHeader* bin = bin_of_cb(cb);
  bin->chunk->arena->parent().finish_retire(bin);
}

void UAlloc::finish_drain(BinHeader* bin) {
  bin->cold_lock.lock();
  TOMA_DASSERT(bin->state.load(std::memory_order_relaxed) ==
               BinState::kDraining);
  bin->state.store(BinState::kUnlisted, std::memory_order_release);
  // Frees that parked while we drained get published (and relist us) now.
  drain_parked(bin);
}

void UAlloc::finish_retire(BinHeader* bin) {
  TOMA_DASSERT(bin->state.load(std::memory_order_relaxed) ==
               BinState::kRetiring);
  TOMA_DASSERT(bin->parked.load(std::memory_order_relaxed) == 0);
  st_.add(kBinsRetired);
  release_bin_slot(bin);
}

void UAlloc::release_bin_slot(BinHeader* bin) {
  ChunkHeader* chunk = bin->chunk;
  Arena* arena = chunk->arena;
  const std::uint32_t slot = bin->bin_index;
  // Unpublish before the claim bit clears: once the slot can be
  // re-claimed, the census must already be ignoring this header.
  std::atomic_ref<std::uint64_t>(chunk->bin_published_word)
      .fetch_and(~(std::uint64_t{1} << slot), std::memory_order_release);
  bin->~BinHeader();  // the header area is dead until the slot is reused
  TOMA_ASSERT_FMT(chunk->bin_bitmap().try_clear(slot),
                  "UAlloc double release of bin slot %u in chunk %p of "
                  "arena %u",
                  slot, static_cast<void*>(chunk), arena->index());
  arena->bin_slots_.signal(1, 0);
  maybe_retire_chunk(chunk);
}

void UAlloc::maybe_retire_chunk(ChunkHeader* chunk) {
  // Gate: atomically flip "only header bins used" -> "all used" so no
  // claimer can take a slot while we decide.
  constexpr std::uint64_t kEmptyPattern = 0x3;  // bins 0,1
  std::atomic_ref<std::uint64_t> word(chunk->bin_bitmap_word);
  std::uint64_t expect = kEmptyPattern;
  if (!word.compare_exchange_strong(expect, ~std::uint64_t{0},
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    return;  // chunk still hosts bins
  }
  Arena* arena = chunk->arena;
  if (!arena->bin_slots_.try_wait(kDataBins)) {
    // Slots are spoken for; un-gate and keep the chunk.
    word.store(kEmptyPattern, std::memory_order_release);
    return;
  }
  {
    gpu::CoalescedGroup g = group_for(&arena->chunk_mu_);
    sync::CollectiveLockGuard lk(arena->chunk_mu_, g);
    arena->list_splice_mu_.lock();
    arena->chunks_.erase(chunk);
    arena->list_splice_mu_.unlock();
  }
  st_.add(kChunksRetired);
  TOMA_TRACE("ualloc.chunk_retire", st_.sum(kChunksRetired));
  chunk->~ChunkHeader();
  buddy_->free(chunk);
}

std::size_t UAlloc::release_cached(std::uint32_t first_cls,
                                  std::uint32_t end_cls) {
  std::size_t flushed = 0;
  for (auto& arena : arenas_) {
    for (std::uint32_t c = first_cls; c < end_cls; ++c) {
      std::uint64_t n = 0;
      void* p = arena->magazines_[c].pop_all();
      while (p != nullptr) {
        void* next = *static_cast<void**>(p);
        publish(p);
        p = next;
        ++n;
      }
      if (n > 0) {
        st_.add(mag_stat(c, kMagFlushes), n);
        flushed += n;
      }
    }
  }
  return flushed;
}

std::size_t UAlloc::trim() {
  // Cached blocks pin their bins (bitmap bits stay claimed), so flush the
  // magazines before scavenging — otherwise a fully-idle chunk whose
  // blocks sit in magazines would never retire.
  release_cached();
  const std::uint64_t chunks_before = st_.sum(kChunksRetired);
  for (auto& arena : arenas_) {
    // Flush any deferred reclamations still queued in the domain.
    arena->rcu_.synchronize();
    for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
      SizeClassState& cs = *arena->classes_[c];
      for (;;) {
        // Pick one fully-free listed bin per pass; retiring unlinks it, so
        // restart the traversal each time.
        BinHeader* victim = nullptr;
        {
          sync::RcuReadGuard guard(arena->rcu_);
          for (sync::RcuListNode* n = cs.bins.reader_begin();
               !cs.bins.is_end(n); n = sync::RcuList::reader_next(n)) {
            BinHeader* bin = bin_of_node(n);
            if (bin->free_count.load(std::memory_order_acquire) ==
                bin->capacity) {
              victim = bin;
              break;
            }
          }
        }
        if (victim == nullptr) break;
        victim->cold_lock.lock();
        bool retired = false;
        if (victim->state.load(std::memory_order_acquire) ==
            BinState::kListed) {
          victim->retire_even_if_last = true;
          retired = try_retire_bin(victim, /*unsignaled=*/0);
          if (!retired) victim->retire_even_if_last = false;
        }
        if (!retired) {
          victim->cold_lock.unlock();
          break;  // contended or no longer free; try again another time
        }
      }
    }
    // Chunk scan: snapshot candidates under the list mutex, then attempt
    // retirement outside it (maybe_retire_chunk re-takes the mutex).
    std::vector<ChunkHeader*> candidates;
    {
      arena->chunk_mu_.lock();
      arena->list_splice_mu_.lock();
      for (ChunkHeader& ch : arena->chunks_) {
        std::atomic_ref<std::uint64_t> word(ch.bin_bitmap_word);
        if (word.load(std::memory_order_acquire) == 0x3) {
          candidates.push_back(&ch);
        }
      }
      arena->list_splice_mu_.unlock();
      arena->chunk_mu_.unlock();
    }
    for (ChunkHeader* ch : candidates) maybe_retire_chunk(ch);
  }
  return static_cast<std::size_t>(st_.sum(kChunksRetired) - chunks_before);
}

std::vector<UAlloc::BinOccupancy> UAlloc::snapshot_bins() {
  // Quiescent-point census (the defrag contract): plain reads of the
  // chunk and bin bitmaps are stable, and the list mutexes only guard
  // against concurrent splices that cannot be in flight.
  return snapshot_bins_in(nullptr, nullptr);
}

std::vector<UAlloc::BinOccupancy> UAlloc::snapshot_bins_in(const void* lo,
                                                           const void* hi) {
  std::vector<BinOccupancy> out;
  for (auto& arena : arenas_) {
    arena->chunk_mu_.lock();
    arena->list_splice_mu_.lock();
    for (ChunkHeader& ch : arena->chunks_) {
      char* cbase = reinterpret_cast<char*>(&ch);
      if (lo != nullptr) {
        const auto a = reinterpret_cast<std::uintptr_t>(cbase);
        if (a < reinterpret_cast<std::uintptr_t>(lo) ||
            a >= reinterpret_cast<std::uintptr_t>(hi)) {
          continue;
        }
      }
      std::atomic_ref<std::uint64_t> word(ch.bin_bitmap_word);
      std::atomic_ref<std::uint64_t> pub(ch.bin_published_word);
      // claimed & published: a slot claimed under the chunk mutex whose
      // header writes (done outside it) have not been released yet is
      // invisible here — see ChunkHeader::bin_published_word.
      const std::uint64_t carved = word.load(std::memory_order_acquire) &
                                   pub.load(std::memory_order_acquire);
      for (std::uint32_t bi = kHeaderBins; bi < kBinsPerChunk; ++bi) {
        if (((carved >> bi) & 1u) == 0) continue;
        auto* bin = reinterpret_cast<BinHeader*>(cbase + bi * kBinSize);
        const std::uint32_t cap = bin->capacity;
        const std::uint32_t cls = bin->size_class;
        std::uint32_t live = 0;
        for (std::uint32_t w = 0; w * 64 < cap; ++w) {
          std::atomic_ref<std::uint64_t> bits_ref(bin->bitmap_words[w]);
          std::uint64_t bits = bits_ref.load(std::memory_order_acquire);
          const std::uint32_t valid = cap - w * 64;
          if (valid < 64) bits &= (std::uint64_t{1} << valid) - 1;
          live += util::popcount(bits);
        }
        out.push_back(BinOccupancy{bin, live, cap, cls});
      }
    }
    arena->list_splice_mu_.unlock();
    arena->chunk_mu_.unlock();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

SizeClassState& UAlloc::class_state(BinHeader* bin) {
  return *bin->chunk->arena->classes_[bin->size_class];
}

Arena& UAlloc::class_arena(BinHeader* bin) { return *bin->chunk->arena; }

BinHeader* UAlloc::bin_of_node(sync::RcuListNode* n) {
  return reinterpret_cast<BinHeader*>(
      reinterpret_cast<char*>(n) - offsetof(BinHeader, list_node));
}

BinHeader* UAlloc::bin_of_cb(sync::RcuCallback* cb) {
  return reinterpret_cast<BinHeader*>(
      reinterpret_cast<char*>(cb) - offsetof(BinHeader, rcu_cb));
}

char* UAlloc::chunk_base(const BinHeader* bin) const {
  return reinterpret_cast<char*>(bin->chunk);
}

void* UAlloc::block_addr(BinHeader* bin, std::uint32_t idx) const {
  const std::size_t s = size_of_class(bin->size_class);
  const std::size_t logical = static_cast<std::size_t>(idx) * s;
  TOMA_DASSERT(logical + s <= (s <= kTailSize ? kBinLogicalSize
                                              : kBinDataSize));
  if (logical < kBinDataSize) {
    return reinterpret_cast<char*>(bin) + kBinHeaderSize + logical;
  }
  // The block lives in the bin's tail, inside header bin 0 or 1.
  char* cbase = chunk_base(bin);
  const std::uint32_t bi = bin->bin_index;
  char* tail = bi <= 32
                   ? cbase + kBinHeaderSize + (bi - 2) * kTailSize
                   : cbase + kBinSize + kBinHeaderSize + (bi - 33) * kTailSize;
  return tail + (logical - kBinDataSize);
}

BinHeader* UAlloc::decode(void* p, std::uint32_t* block_idx) const {
  TOMA_ASSERT_MSG(buddy_->contains(p), "free of a pointer outside the pool");
  char* cbase = reinterpret_cast<char*>(
      util::align_down(reinterpret_cast<std::uintptr_t>(p), kChunkSize));
  auto* chunk = reinterpret_cast<ChunkHeader*>(cbase);
  TOMA_ASSERT_MSG(chunk->magic == ChunkHeader::kMagic,
                  "free target is not inside a UAlloc chunk");

  const std::size_t off = static_cast<char*>(p) - cbase;
  std::size_t bi = off / kBinSize;
  const std::size_t inner = off % kBinSize;
  TOMA_ASSERT_MSG(inner >= kBinHeaderSize, "free points into a bin header");
  std::size_t logical;
  if (bi >= kHeaderBins) {
    logical = inner - kBinHeaderSize;
  } else {
    const std::size_t slot = (inner - kBinHeaderSize) / kTailSize;
    const std::size_t delta = (inner - kBinHeaderSize) % kTailSize;
    bi = (bi == 0) ? kHeaderBins + slot : kHeaderBins + 31 + slot;
    logical = kBinDataSize + delta;
  }
  auto* bin = reinterpret_cast<BinHeader*>(cbase + bi * kBinSize);
  const std::size_t s = size_of_class(bin->size_class);
  TOMA_ASSERT_MSG(logical % s == 0, "free of a misaligned interior pointer");
  *block_idx = static_cast<std::uint32_t>(logical / s);
  return bin;
}

// ---------------------------------------------------------------------------
// Statistics and consistency
// ---------------------------------------------------------------------------

UAllocStats UAlloc::stats() const {
  UAllocStats s;
  s.allocs = st_.sum(kAllocs);
  s.frees = st_.sum(kFrees);
  s.bins_created = st_.sum(kBinsCreated);
  s.bins_retired = st_.sum(kBinsRetired);
  s.chunks_created = st_.sum(kChunksCreated);
  s.chunks_retired = st_.sum(kChunksRetired);
  s.bin_unlinks = st_.sum(kBinUnlinks);
  s.bin_relists = st_.sum(kBinRelists);
  s.list_retries = st_.sum(kListRetries);
  const MagazineStats m = magazine_stats();
  s.magazine_hits = m.hits;
  s.magazine_misses = m.misses;
  s.magazine_refills = m.refills;
  s.magazine_refill_blocks = m.refill_blocks;
  s.magazine_topups = m.topups;
  s.magazine_spills = m.spills;
  s.magazine_spill_blocks = m.spill_blocks;
  s.magazine_flushes = m.flushes;
  s.magazine_cached = m.cached;
  s.arena_fallbacks = st_.sum(kArenaFallbacks);
  s.coalesced_groups = st_.sum(kCoalescedGroups);
  s.coalesced_threads = st_.sum(kCoalescedThreads);
  return s;
}

MagazineStats UAlloc::magazine_stats(std::uint32_t first_cls,
                                     std::uint32_t end_cls) const {
  MagazineStats s;
  for (std::uint32_t c = first_cls; c < end_cls; ++c) {
    s.hits += st_.sum(mag_stat(c, kMagHits));
    s.misses += st_.sum(mag_stat(c, kMagMisses));
    s.refills += st_.sum(mag_stat(c, kMagRefills));
    s.refill_blocks += st_.sum(mag_stat(c, kMagRefillBlocks));
    s.topups += st_.sum(mag_stat(c, kMagTopups));
    s.spills += st_.sum(mag_stat(c, kMagSpills));
    s.spill_blocks += st_.sum(mag_stat(c, kMagSpillBlocks));
    s.flushes += st_.sum(mag_stat(c, kMagFlushes));
    for (const auto& arena : arenas_) s.cached += arena->magazines_[c].count();
  }
  return s;
}

void UAlloc::collect(obs::CounterTotals& out) const {
  for (std::uint32_t f = 0; f < kNumPlainStats; ++f) {
    if (kStatNames[f] != nullptr) out[kStatNames[f]] += st_.sum(f);
  }
  for (std::uint32_t f = 0; f < kNumMagStats; ++f) {
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
      total += st_.sum(mag_stat(c, static_cast<MagStat>(f)));
    }
    out[kMagStatNames[f]] += total;
  }
}

bool UAlloc::check_consistency() const {
  bool ok = true;
  for (const auto& arena : arenas_) {
    for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
      SizeClassState& cs = *arena->classes_[c];
      const auto snap = cs.blocks.snapshot();
      if (snap.expected != 0 || snap.reserved != 0) {
        std::fprintf(stderr,
                     "UAlloc: arena %u class %u semaphore not quiescent\n",
                     arena->index_, c);
        ok = false;
      }
      // Sum claimable blocks over listed bins and compare with C.
      std::uint64_t claimable = 0;
      for (sync::RcuListNode* n = cs.bins.reader_begin(); !cs.bins.is_end(n);
           n = sync::RcuList::reader_next(n)) {
        BinHeader* bin = bin_of_node(n);
        if (bin->state.load() != BinState::kListed) {
          std::fprintf(stderr, "UAlloc: linked bin not in kListed state\n");
          ok = false;
        }
        if (bin->parked.load() != 0) {
          std::fprintf(stderr, "UAlloc: quiescent bin has parked units\n");
          ok = false;
        }
        const std::uint32_t fc = bin->free_count.load();
        const std::uint32_t used = bin->bitmap().count();
        if (used + fc != bin->capacity) {
          std::fprintf(stderr,
                       "UAlloc: bin bitmap (%u used) disagrees with free "
                       "count %u (capacity %u)\n",
                       used, fc, bin->capacity);
          ok = false;
        }
        claimable += fc;
      }
      if (snap.value != claimable) {
        std::fprintf(stderr,
                     "UAlloc: arena %u class %u semaphore C=%llu but %llu "
                     "claimable blocks\n",
                     arena->index_, c,
                     static_cast<unsigned long long>(snap.value),
                     static_cast<unsigned long long>(claimable));
        ok = false;
      }
    }
    // Magazine integrity: every cached block must still hold its claimed
    // bitmap bit (otherwise the block is simultaneously cached and
    // claimable — a double-allocation waiting to happen), belong to the
    // class it is filed under, and the chain length must match the bound
    // accounting.
    for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
      const Magazine& mag = arena->magazines_[c];
      const std::vector<void*> cached = mag.snapshot();
      const std::uint32_t cap = kMagazinePolicy[c].capacity;
      if (cached.size() != mag.count() || mag.count() > cap) {
        std::fprintf(stderr,
                     "UAlloc: arena %u class %u magazine chain %zu vs "
                     "count %u (cap %u)\n",
                     arena->index_, c, cached.size(), mag.count(), cap);
        ok = false;
      }
      for (void* p : cached) {
        std::uint32_t idx;
        BinHeader* bin = decode(p, &idx);
        if (bin->size_class != c) {
          std::fprintf(stderr,
                       "UAlloc: magazine %u/%u caches block of class %u\n",
                       arena->index_, c, bin->size_class);
          ok = false;
        }
        if (!bin->bitmap().test(idx)) {
          std::fprintf(stderr,
                       "UAlloc: cached block %p lost its claimed bit\n", p);
          ok = false;
        }
      }
    }
    const auto bsnap = arena->bin_slots_.snapshot();
    if (bsnap.expected != 0 || bsnap.reserved != 0) {
      std::fprintf(stderr, "UAlloc: arena %u bin-slot semaphore busy\n",
                   arena->index_);
      ok = false;
    }
    std::uint64_t free_slots = 0;
    for (ChunkHeader& ch : arena->chunks_) {
      free_slots += kBinsPerChunk - ch.bin_bitmap().count();
    }
    if (bsnap.value != free_slots) {
      std::fprintf(stderr,
                   "UAlloc: arena %u bin-slot semaphore C=%llu but %llu "
                   "free slots\n",
                   arena->index_,
                   static_cast<unsigned long long>(bsnap.value),
                   static_cast<unsigned long long>(free_slots));
      ok = false;
    }
  }
  return ok;
}

}  // namespace toma::alloc
