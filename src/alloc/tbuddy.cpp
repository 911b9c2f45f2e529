#include "alloc/tbuddy.hpp"

#include "alloc/config.hpp"

#include <cinttypes>
#include <cstdio>

#include "gpusim/this_thread.hpp"
#include "obs/telemetry.hpp"
#include "sync/backoff.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {

namespace {
constexpr std::uint8_t kNoAllocation = 0xFF;
}

TBuddy::TBuddy(void* pool, std::size_t pool_bytes, std::size_t page_size,
               bool initially_empty)
    : pool_(pool), pool_bytes_(pool_bytes), page_size_(page_size) {
  TOMA_ASSERT(pool != nullptr);
  TOMA_ASSERT(util::is_pow2(page_size));
  TOMA_ASSERT(util::is_pow2(pool_bytes));
  TOMA_ASSERT(pool_bytes >= page_size);
  TOMA_ASSERT_MSG(util::is_aligned(pool, pool_bytes),
                  "pool must be aligned to its own size so block addresses "
                  "are aligned to their block size");

  const std::size_t pages = pool_bytes / page_size;
  max_order_ = util::log2_floor(pages);
  TOMA_ASSERT_MSG(pages <= sync::BulkSemaphore::kMaxValue,
                  "pool too large for semaphore accounting");

  node_state_.assign(node_count(), kBusy);
  order_of_page_.assign(pages, kNoAllocation);
  sems_.reserve(max_order_ + 1);
  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    sems_.push_back(std::make_unique<sync::BulkSemaphore>(0));
  }
  quicklists_ = std::make_unique<sync::TreiberStack[]>(max_order_ + 1);
  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    quicklists_[h].set_capacity(quicklist_capacity(h, max_order_));
  }
  // Successor links for the quicklists; slots are written before first
  // use, so no initialization pass over the array is needed.
  ql_links_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(node_count());
  // Initially the whole pool is one available block at the root — unless
  // the caller owns the backing and will inject mapped chunks itself.
  if (!initially_empty) {
    node_state_[1] = kAvailable;
    sems_[max_order_]->signal(1, 0);
  }
}

void TBuddy::inject_block(void* p, std::uint32_t order) {
  TOMA_ASSERT(order <= max_order_);
  TOMA_ASSERT_MSG(contains(p), "injected block outside the pool");
  TOMA_ASSERT_MSG(
      util::is_aligned(p, page_size_ << order),
      "injected block must be aligned to its own size (buddy geometry)");
  // The merging free path publishes the block exactly as an ordinary free
  // would — Available state + semaphore unit under the parent lock — and
  // coalesces it with any adjacent injected memory.
  free_block(node_at(p, order), order);
}

void* TBuddy::try_extract_block(std::uint32_t order) {
  TOMA_ASSERT(order <= max_order_);
  // Same two-stage claim as the allocation path: the reserved semaphore
  // unit guarantees an Available node of this order exists (or will,
  // transiently) for us, so the descent terminates. try_wait never blocks
  // — a shrink pass takes only what is free *right now*.
  if (!sems_[order]->try_wait(1)) return nullptr;
  const std::uint32_t node = find_and_claim(order);
  // No allocation record: the caller owns the raw block, and the pages
  // may be unmapped right after — nothing may ever free() this pointer.
  return node_addr(node);
}

void* TBuddy::try_extract_containing(const void* p, std::uint32_t order,
                                     std::uint32_t* out_order) {
  TOMA_ASSERT(order <= max_order_);
  TOMA_ASSERT_MSG(contains(p), "extract target outside the pool");
  TOMA_ASSERT_MSG(util::is_aligned(p, page_size_ << order),
                  "extract target must be order-aligned");
  std::uint32_t node = node_at(p, order);
  std::uint32_t h = order;
  for (;;) {
    if (state_of(node) == kAvailable) {
      // Reserve the unit *before* the claim, as every claim path does:
      // claim_candidate assumes the caller holds one unit at this order.
      // A failed try_wait means another thread is mid-protocol on some
      // node of this order — bail and let the caller's next step retry.
      if (!sems_[h]->try_wait(1)) return nullptr;
      if (claim_candidate(node)) {
        *out_order = h;
        return node_addr(node);
      }
      sems_[h]->signal(1, 0);  // raced: hand the unit back
      return nullptr;
    }
    // Not free at this height; the region might still lie inside a larger
    // coalesced free block one level up. A Busy/Partial ancestor chain all
    // the way to the root means something inside the region is live.
    if (node <= 1 || h >= max_order_) return nullptr;
    node = parent_of(node);
    ++h;
  }
}

std::uint32_t TBuddy::height_of(std::uint32_t i) const {
  return max_order_ - util::log2_floor(i);
}

void* TBuddy::node_addr(std::uint32_t i) const {
  const std::uint32_t h = height_of(i);
  const std::size_t page =
      (static_cast<std::size_t>(i) - level_base(h)) << h;
  return static_cast<char*>(pool_) + page * page_size_;
}

std::uint32_t TBuddy::node_at(const void* p, std::uint32_t order) const {
  const std::size_t off = static_cast<const char*>(p) -
                          static_cast<const char*>(pool_);
  const std::size_t page = off / page_size_;
  return level_base(order) + static_cast<std::uint32_t>(page >> order);
}

TBuddy::State TBuddy::state_of(std::uint32_t i) const {
  std::atomic_ref<const std::uint8_t> b(node_state_[i]);
  return static_cast<State>(b.load(std::memory_order_acquire) & kStateMask);
}

void TBuddy::lock_node(std::uint32_t i) {
  std::atomic_ref<std::uint8_t> b(node_state_[i]);
  for (;;) {
    std::uint8_t cur = b.load(std::memory_order_relaxed);
    if ((cur & kLockBit) == 0 &&
        b.compare_exchange_weak(cur, cur | kLockBit,
                                std::memory_order_acquire,
                                std::memory_order_relaxed)) {
      TOMA_CTR_INC("tbuddy.lock_acquire");
      return;
    }
    TOMA_CTR_INC("tbuddy.lock_contended");
    sync::spin_until([b] {
      return (b.load(std::memory_order_acquire) & kLockBit) == 0;
    });
  }
}

void TBuddy::unlock_node(std::uint32_t i) {
  std::atomic_ref<std::uint8_t> b(node_state_[i]);
  b.fetch_and(static_cast<std::uint8_t>(~kLockBit),
              std::memory_order_release);
}

void TBuddy::set_state_locked(std::uint32_t i, State s) {
  std::atomic_ref<std::uint8_t> b(node_state_[i]);
  TOMA_DASSERT(b.load(std::memory_order_relaxed) & kLockBit);
  b.store(static_cast<std::uint8_t>(kLockBit | s), std::memory_order_release);
}

TBuddy::State TBuddy::derive(std::uint32_t i) const {
  const State l = state_of(left_child(i));
  const State r = state_of(left_child(i) + 1);
  const bool below =
      l == kAvailable || l == kPartial || r == kAvailable || r == kPartial;
  return below ? kPartial : kBusy;
}

void TBuddy::fixup_from(std::uint32_t i) {
  // Recompute ancestors hand-over-hand. Holding a node's lock freezes its
  // children for every *locked* transition (those lock the parent). The
  // one exception is the optimistic CAS claim, which flips a child
  // Available->Busy without the parent lock — but every successful CAS is
  // followed by its own fixup_from(parent), which serializes behind any
  // in-flight derive here and corrects a stale Partial.
  while (i >= 1) {
    const std::uint32_t p = parent_of(i);  // 0 when i is the root
    if (p != 0) lock_node(p);
    lock_node(i);
    std::atomic_ref<std::uint8_t> b(node_state_[i]);
    const auto cur =
        static_cast<State>(b.load(std::memory_order_relaxed) & kStateMask);
    bool changed = false;
    // Available nodes are explicit (never derived); owned-Busy nodes have
    // inactive subtrees, so a fixup reaching one derives the same Busy.
    if (cur != kAvailable) {
      const State d = derive(i);
      if (d != cur) {
        set_state_locked(i, d);
        changed = true;
      }
    }
    unlock_node(i);
    if (p != 0) unlock_node(p);
    if (!changed || p == 0) return;
    i = p;
  }
}

bool TBuddy::try_claim(std::uint32_t i) {
  const std::uint32_t p = parent_of(i);
  if (p != 0) lock_node(p);
  lock_node(i);
  std::atomic_ref<std::uint8_t> b(node_state_[i]);
  const auto cur =
      static_cast<State>(b.load(std::memory_order_relaxed) & kStateMask);
  bool ok = false;
  if (cur == kAvailable) {
    set_state_locked(i, kBusy);
    ok = true;
  }
  unlock_node(i);
  if (p != 0) unlock_node(p);
  if (ok && p != 0) fixup_from(p);
  return ok;
}

bool TBuddy::claim_candidate(std::uint32_t i) {
  // Optimistic claim: one CAS on the node byte, expecting exactly
  // "Available, unlocked". Any locked protocol currently touching the
  // node (a merge check, a fixup, another claim) holds the lock bit, so
  // the CAS fails on *any* concurrent transition and we fall back to the
  // ordinary (parent, node) lock protocol. The other direction is covered
  // by the lock holders re-checking the node's state after locking it
  // (free_block re-verifies the buddy is still Available before merging).
  //
  // The parent still gets its locked recomputation: fixup_from(parent)
  // serializes behind any in-flight derive under the parent lock, so a
  // derive that read the stale Available is corrected by our later fixup,
  // and a derive that locks the parent after our fixup released it
  // observes the CAS'd Busy (lock acquire/release ordering).
  if (cas_claim_enabled()) {
    std::atomic_ref<std::uint8_t> b(node_state_[i]);
    std::uint8_t expected = kAvailable;
    if (b.compare_exchange_strong(expected, kBusy,
                                  std::memory_order_acq_rel,
                                  std::memory_order_relaxed)) {
      st_cas_claims_.fetch_add(1, std::memory_order_relaxed);
      TOMA_CTR_INC("tbuddy.claim.cas_fast");
      if (i > 1) fixup_from(parent_of(i));
      return true;
    }
  }
  const bool ok = try_claim(i);
  if (ok) {
    st_lock_claims_.fetch_add(1, std::memory_order_relaxed);
    TOMA_CTR_INC("tbuddy.claim.lock_slow");
  }
  return ok;
}

std::uint32_t TBuddy::find_and_claim(std::uint32_t order) {
  sync::Backoff bo;
  auto& rng = gpu::this_thread::rng();
  for (;;) {
    std::uint32_t i = 1;
    std::uint32_t h = max_order_;
    if (h == order) {
      if (claim_candidate(1)) return 1;
      st_retries_.fetch_add(1, std::memory_order_relaxed);
      TOMA_CTR_INC("tbuddy.descent_retry");
      bo.pause();
      continue;
    }
    bool dead_end = false;
    while (!dead_end) {
      for (std::uint32_t d = 0; d < descent_latency_; ++d) {
        gpu::this_thread::yield();  // modeled node-state read latency
      }
      // Scatter: visit the two children in a per-thread random order so
      // concurrent descents fan out across the tree (ScatterAlloc-style).
      const std::uint32_t first =
          left_child(i) + (scatter_ ? (rng.next() & 1) : 0);
      const std::uint32_t second = sibling_of(first);
      const std::uint32_t ch = h - 1;
      bool descended = false;
      for (const std::uint32_t c : {first, second}) {
        const State s = state_of(c);
        if (ch == order) {
          if (s == kAvailable && claim_candidate(c)) return c;
        } else if (s == kPartial) {
          i = c;
          h = ch;
          descended = true;
          break;
        }
      }
      if (!descended) dead_end = true;
    }
    st_retries_.fetch_add(1, std::memory_order_relaxed);
    TOMA_CTR_INC("tbuddy.descent_retry");
    bo.pause();
  }
}

void TBuddy::record_allocation(void* p, std::uint32_t order) {
  const std::size_t page =
      (static_cast<const char*>(p) - static_cast<const char*>(pool_)) /
      page_size_;
  std::atomic_ref<std::uint8_t> rec(order_of_page_[page]);
  TOMA_DASSERT(rec.load(std::memory_order_relaxed) == kNoAllocation);
  rec.store(static_cast<std::uint8_t>(order), std::memory_order_release);
}

void* TBuddy::quicklist_pop(std::uint32_t order) {
  const std::uint32_t node = quicklists_[order].try_pop(ql_links_.get());
  if (node == sync::TreiberStack::kNil) {
    st_ql_misses_.fetch_add(1, std::memory_order_relaxed);
    TOMA_CTR_INC("tbuddy.quicklist.miss");
    return nullptr;
  }
  // The node stayed Busy (and its semaphore unit consumed) the whole time
  // it was cached, so handing it out is pure bookkeeping: no semaphore,
  // no descent, no locks.
  st_ql_hits_.fetch_add(1, std::memory_order_relaxed);
  st_allocs_.fetch_add(1, std::memory_order_relaxed);
  TOMA_CTR_INC("tbuddy.quicklist.hit");
  void* p = node_addr(node);
  record_allocation(p, order);
  return p;
}

void* TBuddy::allocate(std::uint32_t order) {
  if (order > max_order_) {
    st_failed_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (quicklist_enabled()) {
    if (void* p = quicklist_pop(order)) return p;
  }
  for (;;) {
    void* p = allocate_from_tree(order);
    if (p != nullptr) return p;
    // Pool pressure: the tree is exhausted at this order, but deferred
    // coalescing may be sitting on mergeable blocks. Flush everything
    // through the real free path and re-decide; a zero-block flush proves
    // true exhaustion. (Recursive growers flush at the deepest failing
    // level first; by the time the failure propagates here the lists are
    // usually already drained and this loop exits on its first retry.)
    if (flush_quicklists() == 0) {
      st_failed_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    TOMA_CTR_INC("tbuddy.quicklist.pressure_flush");
    if (quicklist_enabled()) {
      if (void* p2 = quicklist_pop(order)) return p2;
    }
  }
}

void* TBuddy::allocate_from_tree(std::uint32_t order) {
  // Per-order semaphore outcome: kAcquired means a block of this order is
  // (or will be) claimable; kMustGrow makes us the splitter one order up.
  obs::OpTimer wait_timer;
  if (TOMA_SITE_SAMPLED()) TOMA_OP_HIST("tbuddy.sem_wait_ns", wait_timer);
  const auto res = sems_[order]->wait(1, 2);
  wait_timer.stop();
  if (res == sync::BulkSemaphore::WaitResult::kAcquired) {
    TOMA_CTRV_INC("tbuddy.sem_acquired", 24, order);
    const std::uint32_t node = find_and_claim(order);
    st_allocs_.fetch_add(1, std::memory_order_relaxed);
    void* p = node_addr(node);
    record_allocation(p, order);
    return p;
  }

  // kMustGrow: produce a batch of two order-n blocks by splitting an
  // order-(n+1) block; keep one, publish the other. The recursive call
  // goes through allocate(), so the parent order's quicklist (and, on
  // failure, the pressure flush) serve the split too.
  TOMA_CTRV_INC("tbuddy.sem_grow", 24, order);
  TOMA_TRACE("tbuddy.grow", order);
  if (order == max_order_) {
    sems_[order]->signal(0, 1);  // cannot grow past the root: true OOM
    return nullptr;
  }
  void* parent_mem = allocate(order + 1);
  if (parent_mem == nullptr) {
    sems_[order]->signal(0, 1);  // growth failed; let waiters re-decide
    return nullptr;
  }
  // Un-register the parent allocation record; it is being split, not used.
  {
    const std::size_t page = (static_cast<const char*>(parent_mem) -
                              static_cast<const char*>(pool_)) /
                             page_size_;
    std::atomic_ref<std::uint8_t> rec(order_of_page_[page]);
    rec.store(kNoAllocation, std::memory_order_release);
  }

  const std::uint32_t pnode = node_at(parent_mem, order + 1);
  const std::uint32_t keep = left_child(pnode);
  const std::uint32_t give = keep + 1;

  // Paper order: block Busy -> Partial first, then one child -> Available,
  // then signal. Claimers retry through the transient window.
  {
    const std::uint32_t gp = parent_of(pnode);
    if (gp != 0) lock_node(gp);
    lock_node(pnode);
    set_state_locked(pnode, kPartial);
    unlock_node(pnode);
    if (gp != 0) unlock_node(gp);
  }
  {
    lock_node(pnode);
    lock_node(give);
    set_state_locked(give, kAvailable);
    // Signal inside the locked section (same reason as the free path):
    // "give is Available" and "its unit is in C" become visible together
    // to anyone holding the parent lock.
    sems_[order]->signal(1, 1);
    unlock_node(give);
    unlock_node(pnode);
  }
  // pnode went (owned) Busy -> Partial: recompute its ancestors.
  if (pnode > 1) fixup_from(parent_of(pnode));
  st_splits_.fetch_add(1, std::memory_order_relaxed);
  st_allocs_.fetch_add(1, std::memory_order_relaxed);
  TOMA_CTR_INC("tbuddy.split");

  void* p = node_addr(keep);
  const std::size_t page =
      (static_cast<const char*>(p) - static_cast<const char*>(pool_)) /
      page_size_;
  std::atomic_ref<std::uint8_t> rec(order_of_page_[page]);
  TOMA_DASSERT(rec.load(std::memory_order_relaxed) == kNoAllocation);
  rec.store(static_cast<std::uint8_t>(order), std::memory_order_release);
  return p;
}

void* TBuddy::allocate_bytes(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  return allocate(order_for_bytes(bytes));
}

void TBuddy::free(void* p) {
  TOMA_ASSERT_MSG(contains(p), "free of a pointer outside the pool");
  const std::size_t off =
      static_cast<const char*>(p) - static_cast<const char*>(pool_);
  TOMA_ASSERT_MSG(off % page_size_ == 0,
                  "TBuddy pointers are page aligned by construction");
  const std::size_t page = off / page_size_;
  std::atomic_ref<std::uint8_t> rec(order_of_page_[page]);
  const std::uint8_t order = rec.load(std::memory_order_acquire);
  TOMA_ASSERT_FMT(order != kNoAllocation,
                  "TBuddy double free or foreign pointer: %p (page %zu of "
                  "%zu, pool %p) has no live allocation recorded",
                  p, page, pool_bytes_ / page_size_, pool_);
  rec.store(kNoAllocation, std::memory_order_release);
  st_frees_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t node = node_at(p, order);
  if (quicklist_enabled() && quicklists_[order].capacity() != 0) {
    // Deferred coalescing: park the block instead of cascading merges.
    // The node stays Busy and its semaphore unit stays consumed, so the
    // accounting still sees it as allocated (invariant preserved).
    if (quicklists_[order].try_push(ql_links_.get(), node)) return;
    // High-water overflow: flush down to the low-water mark so this
    // crossing buys cap/2 further O(1) frees before the next flush.
    st_ql_spills_.fetch_add(1, std::memory_order_relaxed);
    TOMA_CTR_INC("tbuddy.quicklist.spill");
    flush_quicklist(order,
                    quicklist_low_water(quicklists_[order].capacity()));
  }
  free_block(node, order);
}

std::size_t TBuddy::flush_quicklist(std::uint32_t order,
                                    std::uint32_t target) {
  std::size_t flushed = 0;
  while (quicklists_[order].count() > target) {
    const std::uint32_t node = quicklists_[order].try_pop(ql_links_.get());
    if (node == sync::TreiberStack::kNil) break;  // racing flusher drained it
    free_block(node, order);
    ++flushed;
  }
  if (flushed != 0) {
    st_ql_flushes_.fetch_add(flushed, std::memory_order_relaxed);
    TOMA_CTR_ADD("tbuddy.quicklist.flush", flushed);
  }
  return flushed;
}

std::size_t TBuddy::flush_quicklists() {
  // Low orders first: their merges cascade upward and may want to consume
  // blocks the higher-order flush iterations then no longer need to free.
  std::size_t total = 0;
  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    total += flush_quicklist(h, 0);
  }
  return total;
}

std::size_t TBuddy::allocation_size(const void* p) const {
  TOMA_ASSERT(contains(p));
  const std::size_t off =
      static_cast<const char*>(p) - static_cast<const char*>(pool_);
  TOMA_ASSERT(off % page_size_ == 0);
  std::atomic_ref<const std::uint8_t> rec(order_of_page_[off / page_size_]);
  const std::uint8_t order = rec.load(std::memory_order_acquire);
  TOMA_ASSERT_MSG(order != kNoAllocation,
                  "allocation_size of a non-live pointer");
  return page_size_ << order;
}

void TBuddy::free_block(std::uint32_t i, std::uint32_t order) {
  for (;;) {
    if (i == 1) {  // the root has no buddy: just release it
      lock_node(1);
      set_state_locked(1, kAvailable);
      unlock_node(1);
      sems_[order]->signal(1, 0);
      return;
    }

    const std::uint32_t p = parent_of(i);
    const std::uint32_t b = sibling_of(i);

    // Merge attempt (paper: must always be attempted; only a failed
    // try_wait proves the buddy cannot be consumed).
    bool merged = false;
    if (sems_[order]->try_wait(1)) {
      lock_node(p);
      lock_node(b);
      std::atomic_ref<std::uint8_t> bb(node_state_[b]);
      if ((bb.load(std::memory_order_relaxed) & kStateMask) == kAvailable) {
        set_state_locked(b, kBusy);
        merged = true;
      }
      unlock_node(b);
      unlock_node(p);
      if (!merged) {
        sems_[order]->signal(1, 0);  // return the reserved unit
      }
    }

    if (!merged) {
      // Release i as Available — but never publish "both siblings
      // Available" (tree property 1). If the buddy is Available we must
      // merge instead, which requires consuming its accounting unit. That
      // unit may be transiently absent (its releaser signals under this
      // same parent lock, so normally it is visible — but a third-party
      // merge attempt elsewhere can briefly borrow units via try_wait).
      // In that case we back off and re-decide: either the unit returns
      // (we merge) or a claimer takes the buddy (we release plain).
      for (;;) {
        lock_node(p);
        lock_node(i);
        std::atomic_ref<std::uint8_t> bb(node_state_[b]);
        if ((bb.load(std::memory_order_acquire) & kStateMask) ==
            kAvailable) {
          if (sems_[order]->try_wait(1)) {
            // Safe to take b's lock while holding p and i: any other
            // holder of b either needed p first (we have it) or is a
            // (b, child-of-b) pair that never waits on p or i.
            lock_node(b);
            // Re-check under b's own lock: the optimistic descent claim
            // (claim_candidate) flips Available->Busy with a bare CAS,
            // without taking the parent lock, so the read above can be
            // stale. If a claimer won b, return the borrowed unit and
            // re-decide.
            if ((bb.load(std::memory_order_relaxed) & kStateMask) !=
                kAvailable) {
              unlock_node(b);
              sems_[order]->signal(1, 0);
              unlock_node(i);
              unlock_node(p);
              gpu::this_thread::yield();
              continue;
            }
            set_state_locked(b, kBusy);
            unlock_node(b);
            unlock_node(i);  // i stays Busy: we own the merged pair
            unlock_node(p);
            merged = true;
            break;
          }
          unlock_node(i);
          unlock_node(p);
          gpu::this_thread::yield();
          continue;
        }
        set_state_locked(i, kAvailable);
        // Signal under the parent lock: anyone who subsequently observes
        // i Available under this lock also observes its unit in C (or the
        // unit already claimed, which makes i Busy again first).
        sems_[order]->signal(1, 0);
        unlock_node(i);
        unlock_node(p);
        fixup_from(p);
        return;
      }
    }

    // Merged: the parent (Partial) becomes our owned block one order up.
    {
      const std::uint32_t gp = parent_of(p);
      if (gp != 0) lock_node(gp);
      lock_node(p);
      set_state_locked(p, kBusy);
      unlock_node(p);
      if (gp != 0) unlock_node(gp);
      if (gp != 0) fixup_from(gp);
    }
    st_merges_.fetch_add(1, std::memory_order_relaxed);
    TOMA_CTR_INC("tbuddy.merge");
    i = p;
    ++order;
  }
}

std::uint64_t TBuddy::available(std::uint32_t order) const {
  TOMA_ASSERT(order <= max_order_);
  return sems_[order]->value();
}

std::size_t TBuddy::free_bytes() const {
  std::size_t total = 0;
  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    total += sems_[h]->value() * (page_size_ << h);
  }
  return total;
}

std::size_t TBuddy::largest_free_block() const {
  for (std::uint32_t h = max_order_ + 1; h-- > 0;) {
    if (sems_[h]->value() > 0) return page_size_ << h;
  }
  return 0;
}

TBuddyStats TBuddy::stats() const {
  TBuddyStats s;
  s.allocs = st_allocs_.load(std::memory_order_relaxed);
  s.frees = st_frees_.load(std::memory_order_relaxed);
  s.splits = st_splits_.load(std::memory_order_relaxed);
  s.merges = st_merges_.load(std::memory_order_relaxed);
  s.failed_allocs = st_failed_.load(std::memory_order_relaxed);
  s.descent_retries = st_retries_.load(std::memory_order_relaxed);
  s.quicklist_hits = st_ql_hits_.load(std::memory_order_relaxed);
  s.quicklist_misses = st_ql_misses_.load(std::memory_order_relaxed);
  s.quicklist_spills = st_ql_spills_.load(std::memory_order_relaxed);
  s.quicklist_flushes = st_ql_flushes_.load(std::memory_order_relaxed);
  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    s.quicklist_cached += quicklists_[h].count();
  }
  s.cas_claims = st_cas_claims_.load(std::memory_order_relaxed);
  s.lock_claims = st_lock_claims_.load(std::memory_order_relaxed);
  return s;
}

bool TBuddy::check_consistency() const {
  bool ok = true;
  auto fail = [&](const char* what, std::uint32_t node) {
    std::fprintf(stderr, "TBuddy inconsistency: %s at node %u\n", what, node);
    ok = false;
  };

  const std::uint32_t n = node_count();
  std::vector<std::uint64_t> avail_at(max_order_ + 1, 0);
  std::vector<bool> has_avail(n, false);  // available anywhere in subtree

  for (std::uint32_t i = n - 1; i >= 1; --i) {
    if (node_state_[i] & kLockBit) fail("node locked while quiescent", i);
    const auto s = static_cast<State>(node_state_[i] & kStateMask);
    const bool leaf = i >= level_base(0);
    const bool child_avail =
        !leaf && (has_avail[left_child(i)] || has_avail[left_child(i) + 1]);
    if (s == kAvailable) {
      avail_at[height_of(i)]++;
      if (child_avail) fail("available node with available descendant", i);
      has_avail[i] = true;
    } else {
      has_avail[i] = child_avail;
      if (s == kPartial && !child_avail) {
        fail("partial node without available descendant", i);
      }
    }
    if (i > 1 && (i & 1) == 0) {  // left child: check sibling pair once
      const auto sl = static_cast<State>(node_state_[i] & kStateMask);
      const auto sr = static_cast<State>(node_state_[i + 1] & kStateMask);
      if (sl == kAvailable && sr == kAvailable) {
        fail("both siblings available", i);
      }
    }
  }

  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    const auto snap = sems_[h]->snapshot();
    if (snap.expected != 0 || snap.reserved != 0) {
      std::fprintf(stderr,
                   "TBuddy inconsistency: semaphore %u not quiescent "
                   "(E=%" PRIu64 " R=%" PRIu64 ")\n",
                   h, snap.expected, snap.reserved);
      ok = false;
    }
    if (snap.value != avail_at[h]) {
      std::fprintf(stderr,
                   "TBuddy inconsistency: order %u semaphore C=%" PRIu64
                   " but %" PRIu64 " available nodes\n",
                   h, snap.value, avail_at[h]);
      ok = false;
    }
  }

  // Allocation records: each recorded allocation must be a Busy node whose
  // subtree contains nothing available.
  for (std::size_t page = 0; page < order_of_page_.size(); ++page) {
    const std::uint8_t order = order_of_page_[page];
    if (order == kNoAllocation) continue;
    const std::uint32_t node =
        level_base(order) + static_cast<std::uint32_t>(page >> order);
    const auto s = static_cast<State>(node_state_[node] & kStateMask);
    if (s != kBusy) fail("allocated node not busy", node);
    if (has_avail[node]) fail("allocated node with available descendant", node);
  }

  // Quicklists: every cached block must be a Busy, unlocked node of the
  // list's order with a fully-Busy subtree and no allocation record — to
  // the tree and the semaphores a cached block is indistinguishable from
  // an allocated one.
  for (std::uint32_t h = 0; h <= max_order_; ++h) {
    std::uint64_t walked = 0;
    for (std::uint32_t node = quicklists_[h].peek();
         node != sync::TreiberStack::kNil;
         node = ql_links_[node].load(std::memory_order_relaxed)) {
      ++walked;
      if (height_of(node) != h) fail("quicklisted node at wrong order", node);
      if (node_state_[node] & kLockBit) fail("quicklisted node locked", node);
      if ((node_state_[node] & kStateMask) != kBusy) {
        fail("quicklisted node not busy", node);
      }
      if (has_avail[node]) {
        fail("quicklisted node with available descendant", node);
      }
      const std::size_t page =
          (static_cast<const char*>(node_addr(node)) -
           static_cast<const char*>(pool_)) /
          page_size_;
      if (order_of_page_[page] != kNoAllocation) {
        fail("quicklisted node still recorded as allocated", node);
      }
      if (walked > quicklists_[h].capacity()) {
        fail("quicklist longer than its capacity (cycle?)", node);
        break;
      }
    }
    if (walked != quicklists_[h].count()) {
      std::fprintf(stderr,
                   "TBuddy inconsistency: order %u quicklist count %u but "
                   "%" PRIu64 " nodes walked\n",
                   h, quicklists_[h].count(), walked);
      ok = false;
    }
  }

  return ok;
}

}  // namespace toma::alloc
