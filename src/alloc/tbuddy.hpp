// TBuddy: the coarse-grained tree buddy allocator (paper §4.1).
//
// Free memory is tracked at page granularity by a *static binary tree*:
// the node of height h at position i covers pages [i*2^h, (i+1)*2^h) and is
// in one of three states:
//
//   Available — the block can be allocated
//   Busy      — neither the block nor anything in its subtree can be
//               allocated (initial state everywhere except the root;
//               also the state of a block handed to a caller)
//   Partial   — the block itself cannot be allocated but its subtree
//               contains at least one available block
//
// Tree invariants (paper):
//   (1) two sibling nodes are never both Available (they merge instead);
//   (2) every node in an Available node's subtree is Busy.
//
// Accounting uses two-stage resource management: one bulk semaphore per
// order (batch size 2 — splitting one block of order n+1 yields two of
// order n) counts available blocks; the tree is only the tracking stage.
// wait() == kAcquired guarantees an Available node of that order exists
// and is reserved for unit holders, so the (scattered) tree descent
// retries until it claims one. wait() == kMustGrow makes the caller
// recursively allocate order n+1 and split it.
//
// Every state transition locks the node *and its parent* (ancestor-first,
// so no deadlocks); state recomputation propagates upward hand-over-hand,
// re-locking (grandparent, parent) after releasing (parent, node).
//
// Free operations always attempt to merge with the buddy; only a failed
// try_wait on the order's semaphore proves the merge cannot proceed.
// Merges cascade upward, re-forming maximal blocks.
//
// Two fast paths sit in front of that machinery (not in the paper; see
// docs/INTERNALS.md §4c):
//
//   * A bounded per-order *quicklist* (lock-free Treiber stack) of
//     recently freed blocks. A quicklisted block keeps its node *Busy*
//     and its semaphore unit consumed — to the accounting it is still
//     allocated — so allocate() can pop it in O(1) without touching the
//     semaphore or the tree, and free() can push it without cascading
//     merges (deferred coalescing). Coalescing runs with hysteresis: a
//     push over the high-water mark flushes the list to its low-water
//     mark through the real free path, trim() flushes everything, and a
//     failed grow (pool pressure) flushes everything and retries.
//   * An *optimistic claim*: the scattered descent first tries a single
//     CAS Available->Busy on the candidate node (the lock bit makes the
//     CAS fail whenever a locked protocol holds the node), falling back
//     to the (parent, node) lock protocol on contention. Parent-state
//     recomputation still runs through the ordinary locked fixup.
//
// TBuddy results are always aligned to the block size (hence at least
// page-aligned) — the property the top-level allocator uses to route
// free() calls without a shared ownership table.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/config.hpp"
#include "obs/stats.hpp"
#include "sync/bulk_semaphore.hpp"
#include "sync/treiber_stack.hpp"
#include "util/assert.hpp"

namespace toma::alloc {

/// Runtime statistics (monotonic counters; approximate under concurrency).
struct TBuddyStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t failed_allocs = 0;      // allocate() calls that returned null
  std::uint64_t descent_retries = 0;
  std::uint64_t quicklist_hits = 0;     // allocations served by a quicklist
  std::uint64_t quicklist_misses = 0;   // pops on an empty quicklist
  std::uint64_t quicklist_spills = 0;   // frees over the high-water mark
  std::uint64_t quicklist_flushes = 0;  // cached blocks pushed through the
                                        // real free path (spill/trim/pressure)
  std::uint64_t quicklist_cached = 0;   // blocks cached right now
  std::uint64_t cas_claims = 0;         // descent claims won by the fast CAS
  std::uint64_t lock_claims = 0;        // ...that took the (parent,node) locks
};

class TBuddy {
 public:
  /// Manage `pool_bytes` (a power of two multiple of `page_size`) starting
  /// at `pool` (aligned to pool_bytes). Metadata lives on the host heap.
  /// With `initially_empty` the tree starts with *no* available memory
  /// (every node Busy, no semaphore units): GpuAllocator's backing store
  /// injects each mapped chunk via inject_block(), so unmapped regions are
  /// simply absent from the accounting and can never be handed out.
  TBuddy(void* pool, std::size_t pool_bytes, std::size_t page_size = 4096,
         bool initially_empty = false);

  TBuddy(const TBuddy&) = delete;
  TBuddy& operator=(const TBuddy&) = delete;

  /// Allocate a block of `page_size << order` bytes; nullptr when the pool
  /// cannot supply one (true exhaustion at that order, not false resource
  /// starvation — see paper §3.1).
  void* allocate(std::uint32_t order);

  /// Convenience: allocate the smallest order covering `bytes`.
  void* allocate_bytes(std::size_t bytes);

  /// Free a block previously returned by allocate. The order is recovered
  /// from the per-page side table (and double frees are detected).
  void free(void* p);

  /// Byte size of the live allocation starting at `p` (asserts that `p`
  /// is a live TBuddy allocation).
  std::size_t allocation_size(const void* p) const;

  /// Runtime knob for the per-order quicklist front-end (default:
  /// heap_defaults()). Turning it off flushes every cached block through
  /// the real free path, so the paper-faithful configuration is reachable
  /// at any quiescent point.
  void set_quicklist(bool on) {
    quicklist_on_.store(on, std::memory_order_relaxed);
    if (!on) flush_quicklists();
  }
  bool quicklist_enabled() const {
    return quicklist_on_.load(std::memory_order_relaxed);
  }

  /// Flush every quicklist: cached blocks re-enter the tree through the
  /// merging free path, re-forming maximal blocks. Returns blocks flushed.
  /// Safe to call concurrently with allocation. GpuAllocator::trim() calls
  /// this after UAlloc's scavenge so returned chunks coalesce too.
  std::size_t trim() { return flush_quicklists(); }

  /// Blocks currently cached in the quicklist of `order` (tests, stats).
  std::uint32_t quicklist_count(std::uint32_t order) const {
    TOMA_ASSERT(order <= max_order_);
    return quicklists_[order].count();
  }

  /// Ablation knob (bench/abl_tbuddy_scatter): disable the randomized
  /// descent so every thread probes the tree leftmost-first, reproducing
  /// the collision-prone traversal the paper's scattering avoids.
  void set_scatter(bool on) { scatter_ = on; }

  /// Simulation knob: scheduling points per tree level during the
  /// descent, modeling the dependent global-memory reads of node states
  /// on real hardware. 0 (default) keeps descents atomic under the
  /// cooperative scheduler, which hides claim collisions entirely; the
  /// scatter ablation sets 1 so concurrent descents actually interleave.
  void set_descent_latency(std::uint32_t yields_per_level) {
    descent_latency_ = yields_per_level;
  }

  /// Donate a block (page_size << order bytes at `p`, aligned to its own
  /// size) to the tree as free memory. Used by GpuAllocator's backing store
  /// after mapping a chunk: the block enters through the merging free
  /// path, so contiguous injected chunks coalesce into maximal blocks.
  /// No allocation/free statistics are touched.
  void inject_block(void* p, std::uint32_t order);

  /// Claim a whole free block of exactly `order` back out of the tree
  /// (nullptr when none is available at that order right now). The block
  /// leaves the accounting entirely — no allocation record, no stats —
  /// and must be returned with inject_block() if it is not unmapped.
  /// Used by the backing store's shrink: extracting at the largest
  /// available order first returns coalesced multi-chunk spans whole.
  void* try_extract_block(std::uint32_t order);

  /// Claim the free block *containing* the `order`-sized region at `p`
  /// (which must be aligned to that order). Walks the node's ancestor
  /// chain for an Available node — the region may sit inside a larger
  /// coalesced free block — and claims it whole; *out_order receives the
  /// claimed block's order (>= `order`). Returns nullptr when no
  /// containing block is free right now (some block inside the region is
  /// live, or a racing claim won). Same no-accounting contract as
  /// try_extract_block. Used by incremental defrag to retire a specific
  /// chunk: success here *proves* the chunk holds no live blocks.
  void* try_extract_containing(const void* p, std::uint32_t order,
                               std::uint32_t* out_order);

  std::uint32_t max_order() const { return max_order_; }
  std::size_t page_size() const { return page_size_; }
  std::size_t pool_bytes() const { return pool_bytes_; }
  void* pool_base() const { return pool_; }

  /// Does `p` lie inside the managed pool?
  bool contains(const void* p) const {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const auto b = reinterpret_cast<std::uintptr_t>(pool_);
    return a >= b && a < b + pool_bytes_;
  }

  /// Available blocks currently accounted at `order` (semaphore C value).
  std::uint64_t available(std::uint32_t order) const;

  /// Total free bytes accounted across all orders.
  std::size_t free_bytes() const;

  /// Size of the largest block allocatable right now (0 if none) — the
  /// external-fragmentation probe used by the ablation benchmarks.
  std::size_t largest_free_block() const;

  TBuddyStats stats() const;

  /// Test hook: walk the whole tree and verify both paper invariants plus
  /// semaphore/tree agreement. Must be called on a quiescent allocator.
  /// Returns true when consistent (details go to stderr otherwise).
  bool check_consistency() const;

 private:
  enum State : std::uint8_t { kBusy = 0, kAvailable = 1, kPartial = 2 };
  static constexpr std::uint8_t kStateMask = 0x3;
  static constexpr std::uint8_t kLockBit = 0x4;

  // --- node helpers (tree is 1-indexed; parent(i) = i/2) -----------------
  std::uint32_t node_count() const { return 2u << max_order_; }
  static std::uint32_t parent_of(std::uint32_t i) { return i >> 1; }
  static std::uint32_t sibling_of(std::uint32_t i) { return i ^ 1; }
  static std::uint32_t left_child(std::uint32_t i) { return i << 1; }
  std::uint32_t height_of(std::uint32_t i) const;
  /// First node index at height h.
  std::uint32_t level_base(std::uint32_t h) const {
    return 1u << (max_order_ - h);
  }
  void* node_addr(std::uint32_t i) const;
  std::uint32_t node_at(const void* p, std::uint32_t order) const;

  State state_of(std::uint32_t i) const;
  void lock_node(std::uint32_t i);
  void unlock_node(std::uint32_t i);
  void set_state_locked(std::uint32_t i, State s);

  /// Derived state of an interior node from its (lock-frozen) children.
  State derive(std::uint32_t i) const;

  /// Recompute ancestor states starting at `i`, hand-over-hand upward,
  /// stopping as soon as a recomputation is a no-op.
  void fixup_from(std::uint32_t i);

  /// Claim an Available node (-> Busy) under (parent, node) locks.
  bool try_claim(std::uint32_t i);
  /// Descent claim: optimistic CAS Available->Busy first (when enabled),
  /// falling back to try_claim. On success the parent is recomputed
  /// through the ordinary locked fixup either way.
  bool claim_candidate(std::uint32_t i);
  /// Scattered descent for an Available node of height `order`; retries
  /// until claimed (unit-holder guarantee). Returns the node index.
  std::uint32_t find_and_claim(std::uint32_t order);

  /// Free-side merge cascade; consumes ownership of node `i` at `order`.
  void free_block(std::uint32_t i, std::uint32_t order);

  /// allocate() without the failure count: quicklist pop, exhaustion
  /// verdict, tree path, and the pressure flush and retry. The split path
  /// recurses through it, so a failed request counts once.
  void* take(std::uint32_t order);

  /// No order >= `order` has available or expected units in its
  /// semaphore, read from the root down: the tree path must fail. With
  /// every quicklist empty too, and a second scan still empty, take()
  /// returns nullptr at once (the exhaustion verdict) instead of
  /// recursing through every higher order.
  bool tree_empty_from(std::uint32_t order) const;

  /// The tree path of take(): semaphore wait, descent claim or
  /// recursive split. nullptr on exhaustion (the caller may flush the
  /// quicklists and retry).
  void* allocate_from_tree(std::uint32_t order);

  /// Record the per-page allocation order for a block base.
  void record_allocation(void* p, std::uint32_t order);

  /// Clear the record of the block at `p` (page aligned, inside the pool)
  /// and return its order. Aborts when no allocation is recorded there:
  /// a double free or a foreign pointer.
  std::uint32_t clear_allocation(void* p);

  /// Pop the quicklist of `order`; nullptr on empty (counts hit/miss).
  void* quicklist_pop(std::uint32_t order);

  /// Flush the quicklist of `order` down to `target` cached blocks through
  /// the merging free path. Returns blocks flushed.
  std::size_t flush_quicklist(std::uint32_t order, std::uint32_t target);

  /// Flush every quicklist completely. Returns blocks flushed.
  std::size_t flush_quicklists();

  void* pool_;
  std::size_t pool_bytes_;
  std::size_t page_size_;
  std::uint32_t max_order_;
  bool scatter_ = true;
  std::uint32_t descent_latency_ = 0;

  std::vector<std::uint8_t> node_state_;       // state+lock byte per node
  std::vector<std::uint8_t> order_of_page_;    // 0xFF = no allocation start
  std::vector<std::unique_ptr<sync::BulkSemaphore>> sems_;  // per order

  // Quicklist front-end: one bounded Treiber stack per order, all linking
  // through one shared per-node successor array (a node index is unique
  // across orders, so each node lives in at most one stack).
  std::atomic<bool> quicklist_on_{heap_defaults().quicklist};
  std::unique_ptr<sync::TreiberStack[]> quicklists_;   // [max_order_ + 1]
  std::unique_ptr<std::atomic<std::uint32_t>[]> ql_links_;  // [node_count()]

  /// Exact statistics, one block per obs shard (obs/stats.hpp), and
  /// their registry names (nullptr: not exported).
  enum Stat : std::uint32_t {
    kAllocs,
    kFrees,
    kSplits,
    kMerges,
    kFailed,
    kRetries,
    kQlHits,
    kQlMisses,
    kQlSpills,
    kQlFlushes,
    kCasClaims,
    kLockClaims,
    kLockContended,
    kPressureFlushes,
    kNumPlainStats
  };
  static constexpr const char* kStatNames[kNumPlainStats] = {
      nullptr,
      nullptr,
      "tbuddy.split",
      "tbuddy.merge",
      nullptr,
      "tbuddy.descent_retry",
      "tbuddy.quicklist.hit",
      "tbuddy.quicklist.miss",
      "tbuddy.quicklist.spill",
      "tbuddy.quicklist.flush",
      "tbuddy.claim.cas_fast",
      "tbuddy.claim.lock_slow",
      "tbuddy.lock_contended",
      "tbuddy.quicklist.pressure_flush",
  };
  /// The per-order semaphore outcomes, one field per order, exported as
  /// `name[order]`. The 24-bit C field of a BulkSemaphore bounds the
  /// pages, and so max_order_, below kSemOrders.
  static constexpr std::uint32_t kSemOrders = 24;
  enum SemStat : std::uint32_t { kSemAcquired, kSemGrow, kNumSemStats };
  static constexpr const char* kSemStatNames[kNumSemStats] = {
      "tbuddy.sem_acquired", "tbuddy.sem_grow"};
  static constexpr std::size_t sem_stat(SemStat f, std::uint32_t order) {
    return kNumPlainStats + f * kSemOrders + order;
  }
  static constexpr std::size_t kNumStats =
      kNumPlainStats + kNumSemStats * kSemOrders;
  void collect(obs::CounterTotals& out) const;

  obs::ShardedStats<kNumStats> st_;
  obs::StatsSource stats_source_{
      [this](obs::CounterTotals& out) { collect(out); }};
};

}  // namespace toma::alloc
