// UAlloc: the fine-grained UnAligned Allocator (paper §4.2).
//
// Memory layout (all constants in alloc/config.hpp):
//
//   arena  — one per SM; holds per-size-class bin free-lists and the
//            chunk list. A thread allocates from the arena of the SM it
//            runs on (the host thread's ordinal outside a kernel).
//   chunk  — 512 KB from TBuddy, 512 KB aligned, split into 64 bins.
//            Bin 0 starts with the 128 B chunk header; the remaining
//            3,968 B of bins 0 and 1 are 62 tail slots of 128 B, one per
//            data bin (bins 2..63).
//   bin    — 4 KB, 4 KB aligned. 128 B header (512-bit occupancy bitmap +
//            metadata), 3,968 B payload. For size classes <= 128 B the
//            bin's tail is logically appended, making the payload a full
//            4 KB — no space is lost to the header.
//
// Because every bin's first 128 B are metadata, no UAlloc block is ever
// 4 KB aligned; TBuddy blocks always are. free() routes on that bit.
//
// Concurrency design (the part the paper's §3/§4 techniques exist for):
//
//   * Per (arena, class) accounting: a bulk semaphore counts claimable
//     blocks across the class's listed bins (batch = bin capacity).
//     wait() == kAcquired guarantees a claimable block exists; the thread
//     traverses the bin list under RCU and claims bitmap bits lock-free.
//     wait() == kMustGrow makes the thread construct a *new bin*.
//   * Bin lists are RCU doubly-linked lists: exhausted bins are unlinked
//     by writers and become reusable only after a grace period — the
//     deferred step travels through the *conditional* RCU barrier, i.e.
//     it is delegated to an already-waiting thread whenever possible.
//   * Bin slots inside chunks use the same two-stage scheme (a per-arena
//     bulk semaphore over chunk bitmaps, batch = 62); growing allocates a
//     fresh chunk from TBuddy under the chunk list's *collective mutex*,
//     so warp-mates needing chunks enter the critical section together.
//   * Freed blocks are published with a parked-unit protocol: the freeing
//     thread clears the bitmap bit, parks one unit on the bin under its
//     cold lock, and the first actor that observes the bin in a stable
//     list state (LISTED or UNLISTED->relist) converts parked units into
//     semaphore signals.
//     This keeps the invariant "semaphore value == claimable blocks in
//     listed bins" across unlink/relist races with a tiny per-bin
//     cold-path lock instead of a global one.
//   * Fully-free bins retire their slot back to the chunk; fully-free
//     chunks retire back to TBuddy — both opportunistically, gated by
//     try_wait so accounting never goes negative (no false starvation,
//     no phantom units).
//   * In front of all of the above sits a per-(arena, class) *magazine*
//     (not in the paper): a bounded LIFO of claimed blocks whose bitmap
//     bits stay claimed while cached. Steady-state malloc/free churn on
//     one SM becomes a constant-time push/pop that never touches the
//     semaphore, the RCU lists, or the parked-unit protocol. The hot
//     small classes (8..64 B) also stock their magazine by slab-grained
//     refills (one bulk-semaphore transaction per slab). A push past the
//     capacity spills through the normal free path, and release_cached()
//     (called by trim) flushes everything back into the accounting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/config.hpp"
#include "alloc/tbuddy.hpp"
#include "gpusim/warp.hpp"
#include "obs/stats.hpp"
#include "sync/bulk_semaphore.hpp"
#include "sync/collective_mutex.hpp"
#include "sync/rcu.hpp"
#include "sync/rcu_list.hpp"
#include "sync/spin_mutex.hpp"
#include "util/atomic_bitmap.hpp"
#include "util/intrusive_list.hpp"

namespace toma::alloc {

struct ChunkHeader;
class UAlloc;

/// Listing state of a bin relative to its size-class free-list.
enum class BinState : std::uint32_t {
  kUnlisted = 0,   // not in the list; relinkable
  kListed = 1,     // reachable by readers
  kDraining = 2,   // unlinked (exhausted), grace period pending
  kRelisting = 3,  // being re-inserted
  kRetiring = 4,   // unlinked (fully free), slot being returned
};

/// 128-byte header at the start of every bin, placement-initialized in
/// pool memory.
struct BinHeader {
  std::uint64_t bitmap_words[8];  // 1 = block in use
  sync::RcuListNode list_node;    // size-class free-list linkage
  sync::RcuCallback rcu_cb;       // deferred unlink completion / retire
  ChunkHeader* chunk;             // owning chunk (for arena backpointer)
  std::atomic<std::uint32_t> free_count;  // claimable (signaled) blocks
  std::atomic<std::uint32_t> parked;      // freed blocks not yet signaled
  std::atomic<BinState> state;
  sync::SpinMutex cold_lock;      // serializes list-state transitions
  bool retire_even_if_last;       // trim() override of retire hysteresis
  std::uint8_t size_class;
  std::uint8_t bin_index;         // within chunk, 2..63
  std::uint16_t capacity;

  util::AtomicBitmapRef bitmap() {
    return util::AtomicBitmapRef(bitmap_words, capacity);
  }
};
static_assert(sizeof(BinHeader) <= kBinHeaderSize,
              "bin header must fit in 128 bytes");

/// 128-byte header at the start of every chunk (bin 0, offset 0).
struct ChunkHeader {
  std::uint64_t bin_bitmap_word;  // 1 = bin slot in use; bits 0,1 pre-set
  /// 1 = bin header fully initialized. A slot is CLAIMED (bit set in
  /// bin_bitmap_word, under the chunk mutex) before create_bin writes
  /// the header fields outside that lock; the bit here is set with
  /// release order only after those writes, and cleared before the slot
  /// is released. snapshot_bins_in() — the one header reader that walks
  /// the bitmap rather than the RCU list — reads claimed & published, so
  /// it never observes a header mid-initialization.
  std::uint64_t bin_published_word;
  util::ListNode chunk_node;      // arena chunk list linkage
  class Arena* arena;             // owning arena
  std::uint32_t magic;

  util::AtomicBitmapRef bin_bitmap() {
    return util::AtomicBitmapRef(&bin_bitmap_word, kBinsPerChunk);
  }
  static constexpr std::uint32_t kMagic = 0x75616c6cu;  // "uall"
};
static_assert(sizeof(ChunkHeader) <= kBinHeaderSize,
              "chunk header must fit in 128 bytes");

/// Bounded per-(arena, size-class) LIFO cache of claimed blocks — the
/// constant-time front end of the allocator (not in the paper; see
/// docs/INTERNALS.md §4b). Its bound, spill mark and refill policy come
/// from kMagazinePolicy; the owning Arena and UAlloc apply them.
///
/// A cached block is, to the bin machinery, still *allocated*: its bitmap
/// bit stays claimed, its bin's free_count excludes it, and no semaphore
/// unit exists for it. push/pop therefore commute with every invariant in
/// this file — the magazine only defers the moment a block re-enters (or
/// leaves) the accounting protocol.
///
/// Blocks are linked through their own (dead) payload — every UAlloc class
/// is >= 8 B and 8-byte aligned, so the first word holds the next pointer
/// for free. Push and pop are two pointer writes under a per-magazine spin
/// lock; the lock is private to one (arena, class), so in the steady state
/// it is uncontended and the whole operation is constant-time. All next-
/// pointer accesses happen under the lock, which also orders them against
/// the application's own stores into a block it just obtained (the popping
/// thread's acquire pairs with the pushing thread's release). Cache-line
/// aligned so neighbouring magazines never false-share.
class alignas(64) Magazine {
 public:
  /// Cache `p` unless the magazine already holds `cap` blocks; false when
  /// full — the caller spills `p` through the normal free path.
  bool push(void* p, std::uint32_t cap) {
    sync::LockGuard<sync::SpinMutex> g(mu_);
    if (count_.load(std::memory_order_relaxed) >= cap) return false;
    *static_cast<void**>(p) = head_;
    head_ = p;
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Splice a pre-linked chain of `n` blocks (`first` .. `last`) in O(1);
  /// returns the count after the splice.
  std::uint32_t push_chain(void* first, void* last, std::uint32_t n) {
    sync::LockGuard<sync::SpinMutex> g(mu_);
    *static_cast<void**>(last) = head_;
    head_ = first;
    return count_.fetch_add(n, std::memory_order_relaxed) + n;
  }

  /// Most recently cached block, or nullptr when empty. The empty check is
  /// a single relaxed load so a cold magazine costs one cache probe.
  void* pop() {
    if (count_.load(std::memory_order_relaxed) == 0) return nullptr;
    sync::LockGuard<sync::SpinMutex> g(mu_);
    void* p = head_;
    if (p == nullptr) return nullptr;
    head_ = *static_cast<void**>(p);
    count_.fetch_sub(1, std::memory_order_relaxed);
    return p;
  }

  /// Detach the whole chain (head first, linked through the blocks);
  /// the count drops to zero.
  void* pop_all() {
    sync::LockGuard<sync::SpinMutex> g(mu_);
    void* p = head_;
    head_ = nullptr;
    count_.store(0, std::memory_order_relaxed);
    return p;
  }

  /// Cached blocks right now (approximate under concurrency, exact when
  /// quiescent — same contract as every other statistics read here).
  std::uint32_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Copy of the cached blocks, top first (consistency checks, tests).
  std::vector<void*> snapshot() const {
    sync::LockGuard<sync::SpinMutex> g(mu_);
    std::vector<void*> out;
    for (void* p = head_; p != nullptr; p = *static_cast<void**>(p)) {
      out.push_back(p);
    }
    return out;
  }

  /// Single-refiller gate. A fiber that yields inside a refill's semaphore
  /// wait would otherwise let every thread that missed the same empty
  /// magazine fetch its own slab, ballooning the stock far past capacity.
  bool try_begin_refill() {
    return !refilling_.exchange(true, std::memory_order_acquire);
  }
  void end_refill() { refilling_.store(false, std::memory_order_release); }

 private:
  mutable sync::SpinMutex mu_;
  void* head_ = nullptr;
  std::atomic<std::uint32_t> count_{0};
  std::atomic<bool> refilling_{false};
};

/// Per-(arena, size class) structures.
struct SizeClassState {
  explicit SizeClassState(sync::SrcuDomain& dom) : bins(dom) {}
  sync::BulkSemaphore blocks;  // claimable blocks across listed bins
  sync::RcuList bins;          // bins with (potentially) claimable blocks
  std::atomic<std::uint32_t> listed{0};  // bins currently in the list
};

/// One arena; the paper assigns one per SM.
class Arena {
 public:
  Arena(UAlloc& parent, std::uint32_t index);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate one block of `cls`: magazine first, then the bins.
  /// `may_refill` lets a miss (or a hit that leaves the stock low) fetch
  /// slabs into this arena's magazine. Only the calling thread's home
  /// arena refills: a sibling probed by the out-of-memory sweep may pop
  /// its stock but never fetches a slab into it.
  void* allocate(std::uint32_t cls, bool may_refill);

  /// Take up to `want` (<= kMagazineMaxSlab) blocks of `cls` from the
  /// bins in ONE bulk-semaphore transaction: the one way blocks leave the
  /// bins (a single block is want = 1, a magazine refill one slab, a warp
  /// group its members' blocks). Returns the number of blocks written to
  /// `out` — `min(want, capacity)` on success, 0 when this arena is out of
  /// memory. Stage 1 is the semaphore wait; stage 2 either a batched claim
  /// over the listed bins or one freshly grown bin whose first slots are
  /// the caller's (a failed grow is signalled to the semaphore).
  std::uint32_t allocate_batch(std::uint32_t cls, void** out,
                               std::uint32_t want);

  UAlloc& parent() { return *parent_; }
  std::uint32_t index() const { return index_; }
  sync::SrcuDomain& rcu() { return rcu_; }

  /// Blocks currently cached in this arena's magazine for `cls` (tests,
  /// stats).
  std::uint32_t magazine_count(std::uint32_t cls) const {
    return magazines_[cls].count();
  }

 private:
  friend class UAlloc;

  /// In-kernel miss shared by warp-mates (paper §2.2: requests of
  /// warp-mates invoking the allocator concurrently are transparently
  /// coalesced). The leader of `g` takes every member's block the way a
  /// lane takes its own: magazine stock first, then ONE batch for the
  /// rest — on a refill class that may refill, a slab of `max(rest,
  /// slab)` blocks taken as refill() takes one, the surplus stocked — and
  /// hands each member its own block. A member the take could not cover
  /// falls back to the single-block take, so the pool's last blocks still
  /// reach lanes one at a time.
  void* allocate_grouped(std::uint32_t cls, bool may_refill,
                         gpu::ThreadCtx& ctx, const gpu::CoalescedGroup& g);

  /// Miss on a refill class, solo (host threads, singleton groups,
  /// coalescing off): refill under the magazine's single-refiller gate. A
  /// caller that finds the gate held gets nullptr and takes the per-block
  /// path.
  void* refill_gated(std::uint32_t cls);

  /// Slab refill: fetch up to `max_batches` slabs (stopping at the
  /// low-water mark), keep one block for the caller, splice the rest into
  /// the magazine. nullptr when no arena had memory for a slab — a single
  /// block can still succeed where a slab could not.
  void* refill(std::uint32_t cls, std::uint32_t max_batches);

  /// Count one slab refill of `taken` blocks and splice its surplus,
  /// `surplus[0, n)`, into the magazine of `cls`. False when frees had
  /// filled the magazine meanwhile and the splice spilled it.
  bool stock(std::uint32_t cls, std::uint32_t taken, void** surplus,
             std::uint32_t n);

  /// Claim `n` (<= kMagazineMaxSlab) blocks from listed bins of `cls`
  /// (caller holds `n` semaphore units). Writes block addresses to `out`;
  /// only returns once all n are claimed (the units guarantee eventual
  /// success). Makes no heap allocation.
  void claim_blocks(std::uint32_t cls, std::uint32_t n, void** out);

  /// The grow path of allocate_batch(): carve a bin slot, initialise the
  /// header with blocks [0, pre_claimed) already taken, list the bin and
  /// publish capacity - pre_claimed claimable units. nullptr on OOM (the
  /// caller owns the semaphore failure signal).
  BinHeader* create_bin(std::uint32_t cls, std::uint32_t pre_claimed);

  /// Claim a bin slot in some chunk of this arena, growing a chunk from
  /// TBuddy if needed. Returns the bin base address or nullptr (OOM).
  void* claim_bin_slot();

  UAlloc* parent_;
  std::uint32_t index_;
  sync::SrcuDomain rcu_;
  Magazine magazines_[kNumSizeClasses];
  std::vector<std::unique_ptr<SizeClassState>> classes_;
  sync::BulkSemaphore bin_slots_;         // free bin slots in chunk list
  util::IntrusiveList<ChunkHeader, &ChunkHeader::chunk_node> chunks_;
  sync::CollectiveMutex chunk_mu_;        // guards chunks_ (collectively)
  sync::SpinMutex list_splice_mu_;        // intra-group splice serialization
};

/// Magazine counters over a range of size classes (UAlloc::magazine_stats).
struct MagazineStats {
  std::uint64_t hits = 0;           // blocks served from a magazine (a
                                    // lane's own pop or its group leader's)
  std::uint64_t misses = 0;         // allocations a magazine missed
  std::uint64_t refills = 0;        // slab refill transactions
  std::uint64_t refill_blocks = 0;  // blocks fetched by refills
  std::uint64_t topups = 0;         // proactive low-stock restocks (on hits)
  std::uint64_t spills = 0;         // pushes that crossed the capacity
  std::uint64_t spill_blocks = 0;   // blocks drained by those spills
  std::uint64_t flushes = 0;        // blocks evicted by release_cached()
  std::uint64_t cached = 0;         // blocks cached right now
};

/// Aggregate UAlloc statistics. `allocs` counts blocks claimed out of the
/// bins (by a caller or by a slab refill) and `frees` blocks published
/// back into them. A cached block stays claimed, so at a quiescent point
/// allocs - frees = live blocks + magazine_cached.
struct UAllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bins_created = 0;
  std::uint64_t bins_retired = 0;
  std::uint64_t chunks_created = 0;
  std::uint64_t chunks_retired = 0;
  std::uint64_t bin_unlinks = 0;
  std::uint64_t bin_relists = 0;
  std::uint64_t list_retries = 0;
  // Magazine counters over every class (MagazineStats, flattened).
  std::uint64_t magazine_hits = 0;
  std::uint64_t magazine_misses = 0;
  std::uint64_t magazine_refills = 0;
  std::uint64_t magazine_refill_blocks = 0;
  std::uint64_t magazine_topups = 0;
  std::uint64_t magazine_spills = 0;
  std::uint64_t magazine_spill_blocks = 0;
  std::uint64_t magazine_flushes = 0;
  std::uint64_t magazine_cached = 0;
  std::uint64_t arena_fallbacks = 0;   // allocations served by a non-home
                                       // arena after the home arena OOM'd
  std::uint64_t coalesced_groups = 0;   // in-kernel warp-group takes
  std::uint64_t coalesced_threads = 0;  // lanes in those groups
};

class UAlloc {
 public:
  /// `num_arenas` is normally the simulated device's SM count.
  /// `use_tails` disables the tail-append optimisation when false (the
  /// A3 ablation: bins of classes <= 128 B then waste their header's
  /// worth of payload, exactly the internal fragmentation §4.2 avoids).
  UAlloc(TBuddy& buddy, std::uint32_t num_arenas, bool use_tails = true);
  ~UAlloc();

  UAlloc(const UAlloc&) = delete;
  UAlloc& operator=(const UAlloc&) = delete;

  /// Allocate a block of power-of-two `size` in [8, 1024] from the
  /// calling thread's arena, falling back to the other arenas when the
  /// home arena is out of chunks. nullptr on pool exhaustion. With
  /// `refill` false the home magazine fetches no slab: defrag's
  /// destination probes use that, since a slab fetched mid-run would
  /// cache blocks a later victim's census counts as live.
  void* allocate(std::size_t size, bool refill = true);

  /// allocate() with an explicit home arena instead of the calling
  /// thread's SM — the same fallback sweep, made deterministic for tests
  /// (and usable by hosts that route by something other than SM id).
  void* allocate_from(std::uint32_t home_arena, std::size_t size,
                      bool refill = true);

  /// Free a block previously returned by allocate (any thread).
  void free(void* p);

  /// Claim up to `want` (<= kMagazineMaxSlab) blocks of class `cls` in
  /// one bulk transaction, preferring `home_arena` and sweeping the other
  /// arenas on OOM (the same sweep as allocate_from). Returns the number
  /// of blocks written to `out`, 0 when every arena is exhausted. All
  /// blocks of one call come from one arena.
  std::uint32_t allocate_batch(std::uint32_t home_arena, std::uint32_t cls,
                               void** out, std::uint32_t want);

  /// Reverse-map `p` to its owning bin and block index (the free()
  /// decode, exposed so GpuAllocator can read the charged size and free
  /// with one decode).
  BinHeader* decode_block(void* p, std::uint32_t* block_idx) const {
    return decode(p, block_idx);
  }

  /// The tail of free(): `p` already decoded to (bin, idx). Magazine
  /// push first (spilling past the capacity), slow publication otherwise.
  void free_decoded(BinHeader* bin, std::uint32_t idx, void* p);

  /// Byte size of the block containing `p` (its size class).
  std::size_t usable_size(void* p) const;

  std::uint32_t num_arenas() const {
    return static_cast<std::uint32_t>(arenas_.size());
  }

  /// Blocks per bin for a class under the current tail configuration.
  std::uint32_t class_capacity(std::uint32_t cls) const {
    if (use_tails_) return bin_capacity(cls);
    return static_cast<std::uint32_t>(kBinDataSize / size_of_class(cls));
  }

  /// Ablation knob: disable the warp-coalesced allocation path (every
  /// in-kernel group take; each lane then misses on its own).
  void set_coalescing(bool on) { coalesce_ = on; }

  /// The one switch for the magazines (default: heap_defaults()). Turning
  /// magazines off flushes every cached block back through the normal free
  /// path, so the paper-faithful configuration is reachable at any
  /// quiescent point.
  void set_magazines(bool on) {
    magazines_on_.store(on, std::memory_order_relaxed);
    if (!on) release_cached();
  }
  bool magazines_enabled() const {
    return magazines_on_.load(std::memory_order_relaxed);
  }

  /// Flush the magazines of classes [first_cls, end_cls) in every arena:
  /// each cached block re-enters the accounting protocol through the
  /// normal free-publication path (clearing its bitmap bit, parking and
  /// signalling a unit, possibly retiring its bin). Returns the number of
  /// blocks flushed. Safe to call concurrently with allocation (each
  /// observed block is flushed exactly once); trim() calls this first so
  /// cached blocks cannot pin otherwise-empty bins or chunks.
  std::size_t release_cached(std::uint32_t first_cls = 0,
                             std::uint32_t end_cls = kNumSizeClasses);
  TBuddy& buddy() { return *buddy_; }
  Arena& arena(std::uint32_t i) { return *arenas_[i]; }

  UAllocStats stats() const;

  /// Magazine counters of classes [first_cls, end_cls).
  MagazineStats magazine_stats(std::uint32_t first_cls = 0,
                               std::uint32_t end_cls = kNumSizeClasses) const;

  /// Scavenge fully-free bins and empty chunks back to TBuddy (the
  /// malloc_trim analogue). Bin/chunk retirement on the free path is
  /// opportunistic — it backs off rather than stall concurrent claimants —
  /// so after heavy churn some empty bins/chunks stay cached; trim()
  /// retires everything that is retirable right now. Safe to call
  /// concurrently with allocation (it simply retires less). Returns the
  /// number of chunks returned to TBuddy.
  std::size_t trim();

  /// Test hook: verify bitmap/free-count/semaphore agreement on a
  /// quiescent allocator. Returns true when consistent.
  bool check_consistency() const;

  // --- defragmentation support (quiescent-point only; INTERNALS.md §8) -----

  /// One carved-out data bin with its live-block census at snapshot time.
  /// Geometry (capacity, size_class) is captured under the census lock so
  /// consumers need not re-read the header after the snapshot returns.
  struct BinOccupancy {
    BinHeader* bin;
    std::uint32_t live;        // bitmap population (claimed blocks)
    std::uint32_t capacity;    // class capacity of the bin
    std::uint32_t size_class;  // bin's size class at snapshot time
  };

  /// Walk every chunk of every arena and census the carved data bins.
  /// Meaningful only while the allocator is quiescent (the defrag
  /// contract); counts include magazine-cached blocks, which is why
  /// defrag flushes the magazines first.
  std::vector<BinOccupancy> snapshot_bins();

  /// Range-restricted census: only bins whose chunk base lies in
  /// [lo, hi). The incremental compactor's per-sweep walk — one victim
  /// chunk, not the whole heap. Unlike snapshot_bins() this tolerates
  /// concurrent traffic: the counts are a racy hint and every consumer
  /// re-validates per block (bitmap test + relocation-prepare veto).
  std::vector<BinOccupancy> snapshot_bins_in(const void* lo, const void* hi);

  /// Address of block `idx` within `bin` (defrag's migration source walk;
  /// the tail-aware private geometry, exposed read-only).
  void* block_address(BinHeader* bin, std::uint32_t idx) const {
    return block_addr(bin, idx);
  }

  /// Defrag's free bypass: publish block `idx` of `bin` through the slow
  /// path, never a magazine — a migrating bin must drain toward empty,
  /// not recycle its blocks into the next allocation.
  void free_for_defrag(BinHeader* bin, std::uint32_t idx) {
    free_slow(bin, idx);
  }

  /// Pin bin headers in [lo, hi) for the incremental compactor: while
  /// the range is set, try_retire_bin refuses bins inside it, so no slot
  /// there can be released, re-claimed, and re-initialized under the
  /// sweep's feet. The sweep reads those headers lock-free; this is what
  /// makes that sound (blocks still allocate from and free into the
  /// range — only bin retirement is held off). Clear with (nullptr,
  /// nullptr) once the chunk leaves kEvacuating; retirement of the
  /// emptied bins then proceeds normally.
  void set_evac_range(const void* lo, const void* hi) {
    evac_lo_.store(reinterpret_cast<std::uintptr_t>(lo),
                   std::memory_order_relaxed);
    evac_hi_.store(reinterpret_cast<std::uintptr_t>(hi),
                   std::memory_order_release);
  }

 private:
  friend class Arena;

  /// The out-of-memory sweep shared by allocate_from and allocate_batch:
  /// `take(arena, is_home)` on the home arena, then on the others in ring
  /// order; the first non-zero result wins, counted as an arena fallback
  /// when a sibling served it. Zero when every arena refused.
  template <typename Take>
  auto sweep(std::uint32_t home_arena, const Take& take);

  // --- magazine policy and counters ----------------------------------------
  /// Spill hysteresis: drain `mag` (class `cls`) down to its low-water
  /// mark through the free-publication path. `spilled` blocks the caller
  /// already published (the one a full magazine refused) count as part of
  /// this spill.
  void spill(Magazine& mag, std::uint32_t cls, std::uint64_t spilled);
  /// Return one cached block to the bin accounting (decode + free_slow).
  void publish(void* p);
  void count_hit(std::uint32_t cls) { st_.add(mag_stat(cls, kMagHits)); }
  void count_miss(std::uint32_t cls) { st_.add(mag_stat(cls, kMagMisses)); }

  // --- bin lifecycle (cold paths) -----------------------------------------
  /// The paper's free path: clear the bitmap bit of block `idx` and
  /// publish the freed block. Taken on magazine spill/flush, or always
  /// when magazines are off.
  void free_slow(BinHeader* bin, std::uint32_t idx);
  /// Publish one freed block of `bin` (bit already cleared): park a unit
  /// under the cold lock and drain.
  void publish_free_block(BinHeader* bin);
  /// Convert parked units into semaphore signals / relists as the bin's
  /// state allows. Called with the cold lock held; releases it.
  void drain_parked(BinHeader* bin);
  /// Called by the claimer that took a bin's last claimable block.
  void maybe_unlink_exhausted(BinHeader* bin);
  /// Attempt to retire a fully-free bin. Called inside drain_parked with
  /// the cold lock held and `unsignaled` parked units just folded into
  /// free_count; on success the cold lock has been released and the
  /// unsignaled units consumed.
  bool try_retire_bin(BinHeader* bin, std::uint32_t unsignaled);
  /// RCU grace-period completions.
  static void drain_grace_cb(sync::RcuCallback* cb);
  static void retire_grace_cb(sync::RcuCallback* cb);
  void finish_drain(BinHeader* bin);
  void finish_retire(BinHeader* bin);
  /// Release a bin slot back to its chunk; retires the chunk when empty.
  void release_bin_slot(BinHeader* bin);
  void maybe_retire_chunk(ChunkHeader* chunk);

  // --- geometry helpers ----------------------------------------------------
  static SizeClassState& class_state(BinHeader* bin);
  static Arena& class_arena(BinHeader* bin);
  static BinHeader* bin_of_node(sync::RcuListNode* n);
  static BinHeader* bin_of_cb(sync::RcuCallback* cb);
  /// Address of block `idx` within `bin` (tail-aware).
  void* block_addr(BinHeader* bin, std::uint32_t idx) const;
  /// Reverse mapping for free(): find owning bin and block index.
  BinHeader* decode(void* p, std::uint32_t* block_idx) const;
  char* chunk_base(const BinHeader* bin) const;

  TBuddy* buddy_;
  bool use_tails_;
  bool coalesce_ = true;
  std::atomic<bool> magazines_on_{heap_defaults().magazines};

  // Evacuation range (see set_evac_range): bins here are retire-pinned.
  std::atomic<std::uintptr_t> evac_lo_{0};
  std::atomic<std::uintptr_t> evac_hi_{0};
  std::vector<std::unique_ptr<Arena>> arenas_;

  // --- exact statistics (obs/stats.hpp) ------------------------------------
  enum Stat : std::uint32_t {
    kAllocs,
    kFrees,
    kBinsCreated,
    kBinsRetired,
    kChunksCreated,
    kChunksRetired,
    kBinUnlinks,
    kBinRelists,
    kListRetries,
    kArenaFallbacks,
    kCoalescedGroups,
    kCoalescedThreads,
    kBinHits,
    kBinMisses,
    kNumPlainStats
  };
  static constexpr const char* kStatNames[kNumPlainStats] = {
      nullptr,
      nullptr,
      "ualloc.bin_create",
      "ualloc.bin_retire",
      "ualloc.chunk_fetch",
      "ualloc.chunk_retire",
      "ualloc.bin_unlink",
      "ualloc.bin_relist",
      "ualloc.list_retry",
      "ualloc.arena_fallback",
      "ualloc.coalesced_groups",
      "ualloc.coalesced_threads",
      "ualloc.bin_hit",
      "ualloc.bin_miss",
  };
  /// The magazine counters, one set per size class (MagazineStats minus
  /// the `cached` census); exported summed over the classes.
  enum MagStat : std::uint32_t {
    kMagHits,
    kMagMisses,
    kMagRefills,
    kMagRefillBlocks,
    kMagTopups,
    kMagSpills,
    kMagSpillBlocks,
    kMagFlushes,
    kNumMagStats
  };
  static constexpr const char* kMagStatNames[kNumMagStats] = {
      "ualloc.magazine.hit",          "ualloc.magazine.miss",
      "ualloc.magazine.refill",       "ualloc.magazine.refill_blocks",
      "ualloc.magazine.topup",        "ualloc.magazine.spill",
      "ualloc.magazine.spill_blocks", "ualloc.magazine.flush",
  };
  static constexpr std::size_t mag_stat(std::uint32_t cls, MagStat f) {
    return kNumPlainStats + cls * kNumMagStats + f;
  }
  static constexpr std::size_t kNumStats =
      kNumPlainStats + kNumSizeClasses * kNumMagStats;
  void collect(obs::CounterTotals& out) const;

  mutable obs::ShardedStats<kNumStats> st_;
  obs::StatsSource stats_source_{
      [this](obs::CounterTotals& out) { collect(out); }};
};

}  // namespace toma::alloc
