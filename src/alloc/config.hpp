// Allocator geometry (paper §4).
//
// All constants follow the paper:
//   page      4 KB   — TBuddy order-0 block; also the UAlloc bin size
//   chunk   256 KB   — UAlloc arena granule, carved out of TBuddy
//   bin       4 KB   — fixed-size-class block container, 128 B header
//   tail     128 B   — per-bin spill space living in bins 0/1 of the chunk
//   min allocation 8 B, UAlloc classes 8..1024 B (2 KB rounds to 4 KB:
//   a bin cannot hold two 2 KB blocks — the paper's degenerate case)
//
// NOTE on the chunk size: the paper says chunks are 512 KB, but its own
// layout — a single one-word bitmap "to track the state of the 64 bins in
// the chunk", two header bins, and 62 tails of 128 B (= exactly the
// payload of those two bins) — pins the chunk at 64 x 4 KB = 256 KB.
// 512 KB / 4 KB would be 128 bins and would need 126 tails and a two-word
// bitmap. We implement the precisely-specified 64-bin structure and treat
// the stated 512 KB as the paper's internal inconsistency (see DESIGN.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/bitops.hpp"

namespace toma::alloc {

inline constexpr std::size_t kPageSize = 4096;
inline constexpr std::size_t kChunkSize = 256 * 1024;
inline constexpr std::size_t kBinSize = kPageSize;
inline constexpr std::size_t kBinHeaderSize = 128;
inline constexpr std::size_t kTailSize = 128;
inline constexpr std::size_t kMinAlloc = 8;
inline constexpr std::size_t kMaxUAllocSize = 1024;

inline constexpr std::uint32_t kBinsPerChunk =
    static_cast<std::uint32_t>(kChunkSize / kBinSize);          // 64
inline constexpr std::uint32_t kHeaderBins = 2;                 // bins 0 and 1
inline constexpr std::uint32_t kDataBins = kBinsPerChunk - kHeaderBins;  // 62
inline constexpr std::size_t kBinDataSize = kBinSize - kBinHeaderSize;  // 3968
/// Logical bin payload once its tail is appended (sizes <= 128 B only).
inline constexpr std::size_t kBinLogicalSize = kBinDataSize + kTailSize;  // 4096

/// Number of UAlloc size classes: 8, 16, 32, 64, 128, 256, 512, 1024.
inline constexpr std::uint32_t kNumSizeClasses = 8;

/// Size class index for a (power-of-two) size in [8, 1024].
constexpr std::uint32_t size_class_of(std::size_t pow2_size) {
  return util::log2_floor(pow2_size) - util::log2_floor(kMinAlloc);
}

/// Block size of a size class.
constexpr std::size_t size_of_class(std::uint32_t cls) {
  return kMinAlloc << cls;
}

/// Blocks a bin of class `cls` can hold. Classes whose block fits in a
/// tail slot (<= 128 B) use the full logical 4 KB; larger classes only the
/// 3968 B physical payload. (1 KB -> 3 blocks; the paper's moderate-failure
/// sizes. 2 KB would be 1 block, which is why it rounds to 4 KB instead.)
constexpr std::uint32_t bin_capacity(std::uint32_t cls) {
  const std::size_t s = size_of_class(cls);
  return static_cast<std::uint32_t>(s <= kTailSize ? kBinLogicalSize / s
                                                   : kBinDataSize / s);
}

/// TBuddy order for an allocation of `bytes` (bytes > kMaxUAllocSize*2
/// rounds up to pages). Order 0 is one page.
constexpr std::uint32_t order_for_bytes(std::size_t bytes) {
  const std::size_t pages =
      (bytes + kPageSize - 1) / kPageSize;
  return util::log2_ceil(pages);
}

/// TBuddy order of one UAlloc chunk (256 KB / 4 KB = 64 pages = order 6).
inline constexpr std::uint32_t kChunkOrder = 6;

// --- magazines: the small-block cache (not in the paper; INTERNALS.md §4b) -
//
// Each (arena, size class) keeps a bounded LIFO of claimed blocks in front
// of the bulk-semaphore/RCU bin machinery. A cached block's bitmap bit
// stays *claimed*, so the invariant "semaphore value == claimable blocks
// in listed bins" never sees cached blocks at all. The hot small classes
// (8..64 B) also stock their magazine ahead of demand with slab-grained
// refills, after Blelloch & Wei, "Concurrent Fixed-Size Allocation and
// Free in Constant Time" (arXiv:2008.04296): one bulk-semaphore
// transaction buys a whole slab of blocks.

/// Per-class magazine policy.
struct MagazinePolicy {
  /// Cached-block bound. A push that crosses it spills the magazine.
  std::uint32_t capacity;
  /// A spill drains the magazine down to this mark through the paper's
  /// free path; a refill stocks it up to here, no further.
  std::uint32_t low_water;
  /// Blocks fetched per bulk-semaphore transaction by a refill; 0 = the
  /// class never refills (its stock comes from frees only).
  std::uint32_t slab;
  /// A hit that leaves fewer blocks cached than this restocks the
  /// magazine (top-up); 0 = never.
  std::uint32_t top_up;
};

/// The policy table, one row per size class.
///
///   8..64 B   capacity two bins' worth but never under 256 blocks (a
///             magazine that buffers only a few warps' worth drains empty
///             between refills); spill hysteresis to half capacity, so one
///             crossing buys cap/2 further O(1) frees; a slab is one bin,
///             at most kMagazineMaxSlab blocks, so a refill claims a
///             freshly grown bin outright; top-up below a quarter.
///   128 B+    capacity two bins' worth, stocked by frees only. A push past
///             capacity spills exactly the block just pushed.
inline constexpr MagazinePolicy kMagazinePolicy[kNumSizeClasses] = {
    //  cap  low  slab  top-up     bin capacity
    {1024, 512, 256, 256},  //  8 B     512
    {512, 256, 256, 128},   //  16 B    256
    {256, 128, 128, 64},    //  32 B    128
    {256, 128, 64, 64},     //  64 B     64
    {64, 64, 0, 0},         //  128 B    32
    {30, 30, 0, 0},         //  256 B    15
    {14, 14, 0, 0},         //  512 B     7
    {6, 6, 0, 0},           //  1 KiB     3
};

/// Largest refill slab: sizes the stack-local transfer array of a refill
/// (256 pointers = 2 KB on a fiber stack).
inline constexpr std::uint32_t kMagazineMaxSlab = 256;

/// Bulk transactions per refill. The loop stops early once the magazine
/// reaches its low-water mark, so this is a ceiling, not a quota.
inline constexpr std::uint32_t kMagazineRefillBatches = 4;

/// Size classes whose magazines refill by slabs (8, 16, 32, 64 B).
inline constexpr std::uint32_t kMagazineRefillClasses = 4;

/// Does a request of rounded size `rounded` land in a class whose magazine
/// refills by slabs? (Pool's stream routing keys on this.)
constexpr bool magazine_refills(std::size_t rounded) {
  return rounded >= kMinAlloc && rounded <= kMaxUAllocSize &&
         kMagazinePolicy[size_class_of(rounded)].slab != 0;
}

// --- TBuddy quicklist front-end (not in the paper; docs/INTERNALS.md §4c) --
//
// Each TBuddy order keeps a bounded Treiber stack of recently freed blocks
// whose tree nodes stay *Busy* and whose semaphore units stay consumed, so
// the invariant "semaphore value == Available blocks in the tree" never
// sees cached blocks at all. Free pushes instead of cascading merges
// (deferred coalescing); allocate pops before touching the semaphore or
// the tree. Merges run only when the per-order high-water mark is hit or
// when trim()/pool pressure demands the memory back.

/// High-water mark (cached-block cap) of one per-order quicklist. A flat
/// cap would let large orders strand megabytes, so the cap also shrinks
/// with the share of the pool one order can hold: at most half the blocks
/// that exist at that order. The root order caps at 0 — caching the whole
/// pool would pin every byte while reporting nothing allocatable.
inline constexpr std::uint32_t kQuicklistHighWater = 32;

constexpr std::uint32_t quicklist_capacity(std::uint32_t order,
                                           std::uint32_t max_order) {
  const std::uint32_t blocks_at_order = 1u << (max_order - order);
  const std::uint32_t half = blocks_at_order / 2;
  return half < kQuicklistHighWater ? half : kQuicklistHighWater;
}

/// Hysteresis: a spill (push on a full quicklist) flushes the list down to
/// the low-water mark through the real free path, so one crossing of the
/// high-water mark buys cap/2 further O(1) frees before the next flush.
constexpr std::uint32_t quicklist_low_water(std::uint32_t cap) {
  return cap / 2;
}

// --- stream-ordered front-end (not in the paper; docs/INTERNALS.md §6) -----
//
// Per-(pool, stream) deferred free lists in front of the whole allocator:
// free_async parks the block on its stream (bitmap bit / tree node / quota
// charge stay claimed — the magazines' invariant trick one layer up), and
// the batch drains through the normal free path at the stream's next sync
// point. malloc_async may reuse a same-stream pending block directly:
// stream order guarantees the old use finished before the new one starts,
// the same observation cudaMallocAsync's memory pools exploit.

/// Deferred frees one (pool, stream) slot may hold before free_async
/// drains it inline — bounds how much memory pending batches can strand
/// on a stream that never synchronizes.
inline constexpr std::uint32_t kStreamPendingCap = 4096;

// --- elastic virtual backing store (not in the paper; docs/INTERNALS.md §8) -
//
// The pool's address range is reserved up front (PROT_NONE) but physical
// chunks are mapped on demand — the host-side analogue of the CUDA VMM
// API (cuMemAddressReserve/cuMemMap). TBuddy starts with an *empty* tree;
// each mapped backing chunk is injected as a free block, so an unmapped
// region is simply absent from the accounting (Busy, recordless, no
// semaphore unit) and can never be handed out or merged into.

/// Default backing-chunk granule as a divisor of the pool size: pool/64
/// tracks the pool's scale (64 MiB pool -> 1 MiB chunks), clamped to
/// [kVmmMinChunkBytes, kVmmMaxDefaultChunkBytes]. A backing chunk must be
/// a power-of-two multiple of the UAlloc chunk (256 KB) so whole UAlloc
/// chunks — and every smaller buddy block, by alignment — never straddle
/// an unmapped boundary.
inline constexpr std::size_t kVmmChunkDivisor = 64;
inline constexpr std::size_t kVmmMinChunkBytes = kChunkSize;       // 256 KB
inline constexpr std::size_t kVmmMaxDefaultChunkBytes = 4u << 20;  // 4 MB

/// Resolve the backing-chunk size for a pool (0 = auto).
constexpr std::size_t vmm_chunk_bytes_for(std::size_t pool_bytes,
                                          std::size_t requested) {
  if (requested != 0) return requested;
  std::size_t c = pool_bytes / kVmmChunkDivisor;
  if (c < kVmmMinChunkBytes) c = kVmmMinChunkBytes;
  if (c > kVmmMaxDefaultChunkBytes) c = kVmmMaxDefaultChunkBytes;
  if (c > pool_bytes) c = pool_bytes;
  return c;
}

/// Defragmentation victim threshold: a backing chunk is evacuation-worthy
/// when its live bytes fill strictly less than this fraction of the chunk
/// (numerator/denominator to stay constexpr-friendly). Fuller chunks are
/// keepers — they serve as compaction destinations.
inline constexpr std::uint32_t kVmmDefragOccupancyNum = 1;
inline constexpr std::uint32_t kVmmDefragOccupancyDen = 2;

/// Incremental defrag: bytes one defrag_step(0) evacuates by default.
/// Sized so a step stays well under a scheduler quantum — the point of
/// incremental compaction is that no single step is a stop-the-world
/// pause.
inline constexpr std::size_t kVmmDefragStepBytes = 64u << 10;  // 64 KB

/// Piggyback cadence for Pool's kIncremental driver: one defrag_step per
/// this many malloc_async/free_async operations (power of two — the
/// counter is masked, not divided).
inline constexpr std::uint32_t kVmmDefragOpInterval = 64;

/// Steps a failed victim selection (nothing sparse enough, or not enough
/// slack) suppresses the census walk for.
inline constexpr std::uint32_t kVmmDefragSelectBackoff = 16;

/// Zero-progress sweeps tolerated before an evacuation is pushed into
/// the forwarding pipeline anyway (retirement's extraction then fails on
/// the stragglers and hands the chunk back).
inline constexpr std::uint32_t kVmmDefragStallLimit = 64;

/// Quiesced-but-failed whole-chunk extraction attempts before a
/// forwarding chunk is abandoned back to kLive.
inline constexpr std::uint32_t kVmmDefragExtractRetries = 8;

// --- HeapSan sanitizer layer (not in the paper; docs/INTERNALS.md §5) ------
//
// Redzones + poison + quarantine + shadow table under GpuAllocator. Freed
// blocks sit in a bounded quarantine whose bitmap bits / tree nodes /
// semaphore units stay consumed — the same "cached blocks are still
// allocated to the accounting" trick the magazines and quicklists use.

// --- front-end defaults ----------------------------------------------------
//
// Each front end above is one runtime switch: a HeapConfig field or Pool
// setter, and a C config toggle. HeapDefaults holds their starting values.
// The environment variable TOMA_HEAP_DEFAULTS overrides them for the whole
// process without a rebuild (the CI arms run one build under several):
// a comma list of key=0|1 over the C config's toggle names, e.g.
// TOMA_HEAP_DEFAULTS=magazines=0,heapsan=1. An explicit HeapConfig field,
// a C config toggle >= 0 or a setter call still wins over it.

struct HeapDefaults {
  bool heapsan = false;
  bool magazines = true;
  bool quicklist = true;
  bool stream_async = true;

  bool operator==(const HeapDefaults&) const = default;
};

/// HeapDefaults{} with a TOMA_HEAP_DEFAULTS value applied; nullptr or ""
/// changes nothing. nullopt for an unknown key, a value other than 0 or
/// 1, or an item without '=', with the reason in `*error` when given.
std::optional<HeapDefaults> parse_heap_defaults(const char* spec,
                                                std::string* error = nullptr);

/// The process's defaults: TOMA_HEAP_DEFAULTS parsed once, at first use.
/// A malformed value aborts with parse_heap_defaults' reason.
const HeapDefaults& heap_defaults();

static_assert(kChunkSize / kPageSize == (1u << kChunkOrder));
static_assert(kBinsPerChunk == 64, "one 64-bit word tracks the chunk bins");
static_assert(kDataBins == 62, "two header bins leave 62 data bins");
static_assert(kDataBins * kTailSize == kHeaderBins * kBinDataSize,
              "tails exactly fill the header bins' payload");
static_assert(size_of_class(kNumSizeClasses - 1) == kMaxUAllocSize);
static_assert(bin_capacity(0) == 512, "8 B bins track 512 blocks");
static_assert(bin_capacity(kNumSizeClasses - 1) == 3, "1 KB bins hold 3");

}  // namespace toma::alloc
