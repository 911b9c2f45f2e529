// BackingStore: an elastic physical backing under a fixed virtual
// reservation — the host-side analogue of the CUDA VMM API
// (cuMemAddressReserve / cuMemMap / cuMemUnmap).
//
// Every GpuAllocator pool is built on a BackingStore. It reserves the
// pool's whole address range up front (PROT_NONE, so stray touches
// fault) but maps physical chunks on demand: the pool *appears*
// fixed-size to every pointer-arithmetic consumer (TBuddy's node
// addressing, UAlloc's chunk-mask decode, the alignment-based free
// routing), while the resident footprint follows actual usage. Growth maps the lowest unmapped chunk; shrink returns a
// chunk's pages to the OS (madvise(MADV_DONTNEED)) and re-protects them.
// A fixed-size pool is the one-chunk case: chunk_bytes = reserve_bytes,
// mapped at construction, so there is nothing to grow or shrink.
//
// The store itself is a chunk table, not an allocator: *which* chunks are
// safe to map or unmap is the owner's problem (GpuAllocator only unmaps
// chunks it has extracted from TBuddy as whole free blocks, and only
// injects a chunk into TBuddy after mapping it). All map/unmap calls are
// serialized by the owner (GpuAllocator's grow mutex); the counters are
// atomics so readers need no lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/stats.hpp"
#include "sync/spin_mutex.hpp"

namespace toma::vmm {

/// Per-chunk evacuation state machine for incremental defrag
/// (docs/INTERNALS.md §8). A chunk spends its whole normal life kLive;
/// only the incremental compactor walks it around the cycle:
///
///   kLive -> kEvacuating   defrag_step picked it as a victim
///   kEvacuating -> kForwarding  every live block moved; forward entries
///                               cover stale old-address frees/reallocs
///   kForwarding -> kRetired     grace period ended; pages unmapped
///   kRetired -> kLive           chunk remapped by grow (entries purged)
///
/// kEvacuating -> kLive is the abandon edge: the chunk's free space was
/// reallocated out from under the compactor, so it returns to service.
enum class ChunkState : std::uint8_t {
  kLive = 0,
  kEvacuating = 1,
  kForwarding = 2,
  kRetired = 3,
};

/// Forwarding table for moved blocks: old user address -> new user
/// address, alive only while some chunk is in kForwarding. A reverse
/// index (new -> old) lets a free arriving at the *new* address retire
/// the entry too, so a forwarded old address can never dangle onto a
/// reallocated block. One spin mutex guards both maps — lookups are
/// gated by the atomic size so the empty (steady-state) case costs one
/// relaxed load and no lock.
class ForwardTable {
 public:
  /// Record old_p -> new_p. Chains path-compress: if some r already
  /// forwards to old_p (the block moved twice before anyone freed it),
  /// r is rewritten to point at new_p directly.
  void insert(void* old_p, void* new_p);

  /// Free/realloc-side resolution, consuming: if `p` is a forwarded old
  /// address, erase the entry and return the current address (setting
  /// *forwarded). If `p` is the *new* address of a forwarded block, the
  /// block is dying under its new name — erase the entry and return `p`.
  /// Otherwise return `p` untouched.
  void* on_free(void* p, bool* forwarded);

  /// Read-only resolution (usable_size): current address of `p`, or `p`.
  void* resolve(void* p) const;

  /// Drop every entry whose *old* address lies in [base, base+len) — the
  /// chunk was remapped (its forwarded addresses are valid new blocks
  /// now) or its evacuation was abandoned.
  void purge_range(const void* base, std::size_t len);

  bool empty() const { return size_.load(std::memory_order_relaxed) == 0; }
  std::uint64_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  mutable sync::SpinMutex mu_;
  std::unordered_map<const void*, void*> fwd_;  // old -> new
  std::unordered_map<const void*, void*> rev_;  // new -> old
  std::atomic<std::uint64_t> size_{0};
};

struct BackingConfig {
  /// Virtual span to reserve (a power of two; the pool size).
  std::size_t reserve_bytes = 0;
  /// Mapping granule (a power of two dividing reserve_bytes).
  std::size_t chunk_bytes = 0;
  /// Chunks mapped at construction (the pool's floor).
  std::uint32_t initial_chunks = 1;
  /// Hard cap on mapped chunks; 0 = reserve_bytes / chunk_bytes.
  std::uint32_t max_chunks = 0;
};

struct BackingStats {
  std::uint64_t grows = 0;    // map_next calls that mapped a chunk
  std::uint64_t shrinks = 0;  // unmap_chunk calls
  std::size_t mapped_bytes = 0;
  std::uint32_t mapped_chunks = 0;
  std::uint32_t max_chunks = 0;
  std::size_t chunk_bytes = 0;
  std::size_t reserve_bytes = 0;
};

class BackingStore {
 public:
  explicit BackingStore(const BackingConfig& cfg);
  ~BackingStore();

  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  /// Base of the reservation; aligned to reserve_bytes, so every buddy
  /// block is aligned to its own size (the free() routing relies on it).
  void* base() const { return base_; }
  std::size_t reserve_bytes() const { return reserve_bytes_; }
  std::size_t chunk_bytes() const { return chunk_bytes_; }

  /// Total chunk slots in the reservation.
  std::uint32_t chunk_count() const { return chunk_count_; }
  /// Growth ceiling (<= chunk_count()).
  std::uint32_t max_chunks() const { return max_chunks_; }

  std::uint32_t mapped_chunks() const {
    return mapped_chunks_.load(std::memory_order_relaxed);
  }
  std::size_t mapped_bytes() const {
    return static_cast<std::size_t>(mapped_chunks()) * chunk_bytes_;
  }

  /// Map the lowest unmapped chunk; its base address on success, nullptr
  /// when mapped_chunks() == max_chunks() (the growth ceiling — the
  /// caller turns this into kOom). Caller serializes.
  void* map_next();

  /// Return chunk `idx`'s pages to the OS and re-protect the range. The
  /// chunk must be mapped and must not be reachable from any allocator
  /// structure (the caller extracted it from TBuddy first).
  void unmap_chunk(std::uint32_t idx);

  bool is_mapped(std::uint32_t idx) const { return mapped_[idx] != 0; }

  // --- evacuation state machine (incremental defrag) -----------------------
  // States are advisory metadata for the compactor; map/unmap remain the
  // authority on residency. unmap_chunk() force-sets kRetired and
  // map_chunk() resets kLive (purging the chunk's forward entries), so a
  // chunk that cycles through grow/shrink without ever being compacted
  // still reads consistently.

  ChunkState chunk_state(std::uint32_t idx) const {
    return static_cast<ChunkState>(
        states_[idx].load(std::memory_order_acquire));
  }
  /// CAS transition; false when the chunk was not in `from`.
  bool try_set_state(std::uint32_t idx, ChunkState from, ChunkState to) {
    auto expected = static_cast<std::uint8_t>(from);
    return states_[idx].compare_exchange_strong(
        expected, static_cast<std::uint8_t>(to), std::memory_order_acq_rel);
  }
  void set_state(std::uint32_t idx, ChunkState to) {
    states_[idx].store(static_cast<std::uint8_t>(to),
                       std::memory_order_release);
  }

  /// The pool-wide forwarding table (one per store: forwarded addresses
  /// are resolved before the owning chunk is even computed).
  ForwardTable& forward() { return fwd_; }
  const ForwardTable& forward() const { return fwd_; }

  /// Chunk slot containing `p` (which must lie inside the reservation).
  std::uint32_t chunk_index(const void* p) const {
    return static_cast<std::uint32_t>(
        static_cast<std::size_t>(static_cast<const char*>(p) -
                                 static_cast<const char*>(base_)) /
        chunk_bytes_);
  }
  void* chunk_addr(std::uint32_t idx) const {
    return static_cast<char*>(base_) +
           static_cast<std::size_t>(idx) * chunk_bytes_;
  }

  BackingStats stats() const;

 private:
  /// Map chunk slot `idx` (the initial mapping, and map_next's). Returns
  /// false when already mapped or at the ceiling.
  bool map_chunk(std::uint32_t idx);

  void* base_ = nullptr;
  std::size_t reserve_bytes_ = 0;
  std::size_t chunk_bytes_ = 0;
  std::uint32_t chunk_count_ = 0;
  std::uint32_t max_chunks_ = 0;
  std::uint32_t initial_chunks_ = 0;

  std::vector<std::uint8_t> mapped_;  // chunk table: 1 = mapped
  // Per-chunk ChunkState; a separate atomic array (not bits in mapped_)
  // because states transition concurrently with traffic while mapped_
  // stays under the owner's grow mutex.
  std::unique_ptr<std::atomic<std::uint8_t>[]> states_;
  ForwardTable fwd_;
  std::atomic<std::uint32_t> mapped_chunks_{0};

  enum Stat : std::uint32_t { kGrows, kShrinks, kNumStats };
  static constexpr const char* kStatNames[kNumStats] = {"vmm.grow",
                                                        "vmm.shrink"};
  /// Bytes mapped (the initial chunks and every grow) and unmapped (every
  /// shrink): their difference is mapped_bytes().
  static constexpr const char* kByteStatNames[2] = {"vmm.map_bytes",
                                                    "vmm.unmap_bytes"};
  obs::ShardedStats<kNumStats> st_;
  obs::StatsSource stats_source_{[this](obs::CounterTotals& out) {
    obs::collect(st_, out, kStatNames);
    const std::uint64_t v[] = {
        (initial_chunks_ + st_.sum(kGrows)) * chunk_bytes_,
        st_.sum(kShrinks) * chunk_bytes_};
    obs::collect(v, out, kByteStatNames);
  }};
};

}  // namespace toma::vmm
