// Stream-ordered allocation front-end (not in the paper; see
// docs/INTERNALS.md §6 and docs/API.md).
//
// free_async(p, stream) does no allocator work at all: it parks `p` on
// the (pool, stream) slot in O(1). To the bin/tree machinery a pending
// block is still *allocated* — its bitmap bit stays claimed, its tree
// node stays Busy, its quota charge stays reserved — the same "cached
// blocks are still allocated to the accounting" invariant the magazines,
// quicklists and HeapSan quarantine rely on, applied one layer up.
//
// The batch drains at stream-sync points through the ordinary free path
// (magazines / quicklists first). Draining back-to-back clusters the
// RCU barriers that bin unlink/retire emit, so the conditional-barrier
// delegation (paper §4.2.1) collapses them into ~one grace period per
// batch instead of one per free.
//
// malloc_async(size, stream) first tries to *reuse* a pending block of
// the same stream whose slot exactly fits the rounded request: stream
// order guarantees the old use completed before the new one starts, so
// the block never needs to re-enter the allocator at all (the trick
// cudaMallocAsync's stream-ordered pools are built around). Cross-stream
// pending blocks are never reused — they become claimable only after
// their stream synchronizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/config.hpp"
#include "gpusim/stream.hpp"
#include "obs/stats.hpp"
#include "sync/spin_mutex.hpp"

namespace toma::alloc {

class GpuAllocator;

/// Aggregate front-end statistics (approximate under concurrency).
struct StreamFrontEndStats {
  std::uint64_t deferred = 0;         // free_async enqueues
  std::uint64_t reuse_hits = 0;       // malloc_async served from pending
  std::uint64_t reuse_misses = 0;     // ...that fell through to malloc
  std::uint64_t drained = 0;          // pending frees pushed to the pool
  std::uint64_t drain_batches = 0;    // non-empty drains
  std::uint64_t overflow_drains = 0;  // drains forced by kStreamPendingCap
  std::uint64_t pending = 0;          // deferred frees right now
};

/// Deferred-operation state of one (pool, stream) pair. UAlloc blocks
/// bucket by size class so reuse is a pop; TBuddy blocks keep their byte
/// size for exact-match reuse (a handful at most in practice).
class StreamSlot {
 public:
  StreamSlot() = default;
  StreamSlot(const StreamSlot&) = delete;
  StreamSlot& operator=(const StreamSlot&) = delete;

 private:
  friend class StreamFrontEnd;

  sync::SpinMutex mu_;
  std::vector<void*> classes_[kNumSizeClasses];
  std::vector<std::pair<void*, std::size_t>> large_;
  std::uint32_t pending_ = 0;
};

class StreamFrontEnd {
 public:
  explicit StreamFrontEnd(GpuAllocator& alloc) : alloc_(&alloc) {}
  ~StreamFrontEnd() { sync_all(); }

  StreamFrontEnd(const StreamFrontEnd&) = delete;
  StreamFrontEnd& operator=(const StreamFrontEnd&) = delete;

  /// Park `p` (a raw, non-sanitized block of the owning pool) on `s`.
  /// O(1) except when the slot hits kStreamPendingCap, which drains it
  /// inline (the caller pays, like a magazine spill).
  void free_async(void* p, gpu::Stream& s);

  /// Same-stream reuse: a pending block whose slot capacity is exactly
  /// `effective` bytes (GpuAllocator::effective_size of the request), or
  /// nullptr on miss.
  void* try_reuse(std::size_t effective, gpu::Stream& s);

  /// Drain every pending free of `s` through the pool's free path.
  /// Returns the batch size.
  std::size_t sync(gpu::Stream& s);

  /// Drain everything regardless of stream (pool teardown, trim).
  std::size_t sync_all();

  /// Drain `s` and forget its slot (stream destruction).
  std::size_t release_stream(gpu::Stream& s);

  /// Deferred frees right now, across all streams.
  std::size_t pending() const {
    return st_.sum(kDeferred) - st_.sum(kDrained) - st_.sum(kReuseHits);
  }

  StreamFrontEndStats stats() const;

 private:
  StreamSlot& slot_of(gpu::Stream& s);
  /// Drain one slot through the allocator; returns the batch size.
  std::size_t drain(StreamSlot& slot);

  GpuAllocator* alloc_;
  mutable sync::SpinMutex map_mu_;
  std::unordered_map<std::uint32_t, std::unique_ptr<StreamSlot>> slots_;


  enum Stat : std::uint32_t {
    kDeferred,
    kReuseHits,
    kReuseMisses,
    kDrained,
    kDrainBatches,
    kOverflowDrains,
    kNumStats
  };
  static constexpr const char* kStatNames[kNumStats] = {
      "pool.stream.free_async", "pool.stream.reuse.hit",
      "pool.stream.reuse.miss", nullptr,
      nullptr,                  "pool.stream.overflow_drain",
  };
  obs::ShardedStats<kNumStats> st_;
  obs::StatsSource stats_source_{
      [this](obs::CounterTotals& out) { obs::collect(st_, out, kStatNames); }};
};

}  // namespace toma::alloc
