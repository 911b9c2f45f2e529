// Exact per-shard statistics, and their export as registry counters.
//
// A stats owner (GpuAllocator, UAlloc, TBuddy, Pool, StreamFrontEnd,
// BackingStore, HeapSan) keeps its exact counters in a ShardedStats: one
// cache-line-aligned block per obs shard (obs/context.hpp: the SM inside
// a kernel, the host thread's ordinal outside one), the layout
// SrcuDomain uses for its readers. An event is one relaxed fetch_add on
// a line only the calling SM's worker normally writes, so counting adds
// no cross-SM cache traffic to the contention it measures. Reads sum the
// shards and are approximate under concurrency, like every statistics
// read in the allocator.
//
// The owner is also the source of its same-named registry counters: a
// StatsSource member registers a collector that Registry::snapshot()
// calls, and on destruction folds the owner's last totals into the
// registry, so those counters stay monotonic. The owner lists the
// registry names of its fields in a `k...StatNames` table, which the
// metric-catalog lint reads (tools/lint_prometheus.py). Owners whose
// counts are not sharded (Device, SrcuDomain, the trace rings and the
// flight recorder) export them the same way. Every registry counter
// comes from such a collector.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#ifndef TOMA_TELEMETRY
#define TOMA_TELEMETRY 1  // CMake option TOMA_TELEMETRY (default ON)
#endif

#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"
#include "util/hints.hpp"

namespace toma::obs {

template <std::size_t N>
class ShardedStats {
 public:
  /// One shard's counters, alone on its cache lines.
  class TOMA_CACHELINE_ALIGNED Block {
   public:
    /// Bump `field` by `n`; returns this shard's count before the bump.
    std::uint64_t add(std::size_t field, std::uint64_t n = 1) {
      return v_[field].fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t get(std::size_t field) const {
      return v_[field].load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> v_[N] = {};
  };

  /// The calling context's shard.
  Block& local() { return shards_[current_shard()]; }
  const Block& shard(std::uint32_t i) const {
    TOMA_DASSERT(i < kShards);
    return shards_[i];
  }

  /// Bump `field` by `n` in the calling context's shard; returns that
  /// shard's count before the bump (the index latency sampling keys on).
  std::uint64_t add(std::size_t field, std::uint64_t n = 1) {
    return local().add(field, n);
  }

  /// Total over every shard. O(kShards); intended for snapshots and
  /// stats() reads, not hot paths.
  std::uint64_t sum(std::size_t field) const {
    std::uint64_t total = 0;
    for (const Block& b : shards_) total += b.get(field);
    return total;
  }

 private:
  Block shards_[kShards];
};

/// Add each named field's total into `out` (a nullptr name is not
/// exported).
template <std::size_t N>
void collect(const ShardedStats<N>& st, CounterTotals& out,
             const char* const (&names)[N]) {
  for (std::size_t f = 0; f < N; ++f) {
    if (names[f] != nullptr) out[names[f]] += st.sum(f);
  }
}

/// Add each named value into `out`: the export of an owner whose counts
/// are plain values, read by the caller.
template <std::size_t N>
void collect(const std::uint64_t (&values)[N], CounterTotals& out,
             const char* const (&names)[N]) {
  for (std::size_t f = 0; f < N; ++f) out[names[f]] += values[f];
}

/// RAII registration of a stats owner's collector with registry(). Make
/// it the owner's last member: it is then destroyed first, folding the
/// owner's totals while everything the collector reads is still alive.
/// With telemetry compiled out it registers nothing.
class StatsSource {
 public:
  explicit StatsSource(Registry::Collector fn) {
#if TOMA_TELEMETRY
    id_ = registry().add_collector(std::move(fn));
#else
    (void)fn;
#endif
  }
  ~StatsSource() {
    if (id_ != 0) registry().remove_collector(id_);
  }
  StatsSource(const StatsSource&) = delete;
  StatsSource& operator=(const StatsSource&) = delete;

 private:
  std::uint64_t id_ = 0;
};

}  // namespace toma::obs
