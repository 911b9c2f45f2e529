// Cache-line-sharded monotonic counters.
//
// One shard per simulated SM (modulo kShards): a counter bump is a relaxed
// fetch_add on a line only the bumping SM's worker thread normally writes,
// so hot-path instrumentation adds no cross-SM cache traffic. Reads
// aggregate all shards and are approximate under concurrency (like every
// other statistics read in the allocator).
//
// ShardedStats<N> keeps N counters per shard in one cache-line-aligned
// block (the layout SrcuDomain uses for its readers): a stats owner's
// exact statistics (obs/stats.hpp). Counter is the one-field case, the
// registry's named counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/context.hpp"
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

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) { st_.add(0, n); }
  void inc() { add(1); }
  std::uint64_t value() const { return st_.sum(0); }

  // --- test introspection --------------------------------------------------
  static constexpr std::uint32_t shard_count() { return kShards; }
  std::uint64_t shard_value(std::uint32_t i) const {
    return st_.shard(i).get(0);
  }

 private:
  ShardedStats<1> st_;
};

/// A fixed-width array of counters under one name, exported as "name[i]".
/// Used for per-order / per-size-class breakdowns where the index is only
/// known at runtime. Out-of-range indices clamp to the last element so an
/// unexpected order can never write out of bounds.
class CounterVec {
 public:
  explicit CounterVec(std::uint32_t width) : counters_(width) {
    TOMA_ASSERT(width > 0);
  }
  CounterVec(const CounterVec&) = delete;
  CounterVec& operator=(const CounterVec&) = delete;

  Counter& at(std::uint32_t i) {
    const auto w = static_cast<std::uint32_t>(counters_.size());
    return counters_[i < w ? i : w - 1];
  }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(counters_.size());
  }
  const Counter& get(std::uint32_t i) const { return counters_[i]; }

 private:
  std::vector<Counter> counters_;
};

}  // namespace toma::obs
