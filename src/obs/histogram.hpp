// Log2-bucketed latency/value histograms with quantile extraction.
//
// Bucket b == 0 holds the value 0; bucket b >= 1 holds values in
// [2^(b-1), 2^b). 48 buckets cover values up to 2^47 (~1.6 days in ns).
// Layout is shard-major — each shard owns a contiguous bucket array — so
// a recording thread only writes cache lines of its own SM's shard.
//
// Quantiles are extracted from the aggregated bucket counts with linear
// interpolation inside the winning bucket: exact enough for p50/p95/p99
// reporting (the bucket bounds are within 2x of the true value by
// construction; interpolation tightens typical error well below that).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "obs/context.hpp"
#include "util/assert.hpp"
#include "util/hints.hpp"

namespace toma::obs {

inline constexpr std::uint32_t kHistBuckets = 48;
/// Histogram shards (fewer than counter shards: a shard is ~8 cache
/// lines, and histogram records are rarer than counter bumps).
inline constexpr std::uint32_t kHistShards = 16;

static_assert((kHistShards & (kHistShards - 1)) == 0,
              "shard index is masked, not modded");

/// Bucket index for a value (see the bucket-bound convention above).
constexpr std::uint32_t hist_bucket_of(std::uint64_t v) {
  const auto b = static_cast<std::uint32_t>(std::bit_width(v));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// Inclusive lower bound of a bucket.
constexpr std::uint64_t hist_bucket_lo(std::uint32_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

/// Exclusive upper bound of a bucket.
constexpr std::uint64_t hist_bucket_hi(std::uint32_t b) {
  return b == 0 ? 1 : std::uint64_t{1} << b;
}

/// Aggregated, immutable view of a histogram (also the unit of snapshot
/// diffing and JSON export).
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Interpolated quantile, q in [0, 1]. 0.0 on an empty histogram; q == 1
  /// returns the exact recorded max (no interpolation error at the top).
  double quantile(double q) const {
    TOMA_DASSERT(q >= 0.0 && q <= 1.0);
    if (count == 0) return 0.0;
    if (q >= 1.0) return static_cast<double>(max);
    const double rank = q * static_cast<double>(count - 1);
    std::uint64_t cum = 0;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      if (buckets[b] == 0) continue;
      const double lo_rank = static_cast<double>(cum);
      cum += buckets[b];
      if (rank < static_cast<double>(cum)) {
        if (b == 0) return 0.0;
        const double frac =
            (rank - lo_rank) / static_cast<double>(buckets[b]);
        const double lo = static_cast<double>(hist_bucket_lo(b));
        const double hi = static_cast<double>(hist_bucket_hi(b));
        // Interpolation assumes samples spread across the whole bucket;
        // clamp so a quantile never reports outside the observed range.
        const double v = lo + frac * (hi - lo);
        return std::min(std::max(v, static_cast<double>(min)),
                        static_cast<double>(max));
      }
    }
    return static_cast<double>(max);  // rank beyond last bucket (q == 1)
  }

  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// This snapshot minus an earlier one (counts/sums subtract; min/max are
  /// not recoverable for an interval, so the later absolute values stand).
  HistogramSnapshot diff_since(const HistogramSnapshot& before) const {
    HistogramSnapshot d = *this;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      d.buckets[b] -= before.buckets[b] <= d.buckets[b] ? before.buckets[b]
                                                        : d.buckets[b];
    }
    d.count -= before.count <= d.count ? before.count : d.count;
    d.sum -= before.sum <= d.sum ? before.sum : d.sum;
    return d;
  }
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) {
    Shard& s = shards_[current_shard() & (kHistShards - 1)];
    s.buckets[hist_bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    relax_min(s.min, v);
    relax_max(s.max, v);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    std::uint64_t mn = UINT64_MAX;
    for (const Shard& s : shards_) {
      for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
        const std::uint64_t n = s.buckets[b].load(std::memory_order_relaxed);
        out.buckets[b] += n;
        out.count += n;
      }
      out.sum += s.sum.load(std::memory_order_relaxed);
      const std::uint64_t smin = s.min.load(std::memory_order_relaxed);
      const std::uint64_t smax = s.max.load(std::memory_order_relaxed);
      if (smin < mn) mn = smin;
      if (smax > out.max) out.max = smax;
    }
    out.min = out.count == 0 ? 0 : mn;
    return out;
  }

 private:
  struct TOMA_CACHELINE_ALIGNED Shard {
    std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};
    std::atomic<std::uint64_t> max{0};
  };

  static void relax_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v < cur && !slot.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }
  static void relax_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur && !slot.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }

  Shard shards_[kHistShards];
};

/// Fixed-width histogram array under one name ("name[i]"), for per-class
/// breakdowns whose index is only known at runtime. Out-of-range indices
/// clamp to the last element, so an unexpected index never writes out of
/// bounds.
class HistogramVec {
 public:
  explicit HistogramVec(std::uint32_t width) : hists_(width) {
    TOMA_ASSERT(width > 0);
  }
  HistogramVec(const HistogramVec&) = delete;
  HistogramVec& operator=(const HistogramVec&) = delete;

  Histogram& at(std::uint32_t i) {
    const auto w = static_cast<std::uint32_t>(hists_.size());
    return hists_[i < w ? i : w - 1];
  }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(hists_.size());
  }
  const Histogram& get(std::uint32_t i) const { return hists_[i]; }

 private:
  std::vector<Histogram> hists_;
};

}  // namespace toma::obs
