// Log2 histogram bucketing, quantile interpolation, snapshot diffing, and
// concurrent recording.
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include "support/test_support.hpp"

namespace toma::obs {
namespace {

TEST(HistBuckets, BoundsConvention) {
  // Bucket 0 holds exactly {0}; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(hist_bucket_of(0), 0u);
  EXPECT_EQ(hist_bucket_of(1), 1u);
  EXPECT_EQ(hist_bucket_of(2), 2u);
  EXPECT_EQ(hist_bucket_of(3), 2u);
  EXPECT_EQ(hist_bucket_of(4), 3u);
  EXPECT_EQ(hist_bucket_of(1023), 10u);
  EXPECT_EQ(hist_bucket_of(1024), 11u);
  EXPECT_EQ(hist_bucket_of(UINT64_MAX), kHistBuckets - 1);
  for (std::uint32_t b = 1; b < kHistBuckets - 1; ++b) {
    EXPECT_EQ(hist_bucket_of(hist_bucket_lo(b)), b);
    EXPECT_EQ(hist_bucket_of(hist_bucket_hi(b) - 1), b);
  }
}

TEST(Histogram, CountSumMinMax) {
  Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 7ull, 100ull, 4096ull}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0u + 1 + 7 + 100 + 4096);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 4096u);
  EXPECT_EQ(s.buckets[0], 1u);                   // the 0
  EXPECT_EQ(s.buckets[hist_bucket_of(7)], 1u);
  EXPECT_DOUBLE_EQ(s.mean(), (0.0 + 1 + 7 + 100 + 4096) / 5.0);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
}

TEST(Histogram, QuantilesLandInTheRightBucket) {
  Histogram h;
  // 90 fast ops (~16 ns), 10 slow ops (~64k ns): p50 must sit in the fast
  // bucket, p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.record(16);
  for (int i = 0; i < 10; ++i) h.record(65536);
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.p50();
  EXPECT_GE(p50, static_cast<double>(hist_bucket_lo(hist_bucket_of(16))));
  EXPECT_LT(p50, static_cast<double>(hist_bucket_hi(hist_bucket_of(16))));
  const double p99 = s.p99();
  EXPECT_GE(p99, static_cast<double>(hist_bucket_lo(hist_bucket_of(65536))));
  EXPECT_LT(p99, static_cast<double>(hist_bucket_hi(hist_bucket_of(65536))));
  // q=1 returns the exact max.
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 65536.0);
}

TEST(Histogram, SingleSampleQuantiles) {
  Histogram h;
  h.record(100);
  const HistogramSnapshot s = h.snapshot();
  const double lo = static_cast<double>(hist_bucket_lo(hist_bucket_of(100)));
  const double hi = static_cast<double>(hist_bucket_hi(hist_bucket_of(100)));
  for (double q : {0.0, 0.5, 0.99}) {
    EXPECT_GE(s.quantile(q), lo) << "q=" << q;
    EXPECT_LT(s.quantile(q), hi) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileEdgeCases) {
  // Empty histogram: every quantile is 0, including the endpoints.
  const HistogramSnapshot empty = Histogram().snapshot();
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

  // All mass in bucket 0 (value 0): quantiles are exactly 0 with no
  // interpolation drift.
  Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.record(0);
  const HistogramSnapshot z = zeros.snapshot();
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(z.quantile(q), 0.0) << "q=" << q;
  }

  // All mass in one power-of-two bucket: interpolation must stay clamped
  // to the observed [min, max], not the bucket bounds.
  Histogram one;
  one.record(100);
  one.record(120);
  const HistogramSnapshot s = one.snapshot();
  EXPECT_GE(s.quantile(0.0), 100.0) << "p0 clamps up to the observed min";
  EXPECT_LE(s.quantile(0.999), 120.0) << "quantiles clamp to observed max";
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 120.0) << "p100 is the exact max";
}

TEST(Histogram, DiffSinceSubtractsCounts) {
  Histogram h;
  h.record(10);
  h.record(20);
  const HistogramSnapshot before = h.snapshot();
  h.record(10);
  h.record(1000);
  const HistogramSnapshot d = h.snapshot().diff_since(before);
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.sum, 1010u);
  EXPECT_EQ(d.buckets[hist_bucket_of(10)], 1u);
  EXPECT_EQ(d.buckets[hist_bucket_of(1000)], 1u);
}

TEST(Histogram, ConcurrentRecordsDontLose) {
  Histogram h;
  test::run_os_threads(8, [&](unsigned t) {
    for (int i = 0; i < 5000; ++i) h.record(t * 100 + 1);
  });
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 8u * 5000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 701u);
}

TEST(HistogramVec, ClampsLikeCounterVec) {
  HistogramVec v(2);
  v.at(0).record(1);
  v.at(7).record(2);  // clamps to index 1
  EXPECT_EQ(v.get(0).snapshot().count, 1u);
  EXPECT_EQ(v.get(1).snapshot().count, 1u);
}

}  // namespace
}  // namespace toma::obs
