#include "util/bitops.hpp"

#include <gtest/gtest.h>

namespace toma::util {
namespace {

TEST(Bitops, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2((1ull << 63) + 1));
}

TEST(Bitops, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4), 2u);
  EXPECT_EQ(log2_floor(4096), 12u);
  EXPECT_EQ(log2_floor(~0ull), 63u);
}

TEST(Bitops, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(4097), 13u);
}

TEST(Bitops, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(1), 1ull);
  EXPECT_EQ(round_up_pow2(3), 4ull);
  EXPECT_EQ(round_up_pow2(4), 4ull);
  EXPECT_EQ(round_up_pow2(1000), 1024ull);
}

TEST(Bitops, AlignUpDown) {
  EXPECT_EQ(align_up(0, 16), 0ull);
  EXPECT_EQ(align_up(1, 16), 16ull);
  EXPECT_EQ(align_up(16, 16), 16ull);
  EXPECT_EQ(align_up(17, 16), 32ull);
  EXPECT_EQ(align_down(17, 16), 16ull);
  EXPECT_EQ(align_down(15, 16), 0ull);
}

TEST(Bitops, IsAligned) {
  EXPECT_TRUE(is_aligned(std::uint64_t{0}, 4096));
  EXPECT_TRUE(is_aligned(std::uint64_t{8192}, 4096));
  EXPECT_FALSE(is_aligned(std::uint64_t{8192 + 128}, 4096));
  int x;
  EXPECT_TRUE(is_aligned(&x, alignof(int)));
}

TEST(Bitops, CtzPopcount) {
  EXPECT_EQ(ctz(1), 0u);
  EXPECT_EQ(ctz(8), 3u);
  EXPECT_EQ(ctz(1ull << 63), 63u);
  EXPECT_EQ(popcount(0), 0u);
  EXPECT_EQ(popcount(0xFF), 8u);
  EXPECT_EQ(popcount(~0ull), 64u);
}

// Property sweep: log2/round/align identities over a range of values.
class BitopsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitopsProperty, Identities) {
  const std::uint64_t x = GetParam();
  ASSERT_NE(x, 0u);
  const unsigned lf = log2_floor(x);
  const unsigned lc = log2_ceil(x);
  EXPECT_LE(1ull << lf, x);
  if (lf < 63) {
    EXPECT_GT(1ull << (lf + 1), x);
  }
  EXPECT_GE(1ull << lc, x);
  EXPECT_TRUE(lc == lf || lc == lf + 1);
  EXPECT_EQ(lc == lf, is_pow2(x));
  if (x <= (1ull << 62)) {
    EXPECT_EQ(round_up_pow2(x), 1ull << lc);
    EXPECT_TRUE(is_pow2(round_up_pow2(x)));
  }
  for (std::uint64_t a : {std::uint64_t{8}, std::uint64_t{4096}}) {
    EXPECT_EQ(align_up(x, a) % a, 0u);
    EXPECT_GE(align_up(x, a), x);
    EXPECT_LT(align_up(x, a) - x, a);
    EXPECT_EQ(align_down(x, a) % a, 0u);
    EXPECT_LE(align_down(x, a), x);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitopsProperty,
    ::testing::Values(1, 2, 3, 7, 8, 9, 100, 127, 128, 129, 4095, 4096, 4097,
                      65535, 65536, 1u << 20, (1u << 20) + 1, 123456789,
                      (1ull << 40) + 17));

}  // namespace
}  // namespace toma::util
