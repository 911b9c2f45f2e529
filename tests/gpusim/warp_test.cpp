#include "gpusim/warp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"

namespace toma::gpu {
namespace {

TEST(CoalescedGroup, FullWarpsCoalesce) {
  Device dev(test::small_device());
  std::atomic<std::uint32_t> leaders{0}, members{0};
  int tag;
  dev.launch(Dim3{4}, Dim3{128}, [&](ThreadCtx& t) {
    CoalescedGroup g = coalesce_warp(t, &tag);
    members.fetch_add(1);
    if (g.is_leader()) leaders.fetch_add(1);
    // Groups are warp-local, so never larger than a warp.
    if (g.size() > 32) std::abort();
  });
  EXPECT_EQ(members.load(), 512u);
  // All 32 lanes of every warp arrive at the same call; with co-scheduled
  // lanes they coalesce into one group per warp (16 warps total). Allow a
  // bit of slack in case the scheduler splits a window, but the typical
  // result is exactly 16.
  EXPECT_GE(leaders.load(), 16u);
  EXPECT_LE(leaders.load(), 32u);
}

TEST(CoalescedGroup, RanksAreDenseAndLeaderUnique) {
  Device dev(test::small_device());
  std::mutex mu;
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_token;
  int tag;
  dev.launch(Dim3{2}, Dim3{64}, [&](ThreadCtx& t) {
    CoalescedGroup g = coalesce_warp(t, &tag);
    std::lock_guard<std::mutex> lock(mu);
    by_token[g.token()].push_back(g.rank());
  });
  ASSERT_FALSE(by_token.empty());
  for (auto& [token, ranks] : by_token) {
    EXPECT_NE(token, 0u);
    std::vector<std::uint32_t> sorted = ranks;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i], i) << "ranks not dense for token " << token;
    }
  }
}

TEST(CoalescedGroup, DifferentTagsDoNotMix) {
  Device dev(test::small_device());
  int tag_a, tag_b;
  std::atomic<int> bad{0};
  dev.launch(Dim3{2}, Dim3{64}, [&](ThreadCtx& t) {
    const bool is_a = (t.thread_rank() % 2) == 0;
    CoalescedGroup g = coalesce_warp(t, is_a ? &tag_a : &tag_b);
    // A group formed around tag A must contain at most the 16 even lanes
    // of the warp (and vice versa).
    if (g.size() > 16) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CoalescedGroup, SingleThreadGroup) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  int tag;
  dev.launch(Dim3{1}, Dim3{1}, [&](ThreadCtx& t) {
    CoalescedGroup g = coalesce_warp(t, &tag);
    if (g.size() != 1 || g.rank() != 0 || !g.is_leader()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CoalescedGroup, RepeatedWindowsOnSameWarp) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  int tag;
  dev.launch(Dim3{1}, Dim3{32}, [&](ThreadCtx& t) {
    std::uint64_t last_token = 0;
    for (int i = 0; i < 8; ++i) {
      CoalescedGroup g = coalesce_warp(t, &tag);
      if (g.size() == 0 || g.rank() >= g.size()) bad.fetch_add(1);
      if (g.token() == last_token) bad.fetch_add(1);  // fresh window, fresh token
      last_token = g.token();
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CoalescedGroup, SingletonFactory) {
  CoalescedGroup g = CoalescedGroup::singleton(42);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.rank(), 0u);
  EXPECT_TRUE(g.is_leader());
  EXPECT_NE(g.token(), 0u);
  // Token 0 input still yields a non-zero token.
  EXPECT_NE(CoalescedGroup::singleton(0).token(), 0u);
}

// The leader's value for member `rank` of group `g`, distinct per rank.
std::uint64_t value_for(const CoalescedGroup& g, std::uint32_t rank,
                        int round = 0) {
  return g.token() + static_cast<std::uint64_t>(round) * 64 + rank;
}

TEST(WarpScatter, EachMemberReceivesItsOwnValue) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  std::atomic<int> grouped{0};
  int tag;
  dev.launch(Dim3{4}, Dim3{64}, [&](ThreadCtx& t) {
    CoalescedGroup g = coalesce_warp(t, &tag);
    if (g.size() > 1) grouped.fetch_add(1);
    // Only the leader's array counts; a member's own guess must not leak.
    std::uint64_t mine[64];
    for (std::uint32_t r = 0; r < g.size(); ++r) {
      mine[r] = g.is_leader() ? value_for(g, r) : 0xdead;
    }
    const std::uint64_t got =
        warp_scatter(t, g, g.is_leader() ? mine : nullptr);
    if (got != value_for(g, g.rank())) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(grouped.load(), 0) << "no lane was handed a value by a leader";
}

TEST(WarpScatter, SingletonReturnsOwnValue) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  dev.launch(Dim3{1}, Dim3{1}, [&](ThreadCtx& t) {
    CoalescedGroup g = CoalescedGroup::singleton(9);
    const std::uint64_t v = 1234;
    if (warp_scatter(t, g, &v) != 1234) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(WarpScatter, RepeatedScattersOnSameWarp) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  int tag;
  dev.launch(Dim3{1}, Dim3{32}, [&](ThreadCtx& t) {
    for (int round = 0; round < 6; ++round) {
      CoalescedGroup g = coalesce_warp(t, &tag);
      std::uint64_t mine[32];
      for (std::uint32_t r = 0; r < g.size(); ++r) {
        mine[r] = value_for(g, r, round);
      }
      const std::uint64_t v =
          warp_scatter(t, g, g.is_leader() ? mine : nullptr);
      if (v != value_for(g, g.rank(), round)) bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(WarpScatter, PointersReachTheirOwnRank) {
  Device dev(test::small_device());
  std::atomic<int> bad{0};
  int tag;
  int payload[64];
  for (int i = 0; i < 64; ++i) payload[i] = i;
  dev.launch(Dim3{1}, Dim3{64}, [&](ThreadCtx& t) {
    CoalescedGroup g = coalesce_warp(t, &tag);
    std::uint64_t mine[64];
    for (std::uint32_t r = 0; r < g.size(); ++r) {
      mine[r] = reinterpret_cast<std::uintptr_t>(&payload[r]);
    }
    const int* got = reinterpret_cast<const int*>(
        warp_scatter(t, g, g.is_leader() ? mine : nullptr));
    if (got != &payload[g.rank()] ||
        *got != static_cast<int>(g.rank())) {
      bad.fetch_add(1);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(CoalescedGroup, PartialWarpCoalesces) {
  Device dev(test::small_device());
  std::atomic<std::uint32_t> max_size{0};
  int tag;
  dev.launch(Dim3{1}, Dim3{20}, [&](ThreadCtx& t) {  // one partial warp
    CoalescedGroup g = coalesce_warp(t, &tag);
    std::uint32_t cur = max_size.load();
    while (g.size() > cur && !max_size.compare_exchange_weak(cur, g.size())) {
    }
  });
  EXPECT_LE(max_size.load(), 20u);
  EXPECT_GE(max_size.load(), 1u);
}

}  // namespace
}  // namespace toma::gpu
