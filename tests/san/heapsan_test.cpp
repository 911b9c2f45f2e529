// HeapSan subsystem tests (docs/INTERNALS.md §5).
//
// The negative tests inject one bug of each class — double-free, OOB
// write, use-after-free, leak — and assert HeapSan reports it precisely,
// with the magazine and quicklist fast paths explicitly ENABLED: the
// quarantine must compose with the caching front-ends, not require them
// off. A capturing report handler stands in for the default
// print-and-abort handler so the binary keeps running after a detection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/telemetry.hpp"
#include "san/heapsan.hpp"
#include "san/report.hpp"
#include "support/test_support.hpp"

namespace toma::alloc {
namespace {

std::mutex g_reports_mu;
std::vector<san::BugReport> g_reports;

void capture_report(const san::BugReport& r) {
  std::lock_guard<std::mutex> g(g_reports_mu);
  g_reports.push_back(r);
}

std::size_t reports_of(san::BugKind kind) {
  std::lock_guard<std::mutex> g(g_reports_mu);
  std::size_t n = 0;
  for (const san::BugReport& r : g_reports) {
    if (r.kind == kind) ++n;
  }
  return n;
}

san::BugReport first_of(san::BugKind kind) {
  std::lock_guard<std::mutex> g(g_reports_mu);
  for (const san::BugReport& r : g_reports) {
    if (r.kind == kind) return r;
  }
  ADD_FAILURE() << "no report of kind " << san::bug_kind_name(kind);
  return {};
}

class HeapSanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    {
      std::lock_guard<std::mutex> g(g_reports_mu);
      g_reports.clear();
    }
    prev_ = san::set_report_handler(&capture_report);
  }
  void TearDown() override { san::set_report_handler(prev_); }

  /// Allocator with HeapSan on and both caching fast paths forced ON
  /// (whatever the process defaults), per the acceptance criteria:
  /// detection must work *through* magazines and quicklists.
  static std::unique_ptr<GpuAllocator> make_ga(
      std::size_t pool_bytes = 32 * 1024 * 1024, std::uint32_t arenas = 2) {
    auto ga = std::make_unique<GpuAllocator>(
        HeapConfig{.pool_bytes = pool_bytes, .num_arenas = arenas});
    ga->set_heapsan(true);
    ga->ualloc().set_magazines(true);
    ga->buddy().set_quicklist(true);
    return ga;
  }

  san::ReportHandler prev_ = nullptr;
};

TEST_F(HeapSanTest, LifecycleIsCleanAndSizesAreExact) {
  auto ga = make_ga();
  auto* p = static_cast<unsigned char*>(ga->malloc(50));
  ASSERT_NE(p, nullptr);
  // usable_size is the requested size exactly: the class slack is redzone.
  EXPECT_EQ(ga->usable_size(p), 50u);
  // Alloc poison is visible before first write.
  EXPECT_EQ(p[0], san::HeapSan::kAllocPoison);
  EXPECT_EQ(p[49], san::HeapSan::kAllocPoison);
  std::memset(p, 0x11, 50);  // write every requested byte: legal
  void* big = ga->malloc(5000);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(ga->usable_size(big), 5000u);
  ga->free(p);
  ga->free(big);
  const auto st = ga->stats();
  EXPECT_TRUE(st.heapsan.enabled);
  EXPECT_EQ(st.heapsan.live_blocks, 0u);
  EXPECT_EQ(st.heapsan.quarantine_pushes, 2u);
  EXPECT_GE(st.heapsan.redzone_checks, 2u);
  EXPECT_TRUE(ga->check_consistency());
  ga->trim();
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
  ga.reset();
  std::lock_guard<std::mutex> g(g_reports_mu);
  EXPECT_TRUE(g_reports.empty()) << "clean lifecycle must not report";
}

TEST_F(HeapSanTest, FreePoisonIsReadableWhileQuarantined) {
  auto ga = make_ga();
  auto* p = static_cast<unsigned char*>(ga->malloc(64));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x77, 64);
  ga->free(p);
  // The block sits in quarantine: its memory is still mapped and now
  // carries the free poison — reads of freed memory are detectable.
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(p[i], san::HeapSan::kFreePoison) << "byte " << i;
  }
  EXPECT_GE(ga->stats().heapsan.quarantined_blocks, 1u);
}

TEST_F(HeapSanTest, QuarantineDelaysReuse) {
  auto ga = make_ga();
  void* p = ga->malloc(32);
  ASSERT_NE(p, nullptr);
  ga->free(p);
  // While quarantined, the block's base is never handed back, so no malloc
  // can return the same user pointer — even through the magazines.
  std::vector<void*> got;
  for (int i = 0; i < 16; ++i) {
    void* q = ga->malloc(32);
    ASSERT_NE(q, nullptr);
    EXPECT_NE(q, p) << "quarantined block was reissued";
    got.push_back(q);
  }
  for (void* q : got) ga->free(q);
  EXPECT_GT(ga->stats().heapsan.quarantined_blocks, 0u);
  ga->trim();  // drains quarantine
  EXPECT_EQ(ga->stats().heapsan.quarantined_blocks, 0u);
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
}

TEST_F(HeapSanTest, DetectsDoubleFreeSmallBlock) {
  auto ga = make_ga();
  void* p = ga->malloc(64);
  ASSERT_NE(p, nullptr);
  ga->free(p);
  ga->free(p);  // bug: second free of a quarantined block
  EXPECT_EQ(reports_of(san::BugKind::kDoubleFree), 1u);
  const san::BugReport r = first_of(san::BugKind::kDoubleFree);
  EXPECT_EQ(r.user_ptr, p);
  EXPECT_EQ(r.user_size, 64u);
  // The duplicate free was dropped, not double-counted into the allocator.
  EXPECT_TRUE(ga->check_consistency());
  ga->trim();
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
}

TEST_F(HeapSanTest, DetectsDoubleFreeBuddyBlock) {
  auto ga = make_ga();
  void* p = ga->malloc(8192);
  ASSERT_NE(p, nullptr);
  ga->free(p);
  ga->free(p);
  EXPECT_EQ(reports_of(san::BugKind::kDoubleFree), 1u);
  EXPECT_TRUE(ga->check_consistency());
}

TEST_F(HeapSanTest, DetectsOutOfBoundsWriteRight) {
  auto ga = make_ga();
  auto* p = static_cast<unsigned char*>(ga->malloc(48));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x22, 48);
  p[48] = 0x99;  // bug: one byte past the requested size
  ga->free(p);
  EXPECT_EQ(reports_of(san::BugKind::kOob), 1u);
  const san::BugReport r = first_of(san::BugKind::kOob);
  EXPECT_EQ(r.bad_offset, 48);
  EXPECT_EQ(r.found, 0x99);
  EXPECT_EQ(r.expected, san::HeapSan::kRedzoneRight);
  // A reported OOB still completes the free; nothing leaks.
  ga->trim();
  EXPECT_EQ(ga->stats().heapsan.live_blocks, 0u);
}

TEST_F(HeapSanTest, DetectsOutOfBoundsWriteLeft) {
  auto ga = make_ga();
  auto* p = static_cast<unsigned char*>(ga->malloc(48));
  ASSERT_NE(p, nullptr);
  p[-1] = 0x55;  // bug: underflow into the left redzone
  ga->free(p);
  EXPECT_EQ(reports_of(san::BugKind::kOob), 1u);
  const san::BugReport r = first_of(san::BugKind::kOob);
  EXPECT_EQ(r.bad_offset, -1);
  EXPECT_EQ(r.expected, san::HeapSan::kRedzoneLeft);
}

TEST_F(HeapSanTest, DetectsUseAfterFreeOnEviction) {
  auto ga = make_ga();
  auto* p = static_cast<unsigned char*>(ga->malloc(128));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x33, 128);
  ga->free(p);
  p[5] = 0xEE;  // bug: write through a dangling pointer
  // Poison is re-verified when the block leaves quarantine.
  ga->heapsan().flush_quarantine();
  EXPECT_EQ(reports_of(san::BugKind::kUaf), 1u);
  const san::BugReport r = first_of(san::BugKind::kUaf);
  EXPECT_EQ(r.bad_offset, 5);
  EXPECT_EQ(r.found, 0xEE);
  EXPECT_EQ(r.expected, san::HeapSan::kFreePoison);
}

TEST_F(HeapSanTest, DetectsLeakAtTeardown) {
  auto ga = make_ga();
  void* leaked = ga->malloc(77);
  ASSERT_NE(leaked, nullptr);
  void* freed = ga->malloc(64);
  ASSERT_NE(freed, nullptr);
  ga->free(freed);
  ga.reset();  // teardown: the live block must be reported
  EXPECT_EQ(reports_of(san::BugKind::kLeak), 1u);
  const san::BugReport r = first_of(san::BugKind::kLeak);
  EXPECT_EQ(r.user_ptr, leaked);
  EXPECT_EQ(r.user_size, 77u);
}

TEST_F(HeapSanTest, PoolPressureFlushesQuarantineBeforeOom) {
  // 2 MB pool; ~1 MB blocks. After p1 is freed it sits in quarantine
  // (exactly at the byte cap, so it is NOT evicted), pinning half the
  // pool. The third allocation cannot be served until malloc's pressure
  // path drains the quarantine — OOM here would mean the flush is missing.
  auto ga = make_ga(2 * 1024 * 1024, 1);
  const std::size_t big = (1u << 20) - 64;
  void* p1 = ga->malloc(big);
  void* p2 = ga->malloc(big);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  ga->free(p1);
  EXPECT_EQ(ga->stats().heapsan.quarantined_blocks, 1u);
  void* p3 = ga->malloc(big);
  EXPECT_NE(p3, nullptr) << "pool pressure must flush the quarantine";
  EXPECT_GE(ga->stats().heapsan.quarantine_flushes, 1u);
  ga->free(p2);
  ga->free(p3);
  ga->trim();
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
}

TEST_F(HeapSanTest, ReallocMovesAndResizesInPlace) {
  auto ga = make_ga();
  auto* p = static_cast<unsigned char*>(ga->malloc(40));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 40);
  // 40 and 56 wrap to the same 128 B class slot: in place.
  auto* q = static_cast<unsigned char*>(ga->realloc(p, 56));
  EXPECT_EQ(q, p);
  EXPECT_EQ(ga->usable_size(q), 56u);
  for (int i = 0; i < 40; ++i) ASSERT_EQ(q[i], 0x5A);
  // Writing the grown tail is legal now; the old right redzone moved.
  q[55] = 0x42;
  // Cross-capacity: moves, preserves contents, old block is quarantined.
  auto* r = static_cast<unsigned char*>(ga->realloc(q, 5000));
  ASSERT_NE(r, nullptr);
  EXPECT_NE(r, q);
  for (int i = 0; i < 40; ++i) ASSERT_EQ(r[i], 0x5A);
  EXPECT_EQ(r[55], 0x42);
  const auto st = ga->stats();
  EXPECT_EQ(st.reallocs, 2u);
  EXPECT_EQ(st.reallocs_inplace, 1u);
  ga->free(r);
  ga->trim();
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
  std::lock_guard<std::mutex> g(g_reports_mu);
  EXPECT_TRUE(g_reports.empty());
}

TEST_F(HeapSanTest, DisableMidRunKeepsTrackingOldBlocks) {
  auto ga = make_ga();
  void* sanitized = ga->malloc(100);
  ASSERT_NE(sanitized, nullptr);
  ga->set_heapsan(false);
  void* raw = ga->malloc(100);  // unsanitized: class capacity is usable
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(ga->usable_size(sanitized), 100u);
  EXPECT_EQ(ga->usable_size(raw), 128u);
  ga->free(sanitized);  // still routed through the shadow table
  ga->free(raw);        // falls through to raw routing
  EXPECT_TRUE(ga->check_consistency());
  ga->trim();
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
  std::lock_guard<std::mutex> g(g_reports_mu);
  EXPECT_TRUE(g_reports.empty());
}

TEST_F(HeapSanTest, KernelChurnStaysCleanUnderHeapSan) {
  gpu::Device dev(test::small_device(4, 256, 1));
  auto ga = make_ga(64 * 1024 * 1024, 4);
  std::atomic<std::uint64_t> completed{0};
  dev.launch_linear(4096, 128, [&](gpu::ThreadCtx& t) {
    auto& rng = t.rng();
    const std::size_t size = std::size_t{8} << rng.next_below(11);  // ..8KB
    auto* p = static_cast<unsigned char*>(ga->malloc(size));
    if (p != nullptr) {
      p[0] = 0x42;
      p[size - 1] = 0x24;
      t.yield();
      if (p[0] != 0x42 || p[size - 1] != 0x24) std::abort();
      ga->free(p);
    }
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(completed.load(), 4096u);
  EXPECT_TRUE(ga->check_consistency());
  ga->trim();
  EXPECT_EQ(ga->buddy().largest_free_block(), test::expected_coalesced_block(*ga));
  const auto st = ga->stats();
  EXPECT_EQ(st.mallocs, st.frees + st.failed_mallocs);
  EXPECT_EQ(st.heapsan.live_blocks, 0u);
  std::lock_guard<std::mutex> g(g_reports_mu);
  EXPECT_TRUE(g_reports.empty()) << "clean kernel churn must not report";
}

#if TOMA_TELEMETRY
TEST_F(HeapSanTest, ExportsSanCounters) {
  const obs::Snapshot before = obs::registry().snapshot();
  auto ga = make_ga();
  void* p = ga->malloc(64);
  ASSERT_NE(p, nullptr);
  ga->free(p);
  ga->heapsan().flush_quarantine();
  const obs::Snapshot delta = obs::registry().snapshot().diff_since(before);
  const auto ctr = [&](const char* name) -> std::uint64_t {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(ctr("san.quarantine.push"), 1u);
  EXPECT_EQ(ctr("san.quarantine.evict"), 1u);
  EXPECT_EQ(ctr("san.quarantine.flush"), 1u);
  EXPECT_GE(ctr("san.redzone_check"), 1u);
  EXPECT_GE(ctr("san.poison_check"), 1u);
}

TEST_F(HeapSanTest, DoubleFreeCountsOneReport) {
  auto ga = make_ga();
  void* p = ga->malloc(64);
  ASSERT_NE(p, nullptr);
  ga->free(p);
  const obs::Snapshot before = obs::registry().snapshot();
  ga->free(p);  // bug: second free of a quarantined block
  const obs::Snapshot delta = obs::registry().snapshot().diff_since(before);
  EXPECT_EQ(reports_of(san::BugKind::kDoubleFree), 1u);
  EXPECT_EQ(delta.counters.at("san.report.double_free"), 1u);
  for (const char* other : {"san.report.invalid_free", "san.report.oob",
                            "san.report.uaf", "san.report.leak"}) {
    EXPECT_EQ(delta.counters.at(other), 0u) << other;
  }
}
#endif

}  // namespace
}  // namespace toma::alloc
