// End-to-end integration: realistic kernels using the full GpuAllocator
// through the simulated device, mirroring how device code would call the
// standard malloc/free interface.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "alloc/alloc.hpp"
#include "gpusim/gpusim.hpp"
#include "support/test_support.hpp"

namespace toma {
namespace {

TEST(Integration, LinkedListPerThread) {
  // Each thread builds a private linked list with malloc, walks it, then
  // frees it — dynamic data structures in device code.
  gpu::Device dev(test::small_device());
  alloc::GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
  struct Node {
    Node* next;
    std::uint64_t value;
  };
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> oom{0};
  dev.launch_linear(1024, 128, [&](gpu::ThreadCtx& t) {
    Node* head = nullptr;
    const int n = 1 + static_cast<int>(t.global_rank() % 8);
    for (int i = 0; i < n; ++i) {
      auto* node = static_cast<Node*>(ga.malloc(sizeof(Node)));
      if (node == nullptr) {
        oom.fetch_add(1);
        break;
      }
      node->next = head;
      node->value = t.global_rank() + i;
      head = node;
      t.yield();
    }
    std::uint64_t sum = 0;
    for (Node* cur = head; cur != nullptr; cur = cur->next) sum += cur->value;
    total.fetch_add(sum, std::memory_order_relaxed);
    while (head != nullptr) {
      Node* next = head->next;
      ga.free(head);
      head = next;
    }
  });
  EXPECT_EQ(oom.load(), 0u);
  EXPECT_GT(total.load(), 0u);
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(Integration, ProducerConsumerHandoff) {
  // Producers allocate and publish; consumers (other blocks, possibly on
  // other SMs) verify content and free. Exercises cross-arena frees.
  gpu::Device dev(test::small_device(4, 256, 1));
  alloc::GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
  constexpr std::uint32_t kItems = 512;
  std::vector<std::atomic<void*>> mailbox(kItems);
  std::atomic<std::uint32_t> consumed{0};

  dev.launch_linear(2 * kItems, 64, [&](gpu::ThreadCtx& t) {
    const std::uint64_t id = t.global_rank();
    if (id < kItems) {
      auto* buf = static_cast<std::uint32_t*>(ga.malloc(64));
      ASSERT_NE(buf, nullptr);
      for (int i = 0; i < 16; ++i) buf[i] = static_cast<std::uint32_t>(id);
      mailbox[id].store(buf, std::memory_order_release);
    } else {
      const std::uint32_t slot = static_cast<std::uint32_t>(id - kItems);
      void* p;
      while ((p = mailbox[slot].load(std::memory_order_acquire)) == nullptr) {
        t.yield();
      }
      auto* buf = static_cast<std::uint32_t*>(p);
      for (int i = 0; i < 16; ++i) {
        if (buf[i] != slot) std::abort();
      }
      ga.free(p);
      consumed.fetch_add(1);
    }
  });
  EXPECT_EQ(consumed.load(), kItems);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Integration, BlockSharedScratchAllocation) {
  // One thread per block allocates a shared scratch buffer (the paper's
  // warp/block-coalesced pattern); the block barriers, uses it, frees it.
  gpu::Device dev(test::small_device());
  alloc::GpuAllocator ga({.pool_bytes = 32 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
  std::atomic<std::uint64_t> checks{0};
  dev.launch(gpu::Dim3{16}, gpu::Dim3{64}, [&](gpu::ThreadCtx& t) {
    auto** slot = static_cast<std::uint32_t**>(t.shared_mem());
    if (t.thread_rank() == 0) {
      *slot = static_cast<std::uint32_t*>(ga.malloc(64 * sizeof(std::uint32_t)));
      ASSERT_NE(*slot, nullptr);
    }
    t.sync_block();
    std::uint32_t* scratch = *slot;
    scratch[t.thread_rank()] = t.thread_rank();
    t.sync_block();
    if (t.thread_rank() == 0) {
      std::uint32_t sum = 0;
      for (int i = 0; i < 64; ++i) sum += scratch[i];
      if (sum == 64 * 63 / 2) checks.fetch_add(1);
      ga.free(scratch);
    }
  });
  EXPECT_EQ(checks.load(), 16u);
  EXPECT_TRUE(ga.check_consistency());
}

TEST(Integration, PoolExhaustionBehaviour) {
  // Run exactly enough threads to exhaust the pool with 4 KB allocations
  // (the Figure 7 protocol at one size): every allocation must succeed
  // because the buddy range has zero fragmentation.
  gpu::Device dev(test::small_device());
  constexpr std::size_t kPoolBytes = 8 * 1024 * 1024;
  alloc::GpuAllocator ga({.pool_bytes = kPoolBytes,
                          .num_arenas = dev.num_sms()});
  // Under HeapSan a 4 KB request carries redzones and occupies the next
  // order up; size the thread count to the block's true pool footprint so
  // the pool is exactly exhausted in either mode.
  const std::size_t footprint = alloc::GpuAllocator::effective_size(
      ga.heapsan_enabled() ? ga.heapsan().wrap_size(4096) : 4096);
  const std::uint64_t n = kPoolBytes / footprint;
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::atomic<void*>> held(n);
  dev.launch_linear(n, 128, [&](gpu::ThreadCtx& t) {
    if (t.global_rank() >= n) return;
    void* p = ga.malloc(4096);
    if (p == nullptr) {
      failed.fetch_add(1);
    } else {
      held[t.global_rank()].store(p);
    }
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(ga.buddy().free_bytes(), 0u);
  for (auto& h : held) {
    if (void* p = h.load()) ga.free(p);
  }
  EXPECT_TRUE(ga.check_consistency());
  ga.trim();  // flush the buddy quicklists so the freed pages coalesce
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

TEST(Integration, RepeatedLaunchesReuseState) {
  // The allocator survives many kernel launches with full recycling.
  gpu::Device dev(test::small_device());
  alloc::GpuAllocator ga({.pool_bytes = 16 * 1024 * 1024,
                          .num_arenas = dev.num_sms()});
  for (int launch = 0; launch < 5; ++launch) {
    dev.launch_linear(512, 64, [&](gpu::ThreadCtx& t) {
      void* p = ga.malloc(8 << (t.global_rank() % 6));
      if (p != nullptr) {
        t.yield();
        ga.free(p);
      }
    });
    ASSERT_TRUE(ga.check_consistency()) << "after launch " << launch;
  }
  ga.trim();
  EXPECT_EQ(ga.buddy().largest_free_block(), test::expected_coalesced_block(ga));
}

}  // namespace
}  // namespace toma
