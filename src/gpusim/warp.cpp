#include "gpusim/warp.hpp"

#include "gpusim/block.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/prng.hpp"

namespace toma::gpu {

namespace {
// Scheduling rounds the opener keeps the window open. One round suffices
// for every co-resident lane already at the join point; a little slack
// catches lanes that were a few instructions away.
constexpr int kWindowRounds = 3;

std::uint64_t group_token(const WarpCtx* w, std::uint64_t epoch) {
  // Non-zero for any live group: collective primitives reserve token 0 for
  // "unowned".
  return util::hash64(reinterpret_cast<std::uintptr_t>(w) ^
                      (epoch * 0x9e3779b97f4a7c15ULL)) |
         1;
}
}  // namespace

// Lanes of one warp never run in parallel (same SM worker) and interleave
// only at yield points, so each contiguous sequence below is atomic with
// respect to sibling lanes. The atomics keep the code well-defined and
// tool-clean anyway.
CoalescedGroup coalesce_warp(ThreadCtx& ctx, const void* tag) {
  WarpCtx& w = ctx.warp();
  const std::uint64_t mybit = std::uint64_t{1} << ctx.lane_id();

  for (;;) {
    const auto state = w.rv_state.load(std::memory_order_acquire);

    if (state == WarpCtx::kIdle) {
      // Open a window. No yield since the load above, so no sibling can
      // have raced us; still use CAS for defense in depth.
      auto expected = static_cast<std::uint32_t>(WarpCtx::kIdle);
      if (!w.rv_state.compare_exchange_strong(expected, WarpCtx::kOpen,
                                              std::memory_order_acq_rel)) {
        continue;
      }
      w.rv_tag.store(tag, std::memory_order_relaxed);
      w.rv_mask.store(mybit, std::memory_order_release);
      for (int i = 0; i < kWindowRounds; ++i) ctx.yield();
      // Close: snapshot-and-clear so stragglers land in the next window.
      const std::uint64_t final_mask =
          w.rv_mask.exchange(0, std::memory_order_acq_rel);
      const std::uint64_t epoch =
          w.rv_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
      w.rv_final.store(final_mask, std::memory_order_relaxed);
      w.rv_acks.store(0, std::memory_order_relaxed);
      w.rv_state.store(WarpCtx::kClosed, std::memory_order_release);

      CoalescedGroup g;
      g.mask_ = final_mask;
      g.size_ = util::popcount(final_mask);
      g.rank_ = util::popcount(final_mask & (mybit - 1));
      g.token_ = group_token(&w, epoch);
      if (w.rv_acks.fetch_add(1, std::memory_order_acq_rel) + 1 == g.size_) {
        w.rv_state.store(WarpCtx::kIdle, std::memory_order_release);
      }
      return g;
    }

    if (state == WarpCtx::kOpen &&
        w.rv_tag.load(std::memory_order_relaxed) == tag) {
      w.rv_mask.fetch_or(mybit, std::memory_order_acq_rel);
      ctx.wait_until([&w] {
        return w.rv_state.load(std::memory_order_acquire) != WarpCtx::kOpen;
      });
      const std::uint64_t final_mask =
          w.rv_final.load(std::memory_order_acquire);
      if (final_mask & mybit) {
        CoalescedGroup g;
        g.mask_ = final_mask;
        g.size_ = util::popcount(final_mask);
        g.rank_ = util::popcount(final_mask & (mybit - 1));
        g.token_ = group_token(&w, w.rv_epoch.load(std::memory_order_relaxed));
        if (w.rv_acks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            g.size_) {
          w.rv_state.store(WarpCtx::kIdle, std::memory_order_release);
        }
        return g;
      }
      continue;  // our OR landed after the close: try the next window
    }

    // Window busy with a different tag, or closed and draining acks.
    ctx.yield();
  }
}

std::uint64_t warp_scatter(ThreadCtx& ctx, const CoalescedGroup& g,
                           const std::uint64_t* values) {
  if (g.size() == 1) return values[0];
  WarpCtx& w = ctx.warp();
  if (g.is_leader()) {
    // Acquire the warp's hand-off slot: groups overlap in time (a new
    // rendezvous window can open while a previous group is still handing
    // off), so the leader must own the slot before touching it, or it
    // would strand the previous group's members.
    std::uint64_t expected = 0;
    while (!w.bc_owner.compare_exchange_weak(expected, g.token(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      expected = 0;
      ctx.wait_until([&w] {
        return w.bc_owner.load(std::memory_order_acquire) == 0;
      });
    }
    w.bc_values.store(values, std::memory_order_relaxed);
    w.bc_acks.store(0, std::memory_order_relaxed);
    w.bc_token.store(g.token(), std::memory_order_release);  // publish
    // Wait for every member to read its entry before releasing the slot:
    // `values` must outlive the reads, and a subsequent group on this warp
    // can then hand off safely.
    const std::uint32_t members = g.size() - 1;
    ctx.wait_until([&w, members] {
      return w.bc_acks.load(std::memory_order_acquire) == members;
    });
    w.bc_token.store(0, std::memory_order_relaxed);
    w.bc_owner.store(0, std::memory_order_release);
    return values[0];
  }
  const std::uint64_t token = g.token();
  ctx.wait_until([&w, token] {
    return w.bc_token.load(std::memory_order_acquire) == token;
  });
  const std::uint64_t v =
      w.bc_values.load(std::memory_order_relaxed)[g.rank()];
  w.bc_acks.fetch_add(1, std::memory_order_acq_rel);
  return v;
}

}  // namespace toma::gpu
