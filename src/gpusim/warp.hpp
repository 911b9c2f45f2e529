// Warp-level cooperation: coalesced groups.
//
// `coalesce_warp(ctx, tag)` gathers the lanes of the calling thread's warp
// that are concurrently requesting the same operation (identified by `tag`,
// typically the address of the contended object) into a group with a
// leader, ranks, and a shared token. This is the simulator analogue of
// CUDA's `coalesced_threads()` / `__match_any_sync` idiom the paper uses to
// detect "which threads are concurrently invoking [the allocator]" and take
// specialized single-thread vs multi-thread paths.
//
// Group formation is best-effort by design: a thread that arrives after a
// window closes simply forms (or joins) the next one, and a group of size
// one is always valid. Correctness of collective primitives never depends
// on who ends up grouped together.
#pragma once

#include <cstdint>

#include "gpusim/kernel.hpp"

namespace toma::gpu {

class CoalescedGroup {
 public:
  /// Number of member lanes.
  std::uint32_t size() const { return size_; }
  /// This thread's dense rank within the group (0 .. size-1).
  std::uint32_t rank() const { return rank_; }
  /// Exactly one member (rank 0) is the leader.
  bool is_leader() const { return rank_ == 0; }
  /// Bitmask of member lane ids.
  std::uint64_t mask() const { return mask_; }
  /// Token identifying this group instance; equal for all members,
  /// distinct across concurrently-live groups. Used by collective
  /// synchronization primitives to grant a lock to a whole group.
  std::uint64_t token() const { return token_; }

  /// A group of one with the given (non-zero) token. Used by code that can
  /// run outside a kernel, where warp coalescing is unavailable.
  static CoalescedGroup singleton(std::uint64_t token) {
    CoalescedGroup g;
    g.token_ = token | 1;
    return g;
  }

 private:
  friend CoalescedGroup coalesce_warp(ThreadCtx&, const void*);
  std::uint64_t mask_ = 1;
  std::uint64_t token_ = 0;
  std::uint32_t size_ = 1;
  std::uint32_t rank_ = 0;
};

/// Form a coalesced group among lanes of `ctx`'s warp that call this with
/// the same `tag` while the rendezvous window is open. Never blocks
/// indefinitely; returns a singleton group if no peers show up.
CoalescedGroup coalesce_warp(ThreadCtx& ctx, const void* tag);

/// Hand each member of `g` its own 64-bit value (the simulator analogue of
/// a __shfl_sync in which lane `rank` reads slot `rank` of the leader's
/// registers). The leader passes `values`, one entry per member indexed
/// by rank; the other members pass nullptr. Every member, the leader
/// included, returns `values[rank()]`. EVERY member of `g` must call this
/// exactly once with the same group. The leader returns only after every
/// member has read its own entry, so `values` may live on its stack.
std::uint64_t warp_scatter(ThreadCtx& ctx, const CoalescedGroup& g,
                           const std::uint64_t* values);

}  // namespace toma::gpu
