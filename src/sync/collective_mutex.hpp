// Collective synchronization primitives: the paper's third contribution
// (§4.2.2) — the first synchronization construct that admits an entire
// group of cooperating threads into a critical section together.
//
// Semantics (mirroring the paper):
//  * collective lock: all threads of a group call lock(group); one of them
//    (the leader) actually acquires the underlying mutex, after which every
//    member is inside the critical section and may coordinate with the
//    others (barriers, rank-indexed work partitioning).
//  * collective unlock: each member calls unlock(group) when it leaves;
//    the mutex is released only when the last member has done so.
//
// A group is a gpusim CoalescedGroup (lanes of one warp coalesced around
// the same object); its token ties lock and unlock calls together. A
// singleton group degenerates to a plain mutex, so code paths need not
// special-case "nobody coalesced with me".
//
// The generic adaptor `Collective<M>` lifts any Lockable to collective
// semantics; CollectiveMutex is the concrete spin-mutex instantiation the
// allocator uses for its chunk lists.
#pragma once

#include <atomic>
#include <cstdint>

#include "gpusim/warp.hpp"
#include "obs/telemetry.hpp"
#include "sync/backoff.hpp"
#include "sync/spin_mutex.hpp"
#include "util/assert.hpp"
#include "util/hints.hpp"

namespace toma::sync {

template <typename M>
class Collective {
 public:
  /// Enter the critical section as part of `g`. Every member of `g` must
  /// call this exactly once with the same group object value.
  void lock(const gpu::CoalescedGroup& g) {
    if (g.is_leader()) {
      if (g.size() > 1) TOMA_CTR_INC("sync.cmutex.collective_acquire");
      obs::OpTimer timer;
      if (TOMA_SITE_SAMPLED()) TOMA_OP_HIST("sync.cmutex.acquire_ns", timer);
      base_.lock();
      timer.stop();
      pending_unlocks_.store(g.size(), std::memory_order_relaxed);
      // Publishing the token is the release point that lets members in.
      owner_token_.store(g.token(), std::memory_order_release);
    } else {
      const std::uint64_t token = g.token();
      spin_until([this, token] {
        return owner_token_.load(std::memory_order_acquire) == token;
      });
    }
  }

  /// Leave the critical section; the underlying mutex is released when the
  /// last member leaves. Members may call this at different times.
  void unlock(const gpu::CoalescedGroup& g) {
    (void)g;  // used by the debug assertion below
    TOMA_DASSERT(owner_token_.load(std::memory_order_relaxed) == g.token());
    if (pending_unlocks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      owner_token_.store(0, std::memory_order_relaxed);
      base_.unlock();
    }
  }

  /// Plain single-thread acquire, for host-side or uncoalesced callers.
  void lock() { base_.lock(); }
  void unlock() { base_.unlock(); }

  M& base() { return base_; }

 private:
  M base_;
  TOMA_CACHELINE_ALIGNED std::atomic<std::uint64_t> owner_token_{0};
  std::atomic<std::uint32_t> pending_unlocks_{0};
};

using CollectiveMutex = Collective<SpinMutex>;

/// RAII guard for a collective critical section.
class CollectiveLockGuard {
 public:
  CollectiveLockGuard(CollectiveMutex& m, const gpu::CoalescedGroup& g)
      : m_(m), g_(g) {
    m_.lock(g_);
  }
  ~CollectiveLockGuard() { m_.unlock(g_); }
  CollectiveLockGuard(const CollectiveLockGuard&) = delete;
  CollectiveLockGuard& operator=(const CollectiveLockGuard&) = delete;

 private:
  CollectiveMutex& m_;
  const gpu::CoalescedGroup& g_;
};

}  // namespace toma::sync
