// Counting semaphore with the paper's grow-aware wait semantics (§3.2).
//
// This is the *baseline* accounting primitive for two-stage resource
// management, kept for comparison against bulk semaphores (Figure 5).
//
// Extended wait(N) semantics for a growable resource pool:
//   - if S >= N:      S -= N, return N          (caller owns N units)
//   - if 0 <= S < N:  r = S, S = -1, return r   (caller must grow the pool)
//   - if S < 0:       block (someone is already growing)
//
// The grower later calls signal(B) with the batch it produced; because the
// value was -1, signal leaves S = B - 1, i.e. the grower implicitly keeps
// one unit for itself — exactly the Figure 1(a) walk-through, where
// Thread #0 signals 4 and Threads #1..#3 each take one unit while
// Thread #4 finds 0 left and grows again.
//
// Its built-in scalability barrier, demonstrated by bench/fig5: while one
// thread grows, *every* arriving thread blocks, so under T threads the wait
// queue grows to O(T) per batch regardless of batch size.
#pragma once

#include <atomic>
#include <cstdint>

#include "gpusim/this_thread.hpp"
#include "sync/backoff.hpp"
#include "util/assert.hpp"

namespace toma::sync {

class CountingSemaphore {
 public:
  explicit CountingSemaphore(std::int64_t initial = 0) : value_(initial) {
    TOMA_ASSERT(initial >= 0);
  }

  /// Acquire N units, following the extended semantics above.
  /// Returns the number of units actually acquired; a return value < N
  /// means the caller is now the designated grower and received that many
  /// residual units.
  std::int64_t wait(std::int64_t n) {
    TOMA_DASSERT(n > 0);
    std::int64_t s = value_.load(std::memory_order_acquire);
    for (;;) {
      if (s >= n) {
        if (value_.compare_exchange_weak(s, s - n, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          return n;
        }
      } else if (s >= 0) {
        if (value_.compare_exchange_weak(s, -1, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          return s;
        }
      } else {
        // Someone is growing: wait for its signal.
        spin_until([this] { return value() >= 0; });
        s = value_.load(std::memory_order_acquire);
      }
    }
  }

  /// Acquire N units only if immediately available; no growing, no waiting.
  bool try_wait(std::int64_t n) {
    TOMA_DASSERT(n > 0);
    std::int64_t s = value_.load(std::memory_order_acquire);
    while (s >= n) {
      if (value_.compare_exchange_weak(s, s - n, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  /// Release N units (or publish a freshly grown batch of N).
  void signal(std::int64_t n) {
    TOMA_DASSERT(n > 0);
    value_.fetch_add(n, std::memory_order_acq_rel);
  }

  std::int64_t value() const {
    return value_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::int64_t> value_;
};

}  // namespace toma::sync
