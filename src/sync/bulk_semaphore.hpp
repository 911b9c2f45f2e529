// Bulk semaphore: the paper's first contribution (§3.3, Algorithms 1 & 2).
//
// A counting semaphore extended with two counters so that *many* threads
// can grow the resource pool concurrently:
//
//   C — value: units currently available
//   E — expected: units promised by in-flight growers
//   R — reserved: units claimed by threads waiting for expected units
//
// The *expected availability* C + E - R answers "can I eventually get my N
// units without anyone growing?". If yes, the thread reserves and waits;
// if no, the thread becomes *a* grower (one of possibly many) by bumping E
// with its batch, and returns kMustGrow. This is what removes the
// counting-semaphore scalability barrier where a single grower blocks all
// arrivals (compare Figure 1(a) vs 1(b); measured in bench/fig5).
//
// All three counters are packed into one 64-bit word:
//
//   bits [40,64) C   (24 bits, up to 16M units)
//   bits [20,40) E   (20 bits)
//   bits [ 0,20) R   (20 bits)
//
// so every transition is a single CAS — and signal(), which is
// unconditional, is a single wait-free fetch_add (adding N to the C field
// and subtracting B from the E field in the same instruction). Field
// underflow/overflow cannot occur when callers respect the protocol:
// E is only decremented by the grower that previously incremented it, R
// only by the reserver, and C never exceeds the total resource count.
//
// Protocol summary for a grower (wait returned kMustGrow after wait(N, B)):
//   produced a batch of B units -> keep N, publish rest: signal(B-N, B-N)
//   produced nothing (grow failed) -> signal(0, B-N)
//   produced K in [N, B] units    -> keep N, signal(K-N, B-N)
#pragma once

#include <atomic>
#include <cstdint>

#include "gpusim/this_thread.hpp"
#include "obs/telemetry.hpp"
#include "sync/backoff.hpp"
#include "util/assert.hpp"

namespace toma::sync {

class BulkSemaphore {
 public:
  enum class WaitResult : int {
    kAcquired = 0,  // N units taken from C; proceed to the tracking stage
    kMustGrow = -1  // caller must produce a batch and signal it
  };

  static constexpr std::uint32_t kCBits = 24;
  static constexpr std::uint32_t kEBits = 20;
  static constexpr std::uint32_t kRBits = 20;
  static constexpr std::uint64_t kMaxValue = (1ull << kCBits) - 1;
  static constexpr std::uint64_t kMaxExpected = (1ull << kEBits) - 1;
  static constexpr std::uint64_t kMaxReserved = (1ull << kRBits) - 1;

  explicit BulkSemaphore(std::uint64_t initial = 0) {
    TOMA_ASSERT(initial <= kMaxValue);
    word_.store(pack(initial, 0, 0), std::memory_order_relaxed);
  }

  /// Algorithm 1. Acquire `n` units with grow batch size `b` (b > n).
  WaitResult wait(std::uint64_t n, std::uint64_t b) {
    TOMA_DASSERT(n > 0 && b >= n);
    std::uint64_t w = word_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint64_t c = unpack_c(w), e = unpack_e(w), r = unpack_r(w);
      if (c + e < r + n) {
        // Not enough expected availability: promise a batch ourselves.
        TOMA_DASSERT(e + (b - n) <= kMaxExpected);
        if (word_.compare_exchange_weak(w, pack(c, e + (b - n), r),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          TOMA_CTR_INC("sync.bsem.grow");
          return WaitResult::kMustGrow;
        }
      } else if (c >= n) {
        if (word_.compare_exchange_weak(w, pack(c - n, e, r),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          TOMA_CTR_INC("sync.bsem.acquired");
          return WaitResult::kAcquired;
        }
      } else {
        // Covered by expected units: reserve and wait for them to land.
        //
        // NOTE: Algorithm 1 in the paper waits while R < C+E, which makes
        // the *exactly-covered* waiter (R == C+E after its own
        // reservation) exit immediately, drop its reservation, re-qualify
        // and reserve again — an oscillation that never blocks on real
        // hardware but never *yields* either, deadlocking a cooperative
        // scheduler (and burning memory bandwidth on a GPU). We wait
        // while R <= C+E, which is the condition the entry test
        // (C+E-R >= N, with R not yet including us) actually implies.
        TOMA_DASSERT(r + n <= kMaxReserved);
        if (word_.compare_exchange_weak(w, pack(c, e, r + n),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          TOMA_CTR_INC("sync.bsem.reserve");
          obs::OpTimer timer;
          if (TOMA_SITE_SAMPLED()) TOMA_OP_HIST("sync.bsem.wait_ns", timer);
          spin_until([this, n] {
            const std::uint64_t v = load();
            return unpack_c(v) >= n ||
                   unpack_r(v) > unpack_c(v) + unpack_e(v);
          });
          timer.stop();
          // Drop the reservation and re-decide from scratch.
          w = word_.fetch_sub(pack(0, 0, n), std::memory_order_acq_rel) -
              pack(0, 0, n);
          if (unpack_c(w) < n) {
            // Released by a shortfall (a failed grow, or a unit a
            // try_wait borrowed), not by units landing: yield once so a
            // borrowed unit can come back before we re-decide, rather
            // than electing ourselves a grower on a transient dip.
            gpu::this_thread::yield();
            w = word_.load(std::memory_order_acquire);
          }
        }
      }
    }
  }

  /// Acquire `n` units only if C >= n right now; never waits, never turns
  /// the caller into a grower. Used by TBuddy's merge path (§4.1): only a
  /// failed try_wait *guarantees* the buddy cannot be merged.
  bool try_wait(std::uint64_t n) {
    TOMA_DASSERT(n > 0);
    std::uint64_t w = word_.load(std::memory_order_acquire);
    while (unpack_c(w) >= n) {
      if (word_.compare_exchange_weak(w, w - pack(n, 0, 0),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  /// Algorithm 2: C += n, E -= b. Wait-free (single fetch_add). There is
  /// no separate wake-up step: the scheduler re-evaluates each reserved
  /// waiter's condition before it would resume it, so the next warp step
  /// after this fetch_add lets the waiters whose condition now holds run.
  void signal(std::uint64_t n, std::uint64_t b = 0) {
    const std::uint64_t delta = pack(n, 0, 0) - pack(0, b, 0);
    const std::uint64_t prev =
        word_.fetch_add(delta, std::memory_order_acq_rel);
    (void)prev;
    TOMA_DASSERT(unpack_e(prev) >= b);
    TOMA_DASSERT(unpack_c(prev) + n <= kMaxValue);
  }

  // --- introspection (tests, stats; not synchronization) ------------------
  std::uint64_t value() const { return unpack_c(load()); }
  std::uint64_t expected() const { return unpack_e(load()); }
  std::uint64_t reserved() const { return unpack_r(load()); }

  struct Snapshot {
    std::uint64_t value, expected, reserved;
  };
  Snapshot snapshot() const {
    const std::uint64_t w = load();
    return {unpack_c(w), unpack_e(w), unpack_r(w)};
  }

 private:
  static constexpr std::uint32_t kEShift = kRBits;
  static constexpr std::uint32_t kCShift = kRBits + kEBits;

  static constexpr std::uint64_t pack(std::uint64_t c, std::uint64_t e,
                                      std::uint64_t r) {
    return (c << kCShift) | (e << kEShift) | r;
  }
  static constexpr std::uint64_t unpack_c(std::uint64_t w) {
    return w >> kCShift;
  }
  static constexpr std::uint64_t unpack_e(std::uint64_t w) {
    return (w >> kEShift) & kMaxExpected;
  }
  static constexpr std::uint64_t unpack_r(std::uint64_t w) {
    return w & kMaxReserved;
  }

  std::uint64_t load() const { return word_.load(std::memory_order_acquire); }

  std::atomic<std::uint64_t> word_;
};

}  // namespace toma::sync
