// Spinning in device code: condition waits and retry backoff.
//
// Both start with a short burst of cpu_relax to ride out cache-line
// ping-pong, then give the SM away so other fibers (or OS threads) make
// progress — which is what makes the primitives safe under the
// simulator's cooperative scheduling. The rule for which to use:
//
//  * spin_until(pred) — a loop whose exit depends only on shared state
//    other threads change (a lock bit, a counter, a token). After the
//    relax phase it waits on the condition: the warp scheduler skips the
//    lane until pred() holds instead of resuming it to poll.
//  * Backoff::pause() — a retry loop (a CAS or claim that failed and is
//    tried again) or modeled latency; it yields, and the lane runs again
//    next round.
#pragma once

#include <cstdint>

#include "gpusim/this_thread.hpp"

namespace toma::sync {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

/// cpu_relax rounds before a spin gives the SM away.
inline constexpr std::uint32_t kSpinsBeforeYield = 4;

/// Spin until `pred()` holds: kSpinsBeforeYield relaxed polls, then
/// this_thread::wait_until(pred). `pred` follows the WaitReady rules
/// (pure, acquire loads and compares only) and is evaluated by the
/// scheduler while this fiber is suspended.
template <typename Pred>
void spin_until(const Pred& pred) {
  for (std::uint32_t i = 0; i < kSpinsBeforeYield; ++i) {
    if (pred()) return;
    cpu_relax();
  }
  gpu::this_thread::wait_until(pred);
}

class Backoff {
 public:
  explicit Backoff(std::uint32_t spins_before_yield = kSpinsBeforeYield)
      : limit_(spins_before_yield) {}

  void pause() {
    if (count_ < limit_) {
      ++count_;
      cpu_relax();
    } else {
      gpu::this_thread::yield();
    }
  }

  void reset() { count_ = 0; }

 private:
  std::uint32_t count_ = 0;
  std::uint32_t limit_;
};

}  // namespace toma::sync
