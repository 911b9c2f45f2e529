// Test-and-test-and-set spin mutex; a contended locker waits on the lock
// bit through spin_until.
//
// This is the GPU-style mutex the paper treats as the scalability baseline:
// correct, simple, and serializing. The allocator uses it only where the
// paper does — short critical sections on cold paths (tree node state
// transitions, RCU writer side) — and replaces it with collective mutexes
// where whole groups enter together.
#pragma once

#include <atomic>

#include "sync/backoff.hpp"
#include "util/hints.hpp"

namespace toma::sync {

class SpinMutex {
 public:
  SpinMutex() = default;
  SpinMutex(const SpinMutex&) = delete;
  SpinMutex& operator=(const SpinMutex&) = delete;

  void lock() {
    while (!try_lock()) {
      spin_until([this] { return !locked_.load(std::memory_order_acquire); });
    }
  }

  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

/// RAII guard (std::lock_guard works too; this one exists so device code
/// does not depend on <mutex>).
template <typename M>
class LockGuard {
 public:
  explicit LockGuard(M& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& m_;
};

}  // namespace toma::sync
