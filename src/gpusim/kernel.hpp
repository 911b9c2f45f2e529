// Kernel launch geometry and the per-thread execution context.
//
// ThreadCtx is the simulated analogue of CUDA's builtin variables
// (threadIdx/blockIdx/blockDim/gridDim, %smid, %laneid) plus the scheduling
// hooks a cooperative simulator needs (`yield`, `wait_until`, `sync_block`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/prng.hpp"

namespace toma::gpu {

class Device;
class Fiber;
class BlockBarrier;
class Scheduler;
struct BlockRun;
struct WarpCtx;
struct LaunchState;

/// CUDA-style 3D extent. Linearization is x-major (x fastest), matching
/// CUDA's thread enumeration order.
struct Dim3 {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  std::uint32_t z = 1;

  constexpr Dim3() = default;
  constexpr Dim3(std::uint32_t x_, std::uint32_t y_ = 1, std::uint32_t z_ = 1)
      : x(x_), y(y_), z(z_) {}

  constexpr std::uint64_t count() const {
    return std::uint64_t{x} * y * z;
  }

  /// Decompose a linear rank back into coordinates.
  constexpr Dim3 decode(std::uint64_t rank) const {
    return Dim3{static_cast<std::uint32_t>(rank % x),
                static_cast<std::uint32_t>((rank / x) % y),
                static_cast<std::uint32_t>(rank / (std::uint64_t{x} * y))};
  }
};

/// A wait condition: `ready(arg)` says whether a waiting lane may proceed.
/// The scheduler evaluates it on the lane's behalf, from whichever worker
/// steps the warp, so it must be pure and cheap — acquire loads and
/// compares only — and `arg` must outlive the wait (it lives on the
/// waiting fiber's stack).
using WaitReady = bool (*)(const void* arg);

/// Adapts a `bool()` callable to a WaitReady whose arg is the callable.
template <typename Pred>
bool call_wait_pred(const void* pred) {
  return (*static_cast<const Pred*>(pred))();
}

/// Execution context of one simulated GPU thread. Instances are owned by
/// the SM scheduler; kernels receive a reference and must not store it
/// beyond the kernel's lifetime.
class ThreadCtx {
 public:
  // --- identity -----------------------------------------------------------
  std::uint32_t thread_rank() const { return thread_rank_; }
  Dim3 thread_idx() const;
  std::uint64_t block_rank() const { return block_rank_; }
  Dim3 block_idx() const;
  Dim3 block_dim() const;
  Dim3 grid_dim() const;
  /// Globally unique linear thread id within the grid.
  std::uint64_t global_rank() const;
  std::uint32_t sm_id() const { return sm_id_; }
  std::uint32_t warp_rank() const { return warp_rank_; }
  std::uint32_t lane_id() const { return lane_id_; }

  // --- scheduling ---------------------------------------------------------
  /// Cooperatively give up the SM for one scheduling round. Retry loops
  /// and modeled latency yield; a loop that waits for other threads to
  /// change shared state uses wait_until instead.
  void yield();

  /// Suspend until `ready(arg)` holds; returns at once if it already
  /// does. While the condition is false the warp scheduler skips this
  /// lane instead of resuming it, so a waiter costs a predicate call per
  /// warp step rather than a context switch. The condition is re-checked
  /// after every resume, so spurious resumes are safe.
  void wait_until(WaitReady ready, const void* arg);
  template <typename Pred>
  void wait_until(const Pred& pred) {
    wait_until(&call_wait_pred<Pred>, &pred);
  }

  /// Block-wide barrier (CUDA __syncthreads). All live threads of the
  /// block must reach it; calling it divergently is undefined (as in CUDA).
  void sync_block();

  // --- resources ----------------------------------------------------------
  /// Base of the block's shared memory arena (same pointer for all threads
  /// of the block); zeroed before the block starts.
  void* shared_mem() const;
  std::size_t shared_mem_bytes() const;

  /// Per-thread PRNG, seeded from the global rank. Used to scatter
  /// concurrent searches (tree descent, bitmap probing).
  util::Xorshift& rng() { return rng_; }

  /// A fresh scatter seed (different on every call).
  std::uint64_t scatter_seed() { return rng_.next(); }

  Device& device() const { return *device_; }
  WarpCtx& warp() const { return *warp_; }
  BlockRun& block() const { return *block_; }

 private:
  friend class Sm;
  friend class Scheduler;
  friend class BlockBarrier;
  friend struct BlockRun;

  static void fiber_entry(void* arg);

  /// The one wait path behind wait_until and barrier_wait: publish the
  /// wait record {ready, arg, parkable}, suspend, clear it, and loop until
  /// the condition holds. A parkable wait lets the scheduler park the
  /// whole warp when every lane is blocked; that is only sound for
  /// conditions whose every change is followed by an unpark (barrier
  /// transitions), so other conditions never park.
  void wait_on(WaitReady ready, const void* arg, bool parkable);

  /// Barrier wait: wait_on(BlockBarrier::releasable(gen), parkable).
  void barrier_wait(std::uint32_t gen);

  /// Called by every barrier release (and after thread_exited): unparks
  /// the block's warps under the warp-queue scheduler, no-op otherwise.
  void barrier_released();

  Device* device_ = nullptr;
  LaunchState* launch_ = nullptr;
  BlockRun* block_ = nullptr;
  WarpCtx* warp_ = nullptr;
  Fiber* fiber_ = nullptr;
  std::uint64_t block_rank_ = 0;
  std::uint32_t thread_rank_ = 0;
  std::uint32_t sm_id_ = 0;
  std::uint32_t warp_rank_ = 0;
  std::uint32_t lane_id_ = 0;
  /// The wait record: non-null while the lane is suspended in wait_on.
  /// `wait_arg_` and `wait_parkable_` are written before the release
  /// store of `wait_ready_`, and only the worker stepping the warp reads
  /// them (warp hand-offs go through the deque's release/acquire edges).
  std::atomic<WaitReady> wait_ready_{nullptr};
  const void* wait_arg_ = nullptr;
  bool wait_parkable_ = false;
  util::Xorshift rng_;
};

/// A kernel body. One instance per launch, invoked concurrently by every
/// simulated thread; captures must be thread-safe.
using Kernel = std::function<void(ThreadCtx&)>;

}  // namespace toma::gpu
