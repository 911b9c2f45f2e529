// Resident thread-block state: barrier, warp contexts, shared memory and
// the fibers executing the block's threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/fiber.hpp"
#include "gpusim/kernel.hpp"
#include "util/hints.hpp"

namespace toma::gpu {

/// Counter/generation block barrier with CUDA-on-Volta semantics: the
/// barrier releases when every *non-exited* thread of the block has
/// arrived, so a kernel may early-return some threads (the ubiquitous
/// `if (rank >= n) return;` guard) and still barrier with the rest.
/// Generation and reset are packed into one atomic word so release and
/// reset are a single CAS. Correct under both cooperative scheduling and
/// true multi-worker parallelism.
///
/// Scheduler integration (docs/INTERNALS.md §7): a waiting thread suspends
/// through ThreadCtx::barrier_wait, which records the lane's wait record
/// {releasable, generation, parkable} the warp scheduler uses to *park*
/// warps whose every lane is blocked instead of spuriously resuming them,
/// and every release calls ThreadCtx::barrier_released to unpark the
/// block's warps.
/// `releasable(gen)` is the scheduler's wake predicate; it is monotonic
/// per waiting episode (a flipped generation never flips back, `live_`
/// never grows), which is what makes a single unpark per event sufficient.
class BlockBarrier {
 public:
  void init(std::uint32_t nthreads) {
    state_.store(0, std::memory_order_relaxed);
    live_.store(nthreads, std::memory_order_relaxed);
  }

  /// Called (by the fiber entry shim) when a thread finishes the kernel.
  /// The caller must follow with ThreadCtx::barrier_released — a dropped
  /// live count can satisfy `arrived >= live` for waiters that are all
  /// parked.
  void thread_exited() { live_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Scheduler wake predicate: can a lane blocked on `gen` resume? True
  /// once the generation flipped, or once the arrivals of the current
  /// generation already cover every live thread (a waiter must then run to
  /// perform the release CAS itself).
  bool releasable(std::uint32_t gen) const {
    const std::uint64_t s = state_.load(std::memory_order_acquire);
    if (static_cast<std::uint32_t>(s >> 32) != gen) return true;
    return static_cast<std::uint32_t>(s) >=
           live_.load(std::memory_order_acquire);
  }

  /// Returns true for exactly one caller per generation: the thread that
  /// released the barrier (useful for electing post-barrier work).
  bool arrive_and_wait(ThreadCtx& ctx) {
    std::uint64_t s = state_.load(std::memory_order_acquire);
    std::uint32_t gen;
    for (;;) {  // arrival: either release (last) or count ourselves in
      gen = static_cast<std::uint32_t>(s >> 32);
      const std::uint32_t cnt = static_cast<std::uint32_t>(s);
      if (cnt + 1 >= live_.load(std::memory_order_acquire)) {
        if (state_.compare_exchange_weak(
                s, (std::uint64_t{gen} + 1) << 32,
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          ctx.barrier_released();
          return true;
        }
      } else if (state_.compare_exchange_weak(s, s + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        break;
      }
    }
    // Wait; re-check liveness so a thread exiting elsewhere releases us.
    for (;;) {
      ctx.barrier_wait(gen);
      s = state_.load(std::memory_order_acquire);
      if (static_cast<std::uint32_t>(s >> 32) != gen) return false;
      const std::uint32_t cnt = static_cast<std::uint32_t>(s);
      if (cnt >= live_.load(std::memory_order_acquire)) {
        if (state_.compare_exchange_weak(
                s, (std::uint64_t{gen} + 1) << 32,
                std::memory_order_acq_rel, std::memory_order_relaxed)) {
          ctx.barrier_released();
          return true;
        }
      }
    }
  }

  std::uint32_t live() const { return live_.load(std::memory_order_acquire); }

 private:
  // state_ = generation:32 | arrived:32
  TOMA_CACHELINE_ALIGNED std::atomic<std::uint64_t> state_{0};
  std::atomic<std::uint32_t> live_{0};
};

/// Per-warp state. Lanes of a warp are co-scheduled on one SM worker and
/// only interleave at yield points, so sequences of warp-state operations
/// with no intervening yield are effectively atomic with respect to the
/// other lanes. The rendezvous protocol in warp.cpp relies on this.
struct WarpCtx {
  std::uint32_t nlanes = 0;  // last warp of a block may be partial

  // Rendezvous window state (see warp.cpp for the protocol).
  enum State : std::uint32_t { kIdle = 0, kOpen = 1, kClosed = 2 };
  std::atomic<std::uint32_t> rv_state{kIdle};
  std::atomic<const void*> rv_tag{nullptr};
  std::atomic<std::uint64_t> rv_mask{0};
  std::atomic<std::uint64_t> rv_final{0};
  std::atomic<std::uint32_t> rv_acks{0};
  std::atomic<std::uint64_t> rv_epoch{0};

  // Hand-off slot (see warp_scatter in warp.hpp). bc_owner serializes
  // slot use across (possibly overlapping) groups; bc_token publishes the
  // leader's per-member values to the owning group's members.
  std::atomic<std::uint64_t> bc_owner{0};
  std::atomic<std::uint64_t> bc_token{0};
  std::atomic<const std::uint64_t*> bc_values{nullptr};
  std::atomic<std::uint32_t> bc_acks{0};

  void reset_rendezvous() {
    rv_state.store(kIdle, std::memory_order_relaxed);
    rv_tag.store(nullptr, std::memory_order_relaxed);
    rv_mask.store(0, std::memory_order_relaxed);
    rv_final.store(0, std::memory_order_relaxed);
    rv_acks.store(0, std::memory_order_relaxed);
    bc_owner.store(0, std::memory_order_relaxed);
    bc_token.store(0, std::memory_order_relaxed);
    bc_values.store(nullptr, std::memory_order_relaxed);
    bc_acks.store(0, std::memory_order_relaxed);
  }
};

/// The schedulable unit of the warp-queue scheduler: one warp of one
/// resident block, carrying its ready-queue state. A WarpRun lives in at
/// most one worker deque at a time; ownership of its non-atomic fields
/// (and of the lanes' fiber stacks) hands off through the deque's
/// release/acquire edges plus the park/unpark CASes below.
///
/// State machine (transitions in sched.cpp):
///   kQueued  -> kRunning   by the worker that dequeued it
///   kRunning -> kQueued    owner requeue (some lane still runnable)
///   kRunning -> kParked    owner, when every unfinished lane is blocked
///                          on a parkable (barrier) wait
///   kParked  -> kQueued    unpark (CAS winner enqueues, exactly once)
/// A finished warp is simply never requeued. `notify_epoch` closes the
/// park/unpark sleep-wake race: every unpark bumps it *before* examining
/// `state`, and a parker re-reads it after publishing kParked (with
/// seq_cst fences on both sides), so either the parker sees the bump and
/// reclaims itself, or the unparker sees kParked and requeues it.
struct WarpRun {
  enum State : std::uint32_t { kQueued = 0, kRunning = 1, kParked = 2 };

  BlockRun* block = nullptr;
  std::uint32_t warp_rank = 0;
  std::uint32_t lane_begin = 0;   // first thread rank of the warp
  std::uint32_t nlanes = 0;
  std::uint32_t sm_id = 0;
  std::uint32_t finished_lanes = 0;  // stepping-worker private
  std::atomic<std::uint32_t> state{kQueued};
  std::atomic<std::uint32_t> notify_epoch{0};
};

/// Everything a resident block needs while it executes. BlockRun objects
/// are recycled by the SM between blocks (stacks are pooled separately)
/// and destroyed only at device teardown — WarpRun addresses stay valid
/// for the device's lifetime, which the scheduler's post-park epoch check
/// relies on (it may touch a warp that already retired and was re-issued;
/// the worst case is a benign spurious wakeup, never a dangling read).
struct BlockRun {
  LaunchState* launch = nullptr;
  std::uint64_t block_rank = 0;
  std::uint32_t nthreads = 0;
  std::uint32_t sm_id = 0;
  std::uint32_t num_warps = 0;
  std::atomic<std::uint32_t> warps_done{0};
  /// Warp scheduling records, allocated once at the device-wide maximum
  /// (never reallocated — address stability, see above).
  std::unique_ptr<WarpRun[]> sched_warps;

  std::vector<Fiber> fibers;
  std::vector<ThreadCtx> ctxs;
  std::vector<WarpCtx> warps;
  BlockBarrier barrier;
  std::vector<std::byte> shared_mem;

  /// (Re)configure for a new block instance. Stacks are attached by the SM.
  void prepare(Device& dev, LaunchState& ls, std::uint64_t rank,
               std::uint32_t sm_id);
};

}  // namespace toma::gpu
