// Warp-granular ready-queue scheduler (docs/INTERNALS.md §7).
//
// The schedulable unit is a WarpRun (block.hpp). N OS workers each own a
// bounded work-stealing deque (sync/ws_deque.hpp) of runnable warps:
//
//   * take from own deque (FIFO — forward progress for yielding warps)
//   * when it drains, admit new blocks onto the SMs and enqueue their
//     warps locally
//   * when there is nothing to admit, steal the oldest warp from a
//     victim's deque (round-robin victim scan)
//
// A stepped warp resumes each unfinished lane once, skipping lanes whose
// wait record {ready, arg, parkable} says the condition they wait on
// (ThreadCtx::wait_until, or BlockBarrier::releasable for a barrier) is
// still false — the direct win over the old resume-everything round
// robin, which paid a full context switch per blocked lane per round. A
// warp whose every unfinished lane is blocked on a *parkable* (barrier)
// wait parks: it leaves the ready queues entirely until a barrier release
// (or an early thread exit that drops the live count) unparks it. A warp
// with a lane waiting on any other condition stays queued, because no
// event would unpark it; stepping it again only re-evaluates predicates.
//
// The sleep-wake race is closed Dekker-style without locks: the parker
// publishes kParked, fences seq_cst, then re-reads the warp's
// notify_epoch; the unparker bumps notify_epoch, fences seq_cst, then
// reads the state. At least one side must see the other, so either the
// parker reclaims itself or the unparker's kParked->kQueued CAS requeues
// the warp; the CAS can win at most once per park, so a warp is never
// enqueued twice. (See WarpRun in block.hpp for the state machine.)
//
// Determinism: with one worker there is no stealing, admission scans SMs
// in a fixed order, the deque is a plain FIFO and unparks enqueue in warp
// order — the whole schedule is a pure function of the kernel's yield
// pattern, which is what the record->replay CI leg relies on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/block.hpp"
#include "sync/ws_deque.hpp"

namespace toma::gpu {

class Device;
struct LaunchState;
struct LaunchStats;

class Scheduler {
 public:
  Scheduler(Device& dev, LaunchState& ls, std::uint32_t num_workers);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Body of OS worker `worker_id` (0 <= id < num_workers); returns when
  /// the whole grid retired.
  void run_worker(std::uint32_t worker_id);

  /// Unpark every parked warp of `br` except `skip_warp` (the caller's
  /// own warp — it is running right now by definition). Called from
  /// kernel fibers via ThreadCtx::barrier_released.
  void unpark_block(BlockRun& br, std::uint32_t skip_warp);

  /// The launch's scheduler counts, summed over the workers (the
  /// LaunchStats fields past `blocks` and `threads`). Valid after every
  /// run_worker returned.
  LaunchStats totals() const;

 private:
  struct alignas(64) Worker {
    sync::WsDeque<WarpRun> deque;
    std::uint64_t resumes = 0;
    std::uint64_t steps = 0;
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
    std::uint64_t steals = 0;
    std::uint64_t wait_skips = 0;
    std::uint32_t victim_rr = 0;            // steal scan rotor
    std::vector<WarpRun*> admit_scratch;    // reused admission buffer
  };

  /// The worker this OS thread is running (unpark enqueues into it). Set
  /// for the duration of run_worker; kernel fibers execute on the
  /// worker's OS thread, so the unpark hook sees it too.
  static thread_local Worker* tl_worker_;

  /// Claim whatever blocks fit on the SMs (own SMs first) and enqueue
  /// their warps locally. Returns true if anything was admitted.
  bool admit(Worker& me, std::uint32_t worker_id);

  /// One pass over the other workers' deques; nullptr when all empty.
  WarpRun* steal_from_victims(Worker& me, std::uint32_t worker_id);

  /// Resume each runnable lane once, then retire/requeue/park the warp.
  void step_warp(Worker& me, WarpRun& w);

  /// Last lane of `w` finished: count the warp out and retire the block
  /// when it was the block's last, re-admitting onto the freed SM.
  void finish_warp(Worker& me, WarpRun& w);

  /// Mark the warp kQueued and put it back on our deque.
  void requeue(Worker& me, WarpRun& w);

  /// The lane waits on a condition that is still false.
  static bool lane_blocked(const ThreadCtx& ctx);
  /// False only when every unfinished lane is blocked on a parkable wait.
  static bool warp_stays_queued(const WarpRun& w);

  Device& dev_;
  LaunchState& ls_;
  std::uint32_t num_workers_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace toma::gpu
