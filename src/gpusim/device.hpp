// The simulated GPU device: owns the SMs, the fiber stack pool, and the
// launch machinery. Launches are synchronous: `launch` returns when every
// thread of the grid has finished, rethrowing the first kernel exception.
//
// Grids larger than the device's residency execute in waves, exactly like
// real hardware: an SM admits a new block as soon as a resident one
// retires, so fiber memory is bounded by residency, not grid size.
//
// Scheduling is warp-granular (sched.hpp): N OS workers each own a
// work-stealing deque of runnable warps; barrier-blocked warps park
// instead of being spuriously resumed.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "gpusim/config.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/stack.hpp"
#include "obs/stats.hpp"

namespace toma::gpu {

class Sm;
class Scheduler;

/// Process-wide default for DeviceConfig::num_workers == 0. An explicit
/// value set here wins; otherwise the TOMA_WORKERS environment variable
/// (parsed once); otherwise min(hardware concurrency, the device's SM
/// count). Pass 0 to drop back to the environment/hardware resolution.
void set_default_num_workers(std::uint32_t n);
/// The resolved default for a device with `num_sms` SMs (>= 1).
std::uint32_t default_num_workers(std::uint32_t num_sms);

/// Shared state of one grid launch.
struct LaunchState {
  const Kernel* kernel = nullptr;
  Dim3 grid;
  Dim3 block;
  std::uint64_t total_blocks = 0;
  std::uint32_t threads_per_block = 0;

  /// The warp-queue scheduler driving this launch. The barrier
  /// park/unpark hooks go through here.
  Scheduler* sched = nullptr;

  std::atomic<std::uint64_t> next_block{0};
  std::atomic<std::uint64_t> blocks_done{0};

  std::mutex error_mu;
  std::exception_ptr first_error;

  bool done() const {
    return blocks_done.load(std::memory_order_acquire) >= total_blocks;
  }
  void record_error(std::exception_ptr e);
};

/// Counters of a single launch.
struct LaunchStats {
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t fiber_resumes = 0;
  /// Warp steps: the scheduler's quanta.
  std::uint64_t sched_rounds = 0;
  std::uint64_t warp_parks = 0;
  std::uint64_t warp_unparks = 0;
  std::uint64_t warp_steals = 0;
  /// Lanes a warp step skipped because their wait condition was still
  /// false.
  std::uint64_t wait_skips = 0;
};

/// Aggregate execution counters. Every field is cumulative across
/// launches; `last_launch` holds the most recent launch's share. The
/// scheduler counts and `blocks_executed` are exported as the `gpusim.*`
/// registry counters.
struct DeviceStats {
  std::uint64_t launches = 0;
  std::uint64_t blocks_executed = 0;
  std::uint64_t threads_executed = 0;
  std::uint64_t fiber_resumes = 0;
  std::uint64_t sched_rounds = 0;
  std::uint64_t warp_parks = 0;
  std::uint64_t warp_unparks = 0;
  std::uint64_t warp_steals = 0;
  std::uint64_t wait_skips = 0;
  LaunchStats last_launch;
};

class Device {
 public:
  explicit Device(DeviceConfig cfg = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceConfig& config() const { return cfg_; }
  std::uint32_t num_sms() const { return cfg_.num_sms; }

  /// Run `kernel` over grid x block threads; blocks until completion.
  void launch(Dim3 grid, Dim3 block, const Kernel& kernel);

  /// Convenience: launch `total_threads` 1-D threads in blocks of
  /// `block_size` (last block untrimmed; kernels guard on global_rank).
  void launch_linear(std::uint64_t total_threads, std::uint32_t block_size,
                     const Kernel& kernel);

  StackPool& stack_pool() { return stack_pool_; }
  DeviceStats stats() const;

  /// Test hook: when non-null, the scheduler appends
  /// (block_rank << 16 | warp_rank) per warp step. Only meaningful with
  /// one worker (multi-worker appends would race); the determinism test
  /// compares two runs' logs. Pass nullptr to detach.
  void set_sched_log(std::vector<std::uint64_t>* log) { sched_log_ = log; }

 private:
  friend class Sm;
  friend class Scheduler;

  DeviceConfig cfg_;
  StackPool stack_pool_;
  std::vector<std::unique_ptr<Sm>> sms_;
  std::vector<std::uint64_t>* sched_log_ = nullptr;

  // The collector reads stats_ under stats_mu_; nothing calls into the
  // registry while holding it.
  mutable std::mutex stats_mu_;
  DeviceStats stats_;

  static constexpr const char* kStatNames[7] = {
      "gpusim.fiber_resumes", "gpusim.warp.steps",
      "gpusim.warp.parks",    "gpusim.warp.unparks",
      "gpusim.warp.steals",   "gpusim.warp.wait_skips",
      "gpusim.blocks_admitted"};
  obs::StatsSource stats_source_;  // last: unregisters first
};

}  // namespace toma::gpu
