// Simulated device configuration.
//
// Defaults approximate a mid-size Volta-class part scaled for simulation:
// the paper's Titan V has 80 SMs x 2048 resident threads (163,840 resident,
// 172,032 architectural max including the GV100 full die). Simulated SM
// count is freely configurable; benchmarks use larger devices, unit tests
// smaller ones.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/hints.hpp"

namespace toma::gpu {

/// Default usable stack bytes per fiber. Device-side code is shallow; 32 KB
/// leaves generous headroom for std::function frames in the simulator.
/// AddressSanitizer frames carry redzones and run several times larger
/// (TBuddy's split recursion overflows 32 KB), so ASan builds get 128 KB.
#if defined(TOMA_ASAN)
inline constexpr std::size_t kDefaultStackBytes = 128 * 1024;
#else
inline constexpr std::size_t kDefaultStackBytes = 32 * 1024;
#endif

struct DeviceConfig {
  /// Number of streaming multiprocessors.
  std::uint32_t num_sms = 8;
  /// Max resident threads per SM (Volta: 2048).
  std::uint32_t max_threads_per_sm = 2048;
  /// Max resident thread blocks per SM (Volta: 32).
  std::uint32_t max_blocks_per_sm = 32;
  /// Threads per warp (NVIDIA: 32).
  std::uint32_t warp_size = 32;
  /// Per-block shared memory arena (Volta: up to 96 KB; default 48 KB).
  std::size_t shared_mem_per_block = 48 * 1024;
  /// Usable stack bytes per fiber.
  std::size_t stack_bytes = kDefaultStackBytes;
  /// OS worker threads driving the SMs. 0 = the process default: an
  /// explicit set_default_num_workers() value, else the TOMA_WORKERS
  /// environment variable, else min(hw concurrency, num_sms). One worker
  /// runs the launch inline on the calling thread with a deterministic
  /// schedule (the CI replay leg).
  std::uint32_t num_workers = 0;

  /// Architectural ceiling on simultaneously resident threads.
  std::uint64_t max_resident_threads() const {
    return std::uint64_t{num_sms} * max_threads_per_sm;
  }
};

}  // namespace toma::gpu
