// One streaming multiprocessor: residency accounting plus block
// admission/retirement. The warp-queue scheduler (sched.hpp) drives it:
// any worker may admit blocks onto any SM (`admit_warps`) and retire
// whichever block it finishes (`retire_block`); `admit_mu_` serializes the
// residency bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gpusim/block.hpp"

namespace toma::gpu {

class Device;
struct LaunchState;

class Sm {
 public:
  Sm(Device& dev, std::uint32_t id);
  ~Sm();

  std::uint32_t id() const { return id_; }

  /// Admit as many blocks as residency allows, appending every new
  /// block's WarpRun pointers to `out` (in warp order — single-worker
  /// determinism). Any worker may call this.
  bool admit_warps(LaunchState& ls, std::vector<WarpRun*>& out);

  /// Retire a finished resident block (all warps done), releasing its
  /// stacks back to the pool. Any worker may call.
  void retire_block(BlockRun* br, LaunchState& ls);

 private:
  /// Claim and prepare one block if residency allows; caller holds
  /// admit_mu_. nullptr when full or no blocks left to claim.
  BlockRun* admit_one(LaunchState& ls);
  std::unique_ptr<BlockRun> obtain_block_run();

  Device& dev_;
  std::uint32_t id_;
  /// Serializes admission/retirement across workers.
  std::mutex admit_mu_;
  std::vector<std::unique_ptr<BlockRun>> resident_;
  std::vector<std::unique_ptr<BlockRun>> recycled_;
  std::uint32_t resident_threads_ = 0;
};

}  // namespace toma::gpu
