#include "gpusim/sm.hpp"

#include <algorithm>

#include "gpusim/device.hpp"
#include "obs/telemetry.hpp"
#include "util/assert.hpp"

namespace toma::gpu {

void BlockRun::prepare(Device& dev, LaunchState& ls, std::uint64_t rank,
                       std::uint32_t sm) {
  const DeviceConfig& cfg = dev.config();
  launch = &ls;
  block_rank = rank;
  nthreads = ls.threads_per_block;
  sm_id = sm;

  const std::uint32_t nwarps = (nthreads + cfg.warp_size - 1) / cfg.warp_size;
  if (fibers.size() < nthreads) fibers = std::vector<Fiber>(nthreads);
  if (ctxs.size() < nthreads) ctxs = std::vector<ThreadCtx>(nthreads);
  if (warps.size() < nwarps) warps = std::vector<WarpCtx>(nwarps);
  if (shared_mem.size() != cfg.shared_mem_per_block)
    shared_mem.assign(cfg.shared_mem_per_block, std::byte{0});
  else
    std::fill(shared_mem.begin(), shared_mem.end(), std::byte{0});
  if (!sched_warps) {
    // Sized to the device-wide per-block maximum once: WarpRun addresses
    // must stay stable for the device's lifetime (see block.hpp).
    const std::uint32_t max_warps =
        (cfg.max_threads_per_sm + cfg.warp_size - 1) / cfg.warp_size;
    sched_warps = std::make_unique<WarpRun[]>(std::max(max_warps, nwarps));
  }

  barrier.init(nthreads);
  num_warps = nwarps;
  warps_done.store(0, std::memory_order_relaxed);
  for (std::uint32_t w = 0; w < nwarps; ++w) {
    warps[w].nlanes =
        std::min(cfg.warp_size, nthreads - w * cfg.warp_size);
    warps[w].reset_rendezvous();
    WarpRun& r = sched_warps[w];
    r.block = this;
    r.warp_rank = w;
    r.lane_begin = w * cfg.warp_size;
    r.nlanes = warps[w].nlanes;
    r.sm_id = sm;
    r.finished_lanes = 0;
    r.state.store(WarpRun::kQueued, std::memory_order_relaxed);
  }

  for (std::uint32_t t = 0; t < nthreads; ++t) {
    ThreadCtx& ctx = ctxs[t];
    ctx.device_ = &dev;
    ctx.launch_ = &ls;
    ctx.block_ = this;
    ctx.warp_ = &warps[t / cfg.warp_size];
    ctx.fiber_ = &fibers[t];
    ctx.block_rank_ = rank;
    ctx.thread_rank_ = t;
    ctx.sm_id_ = sm;
    ctx.warp_rank_ = t / cfg.warp_size;
    ctx.lane_id_ = t % cfg.warp_size;
    ctx.wait_ready_.store(nullptr, std::memory_order_relaxed);
    ctx.wait_arg_ = nullptr;
    ctx.wait_parkable_ = false;
    ctx.rng_ = util::Xorshift(util::hash64(
        (rank * ls.threads_per_block + t) ^ 0x746f6d61ULL));
    fibers[t].reset(dev.stack_pool().acquire(), &ThreadCtx::fiber_entry,
                    &ctx);
  }
}

Sm::Sm(Device& dev, std::uint32_t id) : dev_(dev), id_(id) {}
Sm::~Sm() = default;

std::unique_ptr<BlockRun> Sm::obtain_block_run() {
  if (!recycled_.empty()) {
    auto br = std::move(recycled_.back());
    recycled_.pop_back();
    return br;
  }
  return std::make_unique<BlockRun>();
}

BlockRun* Sm::admit_one(LaunchState& ls) {
  const DeviceConfig& cfg = dev_.config();
  while (resident_.size() < cfg.max_blocks_per_sm &&
         resident_threads_ + ls.threads_per_block <= cfg.max_threads_per_sm) {
    const std::uint64_t rank =
        ls.next_block.fetch_add(1, std::memory_order_relaxed);
    if (rank >= ls.total_blocks) {
      // Overshoot is harmless: `next_block` is a claim counter and claims
      // beyond the grid are simply ignored by everyone.
      return nullptr;
    }
    auto br = obtain_block_run();
    br->prepare(dev_, ls, rank, id_);
    resident_threads_ += br->nthreads;
    TOMA_TRACE_BEGIN("block", rank);
    resident_.push_back(std::move(br));
    return resident_.back().get();
  }
  return nullptr;
}

bool Sm::admit_warps(LaunchState& ls, std::vector<WarpRun*>& out) {
  std::lock_guard<std::mutex> g(admit_mu_);
  bool admitted = false;
  while (BlockRun* br = admit_one(ls)) {
    for (std::uint32_t w = 0; w < br->num_warps; ++w) {
      out.push_back(&br->sched_warps[w]);
    }
    admitted = true;
  }
  return admitted;
}

void Sm::retire_block(BlockRun* br, LaunchState& ls) {
  std::lock_guard<std::mutex> g(admit_mu_);
  TOMA_DASSERT(br->warps_done.load(std::memory_order_acquire) ==
               br->num_warps);
  for (std::uint32_t t = 0; t < br->nthreads; ++t) {
    dev_.stack_pool().release(br->fibers[t].take_stack());
  }
  resident_threads_ -= br->nthreads;
  TOMA_TRACE_END("block", br->block_rank);

  auto it = std::find_if(
      resident_.begin(), resident_.end(),
      [br](const std::unique_ptr<BlockRun>& p) { return p.get() == br; });
  TOMA_ASSERT(it != resident_.end());
  recycled_.push_back(std::move(*it));
  *it = std::move(resident_.back());
  resident_.pop_back();

  // Last: `done()` observers must not beat the bookkeeping above.
  ls.blocks_done.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace toma::gpu
