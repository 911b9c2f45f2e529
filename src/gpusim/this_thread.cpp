#include "gpusim/this_thread.hpp"

#include <thread>

#include "gpusim/block.hpp"
#include "gpusim/device.hpp"
#include "gpusim/sched.hpp"
#include "gpusim/sm.hpp"
#include "obs/context.hpp"
#include "util/assert.hpp"
#include "util/prng.hpp"

namespace toma::gpu {

namespace {
thread_local ThreadCtx* tl_current = nullptr;

util::Xorshift& host_thread_rng() {
  thread_local util::Xorshift rng(obs::host_thread_ordinal());
  return rng;
}
}  // namespace

namespace detail {
// Scheduler hook: the SM publishes the fiber it is about to resume.
void set_current(ThreadCtx* ctx) { tl_current = ctx; }
}  // namespace detail

namespace this_thread {

ThreadCtx* current() { return tl_current; }

bool in_kernel() { return tl_current != nullptr; }

void yield() {
  if (ThreadCtx* ctx = tl_current) {
    ctx->yield();
  } else {
    std::this_thread::yield();
  }
}

void wait_until(WaitReady ready, const void* arg) {
  if (ThreadCtx* ctx = tl_current) {
    ctx->wait_until(ready, arg);
    return;
  }
  while (!ready(arg)) std::this_thread::yield();
}

util::Xorshift& rng() {
  if (ThreadCtx* ctx = tl_current) return ctx->rng();
  return host_thread_rng();
}

std::uint64_t scatter_seed() { return rng().next(); }

std::uint32_t sm_id_or_ordinal(std::uint32_t num_sms) {
  TOMA_DASSERT(num_sms > 0);
  if (ThreadCtx* ctx = tl_current) return ctx->sm_id() % num_sms;
  return obs::host_thread_ordinal() % num_sms;
}

}  // namespace this_thread

// ---- ThreadCtx methods that need full BlockRun/Fiber definitions --------

Dim3 ThreadCtx::thread_idx() const {
  return launch_->block.decode(thread_rank_);
}

Dim3 ThreadCtx::block_idx() const { return launch_->grid.decode(block_rank_); }

Dim3 ThreadCtx::block_dim() const { return launch_->block; }

Dim3 ThreadCtx::grid_dim() const { return launch_->grid; }

std::uint64_t ThreadCtx::global_rank() const {
  return block_rank_ * launch_->threads_per_block + thread_rank_;
}

void ThreadCtx::yield() {
  TOMA_DASSERT(tl_current == this);
  fiber_->suspend();
}

void ThreadCtx::wait_on(WaitReady ready, const void* arg, bool parkable) {
  TOMA_DASSERT(tl_current == this);
  while (!ready(arg)) {
    // Publish the record before suspending: arg and flag first, then the
    // predicate with release, so a scheduler that acquire-reads a
    // non-null predicate always sees the matching argument.
    wait_arg_ = arg;
    wait_parkable_ = parkable;
    wait_ready_.store(ready, std::memory_order_release);
    fiber_->suspend();
    // Resumed: the warp scheduler saw ready(arg); the loop re-checks
    // anyway, so a spurious resume is harmless.
    wait_ready_.store(nullptr, std::memory_order_relaxed);
  }
}

void ThreadCtx::wait_until(WaitReady ready, const void* arg) {
  wait_on(ready, arg, /*parkable=*/false);
}

namespace {
struct BarrierWait {
  const BlockBarrier* barrier;
  std::uint32_t gen;
};

bool barrier_releasable(const void* arg) {
  const auto* w = static_cast<const BarrierWait*>(arg);
  return w->barrier->releasable(w->gen);
}
}  // namespace

void ThreadCtx::barrier_wait(std::uint32_t gen) {
  const BarrierWait w{&block_->barrier, gen};
  wait_on(&barrier_releasable, &w, /*parkable=*/true);
}

void ThreadCtx::barrier_released() {
  launch_->sched->unpark_block(*block_, warp_rank_);
}

void ThreadCtx::sync_block() { block_->barrier.arrive_and_wait(*this); }

void* ThreadCtx::shared_mem() const { return block_->shared_mem.data(); }

std::size_t ThreadCtx::shared_mem_bytes() const {
  return block_->shared_mem.size();
}

void ThreadCtx::fiber_entry(void* arg) {
  auto* ctx = static_cast<ThreadCtx*>(arg);
  try {
    (*ctx->launch_->kernel)(*ctx);
  } catch (...) {
    ctx->launch_->record_error(std::current_exception());
  }
  ctx->block_->barrier.thread_exited();
  // The dropped live count can satisfy `arrived >= live` for waiters that
  // are all parked — wake them to re-evaluate (kernels that early-exit a
  // subset of threads while the rest barrier would deadlock otherwise).
  ctx->barrier_released();
  ctx->fiber_->mark_finished();
  ctx->fiber_->suspend();
  TOMA_UNREACHABLE();  // a finished fiber must never be resumed
}

}  // namespace toma::gpu
