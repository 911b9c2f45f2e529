#include "gpusim/sched.hpp"

#include <atomic>
#include <thread>

#include "gpusim/device.hpp"
#include "gpusim/sm.hpp"
#include "obs/telemetry.hpp"
#include "util/assert.hpp"

namespace toma::gpu {

namespace detail {
void set_current(ThreadCtx* ctx);  // defined in this_thread.cpp
}

thread_local Scheduler::Worker* Scheduler::tl_worker_ = nullptr;

Scheduler::Scheduler(Device& dev, LaunchState& ls, std::uint32_t num_workers)
    : dev_(dev), ls_(ls), num_workers_(num_workers) {
  TOMA_ASSERT(num_workers_ > 0);
  const DeviceConfig& cfg = dev_.config();
  // Worst case, every resident warp of the whole device sits in one deque
  // (single worker; or every unpark landing on one thread): full warps
  // bounded by the thread residency, plus one possible partial warp per
  // resident block.
  const std::uint64_t warps_per_sm =
      std::uint64_t{cfg.max_blocks_per_sm} +
      cfg.max_threads_per_sm / cfg.warp_size;
  const std::uint64_t bound = warps_per_sm * cfg.num_sms;
  TOMA_ASSERT(bound <= 0xffffffffu);
  workers_.reserve(num_workers_);
  for (std::uint32_t i = 0; i < num_workers_; ++i) {
    auto w = std::make_unique<Worker>();
    w->deque.init(static_cast<std::uint32_t>(bound));
    workers_.push_back(std::move(w));
  }
}

Scheduler::~Scheduler() = default;

bool Scheduler::lane_blocked(const ThreadCtx& ctx) {
  const WaitReady ready = ctx.wait_ready_.load(std::memory_order_acquire);
  return ready != nullptr && !ready(ctx.wait_arg_);
}

bool Scheduler::warp_stays_queued(const WarpRun& w) {
  const BlockRun& br = *w.block;
  for (std::uint32_t i = 0; i < w.nlanes; ++i) {
    const std::uint32_t t = w.lane_begin + i;
    if (br.fibers[t].finished()) continue;
    const ThreadCtx& ctx = br.ctxs[t];
    const WaitReady ready = ctx.wait_ready_.load(std::memory_order_acquire);
    // A plain yield, a condition nothing would unpark us for, or a
    // barrier that is already releasable.
    if (ready == nullptr || !ctx.wait_parkable_ || ready(ctx.wait_arg_)) {
      return true;
    }
  }
  return false;
}

bool Scheduler::admit(Worker& me, std::uint32_t worker_id) {
  // Every block already claimed: skip the SM scan (and its mutexes) in
  // the launch tail, where drained workers come here the most.
  if (ls_.next_block.load(std::memory_order_relaxed) >= ls_.total_blocks) {
    return false;
  }
  const std::uint32_t nsms = dev_.config().num_sms;
  bool any = false;
  for (std::uint32_t i = 0; i < nsms; ++i) {
    const std::uint32_t s = (worker_id + i) % nsms;
    me.admit_scratch.clear();
    if (dev_.sms_[s]->admit_warps(ls_, me.admit_scratch)) {
      for (WarpRun* w : me.admit_scratch) me.deque.push(w);
      any = true;
    }
  }
  return any;
}

WarpRun* Scheduler::steal_from_victims(Worker& me, std::uint32_t worker_id) {
  for (std::uint32_t i = 1; i < num_workers_; ++i) {
    const std::uint32_t v = (worker_id + me.victim_rr + i) % num_workers_;
    if (v == worker_id) continue;
    if (WarpRun* w = workers_[v]->deque.steal()) {
      me.victim_rr = (me.victim_rr + i) % num_workers_;
      ++me.steals;
      TOMA_TRACE("warp.steal", (w->block->block_rank << 16) | w->warp_rank);
      return w;
    }
  }
  return nullptr;
}

void Scheduler::requeue(Worker& me, WarpRun& w) {
  w.state.store(WarpRun::kQueued, std::memory_order_release);
  me.deque.push(&w);
}

void Scheduler::finish_warp(Worker& me, WarpRun& w) {
  BlockRun& br = *w.block;
  const std::uint32_t done =
      br.warps_done.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done != br.num_warps) return;
  Sm& sm = *dev_.sms_[br.sm_id];
  sm.retire_block(&br, ls_);
  // The SM just freed residency: claim follow-up work for it eagerly so
  // the wave refills without waiting for a worker to fully drain.
  if (ls_.next_block.load(std::memory_order_relaxed) < ls_.total_blocks) {
    me.admit_scratch.clear();
    sm.admit_warps(ls_, me.admit_scratch);
    for (WarpRun* nw : me.admit_scratch) me.deque.push(nw);
  }
}

void Scheduler::step_warp(Worker& me, WarpRun& w) {
  BlockRun& br = *w.block;
  ++me.steps;
  // The simulated-time axis: one tick per warp step (the scheduling
  // quantum), shared by all workers.
  TOMA_OBS_TICK();
  if (dev_.sched_log_ != nullptr) {
    // Test hook (single-worker only): the exact step order.
    dev_.sched_log_->push_back((br.block_rank << 16) | w.warp_rank);
  }
  for (std::uint32_t i = 0; i < w.nlanes; ++i) {
    const std::uint32_t t = w.lane_begin + i;
    Fiber& f = br.fibers[t];
    if (f.finished()) continue;
    ThreadCtx& ctx = br.ctxs[t];
    if (lane_blocked(ctx)) {  // would be a spurious resume
      ++me.wait_skips;
      continue;
    }
    detail::set_current(&ctx);
    obs::set_thread_context(w.sm_id, w.warp_rank);
    f.resume();
    detail::set_current(nullptr);
    obs::clear_thread_context();
    ++me.resumes;
    if (f.finished()) ++w.finished_lanes;
  }
  if (w.finished_lanes == w.nlanes) {
    finish_warp(me, w);
    return;
  }
  // Park decision. The epoch is sampled BEFORE the runnable scan: an
  // unpark whose bump is visible here also makes its wake condition
  // visible to the scan (acquire pairs with the bump's release), so a
  // stale "all blocked" verdict always comes with a stale epoch and is
  // caught by the post-park re-read below.
  const std::uint32_t epoch = w.notify_epoch.load(std::memory_order_acquire);
  if (warp_stays_queued(w)) {
    requeue(me, w);
    return;
  }
  w.state.store(WarpRun::kParked, std::memory_order_release);
  ++me.parks;
  TOMA_TRACE("warp.park", (br.block_rank << 16) | w.warp_rank);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (w.notify_epoch.load(std::memory_order_acquire) != epoch) {
    // Missed an unpark while deciding: reclaim the warp ourselves. The
    // CAS loses exactly when the unparker's own kParked->kQueued CAS won
    // and already enqueued it — never both, never neither (Dekker pair
    // of seq_cst fences here and in unpark_block).
    std::uint32_t expect = WarpRun::kParked;
    if (w.state.compare_exchange_strong(expect, WarpRun::kQueued,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      me.deque.push(&w);
    }
  }
  // Past this point the warp may already run elsewhere: no further access
  // to *w or br.
}

void Scheduler::unpark_block(BlockRun& br, std::uint32_t skip_warp) {
  Worker* me = tl_worker_;
  TOMA_DASSERT(me != nullptr);
  // Bump every warp's epoch first, fence once, then examine states: each
  // (epoch write, fence, state read) still orders against the parker's
  // (state write, fence, epoch read) pair. The caller's own warp is
  // running this very fiber and needs no wakeup.
  for (std::uint32_t i = 0; i < br.num_warps; ++i) {
    if (i == skip_warp) continue;
    br.sched_warps[i].notify_epoch.fetch_add(1, std::memory_order_release);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (std::uint32_t i = 0; i < br.num_warps; ++i) {
    if (i == skip_warp) continue;
    WarpRun& w = br.sched_warps[i];
    std::uint32_t s = w.state.load(std::memory_order_acquire);
    while (s == WarpRun::kParked) {
      if (w.state.compare_exchange_weak(s, WarpRun::kQueued,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        me->deque.push(&w);
        ++me->unparks;
        TOMA_TRACE("warp.unpark", (br.block_rank << 16) | w.warp_rank);
        break;
      }
    }
  }
}

void Scheduler::run_worker(std::uint32_t worker_id) {
  Worker& me = *workers_[worker_id];
  tl_worker_ = &me;
  while (!ls_.done()) {
    WarpRun* w = me.deque.take();
    if (w == nullptr && admit(me, worker_id)) w = me.deque.take();
    if (w == nullptr && num_workers_ > 1) {
      w = steal_from_victims(me, worker_id);
    }
    if (w == nullptr) {
      // Momentarily idle: all remaining warps run (or park) elsewhere.
      std::this_thread::yield();
      continue;
    }
    w->state.store(WarpRun::kRunning, std::memory_order_relaxed);
    step_warp(me, *w);
  }
  tl_worker_ = nullptr;
}

LaunchStats Scheduler::totals() const {
  LaunchStats t;
  for (const auto& w : workers_) {
    t.fiber_resumes += w->resumes;
    t.sched_rounds += w->steps;
    t.warp_parks += w->parks;
    t.warp_unparks += w->unparks;
    t.warp_steals += w->steals;
    t.wait_skips += w->wait_skips;
  }
  return t;
}

}  // namespace toma::gpu
