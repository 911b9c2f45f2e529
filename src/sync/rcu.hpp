// Sleepable RCU with delegated (conditional) barriers: the paper's second
// contribution (§4.2.1, Figure 4).
//
// Per-thread-variable RCU is a non-starter with 10^5 threads, so the domain
// follows SRCU: one epoch counter plus a pair of per-parity reader
// counters. Readers increment/decrement the counter of the epoch they
// entered in; a grace period flips the epoch and waits for the old parity's
// counter to drain.
//
// The reader counters are sharded per obs::current_shard() (the SM inside
// a kernel), one cache line per shard, so a read section costs one RMW on
// a line this SM already owns. A reader unlocks on whatever shard it is on
// then (its OS thread may have migrated, or its fiber resumed elsewhere):
// single shards can wrap below zero, but the drain check sums every shard
// modulo 2^64, and the sum stays exact.
//
// Classical barrier (synchronize): serialize on the writer mutex, flip,
// wait, run deferred callbacks. The paper's observation: a barrier that is
// queued behind another barrier ends up waiting for readers that started
// *after* it was issued, pinning hardware resources.
//
// Conditional barrier (the delegation extension): if another barrier is
// already waiting to flip the epoch, our removal is covered by *its*
// upcoming grace period — so we enqueue our callbacks for that thread to
// execute and return immediately. Measured in bench/fig6.
//
// Polled grace period (start_poll/poll, the shape of Linux's
// start_poll_synchronize_srcu/poll_state_synchronize_srcu): for callers
// that must never block, such as defrag chunk retirement on a scheduler
// worker. poll() flips under a try-locked writer mutex and leaves the
// flip outstanding until its old parity drains; no flip starts before the
// previous one drained, so any number of cookies may be outstanding, mixed
// with synchronize() and barrier_conditional() on the same domain.
#pragma once

#include <atomic>
#include <cstdint>

#include "gpusim/this_thread.hpp"
#include "obs/context.hpp"
#include "obs/stats.hpp"
#include "sync/backoff.hpp"
#include "sync/spin_mutex.hpp"
#include "util/hints.hpp"

namespace toma::sync {

/// A deferred-reclamation callback. Intrusive so enqueueing allocates
/// nothing (callbacks are embedded in the object being reclaimed).
struct RcuCallback {
  RcuCallback* next = nullptr;
  void (*fn)(RcuCallback*) = nullptr;
};

class SrcuDomain {
 public:
  SrcuDomain() = default;
  SrcuDomain(const SrcuDomain&) = delete;
  SrcuDomain& operator=(const SrcuDomain&) = delete;

  // --- reader side ---------------------------------------------------------
  /// Enter a read-side critical section; returns the epoch parity to pass
  /// to read_unlock. Readers never block (the retry loop below runs at
  /// most once per concurrent epoch flip, and flips are serialized).
  ///
  /// The re-validation closes the classic SRCU race where a reader loads
  /// the epoch, stalls, and increments a parity counter that has since
  /// gone stale — which a concurrent grace period would not wait for.
  /// After the second load confirms the parity is (again) current, any
  /// barrier that subsequently flips this parity must observe and wait for
  /// our increment. A retry undoes its increment on the same shard, so a
  /// drain check never sees the undo without the increment.
  unsigned read_lock() {
    for (;;) {
      const unsigned idx =
          static_cast<unsigned>(epoch_.load(std::memory_order_seq_cst) & 1);
      Shard& s = shards_[obs::current_shard()];
      s.readers[idx].fetch_add(1, std::memory_order_seq_cst);
      if ((epoch_.load(std::memory_order_seq_cst) & 1) == idx) return idx;
      s.readers[idx].fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  void read_unlock(unsigned idx) {
    shards_[obs::current_shard()].readers[idx].fetch_sub(
        1, std::memory_order_seq_cst);
  }

  // --- writer side ---------------------------------------------------------
  /// Enqueue a callback to run after the next grace period completes.
  /// Does not start a grace period by itself.
  void call(RcuCallback* cb);

  /// Classical full barrier: waits for a grace period, then runs every
  /// queued callback (including delegated ones). Serializes with other
  /// barriers on the writer mutex.
  void synchronize();

  /// The paper's conditional barrier. If another barrier is pending (has
  /// not yet flipped the epoch), delegate `cb` to it and return
  /// immediately; otherwise behave like call(cb) + synchronize().
  /// `cb` may be nullptr to delegate nothing but still ensure a grace
  /// period is in flight.
  void barrier_conditional(RcuCallback* cb);

  /// Cookie for a polled grace period covering every reader inside now:
  /// those readers entered at or before the current epoch, so the cookie
  /// is done once the flip out of it has drained.
  std::uint64_t start_poll() const {
    return epoch_.load(std::memory_order_seq_cst) + 1;
  }

  /// Has every reader that entered before start_poll() returned `cookie`
  /// left? Never waits: drives the grace period one step under a
  /// try-locked writer mutex (complete an outstanding flip whose old
  /// parity drained, then flip again if the cookie still needs it) and
  /// returns false while readers remain or another writer holds the mutex.
  bool poll(std::uint64_t cookie);

  // --- introspection ---------------------------------------------------
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Readers inside parity `idx`, summed over the shards.
  std::int64_t readers(unsigned idx) const {
    return static_cast<std::int64_t>(reader_sum(idx & 1));
  }
  /// Completed full barriers and delegated (skipped) barriers; used by the
  /// Figure 6 benchmark to report delegation rates, and exported as
  /// `sync.rcu.full_barrier` / `delegated_barrier`.
  std::uint64_t full_barriers() const {
    return full_barriers_.load(std::memory_order_relaxed);
  }
  std::uint64_t delegated_barriers() const {
    return delegated_barriers_.load(std::memory_order_relaxed);
  }
  /// Barriers currently between "issued" and "flipped" (test/diagnostic).
  std::uint32_t pending_barriers() const {
    return pending_barriers_.load(std::memory_order_seq_cst);
  }

 private:
  struct TOMA_CACHELINE_ALIGNED Shard {
    std::atomic<std::uint64_t> readers[2] = {};
  };

  /// Readers in parity `idx`, modulo 2^64 (per-shard wraps cancel).
  std::uint64_t reader_sum(unsigned idx) const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.readers[idx].load(std::memory_order_seq_cst);
    }
    return sum;
  }
  void run_callbacks(RcuCallback* head);

  TOMA_CACHELINE_ALIGNED std::atomic<std::uint64_t> epoch_{0};
  // Every reader that entered at an epoch below drained_ has left. Written
  // under writer_mu_, which keeps epoch_ - drained_ in {0, 1}: 1 means a
  // flip is outstanding and parity drained_ & 1 has not been seen empty.
  std::atomic<std::uint64_t> drained_{0};
  Shard shards_[obs::kShards];
  TOMA_CACHELINE_ALIGNED SpinMutex writer_mu_;
  // Barriers standing between "issued" and "flipped the epoch". Any
  // callback enqueued while this is non-zero is covered by one of them.
  std::atomic<std::uint32_t> pending_barriers_{0};
  // Treiber stack of callbacks awaiting the next grace period.
  TOMA_CACHELINE_ALIGNED std::atomic<RcuCallback*> queue_{nullptr};
  std::atomic<std::uint64_t> full_barriers_{0};
  std::atomic<std::uint64_t> delegated_barriers_{0};

  static constexpr const char* kStatNames[2] = {
      "sync.rcu.full_barrier", "sync.rcu.delegated_barrier"};
  obs::StatsSource stats_source_{[this](obs::CounterTotals& out) {
    const std::uint64_t v[] = {full_barriers(), delegated_barriers()};
    obs::collect(v, out, kStatNames);
  }};
};

/// RAII read-side critical section. Constructed from a null pointer it is
/// a no-op, for a domain whose readers are armed at runtime.
class RcuReadGuard {
 public:
  explicit RcuReadGuard(SrcuDomain& d) : RcuReadGuard(&d) {}
  explicit RcuReadGuard(SrcuDomain* d)
      : d_(d), idx_(d != nullptr ? d->read_lock() : 0) {}
  ~RcuReadGuard() {
    if (d_ != nullptr) d_->read_unlock(idx_);
  }
  RcuReadGuard(const RcuReadGuard&) = delete;
  RcuReadGuard& operator=(const RcuReadGuard&) = delete;

 private:
  SrcuDomain* d_;
  unsigned idx_;
};

}  // namespace toma::sync
