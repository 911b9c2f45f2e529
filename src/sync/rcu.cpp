#include "sync/rcu.hpp"

#include "obs/telemetry.hpp"

namespace toma::sync {

void SrcuDomain::call(RcuCallback* cb) {
  if (cb == nullptr) return;
  RcuCallback* head = queue_.load(std::memory_order_relaxed);
  do {
    cb->next = head;
  } while (!queue_.compare_exchange_weak(head, cb, std::memory_order_seq_cst,
                                         std::memory_order_relaxed));
}

void SrcuDomain::run_callbacks(RcuCallback* head) {
  while (head != nullptr) {
    RcuCallback* next = head->next;
    head->fn(head);  // may free/reuse `head`
    head = next;
  }
}

void SrcuDomain::synchronize() {
  // Count ourselves as pending *before* taking the writer mutex: a
  // conditional barrier that observes pending > 0 may delegate to us, and
  // the seq_cst ordering between its enqueue and our queue_.exchange below
  // guarantees we see (and run) its callbacks. See barrier_conditional.
  pending_barriers_.fetch_add(1, std::memory_order_seq_cst);
  writer_mu_.lock();
  pending_barriers_.fetch_sub(1, std::memory_order_seq_cst);

  // Adopt every callback queued so far; they are covered by the grace
  // period we are about to run.
  RcuCallback* adopted = queue_.exchange(nullptr, std::memory_order_seq_cst);

  const std::uint64_t old_epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel);
  const unsigned old_idx = static_cast<unsigned>(old_epoch & 1);

  // Grace-period length: epoch flip until the last old-epoch reader leaves.
  [[maybe_unused]] const std::uint64_t t0 = TOMA_NOW_NS();
  spin_until([this, old_idx] {
    return readers_[old_idx].load(std::memory_order_acquire) == 0;
  });
  TOMA_HIST("sync.rcu.grace_ns", TOMA_NOW_NS() - t0);
  writer_mu_.unlock();

  full_barriers_.fetch_add(1, std::memory_order_relaxed);
  TOMA_CTR_INC("sync.rcu.full_barrier");
  run_callbacks(adopted);
}

void SrcuDomain::barrier_conditional(RcuCallback* cb) {
  // Publish the callback first (seq_cst), then check for a pending
  // barrier (seq_cst). If we observe pending > 0, that barrier's
  // queue_.exchange has not happened yet in the seq_cst total order
  // (it post-dates its pending-- which post-dates our load), so it will
  // adopt our callback and its grace period covers our logical removal.
  call(cb);
  if (pending_barriers_.load(std::memory_order_seq_cst) > 0) {
    delegated_barriers_.fetch_add(1, std::memory_order_relaxed);
    TOMA_CTR_INC("sync.rcu.delegated_barrier");
    return;
  }
  synchronize();
}

}  // namespace toma::sync
