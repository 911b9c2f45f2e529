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

  // Grace-period length: epoch flip until the last old-epoch reader leaves.
  [[maybe_unused]] const std::uint64_t t0 = TOMA_NOW_NS();
  // A flip that poll() left outstanding drains first: the parity it waits
  // on is the one our flip reopens to new readers.
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  if (e != drained_.load(std::memory_order_relaxed)) {
    spin_until([this, e] { return reader_sum((e - 1) & 1) == 0; });
  }
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  spin_until([this, e] { return reader_sum(e & 1) == 0; });
  drained_.store(e + 1, std::memory_order_release);
  TOMA_HIST("sync.rcu.grace_ns", TOMA_NOW_NS() - t0);
  writer_mu_.unlock();

  full_barriers_.fetch_add(1, std::memory_order_relaxed);
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
    return;
  }
  synchronize();
}

bool SrcuDomain::poll(std::uint64_t cookie) {
  if (drained_.load(std::memory_order_acquire) >= cookie) return true;
  if (!writer_mu_.try_lock()) return false;
  std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  std::uint64_t done = drained_.load(std::memory_order_relaxed);
  if (e != done && reader_sum((e - 1) & 1) == 0) done = e;
  // A cookie is at most epoch + 1, so only a drained domain at the
  // cookie's own epoch still needs a flip; a flip with no reader in the
  // old parity completes on the spot.
  if (done == e && e < cookie) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (reader_sum(e & 1) == 0) done = ++e;
  }
  drained_.store(done, std::memory_order_release);
  writer_mu_.unlock();
  return done >= cookie;
}

}  // namespace toma::sync
