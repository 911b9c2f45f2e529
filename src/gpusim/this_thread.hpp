// Access to the current simulated thread, usable from any code.
//
// The synchronization primitives (bulk semaphores, RCU, mutexes) wait
// through `this_thread::wait_until(pred)` (usually via
// sync::spin_until); retry loops and modeled latency call
// `this_thread::yield()`. Inside a kernel both suspend the calling fiber
// — a condition waiter is then skipped by the scheduler until its
// predicate holds. Outside a kernel (plain unit tests on OS threads) both
// fall back to std::this_thread::yield(), so every primitive stays
// testable under gpusim and under ordinary preemptive threads alike.
#pragma once

#include <cstdint>

#include "gpusim/kernel.hpp"

namespace toma::gpu::this_thread {

/// The currently executing simulated thread, or nullptr outside a kernel.
ThreadCtx* current();

/// True when running inside a simulated kernel.
bool in_kernel();

/// Cooperative yield (fiber suspend in-kernel, OS yield otherwise).
void yield();

/// Wait until `ready(arg)` holds: ThreadCtx::wait_until in-kernel, an
/// OS-yield poll otherwise. The predicate rules of WaitReady apply.
void wait_until(WaitReady ready, const void* arg);
template <typename Pred>
void wait_until(const Pred& pred) {
  wait_until(&call_wait_pred<Pred>, &pred);
}

/// Per-thread PRNG (fiber-local in-kernel, thread_local otherwise).
util::Xorshift& rng();

/// Fresh scatter seed; different on every call.
std::uint64_t scatter_seed();

/// The SM the calling thread runs on, or the host thread's ordinal
/// (obs::host_thread_ordinal) outside a kernel, modulo `num_sms` — so
/// arena selection still works in plain tests and repeats across runs.
std::uint32_t sm_id_or_ordinal(std::uint32_t num_sms);

}  // namespace toma::gpu::this_thread
