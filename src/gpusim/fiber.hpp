// Cooperative fibers: the simulated GPU threads.
//
// Each logical GPU thread is a fiber. A fiber runs until it voluntarily
// suspends (yield, barrier arrival) or finishes; the SM scheduler then
// resumes the next fiber. Volta's independent thread scheduling guarantee
// (every resident thread eventually makes progress) maps to the scheduler's
// FIFO ready queues over resident warps.
//
// Two context-switch backends:
//  - default: hand-written x86-64 switch (fcontext_x86_64.S), ~10ns
//  - TOMA_USE_UCONTEXT: portable swapcontext(3) fallback
#pragma once

#include <cstddef>
#include <utility>

#if defined(TOMA_USE_UCONTEXT)
#include <ucontext.h>
#endif

// Under ThreadSanitizer the hand-rolled context switch is opaque — TSan
// would see one OS thread's shadow stack teleport and report phantom
// races on every fiber-local access. The fiber annotation API
// (__tsan_create_fiber / __tsan_switch_to_fiber) tells TSan about each
// switch, which is what lets the gpusim suites run under TSan at
// workers > 1 (the CI workers-matrix legs). AddressSanitizer needs the
// same notice for the same reason (__sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber at the same switch points, TOMA_ASAN).
#if defined(__SANITIZE_THREAD__)
#define TOMA_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TOMA_TSAN_FIBERS 1
#endif
#endif

#include "gpusim/stack.hpp"
#include "util/hints.hpp"

namespace toma::gpu {

/// Low-level suspended execution context.
class FiberContext {
 public:
  using Entry = void (*)(void*);

  FiberContext() = default;

  /// Prepare the context to run `entry(arg)` on `stack` at first resume.
  void init(const Stack& stack, Entry entry, void* arg);

  /// Switch from the currently running context into `target`, saving the
  /// current execution state into *this. Returns when somebody switches
  /// back into *this.
  void switch_to(FiberContext& target);

 private:
#if defined(TOMA_USE_UCONTEXT)
  ucontext_t ctx_{};
  Entry entry_ = nullptr;  // stashed for the makecontext trampoline
  void* arg_ = nullptr;
  friend void uc_trampoline_dispatch(unsigned hi, unsigned lo);
#else
  void* sp_ = nullptr;
#endif
};

/// A fiber: a stack plus a context plus completion state. The scheduler
/// resumes it via `resume()` from its own (scheduler) context; the fiber
/// suspends back via `suspend()`.
class Fiber {
 public:
  using Entry = void (*)(void*);

  Fiber() = default;
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Bind a stack and an entry point. `arg` is the single argument passed
  /// to `entry` on first resume. May be called again after finish() to
  /// recycle the fiber for a new logical thread.
  void reset(Stack stack, Entry entry, void* arg);

  /// Take back the stack (after the fiber finished) for pooling.
  Stack take_stack();

  bool finished() const { return finished_; }
  void mark_finished() { finished_ = true; }

  /// Scheduler side: run the fiber until it suspends or finishes.
  void resume();

  /// Fiber side: suspend back to whoever resumed us.
  void suspend();

 private:
  Stack stack_;
  FiberContext self_;       // fiber's suspended state
  FiberContext scheduler_;  // where to go back on suspend
  bool finished_ = true;
#if defined(TOMA_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;  // TSan shadow state of this fiber
  void* tsan_sched_ = nullptr;  // resuming worker's shadow state
#endif
#if defined(TOMA_ASAN)
  /// First code on a fresh fiber: completes ASan's switch, then runs
  /// entry_(arg_).
  static void asan_entry(void* self);
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  void* asan_fake_ = nullptr;                // fake stack while suspended
  const void* asan_sched_bottom_ = nullptr;  // resuming worker's stack
  std::size_t asan_sched_size_ = 0;
#endif
};

}  // namespace toma::gpu
