#include "gpusim/fiber.hpp"

#include <cstdint>

#include "util/assert.hpp"

#if defined(TOMA_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(TOMA_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(TOMA_USE_UCONTEXT)
extern "C" {
void toma_ctx_swap(void** save_sp, void* restore_sp);
void toma_ctx_trampoline();
}
#endif

namespace toma::gpu {

#if defined(TOMA_USE_UCONTEXT)

// makecontext only passes ints, so the FiberContext pointer is split into
// two 32-bit halves (the POSIX-sanctioned idiom for 64-bit hosts).
void uc_trampoline_dispatch(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<FiberContext*>(
      (static_cast<std::uintptr_t>(hi) << 32) | lo);
  self->entry_(self->arg_);
  TOMA_UNREACHABLE();  // fiber entries must suspend-finish, not return
}

void FiberContext::init(const Stack& stack, Entry entry, void* arg) {
  entry_ = entry;
  arg_ = arg;
  TOMA_ASSERT(getcontext(&ctx_) == 0);
  ctx_.uc_stack.ss_sp =
      static_cast<char*>(stack.top()) - stack.usable_bytes();
  ctx_.uc_stack.ss_size = stack.usable_bytes();
  ctx_.uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&uc_trampoline_dispatch), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

void FiberContext::switch_to(FiberContext& target) {
  TOMA_ASSERT(swapcontext(&ctx_, &target.ctx_) == 0);
}

#else  // asm backend

void FiberContext::init(const Stack& stack, Entry entry, void* arg) {
  // Seed the initial frame consumed by toma_ctx_swap's pop sequence:
  // [r15=entry][r14=arg][r13][r12][rbx][rbp][ret=trampoline]
  auto* top = static_cast<void**>(stack.top());
  void** sp = top - 7;
  sp[0] = reinterpret_cast<void*>(entry);  // -> r15
  sp[1] = arg;                             // -> r14
  sp[2] = nullptr;                         // -> r13
  sp[3] = nullptr;                         // -> r12
  sp[4] = nullptr;                         // -> rbx
  sp[5] = nullptr;                         // -> rbp
  sp[6] = reinterpret_cast<void*>(&toma_ctx_trampoline);
  sp_ = sp;
}

void FiberContext::switch_to(FiberContext& target) {
  toma_ctx_swap(&sp_, target.sp_);
}

#endif

Fiber::~Fiber() {
#if defined(TOMA_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::reset(Stack stack, Entry entry, void* arg) {
  TOMA_ASSERT_MSG(finished_, "resetting a live fiber");
  stack_ = std::move(stack);
#if defined(TOMA_ASAN)
  // A recycled stack still carries the redzones of its last fiber's
  // frames, which never returned.
  ASAN_UNPOISON_MEMORY_REGION(
      static_cast<char*>(stack_.top()) - stack_.usable_bytes(),
      stack_.usable_bytes());
  entry_ = entry;
  arg_ = arg;
  self_.init(stack_, &Fiber::asan_entry, this);
#else
  self_.init(stack_, entry, arg);
#endif
  finished_ = false;
#if defined(TOMA_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Stack Fiber::take_stack() {
  TOMA_ASSERT(finished_);
#if defined(TOMA_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
#endif
  return std::move(stack_);
}

void Fiber::resume() {
  TOMA_DASSERT(!finished_);
#if defined(TOMA_TSAN_FIBERS)
  // Captured fresh on every resume: warps migrate across workers.
  tsan_sched_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(TOMA_ASAN)
  void* sched_fake = nullptr;
  __sanitizer_start_switch_fiber(
      &sched_fake, static_cast<char*>(stack_.top()) - stack_.usable_bytes(),
      stack_.usable_bytes());
#endif
  scheduler_.switch_to(self_);
#if defined(TOMA_ASAN)
  __sanitizer_finish_switch_fiber(sched_fake, nullptr, nullptr);
#endif
}

void Fiber::suspend() {
#if defined(TOMA_TSAN_FIBERS)
  __tsan_switch_to_fiber(tsan_sched_, 0);
#endif
#if defined(TOMA_ASAN)
  // A finished fiber never comes back: no fake stack to keep.
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &asan_fake_,
                                 asan_sched_bottom_, asan_sched_size_);
#endif
  self_.switch_to(scheduler_);
#if defined(TOMA_ASAN)
  // Resumed, possibly by another worker: record its stack for the next
  // switch back.
  __sanitizer_finish_switch_fiber(asan_fake_, &asan_sched_bottom_,
                                  &asan_sched_size_);
#endif
}

#if defined(TOMA_ASAN)
void Fiber::asan_entry(void* self) {
  auto* f = static_cast<Fiber*>(self);
  __sanitizer_finish_switch_fiber(nullptr, &f->asan_sched_bottom_,
                                  &f->asan_sched_size_);
  f->entry_(f->arg_);
}
#endif

}  // namespace toma::gpu
