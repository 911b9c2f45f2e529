#include "gpusim/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/hints.hpp"

#if defined(TOMA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace toma::gpu {

namespace {
std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

void unmap(void* base, std::size_t len) {
#if defined(TOMA_ASAN)
  // ASan keeps shadow state across munmap: the redzones of fiber frames
  // that never returned would flag the next mapping at these addresses
  // (a pool chunk, say) as a stack-buffer overflow.
  ASAN_UNPOISON_MEMORY_REGION(base, len);
#endif
  ::munmap(base, len);
}
}  // namespace

Stack::Stack(std::size_t usable_bytes) {
  const std::size_t ps = page_size();
  usable_ = util::align_up(usable_bytes, ps);
  mapped_ = usable_ + ps;  // one guard page at the low end
  void* p = ::mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  TOMA_ASSERT_MSG(p != MAP_FAILED, "fiber stack mmap failed");
  const int rc = ::mprotect(p, ps, PROT_NONE);
  TOMA_ASSERT_MSG(rc == 0, "fiber stack guard mprotect failed");
  base_ = p;
}

Stack::~Stack() {
  if (base_ != nullptr) unmap(base_, mapped_);
}

Stack::Stack(Stack&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      mapped_(std::exchange(o.mapped_, 0)),
      usable_(std::exchange(o.usable_, 0)) {}

Stack& Stack::operator=(Stack&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr) unmap(base_, mapped_);
    base_ = std::exchange(o.base_, nullptr);
    mapped_ = std::exchange(o.mapped_, 0);
    usable_ = std::exchange(o.usable_, 0);
  }
  return *this;
}

void* Stack::top() const {
  TOMA_DASSERT(valid());
  const auto addr = reinterpret_cast<std::uintptr_t>(base_) + mapped_;
  return reinterpret_cast<void*>(util::align_down(addr, 16));
}

Stack StackPool::acquire() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!free_.empty()) {
      Stack s = std::move(free_.back());
      free_.pop_back();
      return s;
    }
  }
  return Stack(stack_bytes_);
}

void StackPool::release(Stack s) {
  std::lock_guard<std::mutex> g(mu_);
  free_.push_back(std::move(s));
}

std::size_t StackPool::pooled() const {
  std::lock_guard<std::mutex> g(mu_);
  return free_.size();
}

}  // namespace toma::gpu
