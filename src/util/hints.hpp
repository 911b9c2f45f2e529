// Compiler/layout hints shared across the library.
#pragma once

#include <cstddef>
#include <new>

#define TOMA_LIKELY(x) __builtin_expect(!!(x), 1)
#define TOMA_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define TOMA_NOINLINE __attribute__((noinline))
#define TOMA_ALWAYS_INLINE __attribute__((always_inline)) inline

// TOMA_ASAN: built with AddressSanitizer (GCC defines __SANITIZE_ADDRESS__,
// Clang reports the feature).
#if defined(__SANITIZE_ADDRESS__)
#define TOMA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TOMA_ASAN 1
#endif
#endif

namespace toma::util {

// Hardware destructive interference size. libstdc++ on x86-64 reports 64;
// we hard-code the common value so struct layouts are stable across
// toolchains (this is layout-affecting, not just a tuning knob).
inline constexpr std::size_t kCacheLine = 64;

}  // namespace toma::util

#define TOMA_CACHELINE_ALIGNED alignas(::toma::util::kCacheLine)
