// Thread/fiber identity and time sources for the obs layer.
//
// obs sits between util and gpusim, so it cannot ask the simulator "which
// SM am I on?". Instead the scheduler pushes the identity of the fiber it
// is about to resume down through set_thread_context(); host threads
// (tests, benchmark setup) fall back to a stable hash of their OS thread
// id. Everything here is header-only and dependency-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

namespace toma::obs {

/// Counter shards. Fixed so handles need no device knowledge; SM ids map
/// onto shards modulo kShards (64 covers every simulated device in-tree).
inline constexpr std::uint32_t kShards = 64;

namespace detail {

inline constexpr std::uint32_t kNoSm = 0xffffffffu;

// Set by the gpusim scheduler around every fiber resume; kNoSm on host
// threads.
inline thread_local std::uint32_t tl_sm = kNoSm;
inline thread_local std::uint32_t tl_warp = 0;

inline std::uint32_t host_thread_shard() {
  static thread_local const std::uint32_t shard = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards);
  return shard;
}

}  // namespace detail

/// Shard index for the calling context: the resident SM inside a kernel, a
/// stable hash of the OS thread id outside one.
inline std::uint32_t current_shard() {
  const std::uint32_t sm = detail::tl_sm;
  if (sm != detail::kNoSm) return sm % kShards;
  return detail::host_thread_shard();
}

/// Scheduler hook: publish the identity of the fiber about to run.
inline void set_thread_context(std::uint32_t sm, std::uint32_t warp) {
  detail::tl_sm = sm;
  detail::tl_warp = warp;
}

inline void clear_thread_context() { detail::tl_sm = detail::kNoSm; }

/// SM/warp of the calling context (trace record identity). Host threads
/// report kShards + shard so traces distinguish them from real SMs.
inline std::uint32_t current_sm() {
  const std::uint32_t sm = detail::tl_sm;
  return sm != detail::kNoSm ? sm : kShards + detail::host_thread_shard();
}
inline std::uint32_t current_warp() {
  return detail::tl_sm != detail::kNoSm ? detail::tl_warp : 0;
}

// --- monotonic tick source -------------------------------------------------
//
// The simulated-time axis for trace records: the warp-queue scheduler
// advances it by one per warp step (the round-robin baseline, per SM
// round), giving every trace event a globally ordered,
// scheduler-quantum-resolution timestamp (wall clock would interleave
// host noise into the simulated timeline).

namespace detail {
inline std::atomic<std::uint64_t> g_tick{0};
}

inline std::uint64_t current_tick() {
  return detail::g_tick.load(std::memory_order_relaxed);
}

inline std::uint64_t advance_tick() {
  return detail::g_tick.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Wall-clock nanoseconds for latency histograms (latencies span fiber
/// suspensions, so they measure real time a request was in flight).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace toma::obs
