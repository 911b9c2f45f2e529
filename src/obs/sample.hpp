// Latency sampling: the one rule every per-operation timing site follows
// (docs/OBSERVABILITY.md, "Latency sampling").
//
// Timing an operation costs two clock reads, about as much as the
// magazine hit it would time. So a timing site times one operation in
// kLatencySampleEvery: the ones whose call index is a multiple of it.
// The call index is the value an exact per-operation counter had before
// the operation (GpuAllocator's malloc and free counts), or, at a site
// with no such counter, the calling OS thread's count of earlier calls
// at that site (TOMA_SITE_SAMPLED in obs/telemetry.hpp). Either way the
// sampled operations repeat from run to run at one gpusim worker, and a
// histogram fed by an exact counter holds latency_sample_count(counter)
// samples. Counters are never sampled.
#pragma once

#include <cstdint>

#ifndef TOMA_TELEMETRY
#define TOMA_TELEMETRY 1  // CMake option TOMA_TELEMETRY (default ON)
#endif

#include "obs/context.hpp"
#include "obs/histogram.hpp"
#include "util/assert.hpp"

namespace toma::obs {

inline constexpr std::uint64_t kLatencySampleEvery = 64;

/// The sampling rule: is the operation with this call index timed?
constexpr bool latency_sampled(std::uint64_t call_index) {
  return call_index % kLatencySampleEvery == 0;
}

/// Number of timed operations among call indices [0, calls).
constexpr std::uint64_t latency_sample_count(std::uint64_t calls) {
  return (calls + kLatencySampleEvery - 1) / kLatencySampleEvery;
}

/// The clock reads of one operation, shared by every layer it crosses
/// (a Pool entry point, the GpuAllocator call under it, a realloc's inner
/// malloc and free). A layer that times the operation names its
/// histogram with record_into(); the first one starts the clock. The
/// caller that owns the operation calls stop() when it ends, which reads
/// the clock once more and records that one latency into every named
/// histogram. So a timed operation reads the clock twice however many
/// layers time it, and an untimed one never reads it. With telemetry
/// compiled out it is an empty object.
#if TOMA_TELEMETRY
class OpTimer {
 public:
  /// Record this operation's latency into `h` when it ends.
  void record_into(Histogram& h) {
    TOMA_DASSERT(nsinks_ < kMaxSinks);
    if (nsinks_ == kMaxSinks) return;
    if (nsinks_ == 0) t0_ = now_ns();
    sinks_[nsinks_++] = &h;
  }

  /// End the operation: record its latency into every histogram named
  /// since the start and return it; 0, without a clock read, if none was.
  std::uint64_t stop() {
    if (nsinks_ == 0) return 0;
    const std::uint64_t dt = now_ns() - t0_;
    for (std::uint32_t i = 0; i < nsinks_; ++i) sinks_[i]->record(dt);
    nsinks_ = 0;
    return dt;
  }

 private:
  /// A Pool entry point over a realloc's inner malloc and free.
  static constexpr std::uint32_t kMaxSinks = 3;

  std::uint64_t t0_ = 0;
  Histogram* sinks_[kMaxSinks] = {};
  std::uint32_t nsinks_ = 0;
};
#else
class OpTimer {
 public:
  void record_into(Histogram&) {}
  std::uint64_t stop() { return 0; }
};
#endif

}  // namespace toma::obs
