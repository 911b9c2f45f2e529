// Telemetry entry points: compile-time-gated macros over the obs registry.
//
// Design rules (docs/OBSERVABILITY.md):
//
//   * Counters are not macros: each is a field of its owner's exact
//     statistics (obs/stats.hpp), exported through the owner's collector.
//   * Every macro resolves its registry handle once per call site via a
//     function-local static, so the steady-state cost of a histogram
//     record is a few relaxed RMWs on a shard this SM's worker owns.
//   * Per-operation latencies are sampled (obs/sample.hpp): a site times
//     one call in 64 through an obs::OpTimer, and an untimed call reads
//     no clock.
//   * With -DTOMA_TELEMETRY=0 every macro expands to a no-op that does not
//     evaluate its arguments; the obs *classes* still compile (and tests
//     exercise them) but no instrumented hot path touches them.
#pragma once

#include <cstdint>

#ifndef TOMA_TELEMETRY
#define TOMA_TELEMETRY 1  // CMake option TOMA_TELEMETRY (default ON)
#endif

#include "obs/context.hpp"   // IWYU pragma: export
#include "obs/registry.hpp"  // IWYU pragma: export
#include "obs/sample.hpp"    // IWYU pragma: export
#include "obs/trace.hpp"     // IWYU pragma: export

#if TOMA_TELEMETRY

/// Record `value` into a named log2-bucketed histogram.
#define TOMA_HIST(name, value)                                            \
  do {                                                                    \
    static ::toma::obs::Histogram& toma_obs_h_ =                          \
        ::toma::obs::registry().histogram(name);                          \
    toma_obs_h_.record(value);                                            \
  } while (0)

/// Record into element `idx` of a histogram vector ("name[idx]").
#define TOMA_HISTV(name, width, idx, value)                               \
  do {                                                                    \
    static ::toma::obs::HistogramVec& toma_obs_hv_ =                      \
        ::toma::obs::registry().histogram_vec(name, width);               \
    toma_obs_hv_.at(idx).record(value);                                   \
  } while (0)

/// Wall-clock ns (0 when telemetry is compiled out, letting timing code
/// fold away). For once-per-batch events (a drain, a grace period); a
/// per-operation site samples through TOMA_OP_HIST instead.
#define TOMA_NOW_NS() ::toma::obs::now_ns()

/// Is this call of this site one of its timed ones? The sampling rule
/// over the calling OS thread's count of earlier calls here, for sites
/// with no exact per-operation counter to key on (obs/sample.hpp).
#define TOMA_SITE_SAMPLED()                                               \
  ([]() -> bool {                                                         \
    static thread_local std::uint64_t toma_obs_calls_ = 0;                \
    return ::toma::obs::latency_sampled(toma_obs_calls_++);               \
  }())

/// Time the operation `timer` measures into histogram `name`: the
/// latency is recorded when the operation's owner calls timer.stop().
#define TOMA_OP_HIST(name, timer)                                         \
  do {                                                                    \
    static ::toma::obs::Histogram& toma_obs_h_ =                          \
        ::toma::obs::registry().histogram(name);                          \
    (timer).record_into(toma_obs_h_);                                     \
  } while (0)

/// TOMA_OP_HIST into element `idx` of a histogram vector ("name[idx]").
#define TOMA_OP_HISTV(name, width, idx, timer)                            \
  do {                                                                    \
    static ::toma::obs::HistogramVec& toma_obs_hv_ =                      \
        ::toma::obs::registry().histogram_vec(name, width);               \
    (timer).record_into(toma_obs_hv_.at(idx));                            \
  } while (0)

/// Trace events (no-ops unless tracing was enabled at runtime). `name`
/// must be a string literal (the pointer is stored, not the contents).
#define TOMA_TRACE(name, arg)                                             \
  ::toma::obs::trace_event(name, ::toma::obs::TracePhase::kInstant, arg)
#define TOMA_TRACE_BEGIN(name, id)                                        \
  ::toma::obs::trace_event(name, ::toma::obs::TracePhase::kBegin, id)
#define TOMA_TRACE_END(name, id)                                          \
  ::toma::obs::trace_event(name, ::toma::obs::TracePhase::kEnd, id)

/// Scheduler tick source.
#define TOMA_OBS_TICK() ::toma::obs::advance_tick()

#else  // !TOMA_TELEMETRY — every macro is a no-op; arguments unevaluated.

#define TOMA_HIST(name, value) ((void)0)
#define TOMA_HISTV(name, width, idx, value) ((void)0)
#define TOMA_NOW_NS() (std::uint64_t{0})
#define TOMA_SITE_SAMPLED() false
#define TOMA_OP_HIST(name, timer) ((void)0)
#define TOMA_OP_HISTV(name, width, idx, timer) ((void)0)
#define TOMA_TRACE(name, arg) ((void)0)
#define TOMA_TRACE_BEGIN(name, id) ((void)0)
#define TOMA_TRACE_END(name, id) ((void)0)
#define TOMA_OBS_TICK() ((void)0)

#endif  // TOMA_TELEMETRY
