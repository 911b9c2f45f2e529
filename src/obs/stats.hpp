// Exact per-shard statistics, and their export as registry counters.
//
// A stats owner (GpuAllocator, UAlloc, TBuddy, Pool, StreamFrontEnd,
// BackingStore, HeapSan) keeps its exact counters in a ShardedStats
// (obs/counter.hpp): one cache-line-aligned block per obs shard
// (obs/context.hpp: the SM inside a kernel, the host thread's ordinal
// outside one). An event is one relaxed fetch_add on a line only the
// calling SM's worker normally writes. (With telemetry compiled out the
// scheduler publishes no fiber identity, so a kernel's events shard by
// worker thread: still one writer per line.) Reads sum the shards and
// are approximate under concurrency, like every statistics read in the
// allocator.
//
// The owner is also the source of its same-named registry counters: a
// StatsSource member registers a collector that Registry::snapshot()
// calls, and on destruction folds the owner's last totals into the
// registry, so those counters stay monotonic. The owner lists the
// registry names of its fields in a `k...StatNames` table, which the
// metric-catalog lint reads (tools/lint_prometheus.py).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#ifndef TOMA_TELEMETRY
#define TOMA_TELEMETRY 1  // CMake option TOMA_TELEMETRY (default ON)
#endif

#include "obs/counter.hpp"
#include "obs/registry.hpp"

namespace toma::obs {

/// Add each named field's total into `out` (a nullptr name is not
/// exported).
template <std::size_t N>
void collect(const ShardedStats<N>& st, CounterTotals& out,
             const char* const (&names)[N]) {
  for (std::size_t f = 0; f < N; ++f) {
    if (names[f] != nullptr) out[names[f]] += st.sum(f);
  }
}

/// RAII registration of a stats owner's collector with registry(). Make
/// it the owner's last member: it is then destroyed first, folding the
/// owner's totals while everything the collector reads is still alive.
/// With telemetry compiled out it registers nothing.
class StatsSource {
 public:
  explicit StatsSource(Registry::Collector fn) {
#if TOMA_TELEMETRY
    id_ = registry().add_collector(std::move(fn));
#else
    (void)fn;
#endif
  }
  ~StatsSource() {
    if (id_ != 0) registry().remove_collector(id_);
  }
  StatsSource(const StatsSource&) = delete;
  StatsSource& operator=(const StatsSource&) = delete;

 private:
  std::uint64_t id_ = 0;
};

}  // namespace toma::obs
