#include <stdexcept>

#include "suite.hpp"

namespace suite {

Counters counters_of(const toma::alloc::PoolStats& s) {
  const toma::alloc::GpuAllocatorStats& a = s.alloc;
  Counters c;
  c[C::kMallocs] = a.mallocs;
  c[C::kFailedMallocs] = a.failed_mallocs;
  c[C::kReallocs] = a.reallocs;
  c[C::kReallocsInplace] = a.reallocs_inplace;
  c[C::kLaneHits] = a.lane.hits;
  c[C::kLaneMisses] = a.lane.misses;
  c[C::kLaneRefills] = a.lane.refills;
  c[C::kLaneRefillBlocks] = a.lane.refill_blocks;
  c[C::kLaneSpillBlocks] = a.lane.spill_blocks;
  c[C::kUaAllocs] = a.ualloc.allocs;
  c[C::kMagHits] = a.ualloc.magazine_hits;
  c[C::kMagMisses] = a.ualloc.magazine_misses;
  c[C::kListRetries] = a.ualloc.list_retries;
  c[C::kBinsCreated] = a.ualloc.bins_created;
  c[C::kChunksCreated] = a.ualloc.chunks_created;
  c[C::kArenaFallbacks] = a.ualloc.arena_fallbacks;
  c[C::kBdAllocs] = a.buddy.allocs;
  c[C::kQlHits] = a.buddy.quicklist_hits;
  c[C::kQlMisses] = a.buddy.quicklist_misses;
  c[C::kCasClaims] = a.buddy.cas_claims;
  c[C::kLockClaims] = a.buddy.lock_claims;
  c[C::kDescentRetries] = a.buddy.descent_retries;
  c[C::kSplits] = a.buddy.splits;
  c[C::kMerges] = a.buddy.merges;
  c[C::kReuseHits] = s.stream.reuse_hits;
  c[C::kReuseMisses] = s.stream.reuse_misses;
  c[C::kDrained] = s.stream.drained;
  c[C::kDrainBatches] = s.stream.drain_batches;
  c[C::kOverflowDrains] = s.stream.overflow_drains;
  c[C::kThresholdTrims] = s.threshold_trims;
  c[C::kGrows] = a.vmm.grows;
  c[C::kShrinks] = a.vmm.shrinks;
  c[C::kDefragSteps] = a.defrag_steps;
  c[C::kDefragMovedBytes] = a.defrag_moved_bytes;
  c[C::kForwarded] = a.defrag_forwarded;
  c[C::kPinStalls] = a.defrag_pin_stalls;
  return c;
}

Counters counters_of(const toma::gpu::DeviceStats& s) {
  Counters c;
  c[C::kFiberResumes] = s.fiber_resumes;
  c[C::kWarpParks] = s.warp_parks;
  c[C::kWarpSteals] = s.warp_steals;
  return c;
}

std::size_t served_layer(const Counters& d) {
  static constexpr C kOrder[kServedLayers] = {
      C::kGrows,     C::kReuseHits,   C::kReallocsInplace, C::kLaneRefills,
      C::kLaneHits,  C::kMagHits,     C::kBinsCreated,     C::kUaAllocs,
      C::kQlHits,    C::kBdAllocs};
  for (std::size_t i = 0; i < kServedLayers; ++i) {
    if (d[kOrder[i]] != 0) return i;
  }
  return kServedLayers;
}

void Measure::violation(std::string what) {
  ++violation_count;
  if (violations.size() < 16) violations.push_back(std::move(what));
}

void Measure::absorb_violations(const Measure& warmup) {
  for (const std::string& v : warmup.violations) violation("warm-up: " + v);
  violation_count += warmup.violation_count - warmup.violations.size();
}

void Measure::end_rep(double wall_s) {
  calls += rep_ops;
  peak_mapped.push_back(rep_peak_mapped);
  const double rate = wall_s > 0 ? static_cast<double>(rep_ops) / wall_s : 0;
  if (traced_rep) {
    traced_ops_per_s.push_back(rate);
    return;
  }
  ops_per_s.push_back(rate);
  malloc_q.push_back(quantiles(malloc_ns));
  free_q.push_back(quantiles(free_ns));
}

toma::alloc::Pool& pool_named(const std::string& name) {
  toma::alloc::Pool* p = toma::alloc::PoolManager::instance().find(name);
  if (p == nullptr) throw std::runtime_error("no pool named " + name);
  return *p;
}

}  // namespace suite
