// Shared pieces of the benchmark suite program (toma_bench): the seeded
// generator, block tags for the correctness gate, per-layer counter
// snapshots taken from the public stats() structs, and the per-run
// measurement record every workload fills.
//
// The suite drives the library only through public entry points (the
// toma_* C API, Pool/GpuAllocator/Device from the library headers) and
// measures each layer from outside: it times the calls it makes and diffs
// stats() around them. Nothing here is shared with bench/common or
// bench/replay, so edits there cannot move this benchmark's baseline.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/pool.hpp"
#include "gpusim/device.hpp"

namespace suite {

class Tracer;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Saturating ns -> u32 for latency samples (a 0 reads as "no sample").
inline std::uint32_t clamp_ns(std::int64_t dt) {
  if (dt < 1) return 1;
  return dt > 0xffffffffLL ? 0xffffffffu : static_cast<std::uint32_t>(dt);
}

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// splitmix64: every input of a run derives from --seed, never from time
/// or addresses.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() { return mix64(s += 0x9e3779b97f4a7c15ull); }
  std::uint32_t below(std::uint32_t n) {
    return n != 0 ? static_cast<std::uint32_t>(next() % n) : 0;
  }
  bool chance(std::uint32_t percent) { return below(100) < percent; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Stream key of one consumer of the seed ("warm-up", "host", rank r...).
inline std::uint64_t stream_key(std::uint64_t seed, std::uint64_t what) {
  return mix64(seed * 0x9e3779b97f4a7c15ull + mix64(what + 1));
}

// The seed's consumers. In the churn and host workloads rep r draws
// rep_key(seed, kRepStream, r), and a warm-up pass before it
// rep_key(seed, kWarmupStream, r). kernel_fill replays one set of sizes
// drawn from stream_key(seed, kRepStream) in every rep.
inline constexpr std::uint64_t kTagStream = 0x7a9;
inline constexpr std::uint64_t kWarmupStream = 0x3a1;
inline constexpr std::uint64_t kRepStream = 0x5e7;

/// Every rep draws its own inputs, so what a rep maps is an independent
/// sample and the run's median over reps does not hang on one draw.
inline std::uint64_t rep_key(std::uint64_t seed, std::uint64_t what,
                             std::uint32_t rep) {
  return stream_key(stream_key(seed, what), rep);
}

// --- block tags (correctness gate) -----------------------------------------
// Every block carries a head word (size:20 | owner:24 | check:20) and, from
// 16 B up, its complement in the last 8 bytes. The check bits derive from
// the run's seed, so a tag survives only a faithful allocation: overlap
// with another live block, a torn relocation, or a short block breaks it.
// Sizes must stay below 1 MiB (20 bits); the largest the suite asks for
// is 256 KiB.

inline std::uint64_t tag_word(std::uint64_t key, std::size_t size,
                              std::uint32_t owner) {
  const std::uint64_t s = size & 0xfffff;
  const std::uint64_t o = owner & 0xffffff;
  const std::uint64_t check = mix64(key ^ (s << 24) ^ o) & 0xfffff;
  return (s << 44) | (o << 20) | check;
}

inline void tag_block(void* p, std::size_t size, std::uint32_t owner,
                      std::uint64_t key) {
  const std::uint64_t w = tag_word(key, size, owner);
  std::memcpy(p, &w, sizeof w);
  if (size >= 16) {
    const std::uint64_t t = ~w;
    std::memcpy(static_cast<char*>(p) + size - 8, &t, sizeof t);
  }
}

/// Verify a tag; `expect_size` 0 means "whatever size the tag names"
/// (blocks handed between threads). Returns the tagged size, 0 when torn.
inline std::size_t check_block(const void* p, std::size_t expect_size,
                               std::uint64_t key) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  const std::size_t size = static_cast<std::size_t>(w >> 44);
  const auto owner = static_cast<std::uint32_t>((w >> 20) & 0xffffff);
  if (size < 8 || (expect_size != 0 && size != expect_size) ||
      tag_word(key, size, owner) != w) {
    return 0;
  }
  if (size >= 16) {
    std::uint64_t t;
    std::memcpy(&t, static_cast<const char*>(p) + size - 8, sizeof t);
    if (t != ~w) return 0;
  }
  return size;
}

// --- latency quantiles ------------------------------------------------------

struct Quantiles {
  double p50 = 0, p99 = 0, p999 = 0;
  std::uint64_t n = 0;
};

/// Nearest-rank quantiles; reorders `v`. All zero when `v` is empty.
inline Quantiles quantiles(std::vector<std::uint32_t>& v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  auto at = [&v](double f) {
    std::size_t k = static_cast<std::size_t>(f * static_cast<double>(v.size()));
    if (k >= v.size()) k = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return static_cast<double>(v[k]);
  };
  q.p50 = at(0.50);
  q.p99 = at(0.99);
  q.p999 = at(0.999);
  return q;
}

inline double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- per-layer counters ------------------------------------------------------
// A flat snapshot of the cumulative fields of Pool::stats() and
// Device::stats(); the suite only ever looks at differences.

enum class C : std::uint8_t {
  kMallocs,
  kFailedMallocs,
  kReallocs,
  kReallocsInplace,
  kLaneHits,
  kLaneMisses,
  kLaneRefills,
  kLaneRefillBlocks,
  kLaneSpillBlocks,
  kUaAllocs,
  kMagHits,
  kMagMisses,
  kListRetries,
  kBinsCreated,
  kChunksCreated,
  kArenaFallbacks,
  kBdAllocs,
  kQlHits,
  kQlMisses,
  kCasClaims,
  kLockClaims,
  kDescentRetries,
  kSplits,
  kMerges,
  kReuseHits,
  kReuseMisses,
  kDrained,
  kDrainBatches,
  kOverflowDrains,
  kThresholdTrims,
  kGrows,
  kShrinks,
  kDefragSteps,
  kDefragMovedBytes,
  kForwarded,
  kPinStalls,
  kFiberResumes,
  kWarpParks,
  kWarpSteals,
  kCount
};

struct Counters {
  std::array<std::uint64_t, static_cast<std::size_t>(C::kCount)> v{};

  std::uint64_t operator[](C c) const { return v[static_cast<std::size_t>(c)]; }
  std::uint64_t& operator[](C c) { return v[static_cast<std::size_t>(c)]; }

  Counters& operator+=(const Counters& o) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += o.v[i];
    return *this;
  }
  friend Counters operator-(Counters a, const Counters& b) {
    for (std::size_t i = 0; i < a.v.size(); ++i) a.v[i] -= b.v[i];
    return a;
  }
};

Counters counters_of(const toma::alloc::PoolStats& s);
Counters counters_of(const toma::gpu::DeviceStats& s);

/// Which layer served a host malloc-family call, judged from the counter
/// delta around it: the first counter in this order that moved wins.
inline constexpr std::size_t kServedLayers = 10;
inline constexpr const char* kServedNames[kServedLayers] = {
    "vmm_grow", "stream_reuse", "inplace", "lane_refill", "lane",
    "magazine", "bin_create",   "bin",     "quicklist",   "buddy"};
/// kServedLayers when no listed counter moved.
std::size_t served_layer(const Counters& delta);

// --- one run's measurements -------------------------------------------------

struct Measure {
  bool traced_rep = false;  // the rep in progress records spans

  // Per rep (reset by begin_rep).
  std::vector<std::uint32_t> malloc_ns;  // malloc family (malloc, realloc,
  std::vector<std::uint32_t> free_ns;    // malloc_async) / free family
  std::uint64_t rep_ops = 0;             // completed malloc/free/realloc/
                                         // async calls this rep

  std::uint64_t calls = 0;  // rep_ops summed over every timed rep

  // Run-wide, untraced reps.
  std::vector<double> ops_per_s;
  std::vector<Quantiles> malloc_q, free_q;
  // Run-wide, traced reps.
  std::vector<double> traced_ops_per_s;

  std::vector<std::uint32_t> sync_ns, trim_ns, defrag_ns;
  std::vector<double> mapped_per_live;
  double rep_peak_mapped = 0;        // highest mapped bytes, this rep
  std::vector<double> peak_mapped;   // rep_peak_mapped of every timed rep
  std::vector<double> launch_s;  // empty-grid launch, per rep

  std::uint64_t attempted = 0;  // malloc-family calls, timed reps
  std::uint64_t failed = 0;     // ...that returned kOom/kQuota
  Counters layer;               // summed over timed reps

  std::array<std::vector<std::uint32_t>, kServedLayers> served_ns;
  std::uint64_t served_unmatched = 0;

  std::uint64_t reloc_commits = 0, reloc_vetoes = 0;

  std::vector<std::string> violations;  // the first few, for the report
  std::uint64_t violation_count = 0;
  void violation(std::string what);
  /// Take over the violations recorded in a warm-up's scratch record.
  void absorb_violations(const Measure& warmup);

  void begin_rep(bool traced) {
    traced_rep = traced;
    malloc_ns.clear();
    free_ns.clear();
    rep_ops = 0;
    rep_peak_mapped = 0;
  }
  /// Close the rep: `wall_s` is its timed phase.
  void end_rep(double wall_s);

  void note_mapped(double mapped, double live) {
    rep_peak_mapped = std::max(rep_peak_mapped, mapped);
    if (live > 0) mapped_per_live.push_back(mapped / live);
  }
};

// --- workloads -------------------------------------------------------------

struct RunConfig {
  std::uint64_t seed = 1;
  bool smoke = false;  // shrink every rep for the smoke test
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the device/pools and run the untimed warm-up pass (whose
  /// correctness violations still land in `m`).
  virtual void setup(Measure& m) = 0;
  /// Free everything and destroy what setup() built.
  virtual void teardown() = 0;
  /// One timed rep of fixed work; returns the seconds of its timed phase.
  /// `tr` is null on untraced reps.
  virtual double rep(Measure& m, Tracer* tr) = 0;
  /// gpusim worker threads (0 for host-only workloads).
  virtual std::uint32_t workers() const = 0;
};

std::unique_ptr<Workload> make_kernel_small_churn(const RunConfig& rc);
std::unique_ptr<Workload> make_kernel_large_churn(const RunConfig& rc);
std::unique_ptr<Workload> make_kernel_fill(const RunConfig& rc);
std::unique_ptr<Workload> make_host_tenants(const RunConfig& rc, bool defrag);

/// Pool lookup behind a C handle's name (PoolManager::find).
toma::alloc::Pool& pool_named(const std::string& name);

}  // namespace suite
