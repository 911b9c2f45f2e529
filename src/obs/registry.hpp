// The telemetry registry: histograms and histogram vectors, the stats
// owners' collectors that are the source of every counter, and
// snapshotting with diff and a text report (the export formats are
// obs/export.hpp).
//
// Handles returned by histogram()/histogram_vec() are stable for the
// registry's lifetime (instruments are never deleted), which is what lets
// the macros cache them in function-local statics. Counters are not
// instruments: each one is a field of a stats owner, which registers a
// collector (obs/stats.hpp) that snapshots sum in. The process-wide
// registry() is a leaky singleton so allocator destructors running during
// static teardown can still record and fold their collectors.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/histogram.hpp"

namespace toma::obs {

/// Counter totals by name.
using CounterTotals = std::map<std::string, std::uint64_t>;

/// A point-in-time, fully aggregated view of a Registry. Value type:
/// snapshots can be stored, diffed and exported after the registry moved
/// on (or was torn down).
struct Snapshot {
  CounterTotals counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Activity since `before` (counters subtract; histogram buckets/counts
  /// subtract, min/max keep the later absolute values).
  Snapshot diff_since(const Snapshot& before) const;

  /// Derived ratios: for every counter pair `<base>.hit` / `<base>.miss`
  /// with hit+miss > 0, maps `<base>.hit_rate` to hit / (hit + miss).
  /// Computed on demand so stored snapshots stay purely integral.
  std::map<std::string, double> derived_rates() const;

  /// Human-readable report: counters sorted by name, histograms with
  /// count/mean/p50/p95/p99/max. Zero-valued counters are kept — absence
  /// of events is information too.
  std::string to_text() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Thread-safe; O(log n) map lookup — call once per
  /// call site and cache the reference (the macros do).
  Histogram& histogram(const std::string& name);
  HistogramVec& histogram_vec(const std::string& name, std::uint32_t width);

  /// A stats owner's export: adds the owner's totals into `out` by name
  /// (obs/stats.hpp). Called under the registry lock, which is what keeps
  /// a snapshot from reading an owner mid-destruction; so it must not
  /// call back into the registry, nor take a lock that its owner holds
  /// while calling into the registry.
  using Collector = std::function<void(CounterTotals& out)>;

  /// Register a collector; every snapshot adds what it writes. Returns
  /// its id (never 0).
  std::uint64_t add_collector(Collector fn);
  /// Unregister collector `id`, folding its last totals into the
  /// registry so the counters it fed stay monotonic. Once this returns,
  /// no snapshot calls it again.
  void remove_collector(std::uint64_t id);

  /// Counters (collected, plus the totals of removed collectors) and
  /// histograms.
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_ = 1;
  CounterTotals folded_;  // totals of removed collectors
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<HistogramVec>> histogram_vecs_;
};

/// The process-wide registry every TOMA_* macro records into.
Registry& registry();

}  // namespace toma::obs
