// Metrics export: render a registry Snapshot (or a snapshot diff) as
// Prometheus text exposition or stable JSON, with per-pool SLO quantiles
// derived from the log2 latency histograms (docs/OBSERVABILITY.md).
//
// Naming convention: a registry instrument name may carry a trailing
// Prometheus-style label block — `pool.malloc_ns{pool="tenant-a"}` — and
// counter vectors export as `name[i]`. Both map onto labels here:
// `toma_pool_malloc_ns{pool="tenant-a"}` and `toma_name{index="i"}`.
// Everything else about the name is sanitized ('.' and any other
// non-metric character become '_') and prefixed, so exposition never
// emits an unnamed or illegal series — CI lints the output.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace toma::obs {

/// Schema version stamped into the stable-JSON export (and the bench
/// --json dumper). Bump on any layout change so downstream diffing tools
/// can refuse mixed comparisons instead of mis-diffing.
inline constexpr std::uint32_t kExportSchemaVersion = 1;

/// A registry instrument name split into its metric part and labels.
struct SeriesName {
  std::string metric;  // e.g. "pool.malloc_ns"
  std::vector<std::pair<std::string, std::string>> labels;
};

/// Parse `name[i]` / `name{k="v",...}` suffixes (escaped \" and \\ in
/// label values are unescaped). Names without a suffix parse to
/// label-free series.
SeriesName parse_series_name(const std::string& name);

/// `prefix_metric` with every character outside [a-zA-Z0-9_:] folded to
/// '_' (dots become underscores: "pool.sync" -> "toma_pool_sync").
std::string prometheus_metric_name(const std::string& metric,
                                   const std::string& prefix);

/// Per-(pool, op) latency SLO summary, extracted from the
/// `pool.<op>_ns{pool="..."}` histograms plus the
/// `pool.slo_violation{pool="..."}` counter when present.
struct SloSummary {
  std::string pool;
  std::string op;  // "malloc" or "free"
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::uint64_t violations = 0;
};

/// All SLO summaries in a snapshot, sorted by (pool, op).
std::vector<SloSummary> slo_summaries(const Snapshot& snap);

/// Prometheus text exposition: counters and derived rates with # TYPE
/// headers, histograms as cumulative `le` buckets (+Inf, _sum, _count),
/// and `<prefix>_slo_latency_ns{pool,op,quantile}` gauges for every SLO
/// summary. Works on diffs exactly as on absolute snapshots.
std::string to_prometheus(const Snapshot& snap,
                          const std::string& prefix = "toma");

/// Stable JSON, the one JSON form of a snapshot:
/// {"schema_version":N,"counters":{...},"derived":{...},
/// "histograms":{...},"slo":{"<pool>":{"<op>":{...}}}}.
std::string to_stable_json(const Snapshot& snap);

/// File forms; false on I/O failure.
bool write_prometheus(const Snapshot& snap, const std::string& path,
                      const std::string& prefix = "toma");
bool write_stable_json(const Snapshot& snap, const std::string& path);

}  // namespace toma::obs
