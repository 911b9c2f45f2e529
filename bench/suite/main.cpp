// toma_bench — the program behind the repository's benchmark suite.
//
//   toma_bench --workload=NAME [--seed=S] [--seconds=N] [--trace=PATH]
//              [--json=PATH] [--smoke]
//   toma_bench --list
//
// A run is three set-up trials (device and pool creation, fiber-stack
// warm-up, and a quarter-rep warm-up pass; the median is setup_s), about
// one rep-time of untimed warm-up (one rep; four of kernel_fill's short
// reps), then a fixed number of timed reps of fixed work:
// round(R10 * N / 10) reps for --seconds=N, where R10 is the workload's
// rep count at 10 s. Timings are medians over the reps. With --trace=PATH
// every other rep records spans (written to PATH as a Chrome trace) and
// the layer that served each host malloc; throughput and latency come
// from the untraced reps only, and trace.overhead compares the two.
//
// Exit status: 0 clean, 1 correctness violation, 2 usage or set-up error.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "suite.hpp"
#include "trace.hpp"

namespace suite {
namespace {

struct Spec {
  const char* name;
  std::uint32_t reps_at_10s;
  std::unique_ptr<Workload> (*make)(const RunConfig&);
};

const Spec kSpecs[] = {
    {"kernel_small_churn", 5, make_kernel_small_churn},
    {"kernel_large_churn", 5, make_kernel_large_churn},
    {"kernel_fill", 20, make_kernel_fill},
    {"host_tenants", 5,
     [](const RunConfig& rc) { return make_host_tenants(rc, false); }},
    {"host_tenants_defrag", 5,
     [](const RunConfig& rc) { return make_host_tenants(rc, true); }},
};

constexpr int kSetupTrials = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;
  std::string json_path;
  bool smoke = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME [--seed=S] [--seconds=N] "
               "[--trace=PATH] [--json=PATH] [--smoke]\n"
               "       %s --list\n",
               argv0, argv0);
  std::exit(2);
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t n = 0;  // sample count behind a latency quantile
  bool exact = false;   // a work count: repeats exactly at workers = 1
};

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

double quantile_median(const std::vector<Quantiles>& qs,
                       double Quantiles::*field, std::uint64_t* n) {
  std::vector<double> v;
  *n = 0;
  for (const Quantiles& q : qs) {
    v.push_back(q.*field);
    *n += q.n;
  }
  return median(v);
}

std::vector<Metric> end_to_end(const Measure& m,
                               const std::vector<double>& setup_s) {
  std::vector<Metric> out;
  out.push_back({"setup_s", median(setup_s), "s"});
  // Means, not medians: a footprint moves in whole chunks, so a median of
  // five per-rep samples jumps a chunk (about 6%) between runs.
  out.push_back({"peak_mapped_mb", mean(m.peak_mapped) / (1 << 20), "MiB"});
  out.push_back({"mapped_per_live", mean(m.mapped_per_live), "ratio"});
  return out;
}

std::vector<Metric> per_layer(const Measure& m) {
  const Counters& c = m.layer;
  const double calls = static_cast<double>(m.calls);
  const double kop = static_cast<double>(m.attempted) / 1000.0;
  auto cnt = [&c](C k) { return static_cast<double>(c[k]); };
  auto per_kop = [&](C k) { return ratio(cnt(k), kop); };
  auto share = [&](C a, C b) { return ratio(cnt(a), cnt(a) + cnt(b)); };
  auto q = [](std::vector<std::uint32_t> v) { return quantiles(v); };

  // exact: a work count that repeats exactly at gpusim workers = 1.
  // measured: a timing, or a count that depends on timing.
  std::vector<Metric> out;
  auto exact = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit, 0, true});
  };
  auto measured = [&out](std::string name, double value, const char* unit,
                         std::uint64_t n = 0) {
    out.push_back({std::move(name), value, unit, n, false});
  };

  exact("gpusim.resumes_per_op", ratio(cnt(C::kFiberResumes), calls), "1/op");
  exact("gpusim.parks_per_op", ratio(cnt(C::kWarpParks), calls), "1/op");
  exact("gpusim.steals_per_kop", per_kop(C::kWarpSteals), "1/kop");
  measured("gpusim.launch_s", median(m.launch_s), "s");

  exact("fixed_lane.hit_rate", share(C::kLaneHits, C::kLaneMisses),
        "fraction");
  exact("fixed_lane.refill_blocks_per_kop", per_kop(C::kLaneRefillBlocks),
        "1/kop");
  exact("fixed_lane.spill_blocks_per_kop", per_kop(C::kLaneSpillBlocks),
        "1/kop");

  exact("ualloc.magazine_hit_rate", share(C::kMagHits, C::kMagMisses),
        "fraction");
  exact("ualloc.list_retries_per_kop", per_kop(C::kListRetries), "1/kop");
  exact("ualloc.bins_created_per_kop", per_kop(C::kBinsCreated), "1/kop");
  exact("ualloc.chunks_created_per_kop", per_kop(C::kChunksCreated), "1/kop");
  exact("ualloc.arena_fallbacks_per_kop", per_kop(C::kArenaFallbacks),
        "1/kop");

  exact("tbuddy.allocs_per_kop", per_kop(C::kBdAllocs), "1/kop");
  exact("tbuddy.quicklist_hit_rate", share(C::kQlHits, C::kQlMisses),
        "fraction");
  exact("tbuddy.cas_claim_share", share(C::kCasClaims, C::kLockClaims),
        "fraction");
  exact("tbuddy.descent_retries_per_kop", per_kop(C::kDescentRetries),
        "1/kop");
  exact("tbuddy.splits_per_kop", per_kop(C::kSplits), "1/kop");
  exact("tbuddy.merges_per_kop", per_kop(C::kMerges), "1/kop");

  exact("stream.reuse_hit_rate", share(C::kReuseHits, C::kReuseMisses),
        "fraction");
  exact("stream.drain_batch_mean",
        ratio(cnt(C::kDrained), cnt(C::kDrainBatches)), "frees");
  exact("stream.overflow_drains", cnt(C::kOverflowDrains), "count");

  Quantiles sq = q(m.sync_ns), tq = q(m.trim_ns), dq = q(m.defrag_ns);
  measured("capi.sync_p50_ns", sq.p50, "ns", sq.n);
  measured("capi.sync_p99_ns", sq.p99, "ns", sq.n);
  measured("capi.trim_p50_ns", tq.p50, "ns", tq.n);
  measured("capi.trim_p99_ns", tq.p99, "ns", tq.n);
  measured("capi.defrag_p50_ns", dq.p50, "ns", dq.n);
  measured("capi.defrag_p99_ns", dq.p99, "ns", dq.n);

  exact("allocator.realloc_inplace_share",
        ratio(cnt(C::kReallocsInplace), cnt(C::kReallocs)), "fraction");
  exact("allocator.forwarded_per_kop", per_kop(C::kForwarded), "1/kop");
  exact("pool.threshold_trims", cnt(C::kThresholdTrims), "count");
  exact("vmm.grows_per_kop", per_kop(C::kGrows), "1/kop");
  exact("vmm.shrinks_per_kop", per_kop(C::kShrinks), "1/kop");

  // Compaction under live host traffic does not repeat exactly.
  measured("defrag.moved_mb", cnt(C::kDefragMovedBytes) / (1 << 20), "MiB");
  measured("defrag.steps", cnt(C::kDefragSteps), "count");
  measured("defrag.commit_share",
           ratio(static_cast<double>(m.reloc_commits),
                 static_cast<double>(m.reloc_commits + m.reloc_vetoes)),
           "fraction");
  measured("defrag.pin_stalls", cnt(C::kPinStalls), "count");

  std::uint64_t served_total = 0;
  for (const auto& v : m.served_ns) served_total += v.size();
  for (std::size_t l = 0; l < kServedLayers; ++l) {
    const std::string base = std::string("served.") + kServedNames[l];
    const Quantiles sl = q(m.served_ns[l]);
    measured(base + ".share",
           ratio(static_cast<double>(sl.n), static_cast<double>(served_total)),
           "fraction", sl.n);
    measured(base + ".p50_ns", sl.p50, "ns", sl.n);
    measured(base + ".p99_ns", sl.p99, "ns", sl.n);
  }

  // Throughput and per-call latency: too noisy on a shared host to gate on
  // (README.md).
  measured("ops_per_s", median(m.ops_per_s), "ops/s");
  std::uint64_t n = 0;
  double v = quantile_median(m.malloc_q, &Quantiles::p50, &n);
  measured("malloc_p50_ns", v, "ns", n);
  v = quantile_median(m.free_q, &Quantiles::p50, &n);
  measured("free_p50_ns", v, "ns", n);
  v = quantile_median(m.malloc_q, &Quantiles::p99, &n);
  measured("malloc_p99_ns", v, "ns", n);
  v = quantile_median(m.free_q, &Quantiles::p99, &n);
  measured("free_p99_ns", v, "ns", n);
  v = quantile_median(m.malloc_q, &Quantiles::p999, &n);
  measured("malloc_p999_ns", v, "ns", n);
  v = quantile_median(m.free_q, &Quantiles::p999, &n);
  measured("free_p999_ns", v, "ns", n);
  measured("trace.overhead",
         ratio(median(m.traced_ops_per_s), median(m.ops_per_s)), "ratio");
  exact("fail_frac",
        ratio(static_cast<double>(m.failed + m.violation_count),
              static_cast<double>(m.attempted)),
        "fraction");
  return out;
}

// --- output ----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::FILE* f, const std::vector<Metric>& ms) {
  std::fputs("{", f);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& mt = ms[i];
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s, \"n\": %" PRIu64
                    ", \"exact\": %s}",
                 i == 0 ? "" : ",", json_str(mt.name).c_str(),
                 json_num(mt.value).c_str(), json_str(mt.unit).c_str(), mt.n,
                 mt.exact ? "true" : "false");
  }
  std::fputs("\n  }", f);
}

void write_series(std::FILE* f, const char* name,
                  const std::vector<double>& v, bool last) {
  std::fprintf(f, "    %s: [", json_str(name).c_str());
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ", json_num(v[i]).c_str());
  }
  std::fprintf(f, "]%s\n", last ? "" : ",");
}

bool write_json(const std::string& path, const Options& o, std::uint32_t reps,
                std::uint32_t workers, const Measure& m,
                const std::vector<double>& setup_s,
                const std::vector<Metric>& e2e,
                const std::vector<Metric>& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"workload\": %s,\n",
               json_str(o.workload).c_str());
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n  \"seconds\": %s,\n", o.seed,
               json_num(o.seconds).c_str());
  std::fprintf(f,
               "  \"meta\": {\"reps\": %u, \"traced\": %s, \"smoke\": %s, "
               "\"gpusim_workers\": %u, \"hardware_concurrency\": %u, "
               "\"telemetry\": %s, \"heapsan\": false},\n",
               reps, o.trace_path.empty() ? "false" : "true",
               o.smoke ? "true" : "false", workers,
               std::thread::hardware_concurrency(),
               TOMA_TELEMETRY ? "true" : "false");
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %" PRIu64
                  ",\n  \"failed\": %" PRIu64 ",\n",
               m.violation_count == 0 ? "true" : "false", m.attempted,
               m.failed + m.violation_count);
  std::fputs("  \"violations\": [", f);
  for (std::size_t i = 0; i < m.violations.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                 json_str(m.violations[i]).c_str());
  }
  std::fputs("],\n  \"e2e\": ", f);
  write_metrics(f, e2e);
  std::fputs(",\n  \"per_layer\": ", f);
  write_metrics(f, layers);
  std::fputs(",\n  \"series\": {\n", f);
  write_series(f, "setup_s", setup_s, false);
  write_series(f, "ops_per_s", m.ops_per_s, false);
  write_series(f, "peak_mapped_bytes", m.peak_mapped, false);
  write_series(f, "traced_ops_per_s", m.traced_ops_per_s, true);
  std::fputs("  }\n}\n", f);
  return std::fclose(f) == 0;
}

void print_metrics(const std::string& workload,
                   const std::vector<Metric>& ms) {
  for (const Metric& mt : ms) {
    std::printf("%s %s %.6g %s", workload.c_str(), mt.name.c_str(), mt.value,
                mt.unit);
    if (mt.n != 0) std::printf(" (n=%" PRIu64 ")", mt.n);
    std::printf("\n");
  }
}

void print_served(const std::vector<Metric>& layers) {
  std::printf("%-14s %10s %10s %10s %10s\n", "served_by", "share", "n",
              "p50_ns", "p99_ns");
  for (const char* l : kServedNames) {
    const std::string base = std::string("served.") + l;
    double share = 0, p50 = 0, p99 = 0;
    std::uint64_t n = 0;
    for (const Metric& mt : layers) {
      if (mt.name == base + ".share") {
        share = mt.value;
        n = mt.n;
      } else if (mt.name == base + ".p50_ns") {
        p50 = mt.value;
      } else if (mt.name == base + ".p99_ns") {
        p99 = mt.value;
      }
    }
    std::printf("%-14s %10.4f %10" PRIu64 " %10.0f %10.0f\n", l, share, n,
                p50, p99);
  }
}

int run(const Options& o) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (o.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                 o.workload.c_str());
    return 2;
  }
  const bool traced = !o.trace_path.empty();
  const std::uint32_t reps =
      o.smoke ? 2
              : std::max<std::uint32_t>(
                    2, static_cast<std::uint32_t>(std::lround(
                           spec->reps_at_10s * o.seconds / 10.0)));
  RunConfig rc;
  rc.seed = o.seed;
  rc.smoke = o.smoke;

  Measure m;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    w = spec->make(rc);
    const std::int64_t t0 = now_ns();
    w->setup(m);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (trial + 1 < kSetupTrials) w->teardown();
  }

  // Untimed warm-up reps (about one rep's worth of time): the first timed
  // rep otherwise still pays for the footprint and caches growing to
  // their steady state.
  const std::uint32_t warmup = o.smoke ? 1 : (spec->reps_at_10s + 4) / 5;
  for (std::uint32_t r = 0; r < warmup; ++r) {
    Measure scratch;
    w->rep(scratch, nullptr);
    m.absorb_violations(scratch);
  }

  Tracer tracer(200000);
  for (std::uint32_t r = 0; r < reps; ++r) {
    // Traced runs alternate untraced and traced reps, starting untraced.
    Tracer* tr = traced && r % 2 == 1 ? &tracer : nullptr;
    m.begin_rep(tr != nullptr);
    if (tr != nullptr) tr->open(Span::kRep, r, now_ns());
    const double wall = w->rep(m, tr);
    if (tr != nullptr) tr->close(now_ns());
    m.end_rep(wall);
  }
  w->teardown();

  const std::vector<Metric> e2e = end_to_end(m, setup_s);
  const std::vector<Metric> layers = per_layer(m);

  std::printf("# %s seed=%" PRIu64 " reps=%u traced=%s gpusim_workers=%u "
              "telemetry=%s\n",
              o.workload.c_str(), o.seed, reps, traced ? "yes" : "no",
              w->workers(), TOMA_TELEMETRY ? "on" : "off");
  print_metrics(o.workload, e2e);
  print_metrics(o.workload, layers);
  if (traced) {
    std::printf("\n");
    tracer.print_table(stdout);
    std::printf("\n");
    print_served(layers);
    if (m.served_unmatched != 0) {
      std::printf("served: %" PRIu64 " calls moved none of the counters\n",
                  m.served_unmatched);
    }
    if (!tracer.write_chrome(o.trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", o.trace_path.c_str());
      return 2;
    }
    std::printf("trace written to %s\n", o.trace_path.c_str());
  }
  for (const std::string& v : m.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  if (m.violation_count > m.violations.size()) {
    std::fprintf(stderr, "VIOLATION: ... %" PRIu64 " in total\n",
                 m.violation_count);
  }
  if (!o.json_path.empty() &&
      !write_json(o.json_path, o, reps, w->workers(), m, setup_s, e2e,
                  layers)) {
    std::fprintf(stderr, "failed to write %s\n", o.json_path.c_str());
    return 2;
  }
  return m.violation_count == 0 ? 0 : 1;
}

}  // namespace
}  // namespace suite

int main(int argc, char** argv) {
  suite::Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [a](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return std::strncmp(a, flag, n) == 0 ? a + n : nullptr;
    };
    const char* v;
    if (std::strcmp(a, "--list") == 0) {
      for (const suite::Spec& s : suite::kSpecs) std::printf("%s\n", s.name);
      return 0;
    } else if ((v = val("--workload="))) {
      o.workload = v;
    } else if ((v = val("--seed="))) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = val("--seconds="))) {
      o.seconds = std::strtod(v, nullptr);
    } else if ((v = val("--trace="))) {
      o.trace_path = v;
    } else if ((v = val("--json="))) {
      o.json_path = v;
    } else if (std::strcmp(a, "--smoke") == 0) {
      o.smoke = true;
    } else {
      suite::usage(argv[0]);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) suite::usage(argv[0]);
  try {
    return suite::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "toma_bench: %s\n", e.what());
    return 2;
  }
}
