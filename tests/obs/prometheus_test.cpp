// Metrics exporter (obs/export.hpp): series-name parsing, Prometheus
// text exposition validated by a round-trip parser (the C++ twin of
// tools/lint_prometheus.py), SLO summaries, stable JSON, and snapshot
// diffing over the pool.* counter namespace.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"

namespace toma::obs {
namespace {

// --- a minimal Prometheus text-format parser for round-trip checks -------

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

bool legal_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

/// Parse exposition text; fails the test on any malformed line,
/// duplicate series, or sample without a preceding # TYPE.
std::vector<PromSample> parse_prometheus(const std::string& text) {
  std::vector<PromSample> out;
  std::set<std::string> typed;
  std::set<std::string> series_seen;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kw, name, type;
      ls >> hash >> kw >> name >> type;
      if (kw == "TYPE") {
        EXPECT_TRUE(legal_metric_name(name)) << "line " << lineno;
        EXPECT_TRUE(typed.insert(name).second)
            << "duplicate TYPE for " << name << " at line " << lineno;
      }
      continue;
    }
    PromSample s;
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string::npos) {
      ADD_FAILURE() << "unparseable line " << lineno << ": " << line;
      continue;
    }
    s.name = line.substr(0, i);
    EXPECT_TRUE(legal_metric_name(s.name))
        << "illegal name at line " << lineno << ": " << s.name;
    std::string key = s.name;
    if (line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) {
        ADD_FAILURE() << "unclosed label block at line " << lineno;
        continue;
      }
      std::string body = line.substr(i + 1, close - i - 1);
      key += "{" + body + "}";
      // label pairs: k="v" (values may contain escaped quotes)
      std::size_t pos = 0;
      bool labels_ok = true;
      while (pos < body.size()) {
        const std::size_t eq = body.find('=', pos);
        if (eq == std::string::npos || eq + 1 >= body.size() ||
            body[eq + 1] != '"') {
          ADD_FAILURE() << "malformed label pair at line " << lineno;
          labels_ok = false;
          break;
        }
        const std::string lname = body.substr(pos, eq - pos);
        std::string val;
        std::size_t j = eq + 2;
        for (; j < body.size() && body[j] != '"'; ++j) {
          if (body[j] == '\\' && j + 1 < body.size()) ++j;
          val.push_back(body[j]);
        }
        if (j >= body.size()) {
          ADD_FAILURE() << "unterminated label at line " << lineno;
          labels_ok = false;
          break;
        }
        s.labels[lname] = val;
        pos = j + 1;
        if (pos < body.size() && body[pos] == ',') ++pos;
      }
      if (!labels_ok) continue;
      i = close + 1;
    }
    const std::string rest = line.substr(i);
    char* end = nullptr;
    s.value = std::strtod(rest.c_str(), &end);
    EXPECT_NE(end, rest.c_str()) << "non-numeric value at line " << lineno;
    EXPECT_TRUE(series_seen.insert(key).second)
        << "duplicate series at line " << lineno << ": " << key;
    // A histogram family's samples hang off the TYPE'd base name.
    std::string base = s.name;
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      const std::string sufs(suf);
      if (base.size() > sufs.size() &&
          base.compare(base.size() - sufs.size(), sufs.size(), sufs) == 0 &&
          typed.count(base.substr(0, base.size() - sufs.size()))) {
        base = base.substr(0, base.size() - sufs.size());
        break;
      }
    }
    EXPECT_TRUE(typed.count(base))
        << "sample without # TYPE at line " << lineno << ": " << s.name;
    out.push_back(std::move(s));
  }
  return out;
}

HistogramSnapshot make_hist(std::initializer_list<std::uint64_t> values) {
  Histogram h;
  for (const std::uint64_t v : values) h.record(v);
  return h.snapshot();
}

// --- series-name parsing ---------------------------------------------------

TEST(SeriesName, PlainIndexedAndLabeled) {
  SeriesName plain = parse_series_name("alloc.malloc");
  EXPECT_EQ(plain.metric, "alloc.malloc");
  EXPECT_TRUE(plain.labels.empty());

  SeriesName indexed = parse_series_name("ualloc.arena_alloc[5]");
  EXPECT_EQ(indexed.metric, "ualloc.arena_alloc");
  ASSERT_EQ(indexed.labels.size(), 1u);
  EXPECT_EQ(indexed.labels[0].first, "index");
  EXPECT_EQ(indexed.labels[0].second, "5");

  SeriesName labeled =
      parse_series_name("pool.malloc_ns{pool=\"tenant-a\"}");
  EXPECT_EQ(labeled.metric, "pool.malloc_ns");
  ASSERT_EQ(labeled.labels.size(), 1u);
  EXPECT_EQ(labeled.labels[0].first, "pool");
  EXPECT_EQ(labeled.labels[0].second, "tenant-a");
}

TEST(SeriesName, UnescapesLabelValues) {
  SeriesName s =
      parse_series_name("pool.free_ns{pool=\"a\\\"b\\\\c\",op=\"free\"}");
  EXPECT_EQ(s.metric, "pool.free_ns");
  ASSERT_EQ(s.labels.size(), 2u);
  EXPECT_EQ(s.labels[0].second, "a\"b\\c");
  EXPECT_EQ(s.labels[1].first, "op");
}

TEST(SeriesName, MetricNameSanitization) {
  EXPECT_EQ(prometheus_metric_name("pool.malloc_ns", "toma"),
            "toma_pool_malloc_ns");
  EXPECT_EQ(prometheus_metric_name("weird name!", "toma"),
            "toma_weird_name_");
}

// --- Prometheus exposition -------------------------------------------------

Snapshot sample_snapshot() {
  Snapshot s;
  s.counters["alloc.malloc"] = 100;
  s.counters["alloc.free"] = 90;
  s.counters["ualloc.magazine.hit"] = 30;
  s.counters["ualloc.magazine.miss"] = 10;
  s.counters["ualloc.arena_alloc[0]"] = 7;
  s.counters["ualloc.arena_alloc[1]"] = 9;
  s.counters["pool.slo_violation{pool=\"a\"}"] = 3;
  s.histograms["pool.malloc_ns{pool=\"a\"}"] = make_hist({5, 9, 17, 33, 90});
  s.histograms["pool.free_ns{pool=\"a\"}"] = make_hist({4, 4, 4});
  return s;
}

TEST(Prometheus, RoundTripsThroughAParser) {
  const Snapshot snap = sample_snapshot();
  const std::string text = to_prometheus(snap);
  const std::vector<PromSample> samples = parse_prometheus(text);
  ASSERT_FALSE(samples.empty());

  // Counters come back with their exact values and labels.
  std::uint64_t found = 0;
  for (const PromSample& s : samples) {
    if (s.name == "toma_alloc_malloc") {
      EXPECT_EQ(s.value, 100.0);
      ++found;
    } else if (s.name == "toma_ualloc_arena_alloc" &&
               s.labels.count("index") && s.labels.at("index") == "1") {
      EXPECT_EQ(s.value, 9.0);
      ++found;
    } else if (s.name == "toma_pool_slo_violation") {
      EXPECT_EQ(s.labels.at("pool"), "a");
      EXPECT_EQ(s.value, 3.0);
      ++found;
    }
  }
  EXPECT_EQ(found, 3u);
}

TEST(Prometheus, HistogramBucketsAreCumulative) {
  Snapshot snap;
  snap.histograms["pool.malloc_ns{pool=\"t\"}"] = make_hist({1, 2, 2, 300});
  const std::string text = to_prometheus(snap);
  const std::vector<PromSample> samples = parse_prometheus(text);

  double last_bucket = 0.0, inf_bucket = -1.0, count = -1.0, sum = -1.0;
  for (const PromSample& s : samples) {
    if (s.name == "toma_pool_malloc_ns_bucket") {
      EXPECT_EQ(s.labels.at("pool"), "t");
      ASSERT_TRUE(s.labels.count("le"));
      if (s.labels.at("le") == "+Inf") {
        inf_bucket = s.value;
      } else {
        EXPECT_GE(s.value, last_bucket) << "buckets must be cumulative";
        last_bucket = s.value;
      }
    } else if (s.name == "toma_pool_malloc_ns_count") {
      count = s.value;
    } else if (s.name == "toma_pool_malloc_ns_sum") {
      sum = s.value;
    }
  }
  EXPECT_EQ(inf_bucket, 4.0);
  EXPECT_EQ(count, 4.0);
  EXPECT_EQ(sum, 305.0);
}

TEST(Prometheus, SloQuantileGauges) {
  const Snapshot snap = sample_snapshot();
  const std::string text = to_prometheus(snap);
  const std::vector<PromSample> samples = parse_prometheus(text);
  std::set<std::string> quantiles;
  for (const PromSample& s : samples) {
    if (s.name != "toma_slo_latency_ns") continue;
    EXPECT_EQ(s.labels.at("pool"), "a");
    quantiles.insert(s.labels.at("op") + "/" + s.labels.at("quantile"));
    EXPECT_GT(s.value, 0.0);
  }
  EXPECT_EQ(quantiles.size(), 6u) << "2 ops x 3 quantiles";
  EXPECT_TRUE(quantiles.count("malloc/0.99"));
  EXPECT_TRUE(quantiles.count("free/0.5"));
}

TEST(Prometheus, EmptySnapshotIsEmptyButValid) {
  const Snapshot empty;
  const std::string text = to_prometheus(empty);
  EXPECT_TRUE(parse_prometheus(text).empty());
}

// --- SLO summaries ---------------------------------------------------------

TEST(SloSummaries, ExtractsPerPoolPerOp) {
  const Snapshot snap = sample_snapshot();
  const std::vector<SloSummary> slo = slo_summaries(snap);
  ASSERT_EQ(slo.size(), 2u);
  EXPECT_EQ(slo[0].pool, "a");
  EXPECT_EQ(slo[0].op, "free");
  EXPECT_EQ(slo[0].count, 3u);
  EXPECT_EQ(slo[0].violations, 3u);
  EXPECT_EQ(slo[1].op, "malloc");
  EXPECT_EQ(slo[1].count, 5u);
  EXPECT_GT(slo[1].p99, 0.0);
  EXPECT_LE(slo[1].p50, slo[1].p95);
  EXPECT_LE(slo[1].p95, slo[1].p99);
}

// --- stable JSON -----------------------------------------------------------

TEST(StableJson, CarriesSchemaVersionAndSlo) {
  const Snapshot snap = sample_snapshot();
  const std::string json = to_stable_json(snap);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\":3"), std::string::npos);
  // Brace balance outside strings (cheap structural validity check).
  int depth = 0;
  bool in_str = false, esc = false;
  for (const char c : json) {
    if (in_str) {
      if (esc) esc = false;
      else if (c == '\\') esc = true;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

// --- snapshot diff over the pool.* namespace -------------------------------

TEST(SnapshotDiff, PoolCounterNamespace) {
  std::atomic<std::uint64_t> syncs{5}, trims{0};
  Registry reg;
  reg.add_collector([&](CounterTotals& out) {
    out["pool.difftest.sync"] += syncs.load();
    out["pool.difftest.trim"] += trims.load();
  });
  const Snapshot before = reg.snapshot();
  syncs += 3;
  trims += 2;
  const Snapshot after = reg.snapshot();
  const Snapshot d = after.diff_since(before);
  EXPECT_EQ(d.counters.at("pool.difftest.sync"), 3u);
  EXPECT_EQ(d.counters.at("pool.difftest.trim"), 2u);
  // The diff renders like any snapshot — exporters work on intervals.
  const std::string text = to_prometheus(d);
  bool found = false;
  for (const PromSample& s : parse_prometheus(text)) {
    if (s.name == "toma_pool_difftest_sync") {
      EXPECT_EQ(s.value, 3.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace toma::obs
