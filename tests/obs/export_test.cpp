// Snapshot export formats: text report, stable JSON (golden structural
// check with a minimal validating parser), and the Chrome trace-event file.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace toma::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal JSON validator: checks balanced braces/brackets outside strings,
// string escaping, and that the document is a single object. Not a full
// parser, but enough to catch the classic emitter bugs (trailing commas
// are caught by the golden-substring checks below).
bool json_shape_ok(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  bool esc = false;
  bool seen_root = false;
  for (const char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
      seen_root = true;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    } else if (depth == 0 && !std::isspace(static_cast<unsigned char>(c)) &&
               seen_root) {
      return false;  // trailing garbage after the root value
    }
  }
  return depth == 0 && !in_str && seen_root;
}

class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Counters come from stats owners' collectors: register one that reports
// fixed `totals`.
void add_counters(Registry& r, CounterTotals totals) {
  r.add_collector([totals = std::move(totals)](CounterTotals& out) {
    for (const auto& [name, v] : totals) out[name] += v;
  });
}

TEST(SnapshotExport, TextReportListsEverything) {
  Registry r;
  add_counters(r, {{"x.count", 1234}});
  r.histogram("x.lat_ns").record(100);
  const std::string text = r.snapshot().to_text();
  EXPECT_NE(text.find("x.count"), std::string::npos);
  EXPECT_NE(text.find("1234"), std::string::npos);
  EXPECT_NE(text.find("x.lat_ns"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(SnapshotExport, JsonGolden) {
  Registry r;
  add_counters(r, {{"a.one", 1},
                   {"b \"quoted\"", 2}});  // name needing escaping
  Histogram& h = r.histogram("lat");
  h.record(0);
  h.record(5);
  h.record(5);
  const std::string json = to_stable_json(r.snapshot());

  EXPECT_TRUE(json_shape_ok(json)) << json;
  // Golden structural substrings (stable: maps iterate sorted by name).
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"a.one\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b \\\"quoted\\\"\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":10"), std::string::npos);
  EXPECT_NE(json.find("\"min\":0"), std::string::npos);
  EXPECT_NE(json.find("\"max\":5"), std::string::npos);
  // 0 lands in bucket 0, the two 5s in bucket 3 = [4,8); trailing zero
  // buckets are elided.
  EXPECT_NE(json.find("\"buckets\":[1,0,0,2]"), std::string::npos);
}

TEST(SnapshotExport, DerivedHitRates) {
  Registry r;
  add_counters(r, {{"cache.hit", 3},
                   {"cache.miss", 1},
                   {"lonely.hit", 5},  // no .miss partner: no rate
                   {"other_hit", 7},   // '_hit' suffix does not pair
                   {"cold.hit", 0},    // hit+miss == 0: no rate
                   {"cold.miss", 0}});
  const Snapshot s = r.snapshot();

  const auto rates = s.derived_rates();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates.at("cache.hit_rate"), 0.75);

  const std::string json = to_stable_json(s);
  EXPECT_TRUE(json_shape_ok(json)) << json;
  EXPECT_NE(json.find("\"derived\":{"), std::string::npos);
  EXPECT_NE(json.find("\"cache.hit_rate\":0.75"), std::string::npos);
  // Raw counters stay integral alongside the derived section.
  EXPECT_NE(json.find("\"cache.hit\":3"), std::string::npos);

  const std::string text = s.to_text();
  EXPECT_NE(text.find("cache.hit_rate"), std::string::npos);
  EXPECT_NE(text.find("75.00%"), std::string::npos);
}

TEST(SnapshotExport, WriteJsonRoundTripsThroughDisk) {
  Registry r;
  add_counters(r, {{"disk.count", 9}});
  TempFile f("obs_export_test.json");
  ASSERT_TRUE(write_stable_json(r.snapshot(), f.path()));
  const std::string loaded = slurp(f.path());
  EXPECT_EQ(loaded, to_stable_json(r.snapshot()));
  EXPECT_TRUE(json_shape_ok(loaded));
}

TEST(SnapshotExport, EmptySnapshotIsStillValidJson) {
  Registry r;
  EXPECT_TRUE(json_shape_ok(to_stable_json(r.snapshot())));
}

TEST(ChromeTrace, FileIsValidTraceEventJson) {
  enable_tracing(64);
  reset_trace();
  trace_event("evt", TracePhase::kInstant, 3);
  trace_event("span", TracePhase::kBegin, 1);
  trace_event("span", TracePhase::kEnd, 1);
  disable_tracing();

  TempFile f("obs_trace_test.json");
  ASSERT_TRUE(dump_chrome_trace(f.path()));
  const std::string json = slurp(f.path());
  EXPECT_TRUE(json_shape_ok(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"evt\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceStillDumps) {
  enable_tracing(64);
  reset_trace();
  disable_tracing();
  TempFile f("obs_trace_empty.json");
  ASSERT_TRUE(dump_chrome_trace(f.path()));
  EXPECT_TRUE(json_shape_ok(slurp(f.path())));
}

}  // namespace
}  // namespace toma::obs
