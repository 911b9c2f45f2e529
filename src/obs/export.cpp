#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace toma::obs {

namespace {

bool is_metric_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/// Escape a label value for the exposition format (\\, \", \n).
void prom_label_escape_into(std::string& out, const std::string& v) {
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
}

std::string render_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const char* extra_key = nullptr, const std::string& extra_val = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& k, const std::string& v) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    prom_label_escape_into(out, v);
    out.push_back('"');
  };
  for (const auto& [k, v] : labels) emit(k, v);
  if (extra_key != nullptr) emit(extra_key, extra_val);
  out.push_back('}');
  return out;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

/// The "counters", "derived" and "histograms" sections of the stable JSON
/// (without the enclosing braces).
void append_json_sections(std::string& out, const Snapshot& snap) {
  out += "\"counters\":{";
  char buf[64];
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    json_escape_into(out, name);
    std::snprintf(buf, sizeof(buf), "\":%" PRIu64, v);
    out += buf;
  }
  out += "\n},\"derived\":{";
  first = true;
  for (const auto& [name, r] : snap.derived_rates()) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    json_escape_into(out, name);
    std::snprintf(buf, sizeof(buf), "\":%.6g", r);
    out += buf;
  }
  out += "\n},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\n\"";
    json_escape_into(out, name);
    std::snprintf(buf, sizeof(buf), "\":{\"count\":%" PRIu64, h.count);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"sum\":%" PRIu64, h.sum);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"min\":%" PRIu64, h.min);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"max\":%" PRIu64, h.max);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g",
                  h.p50(), h.p95(), h.p99());
    out += buf;
    // Trailing zero buckets are elided; bucket i covers [2^(i-1), 2^i).
    std::uint32_t last = 0;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] != 0) last = b + 1;
    }
    out += ",\"buckets\":[";
    for (std::uint32_t b = 0; b < last; ++b) {
      std::snprintf(buf, sizeof(buf), "%s%" PRIu64, b == 0 ? "" : ",",
                    h.buckets[b]);
      out += buf;
    }
    out += "]}";
  }
  out += "\n}";
}

bool write_file(const std::string& body, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool all = written == body.size();
  const bool closed = std::fclose(f) == 0;
  return all && closed;
}

/// One series group: every (labels, value) sharing a metric name, so the
/// emitter writes a single # TYPE header per metric.
template <typename Value>
using Grouped = std::map<std::string, std::vector<std::pair<std::string, Value>>>;

}  // namespace

SeriesName parse_series_name(const std::string& name) {
  SeriesName out;
  // name[i] — counter/histogram vector element.
  if (!name.empty() && name.back() == ']') {
    const auto open = name.rfind('[');
    if (open != std::string::npos) {
      out.metric = name.substr(0, open);
      out.labels.emplace_back(
          "index", name.substr(open + 1, name.size() - open - 2));
      return out;
    }
  }
  // name{k="v",...} — labeled instrument.
  if (!name.empty() && name.back() == '}') {
    const auto open = name.find('{');
    if (open != std::string::npos) {
      out.metric = name.substr(0, open);
      std::size_t i = open + 1;
      while (i < name.size() && name[i] != '}') {
        const auto eq = name.find('=', i);
        if (eq == std::string::npos || eq + 1 >= name.size() ||
            name[eq + 1] != '"') {
          break;  // malformed: treat the rest as opaque
        }
        std::string key = name.substr(i, eq - i);
        std::string val;
        std::size_t j = eq + 2;
        while (j < name.size() && name[j] != '"') {
          if (name[j] == '\\' && j + 1 < name.size()) ++j;
          val.push_back(name[j]);
          ++j;
        }
        out.labels.emplace_back(std::move(key), std::move(val));
        i = j + 1;
        if (i < name.size() && name[i] == ',') ++i;
      }
      return out;
    }
  }
  out.metric = name;
  return out;
}

std::string prometheus_metric_name(const std::string& metric,
                                   const std::string& prefix) {
  // A name may not be empty or start with a digit.
  const std::string& head = prefix.empty() ? metric : prefix;
  std::string out = head.empty() || (head[0] >= '0' && head[0] <= '9')
                        ? "_"
                        : "";
  if (!prefix.empty()) {
    out += prefix;
    out += '_';
  }
  for (const char c : metric) {
    out.push_back(is_metric_char(c) ? c : '_');
  }
  return out;
}

std::vector<SloSummary> slo_summaries(const Snapshot& snap) {
  std::vector<SloSummary> out;
  for (const auto& [name, hist] : snap.histograms) {
    const SeriesName sn = parse_series_name(name);
    const char* op = nullptr;
    if (sn.metric == "pool.malloc_ns") op = "malloc";
    if (sn.metric == "pool.free_ns") op = "free";
    if (op == nullptr || sn.labels.size() != 1 ||
        sn.labels[0].first != "pool") {
      continue;
    }
    SloSummary s;
    s.pool = sn.labels[0].second;
    s.op = op;
    s.count = hist.count;
    s.p50 = hist.p50();
    s.p95 = hist.p95();
    s.p99 = hist.p99();
    const auto it = snap.counters.find("pool.slo_violation{pool=\"" +
                                       s.pool + "\"}");
    if (it != snap.counters.end()) s.violations = it->second;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const SloSummary& a, const SloSummary& b) {
              return a.pool != b.pool ? a.pool < b.pool : a.op < b.op;
            });
  return out;
}

std::string to_prometheus(const Snapshot& snap, const std::string& prefix) {
  std::string out;
  char buf[96];

  // Group counters by prometheus metric name so each gets one TYPE line.
  // (Distinct registry names can, in principle, sanitize to the same
  // metric; grouping by the *sanitized* name keeps the output legal even
  // then — they become one metric with distinct label sets.)
  Grouped<std::uint64_t> counters;
  for (const auto& [name, v] : snap.counters) {
    const SeriesName sn = parse_series_name(name);
    counters[prometheus_metric_name(sn.metric, prefix)].emplace_back(
        render_labels(sn.labels), v);
  }
  for (const auto& [metric, series] : counters) {
    out += "# TYPE " + metric + " counter\n";
    for (const auto& [labels, v] : series) {
      out += metric + labels;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", v);
      out += buf;
    }
  }

  Grouped<double> gauges;
  for (const auto& [name, r] : snap.derived_rates()) {
    const SeriesName sn = parse_series_name(name);
    gauges[prometheus_metric_name(sn.metric, prefix)].emplace_back(
        render_labels(sn.labels), r);
  }
  for (const SloSummary& s : slo_summaries(snap)) {
    auto& series = gauges[prometheus_metric_name("slo_latency_ns", prefix)];
    const std::vector<std::pair<std::string, std::string>> base = {
        {"pool", s.pool}, {"op", s.op}};
    series.emplace_back(render_labels(base, "quantile", "0.5"), s.p50);
    series.emplace_back(render_labels(base, "quantile", "0.95"), s.p95);
    series.emplace_back(render_labels(base, "quantile", "0.99"), s.p99);
  }
  for (const auto& [metric, series] : gauges) {
    out += "# TYPE " + metric + " gauge\n";
    for (const auto& [labels, v] : series) {
      out += metric + labels + " ";
      append_double(out, v);
      out.push_back('\n');
    }
  }

  // Histograms: cumulative le buckets up to the last non-empty one, then
  // +Inf. Bucket b's upper bound is hist_bucket_hi(b) (exclusive in the
  // registry, inclusive as a Prometheus `le` — the off-by-one is inside
  // the bucket's own quantization error and keeps bounds integral).
  Grouped<const HistogramSnapshot*> hists;
  for (const auto& [name, h] : snap.histograms) {
    const SeriesName sn = parse_series_name(name);
    hists[prometheus_metric_name(sn.metric, prefix)].emplace_back(
        render_labels(sn.labels), &h);
  }
  for (const auto& [metric, series] : hists) {
    out += "# TYPE " + metric + " histogram\n";
    for (const auto& [labels, h] : series) {
      // Re-render the label block with `le` appended: strip the braces.
      const std::string inner =
          labels.empty() ? std::string()
                         : labels.substr(1, labels.size() - 2) + ",";
      std::uint32_t last = 0;
      for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
        if (h->buckets[b] != 0) last = b + 1;
      }
      std::uint64_t cum = 0;
      for (std::uint32_t b = 0; b < last; ++b) {
        cum += h->buckets[b];
        out += metric + "_bucket{" + inner;
        std::snprintf(buf, sizeof(buf), "le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                      hist_bucket_hi(b), cum);
        out += buf;
      }
      out += metric + "_bucket{" + inner;
      std::snprintf(buf, sizeof(buf), "le=\"+Inf\"} %" PRIu64 "\n", h->count);
      out += buf;
      out += metric + "_sum" + labels;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", h->sum);
      out += buf;
      out += metric + "_count" + labels;
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", h->count);
      out += buf;
    }
  }
  return out;
}

std::string to_stable_json(const Snapshot& snap) {
  std::string out = "{\"schema_version\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu32 ",", kExportSchemaVersion);
  out += buf;
  append_json_sections(out, snap);
  out += ",\"slo\":{";
  std::string open_pool;
  bool first_pool = true;
  bool first_op = true;
  for (const SloSummary& s : slo_summaries(snap)) {
    if (s.pool != open_pool) {
      if (!open_pool.empty() || !first_pool) out += "}";
      if (!first_pool) out += ",";
      first_pool = false;
      out += "\n\"";
      json_escape_into(out, s.pool);
      out += "\":{";
      open_pool = s.pool;
      first_op = true;
    }
    if (!first_op) out += ",";
    first_op = false;
    out += "\"";
    json_escape_into(out, s.op);
    std::snprintf(buf, sizeof(buf), "\":{\"count\":%" PRIu64, s.count);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g",
                  s.p50, s.p95, s.p99);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"violations\":%" PRIu64 "}",
                  s.violations);
    out += buf;
  }
  if (!first_pool) out += "}";
  out += "\n}}\n";
  return out;
}

bool write_prometheus(const Snapshot& snap, const std::string& path,
                      const std::string& prefix) {
  return write_file(to_prometheus(snap, prefix), path);
}

bool write_stable_json(const Snapshot& snap, const std::string& path) {
  return write_file(to_stable_json(snap), path);
}

}  // namespace toma::obs
