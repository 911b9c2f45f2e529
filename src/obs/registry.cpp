#include "obs/registry.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace toma::obs {

namespace {

std::string vec_name(const std::string& base, std::uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "[%u]", i);
  return base + buf;
}

}  // namespace

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

HistogramVec& Registry::histogram_vec(const std::string& name,
                                      std::uint32_t width) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = histogram_vecs_[name];
  if (slot == nullptr) slot = std::make_unique<HistogramVec>(width);
  TOMA_ASSERT_MSG(slot->width() == width,
                  "histogram_vec re-registered with a different width");
  return *slot;
}

std::uint64_t Registry::add_collector(Collector fn) {
  std::lock_guard<std::mutex> g(mu_);
  const std::uint64_t id = next_collector_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void Registry::remove_collector(std::uint64_t id) {
  std::lock_guard<std::mutex> g(mu_);
  const auto it = collectors_.find(id);
  TOMA_ASSERT_MSG(it != collectors_.end(), "unknown collector id");
  it->second(folded_);
  collectors_.erase(it);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  Snapshot s;
  s.counters = folded_;
  for (const auto& [id, collect] : collectors_) collect(s.counters);
  for (const auto& [name, h] : histograms_) {
    s.histograms[name] = h->snapshot();
  }
  for (const auto& [name, hv] : histogram_vecs_) {
    for (std::uint32_t i = 0; i < hv->width(); ++i) {
      s.histograms[vec_name(name, i)] = hv->get(i).snapshot();
    }
  }
  return s;
}

Registry& registry() {
  static Registry* r = new Registry();  // leaky: outlives static dtors
  return *r;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Snapshot Snapshot::diff_since(const Snapshot& before) const {
  Snapshot d;
  for (const auto& [name, v] : counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t prev = it == before.counters.end() ? 0 : it->second;
    d.counters[name] = v >= prev ? v - prev : 0;
  }
  for (const auto& [name, h] : histograms) {
    const auto it = before.histograms.find(name);
    d.histograms[name] =
        it == before.histograms.end() ? h : h.diff_since(it->second);
  }
  return d;
}

std::map<std::string, double> Snapshot::derived_rates() const {
  std::map<std::string, double> out;
  constexpr char kHit[] = ".hit";
  for (const auto& [name, hits] : counters) {
    if (name.size() <= sizeof(kHit) - 1 ||
        name.compare(name.size() - (sizeof(kHit) - 1), sizeof(kHit) - 1,
                     kHit) != 0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - (sizeof(kHit) - 1));
    const auto miss_it = counters.find(base + ".miss");
    if (miss_it == counters.end()) continue;
    const std::uint64_t total = hits + miss_it->second;
    if (total == 0) continue;
    out[base + ".hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(total);
  }
  // Backing-store gauges, derived from the monotonic map/unmap and
  // charge/free byte counters so a snapshot diff stays meaningful:
  //   vmm.mapped_bytes    — resident footprint right now
  //   vmm.fragmentation   — live / mapped (1.0 = perfectly dense)
  const auto ctr = [this](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const std::uint64_t mapped = ctr("vmm.map_bytes") - ctr("vmm.unmap_bytes");
  if (mapped != 0 && ctr("vmm.map_bytes") >= ctr("vmm.unmap_bytes")) {
    out["vmm.mapped_bytes"] = static_cast<double>(mapped);
    const std::uint64_t charged = ctr("vmm.live_bytes.charged");
    const std::uint64_t freed = ctr("vmm.live_bytes.freed");
    if (charged >= freed) {
      out["vmm.fragmentation"] =
          static_cast<double>(charged - freed) / static_cast<double>(mapped);
    }
  }
  return out;
}

std::string Snapshot::to_text() const {
  std::string out;
  char buf[256];
  out += "== telemetry counters ==\n";
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), "  %-40s %12" PRIu64 "\n", name.c_str(),
                  v);
    out += buf;
  }
  if (const auto rates = derived_rates(); !rates.empty()) {
    out += "== derived (hit / (hit + miss)) ==\n";
    for (const auto& [name, r] : rates) {
      std::snprintf(buf, sizeof(buf), "  %-40s %11.2f%%\n", name.c_str(),
                    100.0 * r);
      out += buf;
    }
  }
  out += "== telemetry histograms (ns unless noted) ==\n";
  for (const auto& [name, h] : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "  %-40s n=%-10" PRIu64 " mean=%-8s p50=%-8s p95=%-8s "
                  "p99=%-8s max=%s\n",
                  name.c_str(), h.count, util::eng_format(h.mean()).c_str(),
                  util::eng_format(h.p50()).c_str(),
                  util::eng_format(h.p95()).c_str(),
                  util::eng_format(h.p99()).c_str(),
                  util::eng_format(static_cast<double>(h.max)).c_str());
    out += buf;
  }
  return out;
}

}  // namespace toma::obs
