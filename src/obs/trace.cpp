#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/stats.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/hints.hpp"

namespace toma::obs {

namespace {

// One ring per SM shard plus one per host-thread shard.
constexpr std::uint32_t kRings = kShards * 2;

// A raw test-and-set lock (no yield): safe because a push never suspends
// while holding it — fibers only interleave at explicit yield points, so
// contention can only come from other OS threads, which hold the lock for
// a handful of stores.
struct TOMA_CACHELINE_ALIGNED RingLock {
  std::atomic_flag f = ATOMIC_FLAG_INIT;
  void lock() {
    while (f.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { f.clear(std::memory_order_release); }
};

struct Ring {
  std::vector<TraceRecord> slots;
  std::uint64_t head = 0;  // total pushes; slot = head & mask
  RingLock mu;
};

struct TraceState {
  std::vector<Ring> rings{kRings};
  std::size_t mask = 0;  // capacity - 1
  std::mutex admin_mu;   // enable/disable/dump
  bool allocated = false;
  // Monotonic twin of trace_dropped(): ring-wrap loss shows up in every
  // metrics export (obs.trace.dropped), not only when someone polls the
  // rings, and reset_trace() does not reset it.
  std::atomic<std::uint64_t> dropped_total{0};
  static constexpr const char* kStatNames[1] = {"obs.trace.dropped"};
  StatsSource stats_source{[this](CounterTotals& out) {
    const std::uint64_t v[] = {dropped_total.load(std::memory_order_relaxed)};
    collect(v, out, kStatNames);
  }};
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaky: outlives static dtors
  return *s;
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
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

}  // namespace

void enable_tracing(std::size_t capacity_per_ring) {
  TraceState& st = state();
  std::lock_guard<std::mutex> g(st.admin_mu);
  if (capacity_per_ring < 16) capacity_per_ring = 16;
  const std::size_t cap = util::round_up_pow2(capacity_per_ring);
  if (!st.allocated || st.mask != cap - 1) {
    for (Ring& r : st.rings) {
      r.slots.assign(cap, TraceRecord{});
      r.head = 0;
    }
    st.mask = cap - 1;
    st.allocated = true;
  }
  detail::g_trace_on.store(true, std::memory_order_seq_cst);
}

void disable_tracing() {
  detail::g_trace_on.store(false, std::memory_order_seq_cst);
}

void reset_trace() {
  TraceState& st = state();
  std::lock_guard<std::mutex> g(st.admin_mu);
  for (Ring& r : st.rings) {
    r.mu.lock();
    r.head = 0;
    r.mu.unlock();
  }
}

void trace_event_slow(const char* name, TracePhase phase, std::uint64_t arg) {
  TraceState& st = state();
  if (!st.allocated) return;
  const std::uint32_t sm = current_sm();
  Ring& r = st.rings[sm % kRings];
  TraceRecord rec{current_tick(), arg,          name,
                  sm,             current_warp(), phase};
  r.mu.lock();
  const bool overwrote = r.head > st.mask;  // ring full: oldest record lost
  r.slots[r.head & st.mask] = rec;
  ++r.head;
  r.mu.unlock();
  if (overwrote) st.dropped_total.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t trace_dropped() {
  TraceState& st = state();
  std::lock_guard<std::mutex> g(st.admin_mu);
  if (!st.allocated) return 0;
  std::uint64_t dropped = 0;
  const std::uint64_t cap = st.mask + 1;
  for (Ring& r : st.rings) {
    r.mu.lock();
    if (r.head > cap) dropped += r.head - cap;
    r.mu.unlock();
  }
  return dropped;
}

std::vector<TraceRecord> trace_records() {
  TraceState& st = state();
  std::lock_guard<std::mutex> g(st.admin_mu);
  std::vector<TraceRecord> out;
  if (!st.allocated) return out;
  const std::uint64_t cap = st.mask + 1;
  for (Ring& r : st.rings) {
    r.mu.lock();
    const std::uint64_t n = r.head < cap ? r.head : cap;
    const std::uint64_t start = r.head - n;
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(r.slots[(start + i) & st.mask]);
    }
    r.mu.unlock();
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.tick < b.tick;
                   });
  return out;
}

bool dump_chrome_trace(const std::string& path) {
  const std::vector<TraceRecord> recs = trace_records();

  std::string json;
  json.reserve(128 + recs.size() * 96);
  json += "{\"traceEvents\":[\n";
  json +=
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"toma gpusim\"}}";

  // Name each tid once (SMs and host-thread shards).
  std::vector<std::uint32_t> tids;
  for (const TraceRecord& r : recs) tids.push_back(r.sm);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  char buf[256];
  for (const std::uint32_t tid : tids) {
    if (tid < kShards) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":\"SM %u\"}}",
                    tid, tid);
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                    "\"name\":\"thread_name\","
                    "\"args\":{\"name\":\"host %u\"}}",
                    tid, tid - kShards);
    }
    json += buf;
  }

  for (const TraceRecord& r : recs) {
    json += ",\n{\"name\":\"";
    json_escape_into(json, r.name != nullptr ? r.name : "?");
    json += "\",\"pid\":0,";
    std::snprintf(buf, sizeof(buf), "\"tid\":%u,\"ts\":%" PRIu64 ",", r.sm,
                  r.tick);
    json += buf;
    switch (r.phase) {
      case TracePhase::kInstant:
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"i\",\"s\":\"t\",\"args\":{\"arg\":%" PRIu64
                      ",\"warp\":%u}}",
                      r.arg, r.warp);
        break;
      case TracePhase::kBegin:
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"b\",\"cat\":\"toma\",\"id\":%" PRIu64
                      ",\"args\":{\"warp\":%u}}",
                      r.arg, r.warp);
        break;
      case TracePhase::kEnd:
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"e\",\"cat\":\"toma\",\"id\":%" PRIu64 "}",
                      r.arg);
        break;
    }
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\n],\"displayTimeUnit\":\"ms\","
                "\"otherData\":{\"dropped_records\":%" PRIu64 "}}\n",
                trace_dropped());
  json += buf;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool all = written == json.size();
  const bool closed = std::fclose(f) == 0;
  return all && closed;
}

}  // namespace toma::obs
