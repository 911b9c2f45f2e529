#include "trace.hpp"

#include <algorithm>
#include <cinttypes>

#include "suite.hpp"

namespace suite {

const char* span_name(Span s) {
  switch (s) {
    case Span::kRep:
      return "rep";
    case Span::kRound:
      return "round";
    case Span::kLaunch:
      return "Device::launch";
    case Span::kMalloc:
      return "toma_malloc";
    case Span::kFree:
      return "toma_free";
    case Span::kRealloc:
      return "toma_realloc";
    case Span::kMallocAsync:
      return "toma_malloc_async";
    case Span::kFreeAsync:
      return "toma_free_async";
    case Span::kPoolSync:
      return "toma_pool_sync";
    case Span::kPoolSyncAll:
      return "toma_pool_sync_all";
    case Span::kTrim:
      return "toma_trim";
    case Span::kDefrag:
      return "toma_pool_defrag";
    case Span::kGpuMalloc:
      return "GpuAllocator::malloc";
    case Span::kGpuFree:
      return "GpuAllocator::free";
    case Span::kCount:
      break;
  }
  return "?";
}

void Tracer::open(Span s, std::uint64_t req, std::int64_t start_ns) {
  if (epoch_ns_ < 0) epoch_ns_ = start_ns;
  stack_.push_back(Open{s, next_id_++, parent_id(), req, start_ns, 0, {}});
}

void Tracer::close(std::int64_t end_ns) {
  Open o = std::move(stack_.back());
  stack_.pop_back();
  // Union of the overlapping device intervals.
  std::int64_t covered = o.child_ns;
  std::sort(o.device.begin(), o.device.end());
  std::int64_t run_start = 0, run_end = -1;
  for (const auto& [b, e] : o.device) {
    if (b > run_end) {
      if (run_end >= run_start) covered += run_end - run_start;
      run_start = b;
      run_end = e;
    } else {
      run_end = std::max(run_end, e);
    }
  }
  if (run_end >= run_start) covered += run_end - run_start;
  if (!stack_.empty()) stack_.back().child_ns += end_ns - o.start;
  finish(o.name, o.id, o.parent, 1, o.req, o.start, end_ns, covered);
}

void Tracer::leaf(Span s, std::uint64_t req, std::int64_t start_ns,
                  std::int64_t end_ns) {
  if (epoch_ns_ < 0) epoch_ns_ = start_ns;
  if (!stack_.empty()) stack_.back().child_ns += end_ns - start_ns;
  finish(s, next_id_++, parent_id(), 1, req, start_ns, end_ns, 0);
}

void Tracer::device(Span s, std::uint64_t req, std::uint32_t tid,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (!stack_.empty()) stack_.back().device.emplace_back(start_ns, end_ns);
  finish(s, next_id_++, parent_id(), tid, req, start_ns, end_ns, 0);
}

void Tracer::finish(Span s, std::uint32_t id, std::uint32_t parent,
                    std::uint32_t tid, std::uint64_t req, std::int64_t start,
                    std::int64_t end, std::int64_t covered_ns) {
  PerName& pn = per_name_[static_cast<std::size_t>(s)];
  const std::int64_t dur = end - start;
  ++pn.count;
  pn.total_ns += static_cast<std::uint64_t>(dur);
  pn.self_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(
      dur - covered_ns, 0));
  pn.dur_ns.push_back(clamp_ns(dur));
  const bool structural =
      s == Span::kRep || s == Span::kRound || s == Span::kLaunch;
  if (structural || kept_.size() < retain_cap_) {
    kept_.push_back(Kept{s, id, parent, tid, req, start, end});
  } else {
    ++dropped_;
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Kept& k : kept_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"req\":%" PRIu64 "}}",
                 first ? "" : ",", span_name(k.name), k.tid,
                 static_cast<double>(k.start - epoch_ns_) / 1e3,
                 static_cast<double>(k.end - k.start) / 1e3, k.id, k.parent,
                 k.req);
    first = false;
  }
  std::fprintf(f,
               "\n],\"otherData\":{\"spans_kept\":%zu,\"spans_dropped\":%" PRIu64
               "}}\n",
               kept_.size(), dropped_);
  return std::fclose(f) == 0;
}

void Tracer::print_table(std::FILE* out) const {
  std::fprintf(out, "%-22s %10s %12s %12s %10s %10s\n", "span", "count",
               "total_ms", "self_ms", "p50_ns", "p99_ns");
  for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
    const PerName& pn = per_name_[i];
    if (pn.count == 0) continue;
    std::vector<std::uint32_t> d = pn.dur_ns;
    const Quantiles q = quantiles(d);
    std::fprintf(out, "%-22s %10" PRIu64 " %12.3f %12.3f %10.0f %10.0f\n",
                 span_name(static_cast<Span>(i)), pn.count,
                 static_cast<double>(pn.total_ns) / 1e6,
                 static_cast<double>(pn.self_ns) / 1e6, q.p50, q.p99);
  }
  std::fprintf(out, "spans kept for the trace file: %zu (dropped %" PRIu64
                    ")\n",
               kept_.size(), dropped_);
}

}  // namespace suite
