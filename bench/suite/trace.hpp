// In-memory span recorder for traced runs (--trace=PATH).
//
// Spans are recorded only from the suite's own code, around its calls
// into the library: one per toma_* call, one per Device::launch, the
// 1-in-64 sampled in-kernel GpuAllocator::malloc/free calls, and the rep
// and round spans that parent them. Every span is folded into per-name
// statistics (count, total, self time, p50, p99) as it closes; the first
// `retain_cap` spans (plus every rep/round/launch span) are kept for the
// Chrome-trace file written at exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace suite {

enum class Span : std::uint8_t {
  kRep,
  kRound,
  kLaunch,
  kMalloc,
  kFree,
  kRealloc,
  kMallocAsync,
  kFreeAsync,
  kPoolSync,
  kPoolSyncAll,
  kTrim,
  kDefrag,
  kGpuMalloc,
  kGpuFree,
  kCount
};

const char* span_name(Span s);

class Tracer {
 public:
  explicit Tracer(std::size_t retain_cap) : retain_cap_(retain_cap) {}

  /// Open a span on the (single) host thread; spans close LIFO.
  void open(Span s, std::uint64_t req, std::int64_t start_ns);
  void close(std::int64_t end_ns);

  /// A finished host call under the innermost open span.
  void leaf(Span s, std::uint64_t req, std::int64_t start_ns,
            std::int64_t end_ns);

  /// A sampled in-kernel call under the innermost open span (a launch).
  /// Device spans of one launch overlap; the launch's self time subtracts
  /// the union of their intervals. `tid` groups them by SM in the file.
  void device(Span s, std::uint64_t req, std::uint32_t tid,
              std::int64_t start_ns, std::int64_t end_ns);

  /// Chrome trace-event JSON ("X" events, µs timestamps).
  bool write_chrome(const std::string& path) const;
  /// count / total / self / p50 / p99 per span name.
  void print_table(std::FILE* out) const;

 private:
  struct Open {
    Span name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t req;
    std::int64_t start;
    std::int64_t child_ns = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> device;
  };
  struct Kept {
    Span name;
    std::uint32_t id, parent, tid;
    std::uint64_t req;
    std::int64_t start, end;
  };
  struct PerName {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint32_t> dur_ns;
  };

  std::uint32_t parent_id() const {
    return stack_.empty() ? 0 : stack_.back().id;
  }
  void finish(Span s, std::uint32_t id, std::uint32_t parent,
              std::uint32_t tid, std::uint64_t req, std::int64_t start,
              std::int64_t end, std::int64_t covered_ns);

  std::size_t retain_cap_;
  std::uint32_t next_id_ = 1;  // 0 = no parent
  std::int64_t epoch_ns_ = -1;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::uint64_t dropped_ = 0;
  PerName per_name_[static_cast<std::size_t>(Span::kCount)];
};

}  // namespace suite
