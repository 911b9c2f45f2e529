#include "san/report.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/postmortem.hpp"

namespace toma::san {

namespace {

void default_handler(const BugReport& r) {
  const std::string text = format_report(r);
  std::fputs(text.c_str(), stderr);
  std::fflush(stderr);
  if (r.kind == BugKind::kLeak) return;  // leak reports are advisory
  obs::postmortem_dump();
  std::abort();
}

std::atomic<ReportHandler> g_handler{&default_handler};

}  // namespace

const char* bug_kind_name(BugKind kind) {
  switch (kind) {
    case BugKind::kDoubleFree:
      return "double-free";
    case BugKind::kInvalidFree:
      return "invalid-free";
    case BugKind::kOob:
      return "out-of-bounds write";
    case BugKind::kUaf:
      return "use-after-free write";
    case BugKind::kLeak:
      return "leak";
  }
  return "unknown";
}

std::string format_report(const BugReport& r) {
  char buf[1024];
  int n = std::snprintf(
      buf, sizeof buf,
      "\n=== HeapSan: %s ===\n"
      "  block    : user %p (base %p), %zu bytes requested, %zu-byte slot\n"
      "  alloc'd  : sm %" PRIu32 " warp %" PRIu32 " tick %" PRIu64
      " (allocation #%" PRIu64 ")\n",
      bug_kind_name(r.kind), r.user_ptr, r.base, r.user_size, r.capacity,
      r.alloc_sm, r.alloc_warp, r.alloc_tick, r.alloc_seq);
  std::string out(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  if (r.kind == BugKind::kDoubleFree || r.kind == BugKind::kUaf) {
    n = std::snprintf(buf, sizeof buf,
                      "  freed    : sm %" PRIu32 " warp %" PRIu32
                      " tick %" PRIu64 "\n",
                      r.free_sm, r.free_warp, r.free_tick);
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  if (r.kind == BugKind::kOob || r.kind == BugKind::kUaf) {
    n = std::snprintf(buf, sizeof buf,
                      "  evidence : byte at user%+td is 0x%02x, expected "
                      "0x%02x\n",
                      r.bad_offset, r.found, r.expected);
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  if (r.detail != nullptr) {
    n = std::snprintf(buf, sizeof buf, "  detail   : %s\n", r.detail);
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  out.append("=== end HeapSan report ===\n");
  return out;
}

ReportHandler set_report_handler(ReportHandler handler) {
  return g_handler.exchange(handler != nullptr ? handler : &default_handler,
                            std::memory_order_acq_rel);
}

void report(const BugReport& r) {
  g_handler.load(std::memory_order_acquire)(r);
}

}  // namespace toma::san
