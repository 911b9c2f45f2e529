// Structured bug reporting for the HeapSan subsystem (docs/INTERNALS.md §5).
//
// Every bug HeapSan detects is materialized as a BugReport carrying the
// offending block's full shadow-table metadata (who allocated it, where,
// when) plus the byte-level evidence (offset / expected / found) for
// memory-content violations. HeapSan counts each report under its bug
// class (the san.report.* counters) and hands it to san::report(), which
// passes it to the installed handler.
//
// The default handler prints the report, dumps the telemetry snapshot and
// the faulting SM's trace ring (the same postmortem path fatal asserts
// take), and aborts — except for leaks, which print without aborting so an
// end-of-run leak report does not turn an intentionally leaking test into
// a crash. Tests install a capturing handler to assert that a specific bug
// class was detected and then keep running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace toma::san {

enum class BugKind : std::uint8_t {
  kDoubleFree,   // free of a block sitting in quarantine (already freed)
  kInvalidFree,  // free of a pointer HeapSan never issued
  kOob,          // redzone byte overwritten (out-of-bounds write)
  kUaf,          // freed block's poison overwritten (use after free)
  kLeak,         // block still live at teardown
};

const char* bug_kind_name(BugKind kind);

struct BugReport {
  BugKind kind = BugKind::kInvalidFree;
  const void* user_ptr = nullptr;  // pointer the application holds
  const void* base = nullptr;      // underlying block (left redzone start)
  std::size_t user_size = 0;       // bytes the application asked for
  std::size_t capacity = 0;        // bytes the underlying block spans

  // Allocation-site identity from the shadow table.
  std::uint32_t alloc_sm = 0;
  std::uint32_t alloc_warp = 0;
  std::uint64_t alloc_tick = 0;  // trace-ring cursor at allocation
  std::uint64_t alloc_seq = 0;   // global allocation sequence number

  // Free-site identity (double-free: the *first* free; UAF: the free that
  // quarantined the block).
  std::uint32_t free_sm = 0;
  std::uint32_t free_warp = 0;
  std::uint64_t free_tick = 0;

  // Byte-level evidence for kOob / kUaf: offset is relative to user_ptr
  // (negative values land in the left redzone).
  std::ptrdiff_t bad_offset = 0;
  std::uint8_t expected = 0;
  std::uint8_t found = 0;

  const char* detail = nullptr;  // optional one-line context
};

/// Human-readable multi-line rendering of `r`.
std::string format_report(const BugReport& r);

using ReportHandler = void (*)(const BugReport&);

/// Install a report handler (tests). Returns the previous handler. Pass
/// nullptr to restore the default print-dump-abort handler.
ReportHandler set_report_handler(ReportHandler handler);

/// Dispatch `r` to the installed handler. Returns only if the handler
/// does (the default handler aborts for everything but kLeak).
void report(const BugReport& r);

}  // namespace toma::san
