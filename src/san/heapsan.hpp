// HeapSan: a sanitizer layer under GpuAllocator (docs/INTERNALS.md §5).
//
// Layout of a sanitized block (capacity = bytes the underlying allocator
// granted for the wrapped request):
//
//   base                user_ptr             user_ptr+user_size   base+capacity
//     | left redzone 0xCA |  payload (0xA5 on alloc, 0x5A on free) | right 0xCB |
//
// The left redzone is exactly `redzone_bytes`; the right redzone covers
// everything from the end of the requested size to the end of the slot, so
// class/order rounding slack is guarded too. Redzones are verified on free
// and at teardown; the free poison is re-verified when a block leaves
// quarantine, which is what turns a write-after-free into a diagnosable
// report instead of silent corruption.
//
// Freed blocks enter a bounded FIFO quarantine instead of returning to the
// allocator. A quarantined block keeps its bitmap bit / tree node / bulk
// semaphore units consumed — the same invariant trick the magazines and
// quicklists use (a cached block is "still allocated" to the accounting) —
// so no allocator invariant ever sees quarantine. Eviction (cap overflow,
// trim(), pool pressure) releases the *base* pointer through a callback the
// owning GpuAllocator provides, bypassing the user-facing malloc/free
// statistics: one user free is one logical free no matter when the memory
// physically returns.
//
// The shadow side-table (sharded pointer -> record maps) powers precise
// double-free / invalid-free / overflow diagnostics and the end-of-run
// leak report; see san/report.hpp for what a report carries.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "obs/stats.hpp"
#include "san/report.hpp"
#include "sync/spin_mutex.hpp"

namespace toma::san {

struct HeapSanConfig {
  /// Left-redzone bytes (the right redzone is at least this wide and grows
  /// into rounding slack). Must be a multiple of 8 so sanitized UAlloc
  /// payloads keep 8-byte alignment.
  std::size_t redzone_bytes = 16;
  /// Quarantine bounds; eviction starts when either is exceeded.
  std::size_t quarantine_blocks = 512;
  std::size_t quarantine_bytes = 1 << 20;
  /// Fill fresh payloads with kAllocPoison (catches reads of uninitialized
  /// allocator memory in tests; off only for overhead experiments).
  bool poison_on_alloc = true;
};

struct HeapSanStats {
  bool enabled = false;
  std::uint64_t live_blocks = 0;
  std::uint64_t live_bytes = 0;  // user bytes, not slot capacity
  std::uint64_t quarantined_blocks = 0;
  std::uint64_t quarantined_bytes = 0;  // slot capacity held back from reuse
  std::uint64_t quarantine_pushes = 0;
  std::uint64_t quarantine_evictions = 0;
  std::uint64_t quarantine_flushes = 0;
  std::uint64_t redzone_checks = 0;
  std::uint64_t poison_checks = 0;
};

class HeapSan {
 public:
  static constexpr std::uint8_t kRedzoneLeft = 0xCA;
  static constexpr std::uint8_t kRedzoneRight = 0xCB;
  static constexpr std::uint8_t kAllocPoison = 0xA5;
  static constexpr std::uint8_t kFreePoison = 0x5A;

  /// `release` returns an evicted block's *base* pointer to the underlying
  /// allocator (GpuAllocator routes it by alignment without touching the
  /// user-facing statistics).
  using ReleaseFn = std::function<void(void* base)>;

  HeapSan(HeapSanConfig cfg, ReleaseFn release);
  ~HeapSan();

  HeapSan(const HeapSan&) = delete;
  HeapSan& operator=(const HeapSan&) = delete;

  const HeapSanConfig& config() const { return cfg_; }

  /// Bytes the underlying allocator must provide for a `user_size` request.
  std::size_t wrap_size(std::size_t user_size) const {
    return user_size + 2 * cfg_.redzone_bytes;
  }

  /// Runtime switch. Enabling affects subsequent allocations only;
  /// disabling keeps already-tracked blocks tracked until they are freed
  /// and evicted (engaged() stays true), so mixed-mode frees route safely.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// True while any path must consult HeapSan on free/usable_size/realloc:
  /// enabled, or tracked live blocks remain, or quarantine is non-empty.
  bool engaged() const {
    return enabled() || live_blocks_.load(std::memory_order_acquire) != 0 ||
           q_blocks_.load(std::memory_order_acquire) != 0;
  }

  /// Register a freshly allocated slot [base, base+capacity) backing a
  /// `user_size`-byte request: paints redzones and alloc poison, records
  /// the allocation in the shadow table, returns the user pointer.
  void* on_alloc(void* base, std::size_t capacity, std::size_t user_size);

  enum class FreeResult {
    kOk,        // handled (verified + quarantined, or reported double-free)
    kUntracked  // not a sanitized pointer; caller frees through raw routing
  };

  /// The sanitized free path: shadow lookup, redzone verification, payload
  /// poisoning, quarantine push (possibly evicting older blocks).
  FreeResult on_free(void* user_ptr);

  /// True iff `user_ptr` is a live sanitized allocation; reports the
  /// requested size through `user_size` when non-null.
  bool lookup(const void* user_ptr, std::size_t* user_size) const;

  /// Defragmentation support: the block whose slot starts at `old_base`
  /// has been byte-copied (entire slot, redzones included) to `new_base`.
  /// Rekeys the shadow record to the new user pointer, preserving the
  /// allocation pedigree (tick/seq/sm/warp) so reports after a move still
  /// name the original allocation site. Returns true (reporting the user
  /// pointers) when a live record was moved, false when `old_base` is not
  /// a sanitized slot (caller then treats the block as raw). Must be
  /// called at a quiescent point (the defrag contract).
  bool relocate(void* old_base, void* new_base, void** old_user,
                void** new_user);

  /// In-place resize: succeeds iff the block's slot capacity equals
  /// `new_capacity` (what malloc would grant the wrapped new size). On
  /// success repaints poison/redzone around the new payload boundary.
  bool try_resize(void* user_ptr, std::size_t new_size,
                  std::size_t new_capacity);

  /// Evict every quarantined block (poison re-verification included),
  /// returning memory to the allocator. Called by trim() and on pool
  /// pressure before declaring OOM. Returns blocks evicted.
  std::size_t flush_quarantine();

  /// End-of-run verification: drains quarantine (verifying poison),
  /// re-checks every live block's redzones, and emits one kLeak report per
  /// block still live. Clears the shadow table. Returns the leak count.
  std::size_t teardown_check();

  HeapSanStats stats() const;

 private:
  struct Record {
    void* base = nullptr;
    std::size_t user_size = 0;
    std::size_t capacity = 0;
    std::uint64_t alloc_tick = 0;
    std::uint64_t alloc_seq = 0;
    std::uint64_t free_tick = 0;
    std::uint32_t alloc_sm = 0;
    std::uint32_t alloc_warp = 0;
    std::uint32_t free_sm = 0;
    std::uint32_t free_warp = 0;
    bool quarantined = false;
  };

  static constexpr std::size_t kShadowShards = 16;

  struct Shard {
    mutable sync::SpinMutex mu;
    std::unordered_map<const void*, Record> blocks;
  };

  static std::size_t shard_of(const void* p) {
    auto v = reinterpret_cast<std::uintptr_t>(p);
    v ^= v >> 17;
    v *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(v >> 60) % kShadowShards;
  }

  BugReport make_report(BugKind kind, const void* user_ptr,
                        const Record& rec) const;
  /// Count `r` under its bug class, then hand it to san::report().
  void report(const BugReport& r);

  /// Verify both redzones of a block; emits one kOob report (at the first
  /// bad byte) when violated. Returns true when clean.
  bool verify_redzones(const void* user_ptr, const Record& rec);

  /// Verify free poison + redzones of a quarantined block; emits one kUaf
  /// report when violated. Returns true when clean.
  bool verify_quarantined(const void* user_ptr, const Record& rec);

  /// Pop blocks from the quarantine front until within (blocks, bytes)
  /// caps, verify and release them. Returns blocks evicted.
  std::size_t evict_down_to(std::size_t max_blocks, std::size_t max_bytes);

  HeapSanConfig cfg_;
  ReleaseFn release_;

  std::atomic<bool> enabled_{false};
  Shard shards_[kShadowShards];

  sync::SpinMutex q_mu_;
  std::deque<const void*> quarantine_;  // user pointers, FIFO
  std::size_t q_bytes_plain_ = 0;       // slot bytes held; guarded by q_mu_

  // Live and quarantine gauges: engaged() reads them on every free.
  std::atomic<std::uint64_t> live_blocks_{0};
  std::atomic<std::uint64_t> live_bytes_{0};
  std::atomic<std::uint64_t> q_blocks_{0};
  std::atomic<std::uint64_t> q_bytes_{0};
  std::atomic<std::uint64_t> alloc_seq_{0};

  // --- exact statistics (obs/stats.hpp) ------------------------------------
  enum Stat : std::uint32_t {
    kRedzoneChecks,
    kPoisonChecks,
    kPushes,
    kEvictions,
    kFlushes,
    kReports,  // one per BugKind, in BugKind order
    kNumStats = kReports + 5
  };
  static constexpr const char* kStatNames[kNumStats] = {
      "san.redzone_check",       "san.poison_check",
      "san.quarantine.push",     "san.quarantine.evict",
      "san.quarantine.flush",    "san.report.double_free",
      "san.report.invalid_free", "san.report.oob",
      "san.report.uaf",          "san.report.leak",
  };
  obs::ShardedStats<kNumStats> st_;
  obs::StatsSource stats_source_{
      [this](obs::CounterTotals& out) { obs::collect(st_, out, kStatNames); }};
};

}  // namespace toma::san
