// GpuAllocator: the public malloc/free facade (paper §4).
//
// Size routing on malloc: requests round up to a power of two; sizes
// 8..1024 B go to UAlloc, everything larger (including the degenerate
// 2 KB case, which rounds to one 4 KB page) goes to TBuddy.
//
// Alignment routing on free: TBuddy blocks are always 4 KB aligned and
// UAlloc blocks never are, so a single alignment test replaces any shared
// ownership structure — eliminating what would otherwise be a global
// point of contention.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "alloc/config.hpp"
#include "alloc/tbuddy.hpp"
#include "alloc/ualloc.hpp"
#include "obs/sample.hpp"
#include "san/heapsan.hpp"
#include "sync/epoch_pin.hpp"
#include "sync/spin_mutex.hpp"
#include "vmm/backing.hpp"

namespace toma::alloc {

/// Why an allocation attempt returned nullptr. Surfaced through the
/// status out-parameters below and mapped to `toma_status_t` by the C
/// facade (include/toma/toma.h) — a quota rejection and true pool
/// exhaustion are different operational events and alert differently.
enum class AllocStatus : std::uint8_t {
  kOk = 0,
  kInvalidArg,  // size 0 / overflowing count*size
  kOom,         // pool exhausted at the routed size (true exhaustion)
  kQuota,       // the per-pool byte quota would be exceeded
};

/// `release_threshold` value meaning "never auto-trim on stream sync".
inline constexpr std::size_t kReleaseRetainAll = SIZE_MAX;

/// How (and whether) a pool compacts its elastic backing. Both compacting
/// modes drive the same per-chunk evacuation state machine; they differ
/// only in when it runs.
///   kOff          no compaction (shrink alone reclaims whole-free chunks)
///   kSync         defrag() at Pool::sync: the state machine run to
///                 completion at the quiescent point
///   kIncremental  bounded defrag_step() slices concurrent with traffic —
///                 piggybacked on async ops and scheduler idle slots, zero
///                 stop-the-world phases
enum class DefragMode : std::uint8_t { kOff = 0, kSync = 1, kIncremental = 2 };

/// Two-phase relocation contract. For every block compaction wants to
/// move:
///
///   prepare(old, new, size) -> bool   asked *before* any bytes move. The
///       host locks its references to `old` and returns true to admit the
///       move, or false to veto it (unknown pointer, block mid-use, ...).
///       A vetoed block stays at `old` untouched. Incremental compaction
///       REQUIRES a prepare hook that returns false for pointers the host
///       does not own live: blocks parked in pool-level caches
///       (magazines, HeapSan quarantine) census as live but must not be
///       moved-and-committed blindly.
///   commit(old, new, size)            the payload now lives at `new`;
///       the host rewrites its references and unlocks. From the moment
///       commit returns, the host uses `new` only — frees/reallocs
///       already in flight at `old` resolve through the forward table.
///   abort(old)                        a move admitted by prepare could
///       not complete; references to `old` stay valid. (No current code
///       path fails between prepare and commit; the hook completes the
///       contract for future use and for symmetric host bookkeeping.)
///
/// Hooks run under the allocator's defrag lock: they must be quick and
/// must not call back into this pool. An unset prepare admits every move,
/// which only the quiescent defrag() accepts: a host that tolerates
/// relocation at sync points registers `RelocationHooks{.commit = f}`.
struct RelocationHooks {
  std::function<bool(void*, void*, std::size_t)> prepare = nullptr;
  std::function<void(void*, void*, std::size_t)> commit = nullptr;
  std::function<void(void*)> abort = nullptr;
};

/// Construction parameters for a heap/pool. Replaces the positional
/// `(pool_bytes, num_arenas)` constructors: designated initializers keep
/// call sites readable as the knob count grows —
///
///   GpuAllocator a(HeapConfig{.pool_bytes = 16 << 20, .quota_bytes = 1 << 20});
///
/// Defaults reproduce the previous constructor's behaviour exactly (the
/// compile-time front-end toggles, no quota, retain-all threshold).
struct HeapConfig {
  /// Pool reservation (a power of two >= kChunkSize; the host-side
  /// analogue of cudaMalloc'ing the pool).
  std::size_t pool_bytes = 64 << 20;
  /// UAlloc arena count; normally the device's SM count.
  std::uint32_t num_arenas = 8;
  /// Byte quota on live allocations (charged at block granularity);
  /// 0 = unlimited (only the pool itself bounds usage).
  std::size_t quota_bytes = 0;
  /// Stream-sync trim threshold: when a sync point observes more than
  /// this many bytes stranded in caches/partial bins, the pool trims
  /// (CUDA's cudaMemPoolAttrReleaseThreshold analogue; CUDA defaults to
  /// 0 = release everything, we default to retain-all — the
  /// throughput-oriented choice).
  std::size_t release_threshold = kReleaseRetainAll;
  /// Per-operation latency SLO target in wall-clock ns for the pool's
  /// host-facing surface (Pool::malloc/free and the async forms): an
  /// operation slower than this bumps the pool's SLO-violation counter
  /// (`pool.slo_violation{pool="..."}`). 0 = no SLO. Telemetry-off
  /// builds never observe violations (the clock is compiled out).
  std::uint64_t slo_latency_ns = 0;
  bool heapsan = TOMA_HEAPSAN != 0;
  /// The small-block cache (UAlloc's per-(SM, class) magazines, with slab
  /// refill for 8..64 B). OFF = the paper's exact UAlloc path.
  bool magazines = TOMA_UALLOC_MAGAZINES != 0;
  bool quicklist = TOMA_TBUDDY_QUICKLIST != 0;
  bool cas_claim = TOMA_TBUDDY_CAS_CLAIM != 0;

  // --- elastic virtual backing (docs/INTERNALS.md §8) ----------------------
  /// Back the pool with an elastic chunked mapping: `pool_bytes` becomes a
  /// VA reservation, physical chunks map on demand (grow on exhaustion,
  /// unmap at trim). OFF = the fixed-size eagerly-committed pool.
  bool vmm = TOMA_VMM != 0;
  /// Backing-chunk granule (power-of-two multiple of kChunkSize dividing
  /// pool_bytes); 0 = auto (pool/64 clamped to [256 KB, 4 MB]).
  std::size_t chunk_bytes = 0;
  /// Chunks mapped at creation — also the shrink floor. >= 1.
  std::uint32_t initial_chunks = 1;
  /// Growth ceiling in chunks; 0 = the whole reservation.
  std::uint32_t max_chunks = 0;
  /// Compaction driver (see DefragMode). Moved blocks change address, so
  /// only opt in when every consumer tolerates relocation (see
  /// RelocationHooks).
  DefragMode defrag_mode = DefragMode::kOff;

  /// Constructible without asserting? (The C facade validates before
  /// constructing; the constructor itself still asserts.)
  bool valid() const {
    if (!(util::is_pow2(pool_bytes) && pool_bytes >= kChunkSize &&
          num_arenas >= 1)) {
      return false;
    }
    if (!vmm) return true;
    const std::size_t cb = vmm_chunk_bytes_for(pool_bytes, chunk_bytes);
    if (!util::is_pow2(cb) || cb < kChunkSize || cb > pool_bytes) {
      return false;
    }
    const std::size_t slots = pool_bytes / cb;
    const std::size_t cap = max_chunks == 0 ? slots : max_chunks;
    return initial_chunks >= 1 && initial_chunks <= slots &&
           initial_chunks <= cap;
  }
};

struct GpuAllocatorStats {
  TBuddyStats buddy;
  UAllocStats ualloc;
  MagazineStats lane;  // the 8..64 B (slab-refill) slice of the magazines
  san::HeapSanStats heapsan;
  vmm::BackingStats vmm;  // zeroed when the pool is fixed-size
  std::uint64_t mallocs = 0;
  std::uint64_t failed_mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t reallocs = 0;          // realloc calls that resized (p, n>0)
  std::uint64_t reallocs_inplace = 0;  // ...of which returned p unchanged
  std::uint64_t quota_rejects = 0;     // failed_mallocs due to the quota
  std::size_t bytes_in_use = 0;        // live bytes at block granularity
  std::size_t quota_bytes = 0;         // 0 = unlimited
  std::size_t mapped_bytes = 0;        // resident footprint (= pool size
                                       // when fixed)
  std::uint64_t defrag_passes = 0;     // quiescent defrag() runs
  std::uint64_t defrag_steps = 0;      // defrag_step() calls that ran
  std::uint64_t defrag_moved_bytes = 0;  // bytes evacuated (both drivers)
  std::uint64_t defrag_forwarded = 0;  // frees/reallocs resolved via the
                                       // forward table
  std::uint64_t defrag_pin_stalls = 0;  // retirement waits on pin epochs
};

class GpuAllocator {
 public:
  explicit GpuAllocator(const HeapConfig& cfg);

  /// Legacy positional form; equivalent to
  /// HeapConfig{.pool_bytes = pool_bytes, .num_arenas = num_arenas}.
  GpuAllocator(std::size_t pool_bytes, std::uint32_t num_arenas);
  ~GpuAllocator();

  GpuAllocator(const GpuAllocator&) = delete;
  GpuAllocator& operator=(const GpuAllocator&) = delete;

  /// Device-side malloc. Returns nullptr for size 0, oversized requests,
  /// pool exhaustion, or quota rejection; `status` (optional) reports
  /// which.
  void* malloc(std::size_t size, AllocStatus* status = nullptr) {
    obs::OpTimer timer;
    void* p = malloc(size, status, timer);
    timer.stop();
    return p;
  }

  /// Device-side free. nullptr is ignored.
  void free(void* p) {
    obs::OpTimer timer;
    free(p, timer);
    timer.stop();
  }

  /// Zero-initialized allocation of n*size bytes (overflow-checked).
  void* calloc(std::size_t n, std::size_t size,
               AllocStatus* status = nullptr) {
    obs::OpTimer timer;
    void* p = calloc(n, size, status, timer);
    timer.stop();
    return p;
  }

  /// Standard realloc semantics: grows/shrinks `p` to `size` bytes,
  /// preserving min(old, new) bytes; realloc(nullptr, s) == malloc(s);
  /// realloc(p, 0) frees p and returns nullptr. On failure the original
  /// block is untouched and nullptr is returned. Fast path: when the new
  /// size rounds to the block's existing capacity (same size class /
  /// buddy order), `p` is returned unchanged — no copy, no free/malloc
  /// round trip (counted in stats().reallocs_inplace).
  void* realloc(void* p, std::size_t size, AllocStatus* status = nullptr) {
    obs::OpTimer timer;
    void* q = realloc(p, size, status, timer);
    timer.stop();
    return q;
  }

  /// The four calls above as part of an operation the caller times and
  /// stops (a Pool entry point). The sampled mallocs and frees, one call
  /// in 64 by this allocator's malloc or free count, record
  /// alloc.malloc_ns[c] or alloc.free_ns through `timer`
  /// (obs/sample.hpp).
  void* malloc(std::size_t size, AllocStatus* status, obs::OpTimer& timer);
  void free(void* p, obs::OpTimer& timer);
  void* calloc(std::size_t n, std::size_t size, AllocStatus* status,
               obs::OpTimer& timer);
  void* realloc(void* p, std::size_t size, AllocStatus* status,
                obs::OpTimer& timer);

  /// Actual byte capacity of a live allocation (>= the requested size).
  std::size_t usable_size(void* p) const;

  /// The size a request will actually occupy (rounding + routing),
  /// exposed for fragmentation accounting in benchmarks.
  static std::size_t effective_size(std::size_t size);

  std::size_t pool_bytes() const { return pool_bytes_; }

  /// Physically mapped bytes right now: the resident footprint. Equals
  /// pool_bytes() for a fixed-size pool; tracks chunk grow/shrink under
  /// the elastic backing.
  std::size_t mapped_bytes() const {
    return vmm_ != nullptr ? vmm_->mapped_bytes() : pool_bytes_;
  }

  // --- quota ---------------------------------------------------------------
  // Live bytes are charged at block granularity (the rounded class/order
  // size — what the request actually occupies) when a block leaves the
  // underlying allocators and uncharged when it returns. Blocks parked in
  // the magazines/quicklists are pool-level caches, not tenant usage, so
  // they are not charged; HeapSan-quarantined blocks *are* still charged
  // (they pin real memory until evicted — a quota-hit pool under HeapSan
  // flushes its quarantine and retries before rejecting).

  /// Live bytes right now (block-granular).
  std::size_t bytes_in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  /// Current quota (0 = unlimited).
  std::size_t quota_bytes() const {
    return quota_.load(std::memory_order_relaxed);
  }
  /// Adjust the quota at runtime. Lowering below current usage rejects
  /// new allocations until usage drains — existing blocks are unaffected.
  void set_quota(std::size_t bytes) {
    quota_.store(bytes, std::memory_order_relaxed);
  }

  TBuddy& buddy() { return *buddy_; }
  UAlloc& ualloc() { return *ualloc_; }
  san::HeapSan& heapsan() { return *san_; }

  /// Runtime switch for the HeapSan layer (default: the compile-time
  /// TOMA_HEAPSAN option). Enabling sanitizes subsequent allocations;
  /// blocks allocated while enabled stay tracked until freed and evicted,
  /// so disabling mid-run is always safe.
  void set_heapsan(bool on) { san_->set_enabled(on); }
  bool heapsan_enabled() const { return san_->enabled(); }

  // --- elastic backing (grow / shrink / defrag) ----------------------------

  /// Was this pool constructed on the elastic backing store? (The
  /// reservation shape is fixed at construction; set_vmm only gates the
  /// elastic *operations* at runtime.)
  bool has_vmm() const { return vmm_ != nullptr; }
  vmm::BackingStore& backing() { return *vmm_; }

  /// Runtime switch for grow-on-exhaustion / shrink-at-trim / defrag on a
  /// vmm-backed pool (default ON when constructed with cfg.vmm). Turning
  /// it off freezes the mapping at its current size — the pool behaves
  /// fixed-size from then on. No effect on a fixed-size pool.
  void set_vmm(bool on) { vmm_on_.store(on, std::memory_order_relaxed); }
  bool vmm_enabled() const {
    return vmm_ != nullptr && vmm_on_.load(std::memory_order_relaxed);
  }

  /// Unmap whole free backing chunks back to the OS, never shrinking the
  /// mapping below initial_chunks. Flushes the TBuddy quicklists first so
  /// deferred frees coalesce, then repeatedly extracts the largest free
  /// block of at least one chunk and unmaps its chunks. Returns chunks
  /// unmapped. Safe concurrently with allocation (extraction claims
  /// blocks through the ordinary two-stage protocol).
  std::size_t shrink_backing();

  /// Quiescent-point defragmentation: the incremental evacuation state
  /// machine (see defrag_step) run to completion. Flushes the caches,
  /// finishes any evacuation an earlier defrag_step left in flight, then
  /// evacuates sparse chunks (live bytes < 1/2) one victim at a time —
  /// one sweep each, forwarded and retired at once — and ends with trim
  /// and shrink so the emptied chunks unmap. The caller must guarantee no
  /// concurrent allocator activity (pool sync points qualify). Needs no
  /// prepare hook but honours one (vetoed blocks stay put); hosts holding
  /// raw pointers register at least a commit hook. HeapSan shadow records
  /// and flight-recorder interning follow moved blocks. Returns bytes
  /// moved. No-op unless vmm_enabled().
  std::size_t defrag();

  /// One bounded slice of *incremental* compaction, safe concurrently
  /// with allocator traffic (docs/INTERNALS.md §8): advances the
  /// per-chunk evacuation state machine — retire the forwarding-queue
  /// head if its pin epoch drained, select a sparse victim chunk if none
  /// is active, then evacuate at most `budget_bytes` (0 = the
  /// kVmmDefragStepBytes default) of live blocks through the two-phase
  /// hooks. Returns bytes moved this call. Returns 0 immediately when
  /// another thread is mid-step (try-lock), when vmm is off, or when no
  /// prepare hook is registered (incremental compaction requires one —
  /// see RelocationHooks).
  std::size_t defrag_step(std::size_t budget_bytes = 0);

  /// Register the two-phase relocation hooks (replaces any previous
  /// hooks).
  void set_relocation_hooks(RelocationHooks hooks);

  /// Arm/disarm the epoch-pin facility for incremental compaction.
  /// Arming is implicit in defrag_step(); disarming only takes effect
  /// once no evacuation state is outstanding.
  void set_incremental_defrag(bool on);

  /// Scavenge cached-but-empty UAlloc bins/chunks back into the buddy
  /// pool (malloc_trim analogue); drains the HeapSan quarantine first
  /// (quarantined blocks pin bins and pages), flushes the magazines, then
  /// the TBuddy quicklists — UAlloc's retired chunks land in the order-6
  /// quicklist, so the buddy flush must run second for those chunks to
  /// coalesce back into maximal blocks. Returns chunks released.
  std::size_t trim() {
    if (san_->engaged()) san_->flush_quarantine();
    const std::size_t chunks = ualloc_->trim();
    buddy_->trim();
    return chunks;
  }

  /// Flush the UAlloc magazines only (cached blocks re-enter the bin
  /// accounting; no chunk is returned to the buddy). Returns blocks
  /// flushed.
  std::size_t release_cached() { return ualloc_->release_cached(); }

  GpuAllocatorStats stats() const;

  /// Combined quiescent consistency check (tests).
  bool check_consistency() const {
    return buddy_->check_consistency() && ualloc_->check_consistency();
  }

 private:
  /// Route a rounded request to UAlloc or TBuddy (the paper's size split).
  void* route_alloc(std::size_t rounded);
  /// Return an evicted HeapSan base pointer to its owner by alignment,
  /// without touching the user-facing malloc/free statistics.
  void free_base(void* base);
  /// Bytes a request rounded to `rounded` occupies in its owner (the
  /// quota charge; equals the block's usable capacity).
  static std::size_t charged_size(std::size_t rounded) {
    return rounded <= kMaxUAllocSize
               ? rounded
               : util::align_up(rounded, kPageSize);
  }
  /// Quota admission: charge `n` bytes, or fail without charging.
  bool reserve_bytes(std::size_t n);

  /// One grow step under the grow mutex. kRetry: another thread grew
  /// since `epoch` was observed — retry the allocation before mapping
  /// more. kGrew: one chunk mapped and injected. kExhausted: growth
  /// ceiling (max_chunks). kQuotaDenied: mapping another chunk would push
  /// the resident footprint past the quota.
  enum class GrowOutcome : std::uint8_t {
    kRetry,
    kGrew,
    kExhausted,
    kQuotaDenied,
  };
  GrowOutcome grow_backing(std::uint64_t& epoch);

  // --- compaction (docs/INTERNALS.md §8) -----------------------------------

  /// One chunk's evacuation in flight: parked destination slots, held
  /// (already-moved) source slots, and — once forwarding — the retire
  /// token its unmap waits on. Source slots stay claimed until the pin
  /// epoch drains so a forwarded old address can never be reallocated
  /// while its forward entry is live.
  struct EvacState {
    std::uint32_t chunk = 0;  // backing-chunk slot being evacuated
    std::uint64_t token = 0;  // retirement epoch token (0 = not issued)
    bool released = false;    // held slots returned to the allocator
    std::uint32_t extract_retries = 0;
    std::uint32_t stall_sweeps = 0;  // sweeps that made no progress
    std::vector<std::pair<BinHeader*, std::uint32_t>> held;  // ualloc slots
    std::vector<void*> held_buddy;  // parked tenant-path buddy blocks
    std::set<const void*> held_addrs;
  };

  /// The pin facility when armed, nullptr when off (so a disabled pin
  /// costs one relaxed load on the hot paths).
  sync::EpochPins* pin_target() const {
    return pins_on_.load(std::memory_order_relaxed) ? &pins_ : nullptr;
  }
  /// Forward-table resolution at the free/realloc (consuming) and
  /// usable_size (read-only) entry points. Must run before any block
  /// decode: a forwarded old address may lie in retired (PROT_NONE)
  /// memory.
  void* resolve_forward(void* p, bool consume) const;
  /// Tenant-path parking: a freshly routed allocation that landed inside
  /// the chunk being evacuated is absorbed into the evacuation's held
  /// set (true) so route_alloc retries — the compactor strictly drains
  /// the victim's free space instead of racing tenant traffic for it.
  bool evac_park(void* p);

  /// Forwarding-queue head retirement. A quiesced head whose chunk still
  /// fails whole-chunk extraction after `max_retries` further attempts is
  /// abandoned back to kLive. Returns true when the head left the queue
  /// (retired or abandoned).
  bool step_retire(std::uint32_t max_retries);
  /// One quiescent defrag() run's victim bookkeeping. Victims come only
  /// from the chunks the run's first census saw populated: a chunk carved
  /// during the run to receive moved blocks is not evacuated again in it.
  /// A chunk already tried is neither taken again nor a landing zone for
  /// later victims: blocks moved into an abandoned chunk would only move
  /// back out at the next call.
  struct QuiescentRun {
    std::set<std::uint32_t> candidates;  // filled by the first census
    std::set<std::uint32_t> tried;
  };
  /// Census + CAS kLive -> kEvacuating on the sparsest eligible chunk,
  /// within `run`'s rules when given.
  bool select_victim(QuiescentRun* run = nullptr);
  /// One sweep slice over the active victim; moves land outside the
  /// victim and outside the chunks in `no_landing` (when given).
  std::size_t step_evacuate(
      std::size_t budget_bytes,
      const std::set<std::uint32_t>* no_landing = nullptr);
  void begin_forwarding();       // kEvacuating -> kForwarding transition
  /// Move one block of the victim `ev` through the two-phase hooks. The
  /// source slot stays held in `ev` (released at retirement) behind a
  /// forward entry; destination probes that land in the victim or in a
  /// `no_landing` chunk are held too, so compaction never ping-pongs.
  enum class MoveResult : std::uint8_t { kMoved, kVetoed, kNoDest };
  MoveResult move_block(EvacState& ev, BinHeader* bin, std::uint32_t idx,
                        std::size_t cls_bytes,
                        const std::set<std::uint32_t>* no_landing);

  std::size_t pool_bytes_;
  void* pool_;
  std::unique_ptr<vmm::BackingStore> vmm_;  // null = fixed-size pool
  std::uint32_t vmm_chunk_order_ = 0;       // buddy order of one chunk
  std::uint32_t vmm_initial_chunks_ = 0;    // shrink floor
  std::atomic<bool> vmm_on_{false};
  std::atomic<std::uint64_t> grow_epoch_{0};
  sync::SpinMutex grow_mu_;
  // Lock order: defrag_mu_ before grow_mu_ before park_mu_; never
  // reversed. defrag_mu_ serializes defrag()/defrag_step()/hook
  // registration (steps try-lock so piggyback callers never spin);
  // park_mu_ alone guards the active evacuation's held set against
  // tenant-path parking.
  sync::SpinMutex defrag_mu_;
  sync::SpinMutex park_mu_;
  RelocationHooks hooks_;
  mutable sync::EpochPins pins_;
  std::atomic<bool> pins_on_{false};
  std::atomic<std::uint32_t> evac_chunk_{UINT32_MAX};  // kEvacuating victim
  std::unique_ptr<EvacState> active_;                  // under defrag_mu_
  std::vector<std::unique_ptr<EvacState>> forwarding_;  // FIFO retire queue
  std::uint32_t select_backoff_ = 0;  // steps to skip after a dry census
  std::unique_ptr<TBuddy> buddy_;
  std::unique_ptr<UAlloc> ualloc_;
  std::unique_ptr<san::HeapSan> san_;
  std::atomic<std::size_t> quota_{0};
  std::atomic<std::size_t> in_use_{0};

  mutable std::atomic<std::uint64_t> st_mallocs_{0};
  mutable std::atomic<std::uint64_t> st_failed_{0};
  mutable std::atomic<std::uint64_t> st_frees_{0};
  mutable std::atomic<std::uint64_t> st_reallocs_{0};
  mutable std::atomic<std::uint64_t> st_reallocs_inplace_{0};
  mutable std::atomic<std::uint64_t> st_quota_rejects_{0};
  mutable std::atomic<std::uint64_t> st_defrag_passes_{0};
  mutable std::atomic<std::uint64_t> st_defrag_steps_{0};
  mutable std::atomic<std::uint64_t> st_defrag_moved_bytes_{0};
  mutable std::atomic<std::uint64_t> st_defrag_forwarded_{0};
  mutable std::atomic<std::uint64_t> st_defrag_pin_stalls_{0};
};

}  // namespace toma::alloc
