#include "alloc/allocator.hpp"

#include <cstring>
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {

namespace {

// Histogram-vector index for a rounded request size: log2(size) - log2(8),
// so 8 B -> 0, 16 B -> 1, ..., 256 KB -> 15; larger buddy routes clamp.
constexpr std::uint32_t kSizeClassBuckets = 16;

[[maybe_unused]] std::uint32_t size_class_index(std::size_t rounded) {
  const std::uint32_t lg = util::log2_floor(rounded);
  return lg < 3 ? 0 : lg - 3;
}

}  // namespace

GpuAllocator::GpuAllocator(const HeapConfig& cfg)
    : pool_bytes_(cfg.pool_bytes),
      quota_(cfg.quota_bytes),
      stats_source_([this, last = std::size_t{0}, freed = std::uint64_t{0}](
                        obs::CounterTotals& out) mutable {
        obs::collect(st_, out, kStatNames);
        // A monotonic pair whose difference is bytes_in_use(): every drop
        // in live bytes since the previous snapshot counts as freed.
        const std::size_t now = in_use_.load(std::memory_order_relaxed);
        if (now < last) freed += last - now;
        last = now;
        out[kLiveByteStatNames[0]] += freed + now;
        out[kLiveByteStatNames[1]] += freed;
      }) {
  TOMA_ASSERT_MSG(cfg.valid(), "invalid HeapConfig");
  // pool_bytes is a VA reservation (aligned to its own size, so every
  // buddy block is aligned to its block size, which the free() routing
  // relies on); only initial_chunks granules are physically mapped. The
  // buddy starts *empty* — each mapped chunk is injected as a free block,
  // so unmapped VA is simply memory the tree has never seen (permanently
  // Busy, no semaphore units) and allocation can never wander into a
  // faulting page. A fixed-size pool is the one-chunk case: its chunk is
  // the whole pool, injected as the root block.
  const std::size_t cb = vmm_chunk_bytes_for(pool_bytes_, cfg.chunk_bytes);
  vmm_chunk_order_ = util::log2_floor(cb / kPageSize);
  vmm_initial_chunks_ = cfg.initial_chunks;
  vmm_ = std::make_unique<vmm::BackingStore>(vmm::BackingConfig{
      pool_bytes_, cb, cfg.initial_chunks, cfg.max_chunks});
  buddy_ = std::make_unique<TBuddy>(vmm_->base(), pool_bytes_, kPageSize,
                                    /*initially_empty=*/true);
  buddy_->set_quicklist(cfg.quicklist);
  for (std::uint32_t i = 0; i < vmm_->chunk_count(); ++i) {
    if (vmm_->is_mapped(i)) {
      buddy_->inject_block(vmm_->chunk_addr(i), vmm_chunk_order_);
    }
  }
  // An incremental pool's read sections are armed before its first op;
  // defrag_step() arms them on first use otherwise.
  pins_on_.store(cfg.defrag_mode == DefragMode::kIncremental,
                 std::memory_order_relaxed);
  ualloc_ = std::make_unique<UAlloc>(*buddy_, cfg.num_arenas);
  ualloc_->set_magazines(cfg.magazines);
  san_ = std::make_unique<san::HeapSan>(
      san::HeapSanConfig{}, [this](void* base) { free_base(base); });
  san_->set_enabled(cfg.heapsan);
  // Fatal asserts anywhere below us should leave a flight record.
  obs::install_postmortem_hook();
}

GpuAllocator::~GpuAllocator() {
  // Verify redzones/poison and report leaks while the allocators are still
  // alive: teardown drains the quarantine through the real free paths.
  if (san_->engaged()) san_->teardown_check();
  san_.reset();
  ualloc_.reset();
  buddy_.reset();
}

std::size_t GpuAllocator::effective_size(std::size_t size) {
  if (size == 0) return 0;
  std::size_t rounded = util::round_up_pow2(size < kMinAlloc ? kMinAlloc
                                                             : size);
  if (rounded > kMaxUAllocSize) {
    rounded = util::align_up(rounded, kPageSize);  // 2 KB -> 4 KB
  }
  return rounded;
}

void* GpuAllocator::route_alloc(std::size_t rounded) {
  // The retry loop only spins while an allocation lands inside the chunk
  // being incrementally evacuated: the block is parked into the
  // evacuation's held set (strictly draining the victim's free space)
  // and the request is served from elsewhere. Bounded — each park
  // consumes victim space the allocator can never hand out again.
  for (;;) {
    void* p = rounded <= kMaxUAllocSize ? ualloc_->allocate(rounded)
                                        : buddy_->allocate_bytes(rounded);
    if (p == nullptr || !evac_park(p)) return p;
  }
}

bool GpuAllocator::evac_park(void* p) {
  const std::uint32_t evac = evac_chunk_.load(std::memory_order_acquire);
  if (evac == UINT32_MAX) return false;
  if (vmm_->chunk_index(p) != evac) return false;
  sync::LockGuard<sync::SpinMutex> g(park_mu_);
  // Re-check under the lock, before touching active_: the evacuation may
  // have transitioned away since the peek. begin_forwarding clears
  // evac_chunk_ under this lock and only then moves active_ out, so
  // while the chunk still reads as evacuating here, active_ is its
  // state and stays put until we unlock. A block in a chunk that just
  // left kEvacuating is fine to hand out — retirement's extraction
  // fails while it lives and re-arms.
  if (evac_chunk_.load(std::memory_order_acquire) != evac) return false;
  TOMA_DASSERT(active_ != nullptr && active_->chunk == evac);
  active_->hold(p, *ualloc_);
  st_.add(kDefragParked);
  return true;
}

void GpuAllocator::EvacState::hold(void* p, const UAlloc& ua) {
  if (util::is_aligned(p, kPageSize)) {
    held_buddy.push_back(p);
  } else {
    std::uint32_t idx;
    BinHeader* bin = ua.decode_block(p, &idx);
    held.emplace_back(bin, idx);
  }
  held_addrs.insert(p);
}

void* GpuAllocator::resolve_forward(void* p, bool consume) const {
  const vmm::ForwardTable& ft = vmm_->forward();
  if (ft.empty()) return p;
  if (!consume) return ft.resolve(p);
  bool forwarded = false;
  // unique_ptr does not propagate constness: the table stays mutable
  // from this const entry point (usable_size never consumes).
  void* q = vmm_->forward().on_free(p, &forwarded);
  if (forwarded) st_.add(kDefragForwarded);
  return q;
}

void GpuAllocator::free_base(void* base) {
  // The quota charge is released here — the one point where memory
  // actually returns to the underlying allocators (direct frees and
  // quarantine evictions both funnel through). The capacity is read
  // before the free: afterwards the block may be reused instantly.
  std::size_t charged;
  if (util::is_aligned(base, kPageSize)) {
    charged = buddy_->allocation_size(base);
    buddy_->free(base);
  } else {
    // A magazine-cached block keeps its bitmap bit, but it is a
    // pool-level cache, not tenant usage: the charge is released here.
    std::uint32_t idx;
    BinHeader* bin = ualloc_->decode_block(base, &idx);
    charged = size_of_class(bin->size_class);
    ualloc_->free_decoded(bin, idx, base);
  }
  in_use_.fetch_sub(charged, std::memory_order_relaxed);
}

bool GpuAllocator::reserve_bytes(std::size_t n) {
  if (quota_.load(std::memory_order_relaxed) == 0) {
    in_use_.fetch_add(n, std::memory_order_relaxed);
    return true;
  }
  std::size_t cur = in_use_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + n > quota_.load(std::memory_order_relaxed)) return false;
    if (in_use_.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
}

GpuAllocator::GrowOutcome GpuAllocator::grow_backing(std::uint64_t& epoch) {
  sync::LockGuard<sync::SpinMutex> g(grow_mu_);
  const std::uint64_t cur = grow_epoch_.load(std::memory_order_relaxed);
  if (cur != epoch) {
    // Someone else mapped a chunk after we observed `epoch`: the caller
    // retries its allocation against the new memory before asking for
    // more — concurrent growers cooperate instead of over-mapping.
    epoch = cur;
    return GrowOutcome::kRetry;
  }
  // At the ceiling no quota would let the pool grow: the failure is
  // exhaustion. (A one-chunk pool is always here.)
  if (vmm_->mapped_chunks() >= vmm_->max_chunks()) {
    return GrowOutcome::kExhausted;
  }
  // The quota bounds the *resident footprint*, not the VA reservation:
  // growth stops once another chunk would push mapped bytes past the
  // quota rounded up to chunk granularity (a quota smaller than one chunk
  // still admits the first chunk; live-byte admission already enforced
  // the byte-exact limit).
  const std::size_t quota = quota_.load(std::memory_order_relaxed);
  if (quota != 0) {
    const std::size_t cap = util::align_up(quota, vmm_->chunk_bytes());
    if (vmm_->mapped_bytes() + vmm_->chunk_bytes() > cap) {
      return GrowOutcome::kQuotaDenied;
    }
  }
  void* chunk = vmm_->map_next();
  if (chunk == nullptr) return GrowOutcome::kExhausted;
  buddy_->inject_block(chunk, vmm_chunk_order_);
  // Release: a malloc that reads this epoch sees the injected chunk.
  grow_epoch_.store(cur + 1, std::memory_order_release);
  epoch = cur + 1;
  return GrowOutcome::kGrew;
}

void* GpuAllocator::malloc(std::size_t size, AllocStatus* status,
                           [[maybe_unused]] obs::OpTimer& timer) {
  if (size == 0) {
    if (status != nullptr) *status = AllocStatus::kInvalidArg;
    return nullptr;
  }
  const bool sampled = obs::latency_sampled(st_.add(kMallocs));
  const bool sanitized = san_->enabled();
  // Sanitized path: the underlying request grows by two redzones; the
  // user pointer sits one redzone into the slot. Routing and class
  // rounding apply to the *wrapped* size.
  const std::size_t wrapped = sanitized ? san_->wrap_size(size) : size;
  const std::size_t rounded =
      util::round_up_pow2(wrapped < kMinAlloc ? kMinAlloc : wrapped);
  if (sampled) {
    TOMA_OP_HISTV("alloc.malloc_ns", kSizeClassBuckets,
                  size_class_index(rounded), timer);
  }
  // A read section across the whole allocation: list/bin metadata read
  // below may live in a chunk the incremental compactor wants to unmap,
  // and retirement waits for this section to end.
  sync::RcuReadGuard guard(read_domain());
  const std::size_t charge = charged_size(rounded);
  if (!reserve_bytes(charge) &&
      !(san_->engaged() && san_->flush_quarantine() > 0 &&
        reserve_bytes(charge))) {
    // Quota rejection — quarantined blocks count against the quota until
    // evicted, so the quarantine is flushed before the verdict is final.
    auto& st = st_.local();
    st.add(kFailed);
    st.add(kQuotaRejects);
    TOMA_TRACE("alloc.quota", size);
    if (status != nullptr) *status = AllocStatus::kQuota;
    return nullptr;
  }
  // The grow epoch as of the first attempt: a chunk another thread maps
  // while this one is failing makes grow_backing retry the allocation in
  // it rather than map one more. (TBuddy's exhaustion verdict fails a
  // request at once and raises no promise that would make concurrent
  // requesters wait, so at the growth frontier many fail together.)
  std::uint64_t epoch = grow_epoch_.load(std::memory_order_acquire);
  void* p = route_alloc(rounded);
  if (p == nullptr &&
      ualloc_->release_cached(0, kMagazineRefillClasses) > 0) {
    // The 8..64 B magazines hold prefetched slab stock that pins bins
    // (and thus chunks) in other classes' and other SMs' way; under pool
    // pressure it is republished before OOM is declared, so the stock
    // never turns a satisfiable request into an OOM.
    p = route_alloc(rounded);
  }
  if (p == nullptr && san_->engaged() && san_->flush_quarantine() > 0) {
    // Quarantined blocks pin real memory; under pool pressure they are
    // reclaimed before OOM is declared (same contract as the magazine
    // and quicklist flushes inside the allocators).
    p = route_alloc(rounded);
  }
  bool grow_quota_denied = false;
  if (p == nullptr) {
    // Grow-on-exhaustion: map backing chunks one at a time until the
    // routed request succeeds or growth hits the ceiling/quota. Runs
    // after every cache-flush retry — new physical memory is the last
    // resort before declaring failure, and the epoch protocol makes a
    // grower that lost the race retry the allocation before mapping.
    for (;;) {
      const GrowOutcome out = grow_backing(epoch);
      if (out == GrowOutcome::kExhausted) break;
      if (out == GrowOutcome::kQuotaDenied) {
        grow_quota_denied = true;
        break;
      }
      p = route_alloc(rounded);
      if (p != nullptr) break;
    }
  }
  if (p != nullptr && sanitized) {
    p = san_->on_alloc(p, effective_size(wrapped), size);
  }
  if (p == nullptr) {
    in_use_.fetch_sub(charge, std::memory_order_relaxed);
    st_.add(kFailed);
    if (grow_quota_denied) {
      // Not true exhaustion: the ceiling has room, but mapping more
      // would exceed the tenant's resident-footprint quota.
      st_.add(kQuotaRejects);
      TOMA_TRACE("alloc.quota", size);
      if (status != nullptr) *status = AllocStatus::kQuota;
    } else {
      TOMA_TRACE("alloc.oom", size);
      if (status != nullptr) *status = AllocStatus::kOom;
    }
    return nullptr;
  }
  if (status != nullptr) *status = AllocStatus::kOk;
  return p;
}

void GpuAllocator::free(void* p, [[maybe_unused]] obs::OpTimer& timer) {
  if (p == nullptr) return;
  if (obs::latency_sampled(st_.add(kFrees))) {
    TOMA_OP_HIST("alloc.free_ns", timer);
  }
  sync::RcuReadGuard guard(read_domain());
  // A stale free at a moved block's old address retires the forward
  // entry and lands on the current location. Must precede any decode:
  // the old address may sit in retired (PROT_NONE) memory.
  p = resolve_forward(p, /*consume=*/true);
  // Sanitized blocks (including ones allocated before a set_heapsan(false))
  // detour through verification + quarantine; the memory reaches the raw
  // allocators on eviction via free_base(). Unknown pointers fall through.
  if (san_->engaged() &&
      san_->on_free(p) == san::HeapSan::FreeResult::kOk) {
    return;
  }
  free_base(p);
}

void* GpuAllocator::calloc(std::size_t n, std::size_t size,
                           AllocStatus* status, obs::OpTimer& timer) {
  if (n != 0 && size > SIZE_MAX / n) {
    // Overflowing requests are failed allocation attempts, not silent
    // no-ops: count them so mallocs == frees + failed_mallocs stays an
    // invariant across every path. A sampled one is timed like any other
    // malloc (in the largest size class), so alloc.malloc_ns holds
    // exactly the samples the per-shard malloc counts predict.
    auto& st = st_.local();
    const bool sampled = obs::latency_sampled(st.add(kMallocs));
    st.add(kFailed);
    if (sampled) {
      TOMA_OP_HISTV("alloc.malloc_ns", kSizeClassBuckets,
                    kSizeClassBuckets - 1, timer);
    }
    if (status != nullptr) *status = AllocStatus::kInvalidArg;
    return nullptr;
  }
  const std::size_t total = n * size;
  void* p = malloc(total, status, timer);
  if (p != nullptr) std::memset(p, 0, total);
  return p;
}

void* GpuAllocator::realloc(void* p, std::size_t size, AllocStatus* status,
                            obs::OpTimer& timer) {
  if (p == nullptr) return malloc(size, status, timer);
  if (size == 0) {
    free(p, timer);
    if (status != nullptr) *status = AllocStatus::kOk;
    return nullptr;
  }
  if (status != nullptr) *status = AllocStatus::kOk;
  st_.add(kReallocs);
  sync::RcuReadGuard guard(read_domain());
  // A realloc at a forwarded old address adopts the block's current
  // location (consuming the entry — the caller gets the live pointer
  // back, in place or moved, and never touches the old name again).
  p = resolve_forward(p, /*consume=*/true);
  std::size_t san_old = 0;
  if (san_->engaged() && san_->lookup(p, &san_old)) {
    // Sanitized block: in place iff the wrapped new size still rounds to
    // the slot we hold; the redzone/poison boundary moves to the new size.
    if (san_->try_resize(p, size, effective_size(san_->wrap_size(size)))) {
      st_.add(kReallocsInplace);
      return p;
    }
    void* q = malloc(size, status, timer);
    if (q == nullptr) return nullptr;
    std::memcpy(q, p, std::min(san_old, size));
    free(p, timer);
    return q;
  }
  const std::size_t old_cap = usable_size(p);
  if (effective_size(size) == old_cap) {
    // The new size rounds to the very block we hold (same UAlloc class or
    // buddy order): no copy, no free/malloc round trip. Note
    // effective_size(size) >= size, so equality implies size <= old_cap.
    st_.add(kReallocsInplace);
    return p;
  }
  void* q = malloc(size, status, timer);
  if (q == nullptr) return nullptr;
  std::memcpy(q, p, std::min(old_cap, size));
  free(p, timer);
  return q;
}

std::size_t GpuAllocator::usable_size(void* p) const {
  TOMA_ASSERT(p != nullptr);
  sync::RcuReadGuard guard(read_domain());
  p = resolve_forward(p, /*consume=*/false);
  // A sanitized block's usable bytes are exactly what was requested: the
  // rounding slack is redzone, and writing into it must be reported.
  std::size_t san_size;
  if (san_->engaged() && san_->lookup(p, &san_size)) return san_size;
  if (util::is_aligned(p, kPageSize)) return buddy_->allocation_size(p);
  return ualloc_->usable_size(p);
}

std::size_t GpuAllocator::shrink_backing() {
  sync::LockGuard<sync::SpinMutex> g(grow_mu_);
  // Quicklist-parked frees must coalesce first, or a fully-free chunk can
  // hide as scattered sub-blocks the extraction below cannot see.
  buddy_->trim();
  std::size_t unmapped = 0;
  const std::size_t chunk_bytes = vmm_->chunk_bytes();
  const std::uint32_t floor = vmm_initial_chunks_;
  while (vmm_->mapped_chunks() > floor) {
    // Extract the largest free block of at least one chunk: after heavy
    // coalescing the reclaimable space may exist only as one maximal
    // block, so probing exactly at chunk order would find nothing.
    void* block = nullptr;
    std::uint32_t order = 0;
    for (std::uint32_t o = buddy_->max_order() + 1; o-- > vmm_chunk_order_;) {
      block = buddy_->try_extract_block(o);
      if (block != nullptr) {
        order = o;
        break;
      }
    }
    if (block == nullptr) break;
    // Unmap the block chunk by chunk; once the floor is reached the rest
    // of the extracted block goes straight back into the tree.
    const std::size_t nchunks = std::size_t{1}
                                << (order - vmm_chunk_order_);
    char* base = static_cast<char*>(block);
    std::size_t progress = 0;
    for (std::size_t i = 0; i < nchunks; ++i) {
      char* chunk = base + i * chunk_bytes;
      const std::uint32_t ci = vmm_->chunk_index(chunk);
      // A chunk mid-evacuation belongs to the incremental compactor:
      // unmapping it here would fault the sweep's reads. Hand it back.
      if (vmm_->mapped_chunks() > floor &&
          vmm_->chunk_state(ci) == vmm::ChunkState::kLive) {
        vmm_->unmap_chunk(ci);
        ++progress;
      } else {
        buddy_->inject_block(chunk, vmm_chunk_order_);
      }
    }
    unmapped += progress;
    // An extraction that unmapped nothing means the only reclaimable
    // block is pinned by mid-evacuation chunks and was handed straight
    // back — another pull would fetch the same block forever.
    if (progress == 0) break;
  }
  return unmapped;
}

void GpuAllocator::set_relocation_hooks(RelocationHooks hooks) {
  sync::LockGuard<sync::SpinMutex> g(defrag_mu_);
  hooks_ = std::move(hooks);
}

std::size_t GpuAllocator::defrag() {
  sync::LockGuard<sync::SpinMutex> defrag_lock(defrag_mu_);
  st_.add(kDefragPasses);
  // Quiescent-point preamble: every cached block must re-enter the bin
  // accounting or the occupancy census undercounts (a magazine/quarantine
  // resident keeps its bitmap bit claimed but is dead weight).
  flush_caches();
  select_backoff_ = 0;
  // The incremental state machine, run to completion. Nothing else runs,
  // so nothing changes between sweeps: each victim is swept once and
  // forwarded, a failed extraction abandons it at once, and the loop ends
  // within one victim per mapped chunk (see QuiescentRun).
  std::size_t moved_bytes = 0;
  QuiescentRun run;
  for (;;) {
    if (active_ != nullptr) {
      run.tried.insert(active_->chunk);
      moved_bytes += step_evacuate(SIZE_MAX, &run.tried);
      // Blocks the sweep left behind (vetoed, or no destination) make
      // retirement's extraction fail, which hands the chunk back.
      if (active_ != nullptr) begin_forwarding();
    }
    while (step_retire(/*max_retries=*/0)) {
    }
    // A read section still open leaves its chunk queued for a later
    // call (or step) to retire; never wait on it here.
    if (!forwarding_.empty() || !select_victim(&run)) break;
  }
  trim();
  shrink_backing();
  if (moved_bytes != 0) st_.add(kDefragMovedBytes, moved_bytes);
  return moved_bytes;
}

GpuAllocator::MoveResult GpuAllocator::move_block(
    EvacState& ev, BinHeader* bin, std::uint32_t idx, std::size_t cls_bytes,
    const std::set<std::uint32_t>* no_landing) {
  void* old_block = ualloc_->block_address(bin, idx);
  // The held set is shared with tenant-side evac_park, hence park_mu_.
  // Never held across the hooks — a host holding its own lock in prepare
  // may be mallocing on another thread that is parking under park_mu_ at
  // that very moment.
  const auto hold = [&](void* p) {
    sync::LockGuard<sync::SpinMutex> g(park_mu_);
    ev.hold(p, *ualloc_);
  };
  void* dest;
  // Bounded: every rejected probe holds one free slot of the victim (or
  // of a `no_landing` chunk), so the allocator strictly runs down their
  // free space and eventually hands out a block elsewhere (or nullptr).
  for (;;) {
    dest = ualloc_->allocate(cls_bytes, /*refill=*/false);
    if (dest == nullptr) break;
    const std::uint32_t dc = vmm_->chunk_index(dest);
    if (dc != ev.chunk &&
        (no_landing == nullptr || no_landing->count(dc) == 0)) {
      break;
    }
    hold(dest);
  }
  if (dest == nullptr) return MoveResult::kNoDest;
  // Prospective user pointers for the two-phase contract: under HeapSan
  // the user pointer sits one redzone into the slot, and the payload
  // size comes from the shadow record.
  void* old_user = old_block;
  void* new_user = dest;
  std::size_t user_bytes = cls_bytes;
  const bool san_tracked = [&] {
    if (!san_->engaged()) return false;
    void* cand = static_cast<char*>(old_block) +
                 san_->config().redzone_bytes;
    std::size_t sz;
    if (!san_->lookup(cand, &sz)) return false;
    old_user = cand;
    new_user = static_cast<char*>(dest) + san_->config().redzone_bytes;
    user_bytes = sz;
    return true;
  }();
  if (hooks_.prepare && !hooks_.prepare(old_user, new_user, user_bytes)) {
    // Vetoed: the host does not own this pointer live (a cache-parked
    // block, or one mid-operation). It stays put; the destination slot
    // goes back.
    std::uint32_t didx;
    BinHeader* dbin = ualloc_->decode_block(dest, &didx);
    ualloc_->free_decoded(dbin, didx, dest);
    st_.add(kDefragVetoed);
    return MoveResult::kVetoed;
  }
  // The whole slot moves, redzones included, so a sanitized payload's
  // guard bytes stay verifiable at the new address.
  std::memcpy(dest, old_block, cls_bytes);
  if (san_tracked) {
    san_->relocate(old_block, dest, &old_user, &new_user);
  }
  // The recorder rekeys its pointer interning without emitting an
  // event — block ids name logical allocations, so record->replay
  // stays bit-identical whether or not defrag ran.
  obs::Recorder::instance().on_move(old_user, new_user);
  // The forward entry must exist before commit returns — from that moment
  // the host may free/realloc at either name — and the source slot stays
  // claimed until the chunk's grace period ends, so the forwarded old
  // address can never be reallocated while its entry is live.
  vmm_->forward().insert(old_user, new_user);
  if (hooks_.commit) hooks_.commit(old_user, new_user, user_bytes);
  hold(old_block);
  return MoveResult::kMoved;
}

std::size_t GpuAllocator::defrag_step(std::size_t budget_bytes) {
  if (!defrag_mu_.try_lock()) return 0;  // another thread is mid-step
  if (!hooks_.prepare && active_ == nullptr && forwarding_.empty()) {
    // Incremental evacuation needs a veto-capable host (see
    // RelocationHooks): without a prepare hook, cache-parked blocks
    // would be moved-and-committed blindly. Nothing outstanding either,
    // so there is no retirement to advance.
    defrag_mu_.unlock();
    return 0;
  }
  // Arm the read sections before any evacuation state can exist:
  // retirement safety is "every reader has left", which is vacuous
  // unless the hot paths actually enter read sections.
  pins_on_.store(true, std::memory_order_seq_cst);
  st_.add(kDefragSteps);
  if (budget_bytes == 0) budget_bytes = kVmmDefragStepBytes;
  step_retire(kVmmDefragExtractRetries);
  std::size_t moved_bytes = 0;
  if (hooks_.prepare) {
    if (active_ == nullptr) select_victim();
    if (active_ != nullptr) moved_bytes = step_evacuate(budget_bytes);
  }
  defrag_mu_.unlock();
  if (moved_bytes != 0) st_.add(kDefragMovedBytes, moved_bytes);
  return moved_bytes;
}

bool GpuAllocator::select_victim(QuiescentRun* run) {
  if (select_backoff_ > 0) {
    --select_backoff_;
    return false;
  }
  const std::size_t chunk_bytes = vmm_->chunk_bytes();
  // Cheap precheck before the census walk: with under two chunks of
  // slack between resident and live bytes there is nothing worth
  // evacuating, and the piggybacked steps must stay cheap.
  if (vmm_->mapped_chunks() <= vmm_initial_chunks_ ||
      vmm_->mapped_bytes() <
          in_use_.load(std::memory_order_relaxed) + 2 * chunk_bytes) {
    select_backoff_ = kVmmDefragSelectBackoff;
    return false;
  }
  // Whole-heap census grouped by backing chunk — paid once per victim
  // selection, not per step.
  std::map<std::uint32_t, std::size_t> live_by_chunk;
  for (const UAlloc::BinOccupancy& bo : ualloc_->snapshot_bins()) {
    live_by_chunk[vmm_->chunk_index(bo.bin)] +=
        bo.live * size_of_class(bo.size_class);
  }
  if (run != nullptr && run->candidates.empty()) {
    for (const auto& [ci, lb] : live_by_chunk) run->candidates.insert(ci);
  }
  // Keep-fullest rule: if no populated chunk meets the occupancy
  // threshold, the fullest one is the landing zone and must not be a
  // victim — evacuating every chunk would only push blocks into freshly
  // mapped ones.
  bool have_keeper = false;
  std::uint32_t fullest = UINT32_MAX;
  std::size_t fullest_live = 0;
  for (const auto& [ci, lb] : live_by_chunk) {
    if (lb * kVmmDefragOccupancyDen >= chunk_bytes * kVmmDefragOccupancyNum) {
      have_keeper = true;
    } else if (lb >= fullest_live) {
      fullest = ci;
      fullest_live = lb;
    }
  }
  std::uint32_t best = UINT32_MAX;
  std::size_t best_live = SIZE_MAX;
  for (const auto& [ci, lb] : live_by_chunk) {
    if (lb * kVmmDefragOccupancyDen >= chunk_bytes * kVmmDefragOccupancyNum) {
      continue;
    }
    if (!have_keeper && ci == fullest) continue;
    if (vmm_->chunk_state(ci) != vmm::ChunkState::kLive) continue;
    if (run != nullptr &&
        (run->candidates.count(ci) == 0 || run->tried.count(ci) != 0)) {
      continue;
    }
    if (lb < best_live) {
      best = ci;
      best_live = lb;
    }
  }
  if (best == UINT32_MAX ||
      !vmm_->try_set_state(best, vmm::ChunkState::kLive,
                           vmm::ChunkState::kEvacuating)) {
    select_backoff_ = kVmmDefragSelectBackoff;
    return false;
  }
  auto ev = std::make_unique<EvacState>();
  ev->chunk = best;
  {
    sync::LockGuard<sync::SpinMutex> g(park_mu_);
    active_ = std::move(ev);
    evac_chunk_.store(best, std::memory_order_release);
  }
  // Retire-pin the victim's bin headers: the sweeps below read them
  // lock-free, which is sound only while no slot in the range can be
  // released and re-initialized (see UAlloc::set_evac_range).
  char* lo = static_cast<char*>(vmm_->chunk_addr(best));
  ualloc_->set_evac_range(lo, lo + chunk_bytes);
  st_.add(kDefragVictims);
  return true;
}

std::size_t GpuAllocator::step_evacuate(
    std::size_t budget_bytes, const std::set<std::uint32_t>* no_landing) {
  EvacState& ev = *active_;
  char* lo = static_cast<char*>(vmm_->chunk_addr(ev.chunk));
  char* hi = lo + vmm_->chunk_bytes();
  std::size_t moved_bytes = 0;
  std::size_t remaining = 0;  // live blocks left behind this sweep
  std::size_t vetoed = 0;
  bool oom = false;
  for (const UAlloc::BinOccupancy& bo : ualloc_->snapshot_bins_in(lo, hi)) {
    BinHeader* bin = bo.bin;
    // Stale-header defence on the census-captured geometry (the header
    // itself is not re-read: the retire-pin set at selection keeps it
    // from being re-initialized mid-sweep, and the census captured these
    // fields under its lock). Implausible values mean the census caught
    // a bin mid-retirement; skip it and let a later sweep see the truth.
    if (bo.size_class >= kNumSizeClasses ||
        bo.capacity != bin_capacity(bo.size_class)) {
      continue;
    }
    const std::size_t cls_bytes = size_of_class(bo.size_class);
    util::AtomicBitmapRef bitmap(bin->bitmap_words, bo.capacity);
    for (std::uint32_t idx = 0; idx < bo.capacity; ++idx) {
      if (!bitmap.test(idx)) continue;
      void* old_block = ualloc_->block_address(bin, idx);
      {
        // Held slots (parked destinations, already-moved sources) read
        // as live in the bitmap but are the compactor's own.
        sync::LockGuard<sync::SpinMutex> g(park_mu_);
        if (ev.held_addrs.count(old_block) != 0) continue;
      }
      if (oom || moved_bytes >= budget_bytes) {
        // Past the budget the sweep keeps *counting* so the emptiness
        // verdict below covers the whole chunk, it just stops moving.
        ++remaining;
        continue;
      }
      const MoveResult r = move_block(ev, bin, idx, cls_bytes, no_landing);
      if (r == MoveResult::kMoved) {
        moved_bytes += cls_bytes;
      } else if (r == MoveResult::kVetoed) {
        ++vetoed;
      } else {
        oom = true;
        ++remaining;
      }
    }
  }
  if (remaining == 0 && vetoed == 0) {
    // Swept clean: every censused block is moved or held. Extraction at
    // retirement is the authority on stragglers the census missed.
    begin_forwarding();
    return moved_bytes;
  }
  if (moved_bytes == 0) {
    ++ev.stall_sweeps;
    if (ev.stall_sweeps % 4 == 3) {
      // Vetoes usually mean cache-parked blocks (magazines, quarantine):
      // flush them back into the bin accounting so the next sweep sees
      // them freed.
      flush_caches();
    }
    if (ev.stall_sweeps > kVmmDefragStallLimit) {
      // Not converging (a host that keeps vetoing, or tenants churning
      // the chunk faster than the budget drains it). Route through the
      // forwarding pipeline anyway: retirement's extraction fails on the
      // live blocks and hands the chunk back post-quiescence.
      begin_forwarding();
    }
  } else {
    ev.stall_sweeps = 0;
  }
  return moved_bytes;
}

void GpuAllocator::begin_forwarding() {
  {
    // Stop tenant-path parking first; the held set is frozen from here.
    sync::LockGuard<sync::SpinMutex> g(park_mu_);
    evac_chunk_.store(UINT32_MAX, std::memory_order_release);
  }
  // Sweeps are over: lift the retire-pin so the emptied bins (and their
  // chunks) can retire ahead of extraction at step_retire.
  ualloc_->set_evac_range(nullptr, nullptr);
  vmm_->try_set_state(active_->chunk, vmm::ChunkState::kEvacuating,
                      vmm::ChunkState::kForwarding);
  // Every forward entry is in place: a reader entering from here on
  // resolves an old address before decoding it. The ones already inside
  // are the grace period's; chunks forwarded before the same flip share it.
  active_->cookie = rcu_.start_poll();
  forwarding_.push_back(std::move(active_));
  st_.add(kDefragForwarding);
}

bool GpuAllocator::step_retire(std::uint32_t max_retries) {
  if (forwarding_.empty()) return false;
  EvacState& head = *forwarding_.front();
  if (!rcu_.poll(head.cookie)) {
    st_.add(kDefragPinStalls);
    return false;
  }
  char* chunk_base = static_cast<char*>(vmm_->chunk_addr(head.chunk));
  const std::size_t chunk_bytes = vmm_->chunk_bytes();
  if (!head.released) {
    // Grace period first: any op that could still name an old address
    // in this chunk was in a read section, so the surviving forward
    // entries are dead — and they must go *before* the held source slots
    // become reallocatable, or a fresh block at a forwarded address
    // would alias its stale entry.
    vmm_->forward().purge_range(chunk_base, chunk_bytes);
    for (const auto& [bin, idx] : head.held) {
      ualloc_->free_for_defrag(bin, idx);
    }
    for (void* p : head.held_buddy) buddy_->free(p);
    head.held.clear();
    head.held_buddy.clear();
    head.held_addrs.clear();
    head.released = true;
  }
  // Caches flush, emptied bins retire and coalesce, then the whole chunk
  // is claimed out of the tree. Extraction is the safety authority: it
  // succeeds only when the chunk really is one free block, so a tenant
  // allocation that slipped in after the release (or a block a tenant
  // cached since this trim) simply fails the claim and the next attempt
  // trims again, at most `max_retries` times.
  trim();
  bool done = false;
  {
    sync::LockGuard<sync::SpinMutex> g(grow_mu_);
    std::uint32_t order = 0;
    void* block =
        buddy_->try_extract_containing(chunk_base, vmm_chunk_order_, &order);
    if (block != nullptr) {
      // The claim may have coalesced neighbours in: unmap only the
      // victim (floor permitting) and hand everything else straight
      // back.
      const std::size_t nchunks = std::size_t{1}
                                  << (order - vmm_chunk_order_);
      char* base = static_cast<char*>(block);
      for (std::size_t i = 0; i < nchunks; ++i) {
        char* c = base + i * chunk_bytes;
        const std::uint32_t ci = vmm_->chunk_index(c);
        if (ci == head.chunk &&
            vmm_->mapped_chunks() > vmm_initial_chunks_) {
          vmm_->unmap_chunk(ci);  // -> kRetired
          st_.add(kDefragRetired);
        } else {
          buddy_->inject_block(c, vmm_chunk_order_);
          if (ci == head.chunk) {
            vmm_->set_state(ci, vmm::ChunkState::kLive);  // at the floor
          }
        }
      }
      done = true;
    } else if (++head.extract_retries > max_retries) {
      // Tenants reclaimed the chunk's space faster than we could claim
      // it (or vetoed blocks still live there): back into service.
      vmm_->set_state(head.chunk, vmm::ChunkState::kLive);
      st_.add(kDefragAbandoned);
      done = true;
    }
  }
  if (!done) return false;
  forwarding_.erase(forwarding_.begin());
  return true;
}

GpuAllocatorStats GpuAllocator::stats() const {
  GpuAllocatorStats s;
  s.buddy = buddy_->stats();
  s.ualloc = ualloc_->stats();
  s.lane = ualloc_->magazine_stats(0, kMagazineRefillClasses);
  s.heapsan = san_->stats();
  s.vmm = vmm_->stats();
  s.mapped_bytes = mapped_bytes();
  s.defrag_passes = st_.sum(kDefragPasses);
  s.defrag_steps = st_.sum(kDefragSteps);
  s.defrag_moved_bytes = st_.sum(kDefragMovedBytes);
  s.defrag_forwarded = st_.sum(kDefragForwarded);
  s.defrag_pin_stalls = st_.sum(kDefragPinStalls);
  s.mallocs = st_.sum(kMallocs);
  s.failed_mallocs = st_.sum(kFailed);
  s.frees = st_.sum(kFrees);
  s.reallocs = st_.sum(kReallocs);
  s.reallocs_inplace = st_.sum(kReallocsInplace);
  s.quota_rejects = st_.sum(kQuotaRejects);
  s.bytes_in_use = in_use_.load(std::memory_order_relaxed);
  s.quota_bytes = quota_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace toma::alloc
