#include "alloc/pool.hpp"

#include <cstdint>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"

namespace toma::alloc {

namespace {

/// Registry name with the pool identity as a Prometheus-style label
/// (obs/export.hpp parses it back out): `metric{pool="<name>"}`.
/// Quotes/backslashes in pool names are escaped so the label block stays
/// parseable.
std::string pool_series(const char* metric, const std::string& pool) {
  std::string out(metric);
  out += "{pool=\"";
  for (const char c : pool) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\"}";
  return out;
}

std::uint8_t outcome_of(AllocStatus st) {
  return static_cast<std::uint8_t>(st);
}

}  // namespace

Pool::Pool(std::string name, const HeapConfig& cfg)
    : name_(std::move(name)),
      num_arenas_(cfg.num_arenas),
      alloc_(cfg),
      streams_(alloc_),
      release_threshold_(cfg.release_threshold),
      defrag_mode_(cfg.defrag_mode),
      slo_ns_(cfg.slo_latency_ns),
      stats_source_([this](obs::CounterTotals& out) {
        for (std::uint32_t f = 0; f < kNumStats; ++f) {
          out[f == kSloViolations ? pool_series(kStatNames[f], name_)
                                  : kStatNames[f]] += st_.sum(f);
        }
      }) {
#if TOMA_TELEMETRY
  h_malloc_ns_ =
      &obs::registry().histogram(pool_series("pool.malloc_ns", name_));
  h_free_ns_ = &obs::registry().histogram(pool_series("pool.free_ns", name_));
#endif
}

Pool::~Pool() { streams_.sync_all(); }

void Pool::begin_op(obs::OpTimer& timer, obs::Histogram* h, bool sampled) {
#if TOMA_TELEMETRY
  if (sampled || slo_ns_.load(std::memory_order_relaxed) != 0) {
    timer.record_into(*h);
  }
#else
  (void)timer;
  (void)h;
  (void)sampled;
#endif
}

void Pool::end_op(obs::OpTimer& timer) {
#if TOMA_TELEMETRY
  const std::uint64_t dt = timer.stop();
  const std::uint64_t slo = slo_ns_.load(std::memory_order_relaxed);
  if (slo != 0 && dt > slo) st_.add(kSloViolations);
#else
  (void)timer;
#endif
}

std::uint16_t Pool::record_id() {
  obs::Recorder& rec = obs::Recorder::instance();
  const std::uint64_t gen = rec.generation();
  if (rec_gen_.load(std::memory_order_acquire) != gen) {
    obs::RecordedPool info;
    info.name = name_;
    info.pool_bytes = alloc_.pool_bytes();
    info.quota_bytes = alloc_.quota_bytes();
    info.release_threshold = release_threshold_.load(std::memory_order_relaxed);
    info.num_arenas = num_arenas_;
    if (async_enabled()) info.flags |= obs::kRecPoolAsync;
    if (alloc_.heapsan_enabled()) info.flags |= obs::kRecPoolHeapSan;
    rec_id_.store(rec.intern_pool(info), std::memory_order_relaxed);
    rec_gen_.store(gen, std::memory_order_release);
  }
  return rec_id_.load(std::memory_order_relaxed);
}

void* Pool::malloc(std::size_t size, AllocStatus* status) {
  obs::OpTimer timer;
  begin_op(timer, h_malloc_ns_, TOMA_SITE_SAMPLED());
  AllocStatus st = AllocStatus::kOk;
  void* p = alloc_.malloc(size, &st, timer);
  end_op(timer);
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_alloc(record_id(), obs::RecOp::kMalloc, size,
                                       0, true, p, outcome_of(st));
  }
  if (status != nullptr) *status = st;
  return p;
}

void Pool::free(void* p) {
  // Record *before* the underlying free: once the block is back in the
  // allocator a racing thread can re-allocate the same pointer, and the
  // recorder's ptr->id map must not see that re-use first.
  if (p != nullptr && obs::recording_enabled()) {
    obs::Recorder::instance().on_free(record_id(), obs::RecOp::kFree, p, 0,
                                      true);
  }
  obs::OpTimer timer;
  begin_op(timer, h_free_ns_, TOMA_SITE_SAMPLED());
  alloc_.free(p, timer);
  end_op(timer);
}

void* Pool::calloc(std::size_t n, std::size_t size, AllocStatus* status) {
  obs::OpTimer timer;
  begin_op(timer, h_malloc_ns_, TOMA_SITE_SAMPLED());
  AllocStatus st = AllocStatus::kOk;
  void* p = alloc_.calloc(n, size, &st, timer);
  end_op(timer);
  if (obs::recording_enabled()) {
    // Record the *total* request so replay issues calloc(1, total); an
    // overflowing n*size records as total 0, which replays to the same
    // kInvalidArg outcome.
    const bool overflow = size != 0 && n > SIZE_MAX / size;
    const std::size_t total = overflow ? 0 : n * size;
    obs::Recorder::instance().on_alloc(record_id(), obs::RecOp::kCalloc, total,
                                       0, true, p, outcome_of(st));
  }
  if (status != nullptr) *status = st;
  return p;
}

void* Pool::realloc(void* p, std::size_t size, AllocStatus* status) {
  const std::uint16_t rec =
      obs::recording_enabled() && (p != nullptr || size != 0) ? record_id() : 0;
  obs::OpTimer timer;
  begin_op(timer, h_malloc_ns_, TOMA_SITE_SAMPLED());
  AllocStatus st = AllocStatus::kOk;
  void* q = alloc_.realloc(p, size, &st, timer);
  end_op(timer);
  if (obs::recording_enabled() && (p != nullptr || size != 0)) {
    obs::Recorder::instance().on_realloc(rec, p, q, size, outcome_of(st));
  }
  if (status != nullptr) *status = st;
  return q;
}

void* Pool::malloc_async(std::size_t size, gpu::Stream& s,
                         AllocStatus* status) {
  obs::OpTimer timer;
  begin_op(timer, h_malloc_ns_, TOMA_SITE_SAMPLED());
  AllocStatus st = AllocStatus::kOk;
  void* p = nullptr;
  // Reuse is disabled while HeapSan is engaged: a sanitized pointer is
  // not a raw block base, and handing it back without the redzone /
  // shadow bookkeeping would blind the sanitizer.
  if (async_enabled() && size != 0 && !alloc_.heapsan().engaged()) {
    const std::size_t effective = GpuAllocator::effective_size(size);
    // Requests in the magazines' refill classes (8..64 B) skip the
    // per-(pool, stream) pending-block scan: the magazines recycle them
    // in O(1) through alloc_.malloc below, and the linear probe was
    // *slower* than a plain malloc at these sizes (the 16 B async
    // regression).
    if (!(alloc_.ualloc().magazines_enabled() &&
          magazine_refills(effective))) {
      p = streams_.try_reuse(effective, s);
    }
  }
  if (p == nullptr) p = alloc_.malloc(size, &st, timer);
  end_op(timer);
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_alloc(record_id(), obs::RecOp::kMallocAsync,
                                       size, s.id(),
                                       &s == &gpu::default_stream(), p,
                                       outcome_of(st));
  }
  maybe_defrag_tick();
  if (status != nullptr) *status = st;
  return p;
}

void Pool::free_async(void* p, gpu::Stream& s) {
  if (p == nullptr) return;
  // As in free(): record while the pointer identity is still uniquely
  // ours, before any path that could hand it back to the allocator.
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_free(record_id(), obs::RecOp::kFreeAsync, p,
                                      s.id(), &s == &gpu::default_stream());
  }
  obs::OpTimer timer;
  begin_op(timer, h_free_ns_, TOMA_SITE_SAMPLED());
  if (!async_enabled() || alloc_.heapsan().engaged()) {
    // Degenerate (paper-faithful) mode: the ordering contract holds
    // trivially because the free completes before free_async returns.
    st_.add(kPassthroughs);
    alloc_.free(p, timer);
  } else if (alloc_.ualloc().magazines_enabled() &&
             !util::is_aligned(p, kPageSize) &&
             magazine_refills(alloc_.usable_size(p))) {
    // Blocks of the refill classes bypass the pending-block machinery:
    // the free completes now (the ordering contract again holds
    // trivially) and the block lands in the freeing SM's magazine, where
    // the next small malloc_async picks it up in O(1) instead of scanning
    // the stream's pending list.
    st_.add(kMagazineRoutes);
    alloc_.free(p, timer);
  } else {
    streams_.free_async(p, s);
  }
  end_op(timer);
  maybe_defrag_tick();
}

std::size_t Pool::sync(gpu::Stream& s) {
  const std::size_t n = streams_.sync(s);
  st_.add(kSyncs);
  maybe_release();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kSync, s.id(),
                                      &s == &gpu::default_stream(), n);
  }
  return n;
}

std::size_t Pool::sync_all() {
  const std::size_t n = streams_.sync_all();
  st_.add(kSyncs);
  maybe_release();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kSyncAll, 0,
                                      true, n);
  }
  return n;
}

std::size_t Pool::release_stream(gpu::Stream& s) {
  const std::size_t n = streams_.release_stream(s);
  maybe_release();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kStreamRelease,
                                      s.id(), &s == &gpu::default_stream(), n);
  }
  return n;
}

std::size_t Pool::trim() {
  streams_.sync_all();
  const std::size_t chunks = alloc_.trim();
  alloc_.shrink_backing();
  if (obs::recording_enabled()) {
    obs::Recorder::instance().on_sync(record_id(), obs::RecOp::kTrim, 0, true,
                                      chunks);
  }
  return chunks;
}

void Pool::set_async(bool on) {
  async_on_.store(on, std::memory_order_relaxed);
  if (!on) streams_.sync_all();
}

std::size_t Pool::stranded_bytes() const {
  // pool = live blocks + tree-accounted free space + everything stranded
  // in between (front-end caches, partial bins, quarantine, pending
  // async frees). Saturating: the three reads race with concurrent
  // allocation, and an instantaneous overshoot must not wrap.
  const std::size_t mapped = alloc_.mapped_bytes();
  const std::size_t used = alloc_.bytes_in_use();
  const std::size_t tree_free =
      const_cast<GpuAllocator&>(alloc_).buddy().free_bytes();
  const std::size_t accounted = used + tree_free;
  return accounted >= mapped ? 0 : mapped - accounted;
}

void Pool::maybe_defrag_tick() {
  if (defrag_mode() != DefragMode::kIncremental) return;
  if ((op_counter_.fetch_add(1, std::memory_order_relaxed) &
       (kVmmDefragOpInterval - 1)) != 0) {
    return;
  }
  alloc_.defrag_step();
}

void Pool::maybe_release() {
  // The sync-point defrag runs before the threshold check: compaction is
  // what turns "stranded in sparse bins" into whole free chunks the trim
  // and shrink below can actually return. Under kIncremental a sync
  // point pays one bounded slice instead of a run to completion.
  const DefragMode mode = defrag_mode();
  if (mode == DefragMode::kSync) {
    alloc_.defrag();
  } else if (mode == DefragMode::kIncremental) {
    alloc_.defrag_step();
  }
  const std::size_t threshold =
      release_threshold_.load(std::memory_order_relaxed);
  if (threshold == kReleaseRetainAll) return;
  if (stranded_bytes() <= threshold) return;
  alloc_.trim();
  alloc_.shrink_backing();
  st_.add(kThresholdTrims);
}

PoolStats Pool::stats() const {
  PoolStats s;
  s.alloc = alloc_.stats();
  s.stream = streams_.stats();
  s.syncs = st_.sum(kSyncs);
  s.threshold_trims = st_.sum(kThresholdTrims);
  s.slo_violations = st_.sum(kSloViolations);
  s.slo_target_ns = slo_ns_.load(std::memory_order_relaxed);
  s.bytes_in_use = alloc_.bytes_in_use();
  s.quota_bytes = alloc_.quota_bytes();
  s.release_threshold = release_threshold_.load(std::memory_order_relaxed);
  return s;
}

// --- PoolManager -----------------------------------------------------------

PoolManager& PoolManager::instance() {
  // Leaky: the default pool may back the device heap until process exit.
  static PoolManager* m = new PoolManager();
  return *m;
}

Pool* PoolManager::create(const std::string& name, const HeapConfig& cfg) {
  if (name.empty() || !cfg.valid()) return nullptr;
  std::lock_guard<std::mutex> g(mu_);
  auto [it, inserted] = pools_.try_emplace(name);
  if (!inserted) return nullptr;
  it->second = std::make_unique<Pool>(name, cfg);
  return it->second.get();
}

Pool* PoolManager::find(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = pools_.find(name);
  return it != pools_.end() ? it->second.get() : nullptr;
}

bool PoolManager::destroy(const std::string& name) {
  if (name == kDefaultName) return false;
  std::unique_ptr<Pool> doomed;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pools_.find(name);
    if (it == pools_.end()) return false;
    doomed = std::move(it->second);
    pools_.erase(it);
  }
  // Destruction (drain + allocator teardown) runs outside the manager
  // lock so a slow teardown cannot stall unrelated pool lookups.
  doomed.reset();
  return true;
}

Pool& PoolManager::default_pool(const HeapConfig& cfg) {
  std::lock_guard<std::mutex> g(mu_);
  auto [it, inserted] = pools_.try_emplace(kDefaultName);
  if (inserted) it->second = std::make_unique<Pool>(kDefaultName, cfg);
  return *it->second;
}

std::size_t PoolManager::sync_stream(gpu::Stream& s) {
  std::vector<Pool*> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    all.reserve(pools_.size());
    for (auto& [name, pool] : pools_) all.push_back(pool.get());
  }
  std::size_t n = 0;
  for (Pool* pool : all) n += pool->sync(s);
  return n;
}

std::size_t PoolManager::release_stream(gpu::Stream& s) {
  std::vector<Pool*> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    all.reserve(pools_.size());
    for (auto& [name, pool] : pools_) all.push_back(pool.get());
  }
  std::size_t n = 0;
  for (Pool* pool : all) n += pool->release_stream(s);
  return n;
}

std::size_t PoolManager::pool_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return pools_.size();
}

}  // namespace toma::alloc
