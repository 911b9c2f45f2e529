// Implementation of the stable C facade (include/toma/toma.h) over the
// C++ Pool/PoolManager/StreamFrontEnd layers. The facade owns no state
// of its own: handles are reinterpret_cast'ed Pool* / gpu::Stream*, and
// every NULL-pool call routes to PoolManager's default pool.
#include "toma/toma.h"

#include <new>

#include "alloc/pool.hpp"
#include "gpusim/device.hpp"
#include "gpusim/stream.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace {

using toma::alloc::AllocStatus;
using toma::alloc::DefragMode;
using toma::alloc::GpuAllocatorStats;
using toma::alloc::HeapConfig;
using toma::alloc::Pool;
using toma::alloc::PoolManager;
using toma::alloc::RelocationHooks;

Pool* unwrap(toma_pool_t pool) { return reinterpret_cast<Pool*>(pool); }
toma_pool_t wrap(Pool* pool) { return reinterpret_cast<toma_pool_t>(pool); }

toma::gpu::Stream& unwrap(toma_stream_t s) {
  return s != nullptr ? *reinterpret_cast<toma::gpu::Stream*>(s)
                      : toma::gpu::default_stream();
}

Pool& pool_or_default(toma_pool_t pool) {
  Pool* p = unwrap(pool);
  return p != nullptr ? *p : PoolManager::instance().default_pool();
}

toma_status_t to_c(AllocStatus s) {
  switch (s) {
    case AllocStatus::kOk:
      return TOMA_OK;
    case AllocStatus::kInvalidArg:
      return TOMA_ERR_INVALID;
    case AllocStatus::kOom:
      return TOMA_ERR_OOM;
    case AllocStatus::kQuota:
      return TOMA_ERR_QUOTA;
  }
  return TOMA_ERR_INVALID;
}

/// -1 in a config toggle keeps the library default already present in
/// `cfg` (heap_defaults()); 0/1 forces.
void apply_toggle(bool& field, int value) {
  if (value >= 0) field = value != 0;
}

HeapConfig to_cpp(const toma_pool_config_t& c) {
  HeapConfig cfg;  // library defaults
  if (c.pool_bytes != 0) cfg.pool_bytes = c.pool_bytes;
  if (c.num_arenas != 0) cfg.num_arenas = c.num_arenas;
  cfg.quota_bytes = c.quota_bytes;
  cfg.release_threshold = c.release_threshold;
  apply_toggle(cfg.heapsan, c.heapsan);
  apply_toggle(cfg.magazines, c.magazines);
  apply_toggle(cfg.quicklist, c.quicklist);
  cfg.slo_latency_ns = c.slo_latency_ns;
  cfg.chunk_bytes = c.chunk_bytes;
  if (c.initial_chunks != 0) cfg.initial_chunks = c.initial_chunks;
  cfg.max_chunks = c.max_chunks;
  if (c.vmm == 0) {
    // The fixed-size pool: the whole reservation as one chunk, mapped at
    // creation; the elastic geometry above is ignored.
    cfg.chunk_bytes = cfg.pool_bytes;
    cfg.initial_chunks = 1;
    cfg.max_chunks = 0;
  }
  // defrag_mode -1 keeps the library default (off). Range validation
  // happens in toma_pool_create before this conversion runs.
  if (c.defrag_mode >= 0) {
    cfg.defrag_mode = static_cast<DefragMode>(c.defrag_mode);
  }
  return cfg;
}

}  // namespace

extern "C" {

const char* toma_status_str(toma_status_t s) {
  switch (s) {
    case TOMA_OK:
      return "TOMA_OK";
    case TOMA_ERR_INVALID:
      return "TOMA_ERR_INVALID";
    case TOMA_ERR_OOM:
      return "TOMA_ERR_OOM";
    case TOMA_ERR_QUOTA:
      return "TOMA_ERR_QUOTA";
    case TOMA_ERR_EXISTS:
      return "TOMA_ERR_EXISTS";
    case TOMA_ERR_NOT_FOUND:
      return "TOMA_ERR_NOT_FOUND";
  }
  return "TOMA_ERR_?";
}

toma_pool_config_t toma_pool_config_default(void) {
  const HeapConfig defaults;
  toma_pool_config_t c;
  c.pool_bytes = defaults.pool_bytes;
  c.num_arenas = defaults.num_arenas;
  c.quota_bytes = defaults.quota_bytes;
  c.release_threshold = defaults.release_threshold;
  c.heapsan = -1;
  c.magazines = -1;
  c.quicklist = -1;
  c.stream_async = -1;
  c.slo_latency_ns = defaults.slo_latency_ns;
  c.num_workers = 0;
  c.vmm = -1;
  c.chunk_bytes = 0;
  c.initial_chunks = 0;
  c.max_chunks = 0;
  c.defrag_mode = -1;
  return c;
}

toma_status_t toma_pool_create(const char* name,
                               const toma_pool_config_t* cfg,
                               toma_pool_t* out) {
  if (out != nullptr) *out = nullptr;
  if (name == nullptr || name[0] == '\0') return TOMA_ERR_INVALID;
  if (cfg != nullptr && (cfg->defrag_mode < -1 || cfg->defrag_mode > 2)) {
    return TOMA_ERR_INVALID;
  }
  const HeapConfig cpp_cfg =
      cfg != nullptr ? to_cpp(*cfg) : HeapConfig{};
  if (!cpp_cfg.valid()) return TOMA_ERR_INVALID;
  PoolManager& mgr = PoolManager::instance();
  if (mgr.find(name) != nullptr) return TOMA_ERR_EXISTS;
  Pool* pool = mgr.create(name, cpp_cfg);
  if (pool == nullptr) return TOMA_ERR_EXISTS;  // lost a creation race
  if (cfg != nullptr && cfg->stream_async >= 0) {
    pool->set_async(cfg->stream_async != 0);
  }
  if (cfg != nullptr && cfg->num_workers > 0) {
    toma::gpu::set_default_num_workers(cfg->num_workers);
  }
  if (out != nullptr) *out = wrap(pool);
  return TOMA_OK;
}

toma_status_t toma_pool_destroy(toma_pool_t pool) {
  Pool* p = unwrap(pool);
  if (p == nullptr) return TOMA_ERR_INVALID;
  return PoolManager::instance().destroy(p->name()) ? TOMA_OK
                                                    : TOMA_ERR_INVALID;
}

toma_pool_t toma_pool_find(const char* name) {
  if (name == nullptr) return nullptr;
  return wrap(PoolManager::instance().find(name));
}

toma_pool_t toma_default_pool(void) {
  return wrap(&PoolManager::instance().default_pool());
}

void* toma_malloc(toma_pool_t pool, size_t size, toma_status_t* status) {
  AllocStatus st;
  void* p = pool_or_default(pool).malloc(size, &st);
  if (status != nullptr) *status = to_c(st);
  return p;
}

void toma_free(toma_pool_t pool, void* p) {
  if (p == nullptr) return;
  pool_or_default(pool).free(p);
}

void* toma_calloc(toma_pool_t pool, size_t n, size_t size,
                  toma_status_t* status) {
  AllocStatus st;
  void* p = pool_or_default(pool).calloc(n, size, &st);
  if (status != nullptr) *status = to_c(st);
  return p;
}

void* toma_realloc(toma_pool_t pool, void* p, size_t size,
                   toma_status_t* status) {
  AllocStatus st;
  void* q = pool_or_default(pool).realloc(p, size, &st);
  if (status != nullptr) *status = to_c(st);
  return q;
}

size_t toma_usable_size(toma_pool_t pool, void* p) {
  if (p == nullptr) return 0;
  return pool_or_default(pool).usable_size(p);
}

toma_stream_t toma_stream_create(void) {
  auto* s = new (std::nothrow) toma::gpu::Stream();
  return reinterpret_cast<toma_stream_t>(s);
}

void toma_stream_destroy(toma_stream_t s) {
  if (s == nullptr) return;
  auto* stream = reinterpret_cast<toma::gpu::Stream*>(s);
  PoolManager::instance().release_stream(*stream);
  delete stream;
}

void* toma_malloc_async(toma_pool_t pool, size_t size, toma_stream_t s,
                        toma_status_t* status) {
  AllocStatus st;
  void* p = pool_or_default(pool).malloc_async(size, unwrap(s), &st);
  if (status != nullptr) *status = to_c(st);
  return p;
}

void toma_free_async(toma_pool_t pool, void* p, toma_stream_t s) {
  if (p == nullptr) return;
  pool_or_default(pool).free_async(p, unwrap(s));
}

size_t toma_pool_sync(toma_pool_t pool, toma_stream_t s) {
  return pool_or_default(pool).sync(unwrap(s));
}

size_t toma_stream_sync(toma_stream_t s) {
  return PoolManager::instance().sync_stream(unwrap(s));
}

size_t toma_pool_sync_all(toma_pool_t pool) {
  return pool_or_default(pool).sync_all();
}

size_t toma_trim(toma_pool_t pool) { return pool_or_default(pool).trim(); }

size_t toma_pool_bytes_in_use(toma_pool_t pool) {
  return pool_or_default(pool).bytes_in_use();
}

size_t toma_pool_quota(toma_pool_t pool) {
  return pool_or_default(pool).quota_bytes();
}

void toma_pool_set_quota(toma_pool_t pool, size_t bytes) {
  pool_or_default(pool).set_quota(bytes);
}

size_t toma_pool_release_threshold(toma_pool_t pool) {
  return pool_or_default(pool).release_threshold();
}

void toma_pool_set_release_threshold(toma_pool_t pool, size_t bytes) {
  pool_or_default(pool).set_release_threshold(bytes);
}

const char* toma_pool_name(toma_pool_t pool) {
  return pool_or_default(pool).name().c_str();
}

void toma_pool_set_slo(toma_pool_t pool, uint64_t target_ns) {
  pool_or_default(pool).set_slo_latency(target_ns);
}

uint64_t toma_pool_slo(toma_pool_t pool) {
  return pool_or_default(pool).slo_latency();
}

uint64_t toma_pool_slo_violations(toma_pool_t pool) {
  return pool_or_default(pool).stats().slo_violations;
}

toma_status_t toma_pool_set_relocation_hooks(
    toma_pool_t pool, const toma_relocation_hooks_t* hooks) {
  Pool& p = pool_or_default(pool);
  if (hooks == nullptr ||
      (hooks->prepare == nullptr && hooks->commit == nullptr &&
       hooks->abort == nullptr)) {
    p.set_relocation_hooks(RelocationHooks{});
    return TOMA_OK;
  }
  if (hooks->prepare != nullptr && hooks->commit == nullptr) {
    return TOMA_ERR_INVALID;  // a vetted move must be committable
  }
  // Copy the C table by value: the caller's struct need not outlive the
  // registration, only the functions (and `user`) it points at do.
  const toma_relocation_hooks_t h = *hooks;
  RelocationHooks cpp;
  if (h.prepare != nullptr) {
    cpp.prepare = [h](void* o, void* n, std::size_t sz) {
      return h.prepare(o, n, sz, h.user) != 0;
    };
  }
  if (h.commit != nullptr) {
    cpp.commit = [h](void* o, void* n, std::size_t sz) {
      h.commit(o, n, sz, h.user);
    };
  }
  if (h.abort != nullptr) {
    cpp.abort = [h](void* o) { h.abort(o, h.user); };
  }
  p.set_relocation_hooks(std::move(cpp));
  return TOMA_OK;
}

toma_status_t toma_pool_defrag(toma_pool_t pool, size_t budget_bytes,
                               toma_defrag_stats_t* stats) {
  Pool& p = pool_or_default(pool);
  p.defrag_step(budget_bytes);
  if (stats != nullptr) {
    const GpuAllocatorStats s = p.allocator().stats();
    stats->steps = s.defrag_steps;
    stats->moved_bytes = s.defrag_moved_bytes;
    stats->forwarded = s.defrag_forwarded;
    stats->pin_stalls = s.defrag_pin_stalls;
  }
  return TOMA_OK;
}

toma_status_t toma_record_start(size_t capacity_events) {
  const size_t cap = capacity_events != 0
                         ? capacity_events
                         : toma::obs::Recorder::kDefaultCapacity;
  return toma::obs::Recorder::instance().start(cap) ? TOMA_OK
                                                    : TOMA_ERR_EXISTS;
}

void toma_record_stop(void) { toma::obs::Recorder::instance().stop(); }

int toma_record_active(void) {
  return toma::obs::Recorder::instance().active() ? 1 : 0;
}

size_t toma_record_event_count(void) {
  return toma::obs::Recorder::instance().event_count();
}

uint64_t toma_record_dropped(void) {
  return toma::obs::Recorder::instance().dropped();
}

toma_status_t toma_record_dump(const char* path) {
  if (path == nullptr || path[0] == '\0') return TOMA_ERR_INVALID;
  return toma::obs::Recorder::instance().dump(path) ? TOMA_OK
                                                    : TOMA_ERR_INVALID;
}

toma_status_t toma_metrics_export(const char* path,
                                  toma_metrics_format_t format) {
  if (path == nullptr || path[0] == '\0') return TOMA_ERR_INVALID;
  const toma::obs::Snapshot snap = toma::obs::registry().snapshot();
  bool ok = false;
  switch (format) {
    case TOMA_METRICS_PROMETHEUS:
      ok = toma::obs::write_prometheus(snap, path);
      break;
    case TOMA_METRICS_JSON:
      ok = toma::obs::write_stable_json(snap, path);
      break;
  }
  return ok ? TOMA_OK : TOMA_ERR_INVALID;
}

}  // extern "C"
