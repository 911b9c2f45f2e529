/* toma.h — the stable C facade of the toma allocator.
 *
 * This is the only header external applications should include. It is
 * plain C99 (compiles as C or C++), exposes opaque handles only, and is
 * implemented on top of the C++ Pool/PoolManager/StreamFrontEnd layers
 * (src/alloc). See docs/API.md for the full tour.
 *
 * Quick start:
 *
 *   toma_pool_config_t cfg = toma_pool_config_default();
 *   cfg.pool_bytes  = 16u << 20;
 *   cfg.quota_bytes = 4u << 20;
 *   toma_pool_t pool;
 *   if (toma_pool_create("tenant-a", &cfg, &pool) != TOMA_OK) { ... }
 *
 *   toma_stream_t s = toma_stream_create();
 *   void* p = toma_malloc_async(pool, 256, s, NULL);
 *   toma_free_async(pool, p, s);      // O(1): parked on the stream
 *   toma_stream_sync(s);              // batch drains here
 *   toma_stream_destroy(s);
 *   toma_pool_destroy(pool);
 *
 * Passing a NULL pool to any allocation call means "the default pool"
 * (the process-wide heap, created on first use). Passing a NULL stream
 * means the process-wide default stream.
 */
#ifndef TOMA_TOMA_H
#define TOMA_TOMA_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* --- handles and status ------------------------------------------------- */

/* Opaque handles. A toma_pool_t stays valid until toma_pool_destroy; a
 * toma_stream_t until toma_stream_destroy. */
typedef struct toma_pool_s* toma_pool_t;
typedef struct toma_stream_s* toma_stream_t;

/* Why a call failed. A quota rejection (this pool's byte budget) and
 * true pool exhaustion are different operational events — one alerts the
 * tenant, the other the operator. */
typedef enum toma_status {
  TOMA_OK = 0,
  TOMA_ERR_INVALID = 1,   /* bad argument (size 0, overflow, bad config) */
  TOMA_ERR_OOM = 2,       /* pool exhausted at the requested size */
  TOMA_ERR_QUOTA = 3,     /* the pool's quota_bytes would be exceeded */
  TOMA_ERR_EXISTS = 4,    /* pool name already taken */
  TOMA_ERR_NOT_FOUND = 5  /* no pool by that name */
} toma_status_t;

/* Human-readable name of a status ("TOMA_OK", "TOMA_ERR_QUOTA", ...). */
const char* toma_status_str(toma_status_t s);

/* --- pool lifecycle ------------------------------------------------------ */

/* release_threshold value meaning "never trim at sync points". */
#define TOMA_RELEASE_RETAIN_ALL ((size_t)-1)

typedef struct toma_pool_config {
  size_t pool_bytes;        /* 0 = library default; else a power of two */
  unsigned num_arenas;      /* 0 = library default (UAlloc arena count)  */
  size_t quota_bytes;       /* cap on live bytes; 0 = unlimited          */
  size_t release_threshold; /* trim at sync when more than this many
                             * bytes sit stranded in caches; 0 = trim
                             * everything (the CUDA default),
                             * TOMA_RELEASE_RETAIN_ALL = never           */
  /* Front-end toggles: -1 = library default (TOMA_HEAP_DEFAULTS), 0 = off,
   * 1 = on. TOMA_HEAP_DEFAULTS is a comma list of key=0|1 over these
   * field names, e.g. "magazines=0,heapsan=1"; unset keeps the built-in
   * defaults (heapsan off, the others on). */
  int heapsan;              /* the HeapSan sanitizer layer               */
  int magazines;            /* the small-block cache (per-SM magazines,
                             * slab-refilled at 8-64 B); 0 = the
                             * paper's exact path                        */
  int quicklist;            /* the TBuddy per-order quicklists           */
  int stream_async;         /* the stream-ordered async front-end        */
  uint64_t slo_latency_ns;  /* per-op latency SLO target in ns; an op
                             * slower than this bumps the pool's
                             * SLO-violation counter. 0 = no SLO         */
  unsigned num_workers;     /* simulator scheduler worker threads for
                             * subsequent kernel launches; 0 = keep the
                             * current process default (TOMA_WORKERS env
                             * or hardware concurrency). Process-wide:
                             * the last pool created with a nonzero
                             * value wins                                */
  int vmm;                  /* -1 or 1 = elastic chunked backing:
                             * pool_bytes is a VA reservation, physical
                             * chunks map on demand (grow on
                             * exhaustion, unmap at trim) with the
                             * geometry below. 0 = fixed-size pool: all
                             * of pool_bytes mapped at creation as one
                             * chunk that never grows or shrinks (the
                             * three fields below are ignored)           */
  size_t chunk_bytes;       /* backing-chunk granule: power-of-two
                             * multiple of 256 KiB dividing pool_bytes;
                             * 0 = auto (pool/64, clamped to
                             * [256 KiB, 4 MiB])                         */
  unsigned initial_chunks;  /* chunks mapped at creation (also the
                             * shrink floor); 0 = library default (1)    */
  unsigned max_chunks;      /* growth ceiling in chunks; 0 = the whole
                             * reservation                               */
  int defrag_mode;          /* defragmentation driver (moved blocks
                             * change address — only for hosts that
                             * tolerate relocation):
                             *  -1 = library default (off),
                             *   0 = off,
                             *   1 = sync (evacuation run to completion
                             *       at sync points; relocation hooks
                             *       need only a commit callback),
                             *   2 = incremental (bounded concurrent
                             *       slices; requires relocation hooks
                             *       with a prepare callback, see
                             *       toma_pool_set_relocation_hooks).
                             * Anything else: TOMA_ERR_INVALID          */
} toma_pool_config_t;

/* The library defaults (64 MiB pool, unlimited quota, retain-all
 * threshold, library-default front-ends). Always start from this rather
 * than zero-initializing: {0} means "trim everything at every sync",
 * which is CUDA's default but probably not what you want. */
toma_pool_config_t toma_pool_config_default(void);

/* Create a named pool. `cfg` may be NULL for defaults; `out` may be NULL
 * when only the side effect matters. TOMA_ERR_EXISTS when the name is
 * taken, TOMA_ERR_INVALID for a bad name/config. */
toma_status_t toma_pool_create(const char* name,
                               const toma_pool_config_t* cfg,
                               toma_pool_t* out);

/* Destroy a pool: drains pending async frees, then tears the heap down.
 * All blocks from the pool must already have been freed. The default
 * pool cannot be destroyed (TOMA_ERR_INVALID). */
toma_status_t toma_pool_destroy(toma_pool_t pool);

/* Look up a pool by name; NULL when absent. */
toma_pool_t toma_pool_find(const char* name);

/* The default pool (the process-wide heap, created on first use with
 * library defaults). */
toma_pool_t toma_default_pool(void);

/* --- synchronous allocation ---------------------------------------------- */
/* `pool` may be NULL in every call below: the default pool is used. */

void* toma_malloc(toma_pool_t pool, size_t size, toma_status_t* status);
void toma_free(toma_pool_t pool, void* p);
void* toma_calloc(toma_pool_t pool, size_t n, size_t size,
                  toma_status_t* status);
void* toma_realloc(toma_pool_t pool, void* p, size_t size,
                   toma_status_t* status);

/* Actual capacity of a live allocation (>= the requested size). */
size_t toma_usable_size(toma_pool_t pool, void* p);

/* --- stream-ordered allocation ------------------------------------------- */

/* Create/destroy an execution stream. Destroying drains the stream's
 * pending frees on every pool. NULL stream arguments below mean the
 * process default stream. */
toma_stream_t toma_stream_create(void);
void toma_stream_destroy(toma_stream_t s);

/* malloc ordered after prior work on `s`; may directly reuse a block
 * pending free on the same stream (no allocator round trip). */
void* toma_malloc_async(toma_pool_t pool, size_t size, toma_stream_t s,
                        toma_status_t* status);

/* Defer freeing `p` until `s` next synchronizes. O(1). */
void toma_free_async(toma_pool_t pool, void* p, toma_stream_t s);

/* Drain `s`'s deferred frees on one pool / on every pool, then apply the
 * release threshold. Returns the number of frees drained. */
size_t toma_pool_sync(toma_pool_t pool, toma_stream_t s);
size_t toma_stream_sync(toma_stream_t s);

/* Drain every stream's deferred frees on one pool (device-sync
 * analogue), then apply the release threshold. Returns frees drained. */
size_t toma_pool_sync_all(toma_pool_t pool);

/* --- maintenance / introspection ----------------------------------------- */

/* Drain pending frees and scavenge cached memory back to maximal buddy
 * blocks (malloc_trim analogue). Returns UAlloc chunks released. */
size_t toma_trim(toma_pool_t pool);

/* Live bytes (block granularity) / quota / release threshold. */
size_t toma_pool_bytes_in_use(toma_pool_t pool);
size_t toma_pool_quota(toma_pool_t pool);
void toma_pool_set_quota(toma_pool_t pool, size_t bytes);
size_t toma_pool_release_threshold(toma_pool_t pool);
void toma_pool_set_release_threshold(toma_pool_t pool, size_t bytes);

/* The pool's name (borrowed pointer, valid while the pool lives). */
const char* toma_pool_name(toma_pool_t pool);

/* --- latency SLOs --------------------------------------------------------- */

/* Per-operation latency SLO target in ns for the pool's host-facing
 * surface (malloc/free and the async forms). With a target set the pool
 * times every operation (otherwise one in 64), and one slower than the
 * target bumps the pool's SLO-violation counter
 * (`pool.slo_violation{pool="..."}` in the metrics export). 0 disables
 * the check. Builds with telemetry compiled out never observe
 * violations (the clock is compiled out with it). */
void toma_pool_set_slo(toma_pool_t pool, uint64_t target_ns);
uint64_t toma_pool_slo(toma_pool_t pool);

/* Operations that exceeded the SLO target since pool creation. */
uint64_t toma_pool_slo_violations(toma_pool_t pool);

/* --- defragmentation ------------------------------------------------------ */
/* Compaction moves live blocks, so the host must cooperate. The
 * two-phase protocol: for each candidate block the library calls
 * prepare(old, new, size, user) — return nonzero to allow the move (and
 * stop touching the block until commit), zero to veto it (the block
 * stays put; under the incremental driver veto anything you do not
 * recognize as one of your live pointers). On an allowed move the bytes
 * are copied and commit(old, new, size, user) fires: rewrite your
 * references from old to new. abort(old, user) is reserved for moves
 * undone between a successful prepare and commit; it may be NULL (the
 * current library never takes that path, the slot exists for protocol
 * completeness). Hooks run under the pool's defrag lock: they must not
 * call back into the library and should be quick. */
typedef struct toma_relocation_hooks {
  int (*prepare)(void* old_ptr, void* new_ptr, size_t size, void* user);
  void (*commit)(void* old_ptr, void* new_ptr, size_t size, void* user);
  void (*abort)(void* old_ptr, void* user); /* optional, may be NULL */
  void* user;                               /* passed through verbatim */
} toma_relocation_hooks_t;

/* Register the pool's relocation hooks (replacing any previous
 * registration; hooks = NULL or all-NULL members unregisters). commit
 * is required whenever prepare is set; prepare is required for the
 * incremental driver. TOMA_ERR_INVALID on a bad combination. */
toma_status_t toma_pool_set_relocation_hooks(
    toma_pool_t pool, const toma_relocation_hooks_t* hooks);

typedef struct toma_defrag_stats {
  uint64_t steps;       /* defrag_step slices that ran */
  uint64_t moved_bytes; /* bytes evacuated (sync and incremental) */
  uint64_t forwarded;   /* frees/reallocs resolved via forwarding */
  uint64_t pin_stalls;  /* retirement waits on in-flight operations */
} toma_defrag_stats_t;

/* One bounded incremental compaction slice: evacuate at most
 * `budget_bytes` (0 = library default) from the sparsest backing chunk,
 * concurrent with allocator traffic. Returns TOMA_OK and fills *stats
 * (when non-NULL) with the pool's cumulative defrag counters; a
 * fixed-size (vmm = 0) pool has no chunk to evacuate and moves nothing.
 * Requires relocation hooks with prepare; steps without them only
 * advance retirement of already-evacuated chunks. */
toma_status_t toma_pool_defrag(toma_pool_t pool, size_t budget_bytes,
                               toma_defrag_stats_t* stats);

/* --- flight recorder ------------------------------------------------------ */
/* A bounded in-memory log of allocator front-end events (alloc/free/
 * realloc/sync, with pool, stream, size, and outcome), dumpable as a
 * compact versioned binary trace (.tomarec) that `replay` (see
 * docs/OBSERVABILITY.md) re-runs through this same C API. Recording
 * never blocks allocation: when the buffer fills, new events are dropped
 * and counted. Also armable at process start via the TOMA_RECORD
 * environment variable (TOMA_RECORD=1 for the default buffer,
 * TOMA_RECORD=<n> for an n-event buffer). */

/* Begin a recording session into a fresh buffer of at most
 * `capacity_events` events (0 = library default, 1M). Discards any
 * previous recording. TOMA_ERR_EXISTS when already recording. */
toma_status_t toma_record_start(size_t capacity_events);

/* Stop recording. The captured trace stays dumpable until the next
 * toma_record_start. */
void toma_record_stop(void);

/* Is a recording session active? */
int toma_record_active(void);

/* Events captured so far / events dropped because the buffer was full. */
size_t toma_record_event_count(void);
uint64_t toma_record_dropped(void);

/* Write the captured trace to `path` as a .tomarec file. Call
 * toma_record_stop first for a stable snapshot. TOMA_ERR_INVALID when
 * nothing has been recorded or the file cannot be written. */
toma_status_t toma_record_dump(const char* path);

/* --- metrics export ------------------------------------------------------- */

typedef enum toma_metrics_format {
  TOMA_METRICS_PROMETHEUS = 0, /* Prometheus text exposition format */
  TOMA_METRICS_JSON = 1        /* stable JSON (schema_version'd)    */
} toma_metrics_format_t;

/* Snapshot the telemetry registry (counters, derived rates, latency
 * histograms, per-pool SLO quantiles) and write it to `path` in the
 * requested format. With telemetry compiled out the export succeeds but
 * contains no series. TOMA_ERR_INVALID on I/O failure. */
toma_status_t toma_metrics_export(const char* path,
                                  toma_metrics_format_t format);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* TOMA_TOMA_H */
