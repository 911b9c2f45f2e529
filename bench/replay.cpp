// replay — record/replay/soak harness for the toma allocator.
//
// Drives multi-tenant allocation traffic through the *public C API*
// (include/toma/toma.h) in three modes:
//
//   * synthetic: --synth=poisson|bursty|kvcache|mixed generates
//     deterministic (seeded) traffic against N tenant pools — Poisson-ish
//     steady-state churn, bursty allocate/free-all phases, and
//     KV-cache-style append/evict lifetimes with realloc growth.
//     --record=PATH captures the run as a .tomarec flight-recorder trace.
//
//   * replay: --in=PATH re-executes a .tomarec event-for-event. Pools are
//     recreated from the trace header, streams and blocks from their
//     interned ids. Because the recorder interns identity in event order,
//     re-recording a replay (--in=a.tomarec --record=b.tomarec) of a
//     single-threaded trace reproduces it bit-for-bit — CI literally
//     `cmp`s the two files. --strict makes outcome mismatches fatal.
//
//   * soak: --soak=SECONDS loops synthetic rounds until the deadline,
//     draining and checking invariants between rounds: per-pool quota
//     respected, all bytes accounted after a full drain (leak check), and
//     zero HeapSan reports (use --heapsan to sanitize the pools).
//
// --defrag=off|sync|incremental gives every tenant pool elastic (vmm)
// backing and runs compaction under the two-phase relocation protocol:
// each tenant registers prepare/commit/abort hooks that veto unknown
// pointers, snapshot the block's leading bytes at prepare, and verify
// them at commit before rewriting the tenant's reference — any torn
// observation (overlapping prepares, a commit that does not match its
// prepare, or content that changed across the move) is an invariant
// violation checked every soak round.
//
// Exit status: 0 = clean, 1 = invariant violation / strict mismatch,
// 2 = usage or I/O error.
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "toma/toma.h"

namespace {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string synth = "mixed";  // poisson | bursty | kvcache | mixed
  std::uint32_t tenants = 3;
  std::uint64_t ops = 20000;  // per round
  std::uint64_t seed = 1;
  std::uint32_t streams = 2;  // created streams per tenant (plus default)
  std::size_t pool_bytes = 16u << 20;
  std::size_t quota = 0;        // applied to tenant 0 when nonzero
  std::uint64_t slo_ns = 0;     // SLO target on every pool
  bool heapsan = false;         // sanitize every pool
  std::string record_path;      // dump a .tomarec after the run
  std::size_t record_cap = 0;   // 0 = sized from the workload
  std::string in_path;          // replay this trace instead of synth
  bool strict = false;          // replay: outcome mismatch is fatal
  double soak_seconds = 0;      // 0 = single round
  int defrag_mode = 0;          // 0 off | 1 sync | 2 incremental
  std::string prom_path;        // Prometheus metrics export
  std::string json_path;        // stable-JSON metrics export
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--synth=poisson|bursty|kvcache|mixed] [--tenants=N]\n"
      "          [--ops=N] [--seed=S] [--streams=K] [--pool-bytes=B]\n"
      "          [--quota=B] [--slo=NS] [--heapsan] [--record=PATH]\n"
      "          [--record-cap=N] [--in=PATH] [--strict] [--soak=SECONDS]\n"
      "          [--defrag=off|sync|incremental]\n"
      "          [--metrics-prom=PATH] [--metrics-json=PATH] [--quiet]\n",
      argv0);
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [a](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return std::strncmp(a, flag, n) == 0 ? a + n : nullptr;
    };
    const char* v;
    if ((v = val("--synth="))) {
      o->synth = v;
    } else if ((v = val("--tenants="))) {
      o->tenants = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if ((v = val("--ops="))) {
      o->ops = std::strtoull(v, nullptr, 10);
    } else if ((v = val("--seed="))) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if ((v = val("--streams="))) {
      o->streams = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if ((v = val("--pool-bytes="))) {
      o->pool_bytes = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if ((v = val("--quota="))) {
      o->quota = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if ((v = val("--slo="))) {
      o->slo_ns = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--heapsan") == 0) {
      o->heapsan = true;
    } else if ((v = val("--record="))) {
      o->record_path = v;
    } else if ((v = val("--record-cap="))) {
      o->record_cap = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if ((v = val("--in="))) {
      o->in_path = v;
    } else if (std::strcmp(a, "--strict") == 0) {
      o->strict = true;
    } else if ((v = val("--soak="))) {
      o->soak_seconds = std::strtod(v, nullptr);
    } else if ((v = val("--defrag="))) {
      if (std::strcmp(v, "off") == 0) {
        o->defrag_mode = 0;
      } else if (std::strcmp(v, "sync") == 0) {
        o->defrag_mode = 1;
      } else if (std::strcmp(v, "incremental") == 0) {
        o->defrag_mode = 2;
      } else {
        usage(argv[0]);
        return false;
      }
    } else if ((v = val("--metrics-prom="))) {
      o->prom_path = v;
    } else if ((v = val("--metrics-json="))) {
      o->json_path = v;
    } else if (std::strcmp(a, "--quiet") == 0) {
      o->quiet = true;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (o->tenants == 0) o->tenants = 1;
  if (o->synth != "poisson" && o->synth != "bursty" && o->synth != "kvcache" &&
      o->synth != "mixed") {
    usage(argv[0]);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64): every byte of traffic derives from
// --seed, never from time or pointer values, so a recorded run is exactly
// reproducible.
// ---------------------------------------------------------------------------

struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return n != 0 ? static_cast<std::uint32_t>(next() % n) : 0;
  }
  bool chance(std::uint32_t percent) { return below(100) < percent; }
};

// Hot-key size skew: 90% of requests hit a handful of hot size classes
// (the shape of real serving traffic), 10% spread uniformly.
std::size_t pick_size(Rng& rng) {
  static constexpr std::size_t kHot[] = {96,   256,  512,   1024,
                                         2048, 4096, 16384, 32768};
  if (rng.chance(90)) return kHot[rng.below(8)];
  return 8 + rng.below(65536 - 8);
}

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

/// One KV-cache-style sequence: a realloc-grown context block plus
/// per-token small allocations, evicted FIFO.
struct Sequence {
  void* kv = nullptr;
  std::size_t kv_size = 0;
  std::vector<void*> toks;
};

struct Tenant {
  std::string name;
  toma_pool_t pool = nullptr;
  std::vector<toma_stream_t> streams;  // [0] = NULL (default stream)
  std::string mode;

  std::vector<void*> live;       // blocks awaiting a (possibly async) free
  std::vector<Sequence> seqs;    // kvcache mode
  std::vector<void*> burst;      // bursty mode
  std::uint64_t quota_rejects = 0;
  std::uint64_t ops_issued = 0;

  // Two-phase relocation state (--defrag). Between prepare and commit the
  // in-flight move is parked here; reloc_torn counts protocol breaches
  // (overlapping prepares, commit/prepare mismatch, content changed
  // across the copy) and must stay zero.
  void** reloc_slot = nullptr;  // container slot holding the moving block
  void* reloc_old = nullptr;
  std::size_t reloc_size = 0;
  unsigned char reloc_snap[8] = {0};
  std::uint64_t reloc_moves = 0;
  std::uint64_t reloc_vetoes = 0;
  std::uint64_t reloc_torn = 0;
};

/// Address of the container slot that holds `p`, or nullptr when the
/// tenant does not recognize it (e.g. a block already handed to
/// toma_free_async — those must be vetoed, their eventual free at the
/// old address is the forwarding table's job, not ours).
void** find_block_ref(Tenant& t, void* p) {
  for (void*& q : t.live) {
    if (q == p) return &q;
  }
  for (void*& q : t.burst) {
    if (q == p) return &q;
  }
  for (Sequence& s : t.seqs) {
    if (s.kv == p) return &s.kv;
    for (void*& q : s.toks) {
      if (q == p) return &q;
    }
  }
  return nullptr;
}

// The two-phase hooks (toma_pool_set_relocation_hooks). `user` is the
// owning Tenant — registered only after the tenant vector stops growing,
// so the address is stable. Hooks must not call back into the library.
int reloc_prepare(void* old_ptr, void* new_ptr, size_t size, void* user) {
  (void)new_ptr;
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != nullptr) {  // a previous prepare was never resolved
    ++t.reloc_torn;
    return 0;
  }
  void** slot = find_block_ref(t, old_ptr);
  if (slot == nullptr) {
    ++t.reloc_vetoes;
    return 0;
  }
  t.reloc_slot = slot;
  t.reloc_old = old_ptr;
  t.reloc_size = size;
  std::memcpy(t.reloc_snap, old_ptr, size < 8 ? size : 8);
  return 1;
}

void reloc_commit(void* old_ptr, void* new_ptr, size_t size, void* user) {
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != old_ptr || t.reloc_size != size ||
      t.reloc_slot == nullptr ||
      std::memcmp(new_ptr, t.reloc_snap, size < 8 ? size : 8) != 0) {
    ++t.reloc_torn;
  } else {
    *t.reloc_slot = new_ptr;
    ++t.reloc_moves;
  }
  t.reloc_slot = nullptr;
  t.reloc_old = nullptr;
  t.reloc_size = 0;
}

void reloc_abort(void* old_ptr, void* user) {
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != old_ptr) {
    ++t.reloc_torn;
    return;
  }
  t.reloc_slot = nullptr;
  t.reloc_old = nullptr;
  t.reloc_size = 0;
}

toma_stream_t pick_stream(Tenant& t, Rng& rng) {
  return t.streams[rng.below(static_cast<std::uint32_t>(t.streams.size()))];
}

void note_status(Tenant& t, toma_status_t st) {
  if (st == TOMA_ERR_QUOTA) ++t.quota_rejects;
}

// --- traffic shapes ---------------------------------------------------------

/// Steady-state churn: allocation pressure proportional to distance from
/// a target residency, mixed sync/async paths, periodic syncs.
void poisson_step(Tenant& t, Rng& rng) {
  constexpr std::size_t kTargetLive = 192;
  const bool alloc = t.live.size() < kTargetLive ? rng.chance(60)
                                                 : rng.chance(40);
  if (alloc || t.live.empty()) {
    toma_status_t st = TOMA_OK;
    const std::size_t size = pick_size(rng);
    void* p = rng.chance(50)
                  ? toma_malloc(t.pool, size, &st)
                  : toma_malloc_async(t.pool, size, pick_stream(t, rng), &st);
    note_status(t, st);
    if (p != nullptr) t.live.push_back(p);
  } else {
    const std::uint32_t i =
        rng.below(static_cast<std::uint32_t>(t.live.size()));
    void* p = t.live[i];
    t.live[i] = t.live.back();
    t.live.pop_back();
    if (rng.chance(50)) {
      toma_free(t.pool, p);
    } else {
      toma_free_async(t.pool, p, pick_stream(t, rng));
    }
  }
  ++t.ops_issued;
  if (rng.chance(1)) {
    toma_pool_sync(t.pool, pick_stream(t, rng));
    ++t.ops_issued;
  }
}

/// Burst phases: fill a burst of async allocations, then free-all on the
/// same stream and sync — the allocate/execute/release rhythm of batch
/// inference.
void bursty_step(Tenant& t, Rng& rng) {
  constexpr std::size_t kBurst = 64;
  toma_stream_t s = t.streams.back();
  if (t.burst.size() < kBurst) {
    toma_status_t st = TOMA_OK;
    void* p = toma_malloc_async(t.pool, pick_size(rng), s, &st);
    note_status(t, st);
    if (p != nullptr) t.burst.push_back(p);
    ++t.ops_issued;
    if (p == nullptr && t.burst.empty()) {
      // Pool can't serve even one block: nothing to release, bail out of
      // the phase so the step doesn't spin.
      toma_pool_sync(t.pool, s);
      ++t.ops_issued;
    }
  } else {
    // Hand-off order matters under --defrag: once a pointer enters the
    // stream's free queue its old name belongs to the library (the
    // forwarding table resolves it if the block moves), so each block is
    // deregistered *before* the call — a relocation prepare that fires
    // inside free_async must no longer find it and will veto.
    for (void*& p : t.burst) {
      void* q = p;
      p = nullptr;
      toma_free_async(t.pool, q, s);
    }
    t.ops_issued += t.burst.size();
    t.burst.clear();
    toma_pool_sync(t.pool, s);
    ++t.ops_issued;
  }
}

/// KV-cache lifetimes: sequences append tokens (small blocks) and grow
/// their context block by doubling realloc; old sequences evict FIFO.
void kvcache_step(Tenant& t, Rng& rng) {
  constexpr std::size_t kMaxSeqs = 12;
  constexpr std::size_t kMaxToks = 48;
  if (t.seqs.empty() || (t.seqs.size() < kMaxSeqs && rng.chance(8))) {
    Sequence s;
    toma_status_t st = TOMA_OK;
    s.kv_size = 2048;
    s.kv = toma_malloc(t.pool, s.kv_size, &st);
    note_status(t, st);
    ++t.ops_issued;
    if (s.kv != nullptr) t.seqs.push_back(std::move(s));
    return;
  }
  Sequence& s = t.seqs[rng.below(static_cast<std::uint32_t>(t.seqs.size()))];
  if (s.toks.size() >= kMaxToks || t.seqs.size() >= kMaxSeqs) {
    // Evict the oldest sequence wholesale.
    Sequence victim = std::move(t.seqs.front());
    t.seqs.erase(t.seqs.begin());
    for (void* p : victim.toks) toma_free(t.pool, p);
    t.ops_issued += victim.toks.size();
    if (victim.kv != nullptr) {
      toma_free(t.pool, victim.kv);
      ++t.ops_issued;
    }
    return;
  }
  // Append a token; every 16th token doubles the context block.
  toma_status_t st = TOMA_OK;
  void* tok = toma_malloc(t.pool, 64 + rng.below(960), &st);
  note_status(t, st);
  ++t.ops_issued;
  if (tok != nullptr) s.toks.push_back(tok);
  if (s.toks.size() % 16 == 0 && s.kv != nullptr) {
    void* grown = toma_realloc(t.pool, s.kv, s.kv_size * 2, &st);
    note_status(t, st);
    ++t.ops_issued;
    if (grown != nullptr) {
      s.kv = grown;
      s.kv_size *= 2;
    }
  }
}

void step(Tenant& t, Rng& rng) {
  if (t.mode == "poisson") {
    poisson_step(t, rng);
  } else if (t.mode == "bursty") {
    bursty_step(t, rng);
  } else {
    kvcache_step(t, rng);
  }
}

/// Defrag bait: the organic traffic shapes keep their live set dense
/// enough that trim alone recovers the footprint, so under --defrag each
/// round first carpets a couple of backing chunks with small blocks and
/// frees all but every 16th. The survivors pin their chunks sparse —
/// exactly the shape compaction exists for — and land in t.live, so the
/// relocation hooks must track them through their moves until the
/// regular churn (or drain_all) frees them at whatever address they
/// ended up at.
void fragment_spike(Tenant& t, Rng& rng) {
  constexpr std::size_t kSpikeBlocks = 2048;
  constexpr std::size_t kSpikeSize = 256;
  std::vector<void*> spike;
  spike.reserve(kSpikeBlocks);
  for (std::size_t i = 0; i < kSpikeBlocks; ++i) {
    toma_status_t st = TOMA_OK;
    void* p = toma_malloc(t.pool, kSpikeSize, &st);
    note_status(t, st);
    if (p == nullptr) break;
    spike.push_back(p);
  }
  for (std::size_t i = 0; i < spike.size(); ++i) {
    if (i % 16 == rng.below(16)) {
      t.live.push_back(spike[i]);
    } else {
      toma_free(t.pool, spike[i]);
    }
  }
  t.ops_issued += spike.size();
}

/// One round of interleaved multi-tenant traffic, ending with a sync and
/// a trim per tenant (the trim exercises the release path under
/// recording). Under --defrag=incremental a bounded compaction slice runs
/// every few ops, interleaved with the traffic that fragments the heap —
/// the piggybacked ticks inside the async paths add more.
void run_round(std::vector<Tenant>& tenants, Rng& rng, std::uint64_t ops,
               int defrag_mode) {
  if (defrag_mode != 0) {
    for (Tenant& t : tenants) {
      fragment_spike(t, rng);
    }
  }
  for (std::uint64_t i = 0; i < ops; ++i) {
    Tenant& t = tenants[rng.below(static_cast<std::uint32_t>(tenants.size()))];
    step(t, rng);
    if (defrag_mode == 2 && i % 16 == 0) {
      toma_pool_defrag(t.pool, 0, nullptr);
    }
  }
  for (Tenant& t : tenants) {
    toma_pool_sync_all(t.pool);
    if (rng.chance(50)) toma_trim(t.pool);
  }
}

/// Free every outstanding block (through the same C API), drain all
/// streams, and trim — after this the pools must be empty.
void drain_all(std::vector<Tenant>& tenants) {
  for (Tenant& t : tenants) {
    for (void* p : t.live) toma_free(t.pool, p);
    t.live.clear();
    for (void* p : t.burst) toma_free(t.pool, p);
    t.burst.clear();
    for (Sequence& s : t.seqs) {
      for (void* p : s.toks) toma_free(t.pool, p);
      if (s.kv != nullptr) toma_free(t.pool, s.kv);
    }
    t.seqs.clear();
    toma_pool_sync_all(t.pool);
    toma_trim(t.pool);
  }
}

// ---------------------------------------------------------------------------
// Invariant checks (soak mode and end-of-run)
// ---------------------------------------------------------------------------

struct Checker {
  std::uint64_t violations = 0;

  void expect(bool ok, const char* fmt, ...) {
    if (ok) return;
    ++violations;
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("INVARIANT VIOLATION: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
  }

  /// Quota ceiling: live bytes never exceed the pool's quota.
  void check_quota(const Tenant& t) {
    const std::size_t quota = toma_pool_quota(t.pool);
    if (quota == 0) return;
    const std::size_t used = toma_pool_bytes_in_use(t.pool);
    expect(used <= quota, "pool %s: bytes_in_use %zu > quota %zu",
           t.name.c_str(), used, quota);
  }

  /// Leak check: after drain_all, every pool accounts to zero bytes.
  void check_empty(const Tenant& t) {
    const std::size_t used = toma_pool_bytes_in_use(t.pool);
    expect(used == 0, "pool %s: %zu bytes still in use after full drain",
           t.name.c_str(), used);
  }

  /// Two-phase relocation: no move left open across a round boundary
  /// (every prepare resolved by a commit or abort) and no torn
  /// observations (see Tenant::reloc_torn).
  void check_reloc(const Tenant& t) {
    expect(t.reloc_old == nullptr,
           "pool %s: relocation left open (prepare without commit/abort)",
           t.name.c_str());
    expect(t.reloc_torn == 0,
           "pool %s: %" PRIu64 " torn relocation observations",
           t.name.c_str(), t.reloc_torn);
  }

  /// HeapSan quiet: no OOB/UAF/double-free/invalid-free/leak reports.
  void check_heapsan() {
    static const char* kReports[] = {
        "san.report.oob", "san.report.uaf", "san.report.double_free",
        "san.report.invalid_free", "san.report.leak"};
    const toma::obs::Snapshot snap = toma::obs::registry().snapshot();
    for (const char* name : kReports) {
      const auto it = snap.counters.find(name);
      const std::uint64_t n = it == snap.counters.end() ? 0 : it->second;
      expect(n == 0, "%s = %" PRIu64, name, n);
    }
  }
};

// ---------------------------------------------------------------------------
// Synthetic driver
// ---------------------------------------------------------------------------

const char* mode_for(const Options& opt, std::uint32_t tenant_idx) {
  if (opt.synth != "mixed") return opt.synth.c_str();
  static const char* kModes[] = {"poisson", "kvcache", "bursty"};
  return kModes[tenant_idx % 3];
}

bool make_tenants(const Options& opt, std::vector<Tenant>* out) {
  for (std::uint32_t i = 0; i < opt.tenants; ++i) {
    Tenant t;
    t.name = "tenant-" + std::to_string(i);
    t.mode = mode_for(opt, i);
    toma_pool_config_t cfg = toma_pool_config_default();
    cfg.pool_bytes = opt.pool_bytes;
    cfg.heapsan = opt.heapsan ? 1 : 0;
    cfg.slo_latency_ns = opt.slo_ns;
    if (opt.defrag_mode != 0) {
      // Compaction needs elastic backing; release mapped chunks eagerly
      // so evacuated-and-retired chunks actually leave the footprint.
      cfg.vmm = 1;
      cfg.release_threshold = 0;
      cfg.defrag_mode = opt.defrag_mode;
    }
    if (i == 0 && opt.quota != 0) cfg.quota_bytes = opt.quota;
    const toma_status_t st = toma_pool_create(t.name.c_str(), &cfg, &t.pool);
    if (st != TOMA_OK) {
      std::fprintf(stderr, "toma_pool_create(%s): %s\n", t.name.c_str(),
                   toma_status_str(st));
      return false;
    }
    t.streams.push_back(nullptr);  // the default stream
    for (std::uint32_t k = 0; k < opt.streams; ++k) {
      t.streams.push_back(toma_stream_create());
    }
    out->push_back(std::move(t));
  }
  // Hooks carry the Tenant's address as `user`, so they are registered
  // only once the vector has stopped reallocating.
  if (opt.defrag_mode != 0) {
    for (Tenant& t : *out) {
      toma_relocation_hooks_t hooks = {reloc_prepare, reloc_commit,
                                       reloc_abort, &t};
      const toma_status_t st = toma_pool_set_relocation_hooks(t.pool, &hooks);
      if (st != TOMA_OK) {
        std::fprintf(stderr, "toma_pool_set_relocation_hooks(%s): %s\n",
                     t.name.c_str(), toma_status_str(st));
        return false;
      }
    }
  }
  return true;
}

/// Streams and pools are torn down only after recording has stopped, so
/// teardown events never leak into the dumped trace.
void destroy_tenants(std::vector<Tenant>& tenants) {
  for (Tenant& t : tenants) {
    for (toma_stream_t s : t.streams) {
      if (s != nullptr) toma_stream_destroy(s);
    }
    toma_pool_destroy(t.pool);
  }
  tenants.clear();
}

int run_synth(const Options& opt) {
  std::vector<Tenant> tenants;
  if (!make_tenants(opt, &tenants)) return 2;

  if (!opt.record_path.empty()) {
    // Size the buffer generously: a step can issue several events, and a
    // soak run loops rounds; drops would break the replay cmp.
    std::size_t cap = opt.record_cap;
    if (cap == 0) {
      cap = static_cast<std::size_t>(opt.ops) * 4 + 4096;
      if (opt.soak_seconds > 0) cap *= 64;
    }
    if (toma_record_start(cap) != TOMA_OK) {
      std::fprintf(stderr, "recorder already active\n");
      return 2;
    }
  }

  Rng rng{opt.seed * 0x9e3779b97f4a7c15ull + 1};
  Checker check;
  std::uint64_t rounds = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opt.soak_seconds);
  do {
    run_round(tenants, rng, opt.ops, opt.defrag_mode);
    ++rounds;
    for (const Tenant& t : tenants) {
      check.check_quota(t);
      check.check_reloc(t);
    }
    // Every few soak rounds (and always at the end), drain to zero and
    // leak-check; this also keeps the recorded trace ending on a clean
    // heap so replays can verify the same invariant.
    const bool last = opt.soak_seconds <= 0 ||
                      std::chrono::steady_clock::now() >= deadline;
    if (last || rounds % 8 == 0) {
      drain_all(tenants);
      for (const Tenant& t : tenants) check.check_empty(t);
    }
    if (last) break;
  } while (true);

  if (!opt.record_path.empty()) {
    toma_record_stop();
    const std::uint64_t dropped = toma_record_dropped();
    if (toma_record_dump(opt.record_path.c_str()) != TOMA_OK) {
      std::fprintf(stderr, "failed to write %s\n", opt.record_path.c_str());
      return 2;
    }
    if (!opt.quiet) {
      std::printf("recorded %zu events (%" PRIu64 " dropped) -> %s\n",
                  toma_record_event_count(), dropped,
                  opt.record_path.c_str());
    }
    check.expect(dropped == 0, "recorder dropped %" PRIu64 " events",
                 dropped);
  }

  if (opt.heapsan) check.check_heapsan();

  std::uint64_t total_ops = 0, total_rejects = 0;
  std::uint64_t total_moves = 0, total_vetoes = 0;
  for (const Tenant& t : tenants) {
    total_ops += t.ops_issued;
    total_rejects += t.quota_rejects;
    total_moves += t.reloc_moves;
    total_vetoes += t.reloc_vetoes;
  }
  if (!opt.quiet) {
    std::printf("synth %s: %u tenants, %" PRIu64 " rounds, %" PRIu64
                " ops (%" PRIu64 " quota rejects), %" PRIu64 " violations\n",
                opt.synth.c_str(), opt.tenants, rounds, total_ops,
                total_rejects, check.violations);
    if (opt.defrag_mode != 0) {
      toma_defrag_stats_t ds = {0, 0, 0, 0};
      for (const Tenant& t : tenants) {
        toma_defrag_stats_t d;
        if (toma_pool_defrag(t.pool, 0, &d) == TOMA_OK) {
          ds.steps += d.steps;
          ds.moved_bytes += d.moved_bytes;
          ds.forwarded += d.forwarded;
          ds.pin_stalls += d.pin_stalls;
        }
      }
      std::printf("defrag: %" PRIu64 " moves committed (%" PRIu64
                  " vetoed), %" PRIu64 " steps, %" PRIu64
                  " bytes moved, %" PRIu64 " forwarded\n",
                  total_moves, total_vetoes, ds.steps, ds.moved_bytes,
                  ds.forwarded);
    }
  }

  destroy_tenants(tenants);
  return check.violations != 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------------

int run_replay(const Options& opt) {
  using toma::obs::RecOp;
  using toma::obs::RecordedTrace;

  RecordedTrace trace;
  if (!RecordedTrace::read(opt.in_path, &trace)) {
    std::fprintf(stderr, "cannot read trace %s\n", opt.in_path.c_str());
    return 2;
  }

  // Recreate the recorded pools from the header. A name collision (e.g. a
  // trace of the default pool) falls back to the existing pool.
  std::vector<toma_pool_t> pools;
  std::vector<bool> pool_created;
  for (const toma::obs::RecordedPool& rp : trace.pools) {
    toma_pool_config_t cfg = toma_pool_config_default();
    cfg.pool_bytes = static_cast<size_t>(rp.pool_bytes);
    cfg.quota_bytes = static_cast<size_t>(rp.quota_bytes);
    cfg.release_threshold = static_cast<size_t>(rp.release_threshold);
    if (rp.num_arenas != 0) cfg.num_arenas = rp.num_arenas;
    cfg.stream_async = (rp.flags & toma::obs::kRecPoolAsync) ? 1 : 0;
    cfg.heapsan = (rp.flags & toma::obs::kRecPoolHeapSan) ? 1 : 0;
    toma_pool_t pool = nullptr;
    const toma_status_t st = toma_pool_create(rp.name.c_str(), &cfg, &pool);
    if (st == TOMA_ERR_EXISTS) pool = toma_pool_find(rp.name.c_str());
    if (pool == nullptr) {
      std::fprintf(stderr, "cannot recreate pool %s: %s\n", rp.name.c_str(),
                   toma_status_str(st));
      return 2;
    }
    pools.push_back(pool);
    pool_created.push_back(st == TOMA_OK);
  }

  if (!opt.record_path.empty()) {
    const std::size_t cap =
        trace.events.size() < 1024 ? 1024 : trace.events.size();
    if (toma_record_start(opt.record_cap != 0 ? opt.record_cap : cap) !=
        TOMA_OK) {
      std::fprintf(stderr, "recorder already active\n");
      return 2;
    }
  }

  // Interned id -> live handle maps. Streams are created on first
  // appearance (matching the recorder's first-appearance interning);
  // blocks grow as alloc events grant ids. block_pool remembers each
  // block's owning pool so end-of-run cleanup can free leftovers.
  std::vector<toma_stream_t> streams = {nullptr};  // id 0 = default
  std::vector<bool> stream_dead = {false};
  std::vector<void*> blocks(1, nullptr);  // id 0 = "unknown" (skipped)
  std::vector<std::uint16_t> block_pool(1, 0);

  auto stream_at = [&](std::uint32_t id) -> toma_stream_t {
    while (streams.size() <= id) {
      streams.push_back(toma_stream_create());
      stream_dead.push_back(false);
    }
    return streams[id];
  };
  auto block_slot = [&](std::uint32_t id) -> void*& {
    if (blocks.size() <= id) {
      blocks.resize(id + 1, nullptr);
      block_pool.resize(id + 1, 0);
    }
    return blocks[id];
  };

  std::uint64_t mismatches = 0;
  auto check_outcome = [&](const toma::obs::RecordEvent& e,
                           toma_status_t got) {
    if (static_cast<std::uint8_t>(got) == e.outcome) return;
    ++mismatches;
    if (mismatches <= 10) {
      std::fprintf(stderr,
                   "outcome mismatch at seq %" PRIu64
                   ": recorded %u, replayed %d\n",
                   e.seq, e.outcome, static_cast<int>(got));
    }
  };

  for (const toma::obs::RecordEvent& e : trace.events) {
    if (e.pool >= pools.size()) {
      std::fprintf(stderr, "corrupt trace: pool id %u out of range\n",
                   e.pool);
      return 2;
    }
    toma_pool_t pool = pools[e.pool];
    toma_status_t st = TOMA_OK;
    switch (e.op) {
      case RecOp::kMalloc: {
        void* p = toma_malloc(pool, static_cast<size_t>(e.size), &st);
        if (e.block != 0) {
          block_slot(e.block) = p;
          block_pool[e.block] = e.pool;
        }
        check_outcome(e, st);
        break;
      }
      case RecOp::kCalloc: {
        void* p =
            toma_calloc(pool, 1, static_cast<size_t>(e.size), &st);
        if (e.block != 0) {
          block_slot(e.block) = p;
          block_pool[e.block] = e.pool;
        }
        check_outcome(e, st);
        break;
      }
      case RecOp::kRealloc: {
        void* old_p = e.block != 0 ? block_slot(e.block) : nullptr;
        void* q =
            toma_realloc(pool, old_p, static_cast<size_t>(e.size), &st);
        // Mirror the recorder's identity bookkeeping: success (or a
        // realloc-to-zero free) consumes the old id; a granted result
        // occupies the new id.
        if (e.block != 0 && (q != nullptr || e.size == 0)) {
          block_slot(e.block) = nullptr;
        }
        if (e.aux != 0) {
          block_slot(e.aux) = q;
          block_pool[e.aux] = e.pool;
        }
        check_outcome(e, st);
        break;
      }
      case RecOp::kFree: {
        if (e.block != 0) {
          toma_free(pool, block_slot(e.block));
          block_slot(e.block) = nullptr;
        }
        break;
      }
      case RecOp::kMallocAsync: {
        void* p = toma_malloc_async(pool, static_cast<size_t>(e.size),
                                    stream_at(e.stream), &st);
        if (e.block != 0) block_slot(e.block) = p;
        check_outcome(e, st);
        break;
      }
      case RecOp::kFreeAsync: {
        if (e.block != 0) {
          toma_free_async(pool, block_slot(e.block), stream_at(e.stream));
          block_slot(e.block) = nullptr;
        }
        break;
      }
      case RecOp::kSync:
        toma_pool_sync(pool, stream_at(e.stream));
        break;
      case RecOp::kSyncAll:
        toma_pool_sync_all(pool);
        break;
      case RecOp::kTrim:
        toma_trim(pool);
        break;
      case RecOp::kStreamRelease:
        // Recorded by toma_stream_destroy, which emits one event per
        // pool: act on the first sighting, skip the echoes.
        if (e.stream != 0 && e.stream < streams.size() &&
            !stream_dead[e.stream]) {
          toma_stream_destroy(streams[e.stream]);
          stream_dead[e.stream] = true;
        }
        break;
    }
  }

  std::size_t re_recorded = 0;
  if (!opt.record_path.empty()) {
    toma_record_stop();
    re_recorded = toma_record_event_count();
    if (toma_record_dump(opt.record_path.c_str()) != TOMA_OK) {
      std::fprintf(stderr, "failed to write %s\n", opt.record_path.c_str());
      return 2;
    }
  }

  // Cleanup (after any re-recording stopped): free blocks the trace left
  // live, then drain every pool so teardown sees an empty heap.
  std::size_t leftovers = 0;
  for (std::size_t b = 1; b < blocks.size(); ++b) {
    if (blocks[b] != nullptr) {
      toma_free(pools[block_pool[b]], blocks[b]);
      blocks[b] = nullptr;
      ++leftovers;
    }
  }
  for (toma_pool_t pool : pools) {
    toma_pool_sync_all(pool);
    toma_trim(pool);
  }

  if (!opt.quiet && leftovers != 0) {
    std::printf("freed %zu blocks the trace left live\n", leftovers);
  }
  if (!opt.quiet) {
    std::printf("replayed %zu events from %s (%" PRIu64
                " outcome mismatches)%s\n",
                trace.events.size(), opt.in_path.c_str(), mismatches,
                opt.record_path.empty()
                    ? ""
                    : (", re-recorded " + std::to_string(re_recorded) +
                       " -> " + opt.record_path)
                          .c_str());
  }

  for (std::size_t s = 1; s < streams.size(); ++s) {
    if (!stream_dead[s]) toma_stream_destroy(streams[s]);
  }
  for (std::size_t i = 0; i < pools.size(); ++i) {
    if (pool_created[i]) toma_pool_destroy(pools[i]);
  }

  return opt.strict && mismatches != 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------

int export_metrics(const Options& opt) {
  if (!opt.prom_path.empty()) {
    if (toma_metrics_export(opt.prom_path.c_str(), TOMA_METRICS_PROMETHEUS) !=
        TOMA_OK) {
      std::fprintf(stderr, "failed to write %s\n", opt.prom_path.c_str());
      return 2;
    }
    if (!opt.quiet) std::printf("metrics -> %s\n", opt.prom_path.c_str());
  }
  if (!opt.json_path.empty()) {
    if (toma_metrics_export(opt.json_path.c_str(), TOMA_METRICS_JSON) !=
        TOMA_OK) {
      std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
      return 2;
    }
    if (!opt.quiet) std::printf("metrics -> %s\n", opt.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  const int rc = opt.in_path.empty() ? run_synth(opt) : run_replay(opt);
  const int mrc = export_metrics(opt);
  return rc != 0 ? rc : mrc;
}
