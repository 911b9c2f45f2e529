// Host workloads: three tenants drive their own pools through the toma_*
// C API from one thread.
//
//   poisson  steady churn around a target residency, mixed sync/async
//            malloc and free, an occasional toma_pool_sync
//   kvcache  sequences append small token blocks and grow a context block
//            by doubling toma_realloc; the oldest sequence is evicted
//   bursty   64 async mallocs on one stream, then free_async of all of
//            them and a toma_pool_sync
//
// A round is a fixed number of steps on randomly picked tenants, then a
// toma_pool_sync_all per tenant and, every other round, a toma_trim.
// host_tenants_defrag additionally lays down a fragmentation spike per
// tenant at the start of each round and runs a toma_pool_defrag slice
// every 16 steps, with two-phase relocation hooks that veto pointers the
// tenant does not hold and check every committed move for tearing.
//
// Every call is timed on its own. On traced reps the suite also diffs
// Pool::stats() around each malloc-family call to find the layer that
// served it (the stats reads sit outside the timed interval).
#include <array>
#include <stdexcept>
#include <string>

#include "suite.hpp"
#include "toma/toma.h"
#include "trace.hpp"

namespace suite {
namespace {

using toma::alloc::Pool;

struct HBlock {
  void* p = nullptr;
  std::size_t size = 0;
};

struct Seq {
  HBlock kv;
  std::vector<HBlock> toks;
};

enum class Shape : std::uint8_t { kPoisson, kKvcache, kBursty };

struct Tenant {
  std::string name;
  Shape shape = Shape::kPoisson;
  toma_pool_t pool = nullptr;
  Pool* cpp = nullptr;
  std::vector<toma_stream_t> streams;  // [0] = the default stream
  std::uint64_t tag_key = 0;
  std::uint32_t next_owner = 0;
  std::size_t quota = 0;
  std::size_t peak_live = 0;

  std::vector<HBlock> live;   // poisson
  std::vector<HBlock> burst;  // bursty
  std::vector<Seq> seqs;      // kvcache
  std::vector<HBlock> spike;  // defrag bait kept until the next round

  // Two-phase relocation: the move between prepare and commit.
  HBlock* reloc_ref = nullptr;
  void* reloc_old = nullptr;
  std::uint64_t commits = 0, vetoes = 0, torn = 0;
};

HBlock* find_ref(Tenant& t, void* p) {
  for (HBlock& b : t.spike) {
    if (b.p == p) return &b;
  }
  for (HBlock& b : t.live) {
    if (b.p == p) return &b;
  }
  for (HBlock& b : t.burst) {
    if (b.p == p) return &b;
  }
  for (Seq& s : t.seqs) {
    if (s.kv.p == p) return &s.kv;
    for (HBlock& b : s.toks) {
      if (b.p == p) return &b;
    }
  }
  return nullptr;
}

// Hooks run inside library calls and must not call back into it. A block
// the tenant has already handed to toma_free/toma_free_async is no longer
// in its containers, so its prepare vetoes: the forwarding table owns it.
int reloc_prepare(void* old_ptr, void* new_ptr, size_t size, void* user) {
  (void)new_ptr;
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != nullptr) {  // the previous move was never resolved
    ++t.torn;
    return 0;
  }
  HBlock* ref = find_ref(t, old_ptr);
  if (ref == nullptr || size < ref->size) {
    ++t.vetoes;
    return 0;
  }
  t.reloc_ref = ref;
  t.reloc_old = old_ptr;
  return 1;
}

void reloc_commit(void* old_ptr, void* new_ptr, size_t size, void* user) {
  (void)size;
  Tenant& t = *static_cast<Tenant*>(user);
  const bool matched = t.reloc_old == old_ptr && t.reloc_ref != nullptr;
  if (matched) t.reloc_ref->p = new_ptr;
  if (!matched || check_block(new_ptr, t.reloc_ref->size, t.tag_key) == 0) {
    ++t.torn;
  } else {
    ++t.commits;
  }
  t.reloc_ref = nullptr;
  t.reloc_old = nullptr;
}

void reloc_abort(void* old_ptr, void* user) {
  Tenant& t = *static_cast<Tenant*>(user);
  if (t.reloc_old != old_ptr) ++t.torn;
  t.reloc_ref = nullptr;
  t.reloc_old = nullptr;
}

/// 90% of requests hit a handful of hot sizes, 10% spread uniformly.
std::size_t pick_size(Rng& rng) {
  static constexpr std::size_t kHot[] = {96,   256,  512,   1024,
                                         2048, 4096, 16384, 32768};
  if (rng.chance(90)) return kHot[rng.below(8)];
  return 8 + rng.below(65536 - 8);
}

class HostTenants final : public Workload {
 public:
  HostTenants(const RunConfig& rc, bool defrag, std::uint32_t rounds,
              std::uint32_t steps_per_round)
      : rc_(rc),
        defrag_(defrag),
        rounds_(rc.smoke ? std::max<std::uint32_t>(rounds / 16, 2) : rounds),
        steps_(steps_per_round) {}

  std::uint32_t workers() const override { return 0; }

  void setup(Measure& m) override {
    static constexpr Shape kShapes[] = {Shape::kPoisson, Shape::kKvcache,
                                        Shape::kBursty};
    const char* prefix = defrag_ ? "suite.defrag." : "suite.host.";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      t = Tenant{};
      t.name = prefix + std::to_string(i);
      t.shape = kShapes[i];
      t.tag_key = stream_key(rc_.seed, kTagStream + i);
      toma_pool_config_t cfg = toma_pool_config_default();
      cfg.pool_bytes = std::size_t{16} << 20;
      cfg.heapsan = 0;
      if (defrag_) {
        cfg.vmm = 1;
        cfg.release_threshold = 0;
        cfg.defrag_mode = 2;
      }
      const toma_status_t st = toma_pool_create(t.name.c_str(), &cfg, &t.pool);
      if (st != TOMA_OK) {
        throw std::runtime_error("toma_pool_create(" + t.name +
                                 "): " + toma_status_str(st));
      }
      t.cpp = &pool_named(t.name);
      t.streams = {nullptr, toma_stream_create(), toma_stream_create()};
      if (defrag_) {
        const toma_relocation_hooks_t hooks = {reloc_prepare, reloc_commit,
                                               reloc_abort, &t};
        if (toma_pool_set_relocation_hooks(t.pool, &hooks) != TOMA_OK) {
          throw std::runtime_error("toma_pool_set_relocation_hooks failed");
        }
      }
    }
    // Warm-up: a quarter of a rep into a scratch record. Tenant 0's quota
    // is then fixed at twice the peak live bytes it reached, so admission
    // runs on every malloc but never rejects.
    Measure scratch;
    run(scratch, nullptr, std::max<std::uint32_t>(rounds_ / 4, 1),
        rep_key(rc_.seed, kWarmupStream, 0));
    m.absorb_violations(scratch);
    Tenant& t0 = tenants_[0];
    t0.quota = 2 * t0.peak_live;
    toma_pool_set_quota(t0.pool, t0.quota);
  }

  void teardown() override {
    for (Tenant& t : tenants_) {
      for (toma_stream_t s : t.streams) {
        if (s != nullptr) toma_stream_destroy(s);
      }
      if (t.pool != nullptr) toma_pool_destroy(t.pool);
      t.pool = nullptr;
      t.streams.clear();
    }
  }

  double rep(Measure& m, Tracer* tr) override {
    Counters before, after;
    std::uint64_t commits = 0, vetoes = 0;
    for (const Tenant& t : tenants_) {
      before += counters_of(t.cpp->stats());
      commits += t.commits;
      vetoes += t.vetoes;
    }
    // Each rep ends drained and trimmed, so with its own inputs what it
    // maps is an independent draw.
    const double wall =
        run(m, tr, rounds_, rep_key(rc_.seed, kRepStream, reps_++));
    for (const Tenant& t : tenants_) {
      after += counters_of(t.cpp->stats());
      m.reloc_commits += t.commits;
      m.reloc_vetoes += t.vetoes;
    }
    m.layer += after - before;
    m.reloc_commits -= commits;
    m.reloc_vetoes -= vetoes;
    return wall;
  }

 private:
  /// `rounds` rounds plus the drain that empties every pool; returns the
  /// wall seconds of all of it. The correctness checks run after.
  double run(Measure& m, Tracer* tr, std::uint32_t rounds, std::uint64_t key) {
    m_ = &m;
    tr_ = tr;
    Rng rng(key);
    const std::int64_t t0 = now_ns();
    for (std::uint32_t r = 0; r < rounds; ++r) round(rng, r);
    for (Tenant& t : tenants_) drain(t);
    const std::int64_t t1 = now_ns();
    for (Tenant& t : tenants_) check_quiescent(t);
    m_ = nullptr;
    tr_ = nullptr;
    return static_cast<double>(t1 - t0) / 1e9;
  }

  void round(Rng& rng, std::uint32_t index) {
    if (tr_ != nullptr) tr_->open(Span::kRound, index, now_ns());
    if (defrag_) {
      for (Tenant& t : tenants_) spike(t, rng);
    }
    for (std::uint32_t i = 0; i < steps_; ++i) {
      Tenant& t = tenants_[rng.below(3)];
      ++req_;
      switch (t.shape) {
        case Shape::kPoisson:
          poisson_step(t, rng);
          break;
        case Shape::kKvcache:
          kvcache_step(t, rng);
          break;
        case Shape::kBursty:
          bursty_step(t, rng);
          break;
      }
      if (defrag_ && i % 16 == 0) defrag_call(t);
    }
    double mapped = 0, live = 0;
    for (Tenant& t : tenants_) mapped += mapped_bytes(t);
    m_->note_mapped(mapped, 0);  // the pre-sync peak
    ++req_;
    for (Tenant& t : tenants_) {
      sync_all_call(t);
      if (index % 2 == 1) trim_call(t);
    }
    mapped = 0;
    for (Tenant& t : tenants_) {
      mapped += mapped_bytes(t);
      live += static_cast<double>(toma_pool_bytes_in_use(t.pool));
    }
    m_->note_mapped(mapped, live);
    if (tr_ != nullptr) tr_->close(now_ns());
  }

  // --- traffic shapes --------------------------------------------------------

  toma_stream_t pick_stream(Tenant& t, Rng& rng) {
    return t.streams[rng.below(static_cast<std::uint32_t>(t.streams.size()))];
  }

  void poisson_step(Tenant& t, Rng& rng) {
    constexpr std::size_t kTargetLive = 192;
    const bool alloc = t.live.size() < kTargetLive ? rng.chance(60)
                                                   : rng.chance(40);
    if (alloc || t.live.empty()) {
      const std::size_t size = pick_size(rng);
      const bool async = rng.chance(50);
      const HBlock b =
          async ? malloc_call(t, size, pick_stream(t, rng), true)
                : malloc_call(t, size, nullptr, false);
      if (b.p != nullptr) t.live.push_back(b);
    } else {
      const std::uint32_t i =
          rng.below(static_cast<std::uint32_t>(t.live.size()));
      const HBlock b = t.live[i];
      t.live[i] = t.live.back();
      t.live.pop_back();
      if (rng.chance(50)) {
        free_call(t, b, nullptr, false);
      } else {
        free_call(t, b, pick_stream(t, rng), true);
      }
    }
    if (rng.chance(1)) sync_call(t, pick_stream(t, rng));
  }

  void bursty_step(Tenant& t, Rng& rng) {
    constexpr std::size_t kBurst = 64;
    toma_stream_t s = t.streams.back();
    if (t.burst.size() < kBurst) {
      const HBlock b = malloc_call(t, pick_size(rng), s, true);
      if (b.p != nullptr) t.burst.push_back(b);
      return;
    }
    // Out of the tenant's containers before the hand-off: from then on a
    // relocation prepare must not find the block.
    std::vector<HBlock> batch;
    batch.swap(t.burst);
    for (const HBlock& b : batch) free_call(t, b, s, true);
    sync_call(t, s);
  }

  void kvcache_step(Tenant& t, Rng& rng) {
    constexpr std::size_t kMaxSeqs = 12;
    constexpr std::size_t kMaxToks = 48;
    if (t.seqs.empty() || (t.seqs.size() < kMaxSeqs && rng.chance(8))) {
      const HBlock kv = malloc_call(t, 2048, nullptr, false);
      if (kv.p != nullptr) t.seqs.push_back(Seq{kv, {}});
      return;
    }
    Seq& s = t.seqs[rng.below(static_cast<std::uint32_t>(t.seqs.size()))];
    if (s.toks.size() >= kMaxToks || t.seqs.size() >= kMaxSeqs) {
      Seq victim = std::move(t.seqs.front());
      t.seqs.erase(t.seqs.begin());
      for (const HBlock& b : victim.toks) free_call(t, b, nullptr, false);
      if (victim.kv.p != nullptr) free_call(t, victim.kv, nullptr, false);
      return;
    }
    const HBlock tok = malloc_call(t, 64 + rng.below(960), nullptr, false);
    if (tok.p != nullptr) s.toks.push_back(tok);
    if (s.toks.size() % 16 == 0 && s.kv.p != nullptr) {
      realloc_call(t, s.kv, s.kv.size * 2);
    }
  }

  /// Defrag bait: 2048 blocks of 256 B of which 15/16 are freed at once;
  /// the survivors pin their chunks sparse until the next round frees
  /// them, wherever compaction has moved them by then.
  void spike(Tenant& t, Rng& rng) {
    constexpr std::size_t kBlocks = 2048;
    constexpr std::size_t kSize = 256;
    std::vector<HBlock> old;
    old.swap(t.spike);
    for (const HBlock& b : old) free_call(t, b, nullptr, false);
    std::vector<HBlock> laid;
    laid.reserve(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      const HBlock b = malloc_call(t, kSize, nullptr, false);
      if (b.p != nullptr) laid.push_back(b);
    }
    for (std::size_t i = 0; i < laid.size(); ++i) {
      if (i % 16 == rng.below(16)) {
        t.spike.push_back(laid[i]);
      } else {
        free_call(t, laid[i], nullptr, false);
      }
    }
  }

  /// Free every block the tenant holds, drain its streams, and trim.
  void drain(Tenant& t) {
    std::vector<HBlock> all;
    all.swap(t.live);
    all.insert(all.end(), t.burst.begin(), t.burst.end());
    all.insert(all.end(), t.spike.begin(), t.spike.end());
    t.burst.clear();
    t.spike.clear();
    std::vector<Seq> seqs;
    seqs.swap(t.seqs);
    for (Seq& s : seqs) {
      all.insert(all.end(), s.toks.begin(), s.toks.end());
      if (s.kv.p != nullptr) all.push_back(s.kv);
    }
    for (const HBlock& b : all) free_call(t, b, nullptr, false);
    sync_all_call(t);
    trim_call(t);
  }

  void check_quiescent(Tenant& t) {
    const std::size_t used = toma_pool_bytes_in_use(t.pool);
    if (used != 0) {
      m_->violation(t.name + ": bytes_in_use " + std::to_string(used) +
                    " after drain");
    }
    if (!t.cpp->check_consistency()) {
      m_->violation(t.name + ": check_consistency failed");
    }
    if (t.reloc_old != nullptr) {
      m_->violation(t.name + ": relocation left open (prepare without "
                             "commit or abort)");
    }
    if (t.torn != 0) {
      m_->violation(t.name + ": " + std::to_string(t.torn) +
                    " torn relocations");
      t.torn = 0;
    }
  }

  // --- timed calls -----------------------------------------------------------

  double mapped_bytes(const Tenant& t) const {
    return static_cast<double>(t.cpp->allocator().mapped_bytes());
  }

  /// Bookkeeping after a malloc-family call: latency, outcome, quota,
  /// span, and (traced) the layer that served it.
  void after_malloc(Tenant& t, Span span, std::int64_t t0, std::int64_t t1,
                    toma_status_t st, bool ok, const Counters& before) {
    m_->malloc_ns.push_back(clamp_ns(t1 - t0));
    ++m_->rep_ops;
    ++m_->attempted;
    if (st == TOMA_ERR_OOM || st == TOMA_ERR_QUOTA) ++m_->failed;
    const std::size_t used = toma_pool_bytes_in_use(t.pool);
    if (t.quota != 0 && used > t.quota) {
      m_->violation(t.name + ": bytes_in_use " + std::to_string(used) +
                    " exceeds quota " + std::to_string(t.quota));
    }
    t.peak_live = std::max(t.peak_live, used);
    if (tr_ == nullptr) return;
    tr_->leaf(span, req_, t0, t1);
    if (!ok) return;
    const std::size_t layer =
        served_layer(counters_of(t.cpp->stats()) - before);
    if (layer < kServedLayers) {
      m_->served_ns[layer].push_back(clamp_ns(t1 - t0));
    } else {
      ++m_->served_unmatched;
    }
  }

  HBlock malloc_call(Tenant& t, std::size_t size, toma_stream_t s,
                     bool async) {
    const Counters before =
        tr_ != nullptr ? counters_of(t.cpp->stats()) : Counters{};
    toma_status_t st = TOMA_OK;
    const std::int64_t t0 = now_ns();
    void* p = async ? toma_malloc_async(t.pool, size, s, &st)
                    : toma_malloc(t.pool, size, &st);
    const std::int64_t t1 = now_ns();
    after_malloc(t, async ? Span::kMallocAsync : Span::kMalloc, t0, t1, st,
                 p != nullptr, before);
    if (p == nullptr) return {};
    tag_block(p, size, t.next_owner++, t.tag_key);
    return HBlock{p, size};
  }

  void realloc_call(Tenant& t, HBlock& b, std::size_t size) {
    if (check_block(b.p, b.size, t.tag_key) == 0) {
      m_->violation(t.name + ": block torn before realloc");
    }
    const Counters before =
        tr_ != nullptr ? counters_of(t.cpp->stats()) : Counters{};
    toma_status_t st = TOMA_OK;
    const std::int64_t t0 = now_ns();
    void* q = toma_realloc(t.pool, b.p, size, &st);
    const std::int64_t t1 = now_ns();
    after_malloc(t, Span::kRealloc, t0, t1, st, q != nullptr, before);
    if (q == nullptr) return;
    // The old bytes must have come along, tail tag included.
    if (check_block(q, b.size, t.tag_key) == 0) {
      m_->violation(t.name + ": realloc lost the block's contents");
    }
    b = HBlock{q, size};
    tag_block(q, size, t.next_owner++, t.tag_key);
  }

  void free_call(Tenant& t, const HBlock& b, toma_stream_t s, bool async) {
    if (check_block(b.p, b.size, t.tag_key) == 0) {
      m_->violation(t.name + ": block failed its tag check at free");
    }
    const std::int64_t t0 = now_ns();
    if (async) {
      toma_free_async(t.pool, b.p, s);
    } else {
      toma_free(t.pool, b.p);
    }
    const std::int64_t t1 = now_ns();
    m_->free_ns.push_back(clamp_ns(t1 - t0));
    ++m_->rep_ops;
    if (tr_ != nullptr) {
      tr_->leaf(async ? Span::kFreeAsync : Span::kFree, req_, t0, t1);
    }
  }

  /// A maintenance call (sync, trim, defrag): timed into `into`, not an op.
  template <typename F>
  void maintenance(Span span, std::vector<std::uint32_t>& into, F&& call) {
    const std::int64_t t0 = now_ns();
    call();
    const std::int64_t t1 = now_ns();
    into.push_back(clamp_ns(t1 - t0));
    if (tr_ != nullptr) tr_->leaf(span, req_, t0, t1);
  }

  void sync_call(Tenant& t, toma_stream_t s) {
    maintenance(Span::kPoolSync, m_->sync_ns,
                [&] { toma_pool_sync(t.pool, s); });
  }
  void sync_all_call(Tenant& t) {
    maintenance(Span::kPoolSyncAll, m_->sync_ns,
                [&] { toma_pool_sync_all(t.pool); });
  }
  void trim_call(Tenant& t) {
    maintenance(Span::kTrim, m_->trim_ns, [&] { toma_trim(t.pool); });
  }
  void defrag_call(Tenant& t) {
    maintenance(Span::kDefrag, m_->defrag_ns,
                [&] { toma_pool_defrag(t.pool, 0, nullptr); });
  }

  RunConfig rc_;
  bool defrag_;
  std::uint32_t rounds_;
  std::uint32_t steps_;
  std::uint32_t reps_ = 0;  // reps run so far, the untimed warm-up included
  // Hooks hold each Tenant's address: a fixed array never moves them.
  std::array<Tenant, 3> tenants_;
  Measure* m_ = nullptr;
  Tracer* tr_ = nullptr;
  std::uint64_t req_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_host_tenants(const RunConfig& rc,
                                            bool defrag) {
  // Frozen op counts (README.md): about two seconds per rep.
  return defrag ? std::make_unique<HostTenants>(rc, true, 45, 20000)
                : std::make_unique<HostTenants>(rc, false, 130, 20000);
}

}  // namespace suite
