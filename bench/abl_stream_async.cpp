// Ablation A9 — the stream-ordered async front-end and pool quota
// isolation (not in the paper; docs/INTERNALS.md §6, docs/API.md).
//
// Part 1, batching: small-block churn (16..512 B) where every thread
// keeps a ring of live blocks and replaces the oldest each round. The
// sync arm frees through pool.free (the paper's path, possibly fronted
// by the magazines); the async arm parks frees with free_async on a
// per-SM stream and lets malloc_async reuse them in stream order, with
// the residue draining in one batch at the final stream sync — the
// drain clusters the RCU conditional barriers of bin unlink/retire so
// delegation collapses them into ~one grace period per batch (visible
// in the pool.stream.drain_batch histogram with --metrics). Run with
// the magazine/quicklist fast paths both ON (production default: the
// async arm must still win or tie) and OFF (the paper-faithful
// configuration, where every deferred free would otherwise pay the bin
// machinery — the batching headroom shows undiluted).
//
// Part 2, isolation: pool A pinned at its byte quota while a grid
// hammers it with doomed allocations; pool B churns normally on the
// same device. Acceptance (EXPERIMENTS.md A9): async >= sync on churn
// with fast paths OFF, and B's throughput within 10% of its solo run
// while A rejects with the quota status.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <vector>

#include "alloc/alloc.hpp"
#include "common/harness.hpp"

namespace toma::bench {
namespace {

constexpr std::uint32_t kDepth = 8;  // live blocks per thread

struct Out {
  double rate;       // churn ops (malloc+free) per second
  double reuse_pct;  // stream reuse hits / (hits+misses), percent
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

alloc::HeapConfig churn_cfg(bool fastpaths) {
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 64u << 20;
  cfg.num_arenas = 8;
  // The magazines also re-route 8..64 B async frees around the pending
  // list entirely; the OFF arm is the paper's exact front-end.
  cfg.magazines = fastpaths;
  cfg.quicklist = fastpaths;
  return cfg;
}

Out run_churn(gpu::Device& dev, const Options& opt, std::size_t size,
              bool fastpaths, bool async) {
  alloc::Pool pool(async ? "a9-async" : "a9-sync", churn_cfg(fastpaths));
  const std::uint64_t threads = opt.quick ? 2048 : 8192;
  const std::uint32_t rounds = opt.full ? 64 : 16;
  std::vector<gpu::Stream> streams(opt.num_sms);

  warm_device(dev, threads, opt.block_sizes.front());
  const auto t0 = std::chrono::steady_clock::now();
  dev.launch_linear(
      threads, opt.block_sizes.front(), [&](gpu::ThreadCtx& t) {
        gpu::Stream& s = streams[t.sm_id() % streams.size()];
        void* slots[kDepth] = {};
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t i = r % kDepth;
          if (slots[i] != nullptr) {
            if (async) {
              pool.free_async(slots[i], s);
            } else {
              pool.free(slots[i]);
            }
          }
          slots[i] = async ? pool.malloc_async(size, s) : pool.malloc(size);
        }
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          if (slots[i] == nullptr) continue;
          if (async) {
            pool.free_async(slots[i], s);
          } else {
            pool.free(slots[i]);
          }
        }
      });
  // The batch drain is part of the async arm's cost: time it too.
  for (auto& s : streams) pool.sync(s);
  const double secs = seconds_since(t0);

  const alloc::StreamFrontEndStats st = pool.stats().stream;
  const std::uint64_t lookups = st.reuse_hits + st.reuse_misses;
  return Out{static_cast<double>(2ull * (rounds + kDepth) * threads) / secs,
             lookups == 0 ? 0.0
                          : 100.0 * static_cast<double>(st.reuse_hits) /
                                static_cast<double>(lookups)};
}

/// Ops/s of a grid half churning pool B while the other half occupies
/// pool A. Both arms schedule the same thread count — the fiber
/// simulator drives every SM from a shared worker pool, so the control
/// must be "B next to a well-behaved tenant on A" (A unpinned, normal
/// churn), not "B alone" (which would measure CPU sharing, not
/// allocator interference). The measured arm pins A at its quota first,
/// so A's half thrashes the quota-rejection path the whole launch.
double run_isolation(gpu::Device& dev, const Options& opt,
                     bool pin_a_at_quota,
                     std::uint64_t* quota_rejects_out) {
  alloc::HeapConfig cfg_a = churn_cfg(true);
  cfg_a.pool_bytes = 16u << 20;
  cfg_a.quota_bytes = 256u << 10;
  alloc::Pool pool_a("a9-tenant-a", cfg_a);
  alloc::Pool pool_b("a9-tenant-b", churn_cfg(true));

  std::vector<void*> pin;
  if (pin_a_at_quota) {
    for (;;) {
      void* p = pool_a.malloc(1024);
      if (p == nullptr) break;
      pin.push_back(p);
    }
  }

  const std::uint64_t b_threads = opt.quick ? 2048 : 4096;
  const std::uint64_t total = 2 * b_threads;
  const std::uint32_t rounds = opt.full ? 64 : 16;
  std::atomic<std::uint64_t> rejects{0};

  warm_device(dev, total, opt.block_sizes.front());
  const auto t0 = std::chrono::steady_clock::now();
  dev.launch_linear(total, opt.block_sizes.front(), [&](gpu::ThreadCtx& t) {
    if (t.global_rank() < b_threads) {
      void* slots[kDepth] = {};
      for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint32_t i = r % kDepth;
        if (slots[i] != nullptr) pool_b.free(slots[i]);
        slots[i] = pool_b.malloc(256);
      }
      for (std::uint32_t i = 0; i < kDepth; ++i) {
        if (slots[i] != nullptr) pool_b.free(slots[i]);
      }
    } else {
      // Tenant A: ring churn like B's when the quota admits; at quota
      // every attempt takes the rejection path instead.
      void* slots[kDepth] = {};
      std::uint64_t mine = 0;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint32_t i = r % kDepth;
        if (slots[i] != nullptr) pool_a.free(slots[i]);
        alloc::AllocStatus st;
        slots[i] = pool_a.malloc(1024, &st);
        if (slots[i] == nullptr && st == alloc::AllocStatus::kQuota) ++mine;
      }
      for (std::uint32_t i = 0; i < kDepth; ++i) {
        if (slots[i] != nullptr) pool_a.free(slots[i]);
      }
      rejects.fetch_add(mine, std::memory_order_relaxed);
    }
  });
  const double secs = seconds_since(t0);

  for (void* p : pin) pool_a.free(p);
  if (quota_rejects_out != nullptr) *quota_rejects_out = rejects.load();
  return static_cast<double>(2ull * (rounds + kDepth) * b_threads) / secs;
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  gpu::Device dev(opt.device_config());

  util::Table churn(
      "Ablation A9a: stream-ordered async vs sync free (small-block churn)");
  churn.set_header({"size", "fastpaths", "sync (ops/s)", "async (ops/s)",
                    "speedup", "reuse hit%"});
  for (bool fastpaths : {true, false}) {
    for (std::size_t size : {std::size_t{16}, std::size_t{64},
                             std::size_t{256}, std::size_t{512}}) {
      const Out sync_arm = run_churn(dev, opt, size, fastpaths, false);
      const Out async_arm = run_churn(dev, opt, size, fastpaths, true);
      churn.add(util::eng_format(static_cast<double>(size)) + "B",
                fastpaths ? "on" : "off", sync_arm.rate, async_arm.rate,
                async_arm.rate / sync_arm.rate, async_arm.reuse_pct);
      std::printf(
          "  size=%zu fastpaths=%s sync=%.3g async=%.3g speedup=%.2fx "
          "reuse=%.1f%%\n",
          size, fastpaths ? "on" : "off", sync_arm.rate, async_arm.rate,
          async_arm.rate / sync_arm.rate, async_arm.reuse_pct);
    }
  }
  finish_table(opt, churn);

  std::uint64_t rejects = 0;
  const double baseline = run_isolation(dev, opt, false, nullptr);
  const double at_quota = run_isolation(dev, opt, true, &rejects);
  util::Table iso("Ablation A9b: quota isolation (B churns while A rejects)");
  iso.set_header({"B baseline (ops/s)", "B vs quota-thrash (ops/s)",
                  "retained", "A quota rejects"});
  iso.add(baseline, at_quota, at_quota / baseline,
          static_cast<double>(rejects));
  iso.print();
  std::printf(
      "  baseline=%.3g at_quota=%.3g retained=%.2f rejects=%" PRIu64
      " (acceptance: retained >= 0.9, rejects > 0)\n",
      baseline, at_quota, at_quota / baseline, rejects);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
