// Ablation A7 — the TBuddy per-order quicklist (not in the paper;
// docs/INTERNALS.md §4c).
//
// Workload: same-order block churn. Every thread keeps a ring of `depth`
// live blocks of one size (4 KB .. 512 KB, i.e. TBuddy orders 0..7) and
// repeatedly frees the oldest slot and allocates a replacement — the
// malloc-follows-free pattern the quicklist turns into a pop/push pair.
// With the quicklist ON a free parks the block (node stays Busy, no merge
// cascade) and the next allocate pops it back without touching the bulk
// semaphore or the tree; OFF is the paper's exact split/merge path.
//
// Protocol: sizes x quicklist {on, off} on the same device and pool
// geometry; report churn ops/s (one op = a free or a malloc), the on/off
// speedup, and the quicklist hit rate. Acceptance:
// >= 2x on same-order churn at >= 4 KB with the quicklist on (see
// EXPERIMENTS.md A7).
#include <atomic>
#include <cinttypes>
#include <memory>

#include "alloc/alloc.hpp"
#include "common/harness.hpp"

namespace toma::bench {
namespace {

constexpr std::uint32_t kDepth = 4;  // live blocks per thread

struct Out {
  double rate;     // churn ops (malloc+free) per second
  double hit_pct;  // quicklist hits / (hits + misses), in percent
};

Out run(gpu::Device& dev, const Options& opt, std::size_t size,
        bool quicklist) {
  // Scale the thread count so the live set stays within a fixed budget —
  // 512 KB blocks cannot have 8192 holders the way 4 KB blocks can.
  const std::uint64_t base = opt.quick ? 2048 : 4096;
  const std::uint64_t budget = 32ull << 20;  // live bytes across threads
  std::uint64_t threads = budget / (kDepth * size);
  if (threads > base) threads = base;
  if (threads < 64) threads = 64;
  const std::uint32_t rounds = opt.full ? 128 : 32;
  // x2 slack over the live set keeps exhaustion (a different ablation's
  // subject) out of the measurement.
  std::size_t pool_bytes =
      util::round_up_pow2(threads * kDepth * size * 2);
  if (pool_bytes < (16u << 20)) pool_bytes = 16u << 20;
  void* pool = std::aligned_alloc(pool_bytes, pool_bytes);
  auto buddy = std::make_unique<alloc::TBuddy>(pool, pool_bytes);
  buddy->set_quicklist(quicklist);

  const alloc::TBuddyStats before = buddy->stats();
  const double secs = time_launch(
      dev, threads, opt.block_sizes.front(),
      [&buddy, threads, size, rounds](gpu::ThreadCtx& t) {
        if (t.global_rank() >= threads) return;
        void* slots[kDepth] = {};
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t i = r % kDepth;
          if (slots[i] != nullptr) buddy->free(slots[i]);
          slots[i] = buddy->allocate_bytes(size);
        }
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          if (slots[i] != nullptr) buddy->free(slots[i]);
        }
      });
  const alloc::TBuddyStats after = buddy->stats();

  const std::uint64_t hits = after.quicklist_hits - before.quicklist_hits;
  const std::uint64_t misses =
      after.quicklist_misses - before.quicklist_misses;
  Out out{static_cast<double>(2ull * rounds * threads) / secs,
          hits + misses == 0
              ? 0.0
              : 100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses)};
  buddy.reset();
  std::free(pool);
  return out;
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  gpu::Device dev(opt.device_config());

  util::Table table("Ablation A7: TBuddy quicklist (same-order churn)");
  table.set_header({"size", "on (ops/s)", "off (ops/s)", "speedup",
                    "ql hit%"});
  for (std::size_t size :
       {std::size_t{4} << 10, std::size_t{32} << 10, std::size_t{128} << 10,
        std::size_t{512} << 10}) {
    const Out on = run(dev, opt, size, true);
    const Out off = run(dev, opt, size, false);
    table.add(util::eng_format(static_cast<double>(size)) + "B", on.rate,
              off.rate, on.rate / off.rate, on.hit_pct);
    std::printf("  size=%zu on=%.3g off=%.3g speedup=%.2fx hit=%.1f%%\n",
                size, on.rate, off.rate, on.rate / off.rate, on.hit_pct);
  }
  finish_table(opt, table);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
