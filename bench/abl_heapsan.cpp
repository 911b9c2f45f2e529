// Ablation A8 — HeapSan overhead (docs/INTERNALS.md §5, EXPERIMENTS.md A8).
//
// Workload: ring churn through the full GpuAllocator facade, at a small
// (UAlloc), a large (TBuddy) and a mixed size profile. Each thread keeps
// `depth` live blocks and repeatedly frees the oldest and allocates a
// replacement, touching the first and last payload byte (so redzone
// placement is in the measured path). ON adds redzone paint+verify,
// poison fills, the shadow-table round trip, and quarantine recycling;
// OFF is the production configuration.
//
// Protocol: identical device, pool geometry and thread schedule, heapsan
// on vs off; report churn ops/s, the off/on slowdown, and the quarantine
// eviction count. Acceptance: sanitizer overhead is reported, not bounded
// — this is a diagnostic build knob, not a production path (A8).
#include <atomic>
#include <cinttypes>
#include <cstring>
#include <memory>

#include "alloc/alloc.hpp"
#include "common/harness.hpp"

namespace toma::bench {
namespace {

constexpr std::uint32_t kDepth = 8;

struct Profile {
  const char* name;
  std::size_t sizes[4];  // cycled per round
};

struct Out {
  double rate;            // churn ops (malloc+free) per second
  std::uint64_t evicted;  // quarantine evictions (ON only; 0 when OFF)
};

Out run(gpu::Device& dev, const Options& opt, const Profile& prof,
        bool sanitize) {
  const std::uint64_t threads = opt.quick ? 2048 : 8192;
  const std::uint32_t rounds = opt.full ? 128 : 32;
  std::size_t max_size = 0;
  for (std::size_t s : prof.sizes) max_size = std::max(max_size, s);
  // Live set at worst all-max-size, doubled for redzone/order growth and
  // again for slack: exhaustion is a different ablation's subject.
  std::size_t pool_bytes =
      util::round_up_pow2(threads * kDepth * max_size * 4);
  if (pool_bytes < (64u << 20)) pool_bytes = 64u << 20;
  auto ga = std::make_unique<alloc::GpuAllocator>(
      alloc::HeapConfig{.pool_bytes = pool_bytes, .num_arenas = opt.num_sms});
  ga->set_heapsan(sanitize);

  const double secs = time_launch(
      dev, threads, opt.block_sizes.front(),
      [&ga, &prof, threads, rounds](gpu::ThreadCtx& t) {
        if (t.global_rank() >= threads) return;
        void* slots[kDepth] = {};
        for (std::uint32_t r = 0; r < rounds; ++r) {
          const std::uint32_t i = r % kDepth;
          if (slots[i] != nullptr) ga->free(slots[i]);
          const std::size_t size = prof.sizes[(r + t.global_rank()) % 4];
          auto* p = static_cast<unsigned char*>(ga->malloc(size));
          if (p != nullptr) {  // touch both payload edges
            p[0] = 0x42;
            p[size - 1] = 0x24;
          }
          slots[i] = p;
        }
        for (std::uint32_t i = 0; i < kDepth; ++i) {
          if (slots[i] != nullptr) ga->free(slots[i]);
        }
      });

  const auto st = ga->stats();
  return Out{static_cast<double>(2ull * rounds * threads) / secs,
             st.heapsan.quarantine_evictions};
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  gpu::Device dev(opt.device_config());

  const Profile profiles[] = {
      {"small", {16, 64, 96, 256}},
      {"large", {4096, 8192, 4096, 8192}},
      {"mixed", {64, 8192, 256, 1024}},
  };

  util::Table table("Ablation A8: HeapSan overhead (churn)");
  table.set_header(
      {"profile", "off (ops/s)", "on (ops/s)", "slowdown", "evictions"});
  for (const Profile& prof : profiles) {
    const Out off = run(dev, opt, prof, false);
    const Out on = run(dev, opt, prof, true);
    table.add(prof.name, off.rate, on.rate, off.rate / on.rate, on.evicted);
    std::printf("  profile=%s off=%.3g on=%.3g slowdown=%.2fx "
                "evictions=%" PRIu64 "\n",
                prof.name, off.rate, on.rate, off.rate / on.rate, on.evicted);
  }
  finish_table(opt, table);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
