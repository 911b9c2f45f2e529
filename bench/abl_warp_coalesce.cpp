// Ablation A5 — transparent warp-coalesced allocation (paper §2.2).
//
// With coalescing, warp-mates allocating the same size class elect a
// leader that performs one bulk-semaphore wait for the whole group, and a
// grow produces one bin that serves every member. Without it, each lane
// pays its own accounting round-trip. Workload: full warps allocating the
// same size simultaneously (the common data-parallel pattern), then
// freeing.
#include <cinttypes>
#include <memory>

#include "alloc/alloc.hpp"
#include "common/harness.hpp"

namespace toma::bench {
namespace {

double run(gpu::Device& dev, const Options& opt, std::uint64_t threads,
           std::size_t size, bool coalesce) {
  auto ga = std::make_unique<alloc::GpuAllocator>(
      alloc::HeapConfig{.pool_bytes = 128u << 20, .num_arenas = dev.num_sms()});
  ga->ualloc().set_coalescing(coalesce);
  const std::uint32_t block = opt.block_sizes.front();
  return time_launch(dev, threads, block,
                     [&ga, threads, size](gpu::ThreadCtx& t) {
                       if (t.global_rank() >= threads) return;
                       void* p = ga->malloc(size);
                       if (p != nullptr) ga->free(p);
                     });
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  gpu::Device dev(opt.device_config());
  std::vector<std::uint64_t> counts =
      opt.quick ? std::vector<std::uint64_t>{4096, 16384}
                : std::vector<std::uint64_t>{4096, 16384, 65536};

  util::Table table("Ablation A5: warp-coalesced malloc on/off (64 B)");
  table.set_header({"threads", "uncoalesced (ops/s)", "coalesced (ops/s)",
                    "coalesce speedup"});
  for (std::uint64_t n : counts) {
    const double toff = run(dev, opt, n, 64, false);
    const double ton = run(dev, opt, n, 64, true);
    const double roff = static_cast<double>(n) / toff;
    const double ron = static_cast<double>(n) / ton;
    table.add(n, roff, ron, ron / roff);
    std::printf("  threads=%" PRIu64 " off=%s/s on=%s/s x%.2f\n", n,
                util::eng_format(roff).c_str(), util::eng_format(ron).c_str(),
                ron / roff);
  }
  finish_table(opt, table);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
