// Ablation A11 — elastic backing defragmentation on/off under an
// adversarial fragmentation workload (docs/INTERNALS.md §8,
// EXPERIMENTS.md A11; after Bell et al., PAPERS.md).
//
// Workload: interleaved-tenant churn that manufactures sparse bins. Each
// round a batch of mixed-size blocks (64 B / 256 B / 1 kB) is allocated
// back-to-back, then 15 of every 16 are freed — the survivors are pinned
// long-lived "tenant" state scattered one or two to a bin across every
// chunk the batch touched. The round ends at a sync point, where an
// elastic pool trims and (when enabled) runs the defrag pass. Round over
// round the survivors accumulate, so without compaction the mapped
// footprint ratchets to the sum of every round's peak while the live
// bytes stay a fraction of it.
//
// Protocol: identical geometry and allocation sequence, defrag off vs on
// (both with vmm growth, shrink, and release_threshold=0 — the OFF arm
// is "shrink alone", so the measured gap is compaction, not trimming).
// The ON arm runs DefragMode::kSync with a commit-only relocation hook
// that rekeys the survivor table, exactly as a host application
// tolerating relocation would. Report live bytes, mapped bytes,
// live/mapped occupancy (1.0 = perfectly dense), and bytes moved.
// Acceptance: defrag ON holds live/mapped >= 2x better than OFF at the
// final round.
#include <cinttypes>
#include <unordered_map>
#include <vector>

#include "alloc/pool.hpp"
#include "common/harness.hpp"
#include "gpusim/stream.hpp"
#include "util/prng.hpp"

namespace toma::bench {
namespace {

constexpr std::size_t kSizes[] = {64, 256, 1024};

struct Out {
  double live_mb;
  double mapped_mb;
  double occupancy;  // live / mapped, 1.0 = perfectly dense
  std::uint64_t moved_bytes;
  double peak_mapped_mb;
};

Out run(const Options& opt, bool defrag_on) {
  const int rounds = opt.full ? 12 : (opt.quick ? 4 : 8);
  const int batch = opt.quick ? 8192 : 16384;
  alloc::HeapConfig cfg;
  cfg.pool_bytes = 256u << 20;  // VA reservation; mapping grows on demand
  cfg.num_arenas = 1;
  // Finer granules than the pool/64 auto-chunk: compaction can only
  // round the footprint to whole chunks, and the interesting signal is
  // how closely mapped tracks live.
  cfg.chunk_bytes = 1u << 20;
  cfg.defrag_mode =
      defrag_on ? alloc::DefragMode::kSync : alloc::DefragMode::kOff;
  cfg.release_threshold = 0;  // trim (and defrag, when on) at every sync
  alloc::Pool pool(defrag_on ? "frag-on" : "frag-off", cfg);
  gpu::Stream stream;

  // Survivors keyed by *current* address: defrag moves blocks, and the
  // commit hook rekeys — the contract a relocation-tolerant tenant
  // runtime implements. No prepare: the quiescent driver admits every
  // move.
  std::unordered_map<void*, std::uint32_t> live;
  pool.set_relocation_hooks(alloc::RelocationHooks{
      .commit = [&live](void* from, void* to, std::size_t) {
        const auto it = live.find(from);
        if (it == live.end()) return;  // short-lived block mid-batch
        const std::uint32_t id = it->second;
        live.erase(it);
        live.emplace(to, id);
      }});

  util::Xorshift rng(0x5eed);
  std::uint32_t next_id = 0;
  std::size_t peak_mapped = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<void*> round_blocks;
    round_blocks.reserve(batch);
    for (int i = 0; i < batch; ++i) {
      void* p = pool.malloc(kSizes[i % 3]);
      if (p != nullptr) round_blocks.push_back(p);
    }
    for (std::size_t i = 0; i < round_blocks.size(); ++i) {
      if (i % 16 == rng.next_below(16)) {
        live.emplace(round_blocks[i], next_id++);
      } else {
        pool.free(round_blocks[i]);
      }
    }
    const std::size_t mapped = pool.stats().alloc.mapped_bytes;
    if (mapped > peak_mapped) peak_mapped = mapped;
    pool.sync(stream);  // trim + shrink (+ defrag when enabled)
  }

  const alloc::PoolStats st = pool.stats();
  const double live_b = static_cast<double>(st.bytes_in_use);
  const double mapped_b = static_cast<double>(st.alloc.mapped_bytes);
  std::printf("  [%s] passes=%" PRIu64 " moved=%" PRIu64 "B grows=%" PRIu64
              " shrinks=%" PRIu64 "\n",
              defrag_on ? "on" : "off", st.alloc.defrag_passes,
              st.alloc.defrag_moved_bytes, st.alloc.vmm.grows,
              st.alloc.vmm.shrinks);
  const Out out{live_b / (1 << 20), mapped_b / (1 << 20),
                mapped_b == 0 ? 0.0 : live_b / mapped_b,
                st.alloc.defrag_moved_bytes,
                static_cast<double>(peak_mapped) / (1 << 20)};
  std::vector<void*> drain;
  drain.reserve(live.size());
  for (const auto& [p, id] : live) drain.push_back(p);
  for (void* p : drain) pool.free(p);
  pool.sync(stream);
  return out;
}

int main_impl(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  util::Table table(
      "Ablation A11: elastic backing defrag on/off (fragmentation)");
  table.set_header({"defrag", "live (MB)", "mapped (MB)", "live/mapped",
                    "moved (B)", "peak mapped (MB)"});
  const Out off = run(opt, false);
  const Out on = run(opt, true);
  table.add("off", off.live_mb, off.mapped_mb, off.occupancy,
            off.moved_bytes, off.peak_mapped_mb);
  table.add("on", on.live_mb, on.mapped_mb, on.occupancy, on.moved_bytes,
            on.peak_mapped_mb);
  const double gap = off.occupancy == 0 ? 0.0 : on.occupancy / off.occupancy;
  table.set_meta("occupancy_gap", std::to_string(gap));
  std::printf("  off: live=%.1fMB mapped=%.1fMB occ=%.3f\n", off.live_mb,
              off.mapped_mb, off.occupancy);
  std::printf("  on:  live=%.1fMB mapped=%.1fMB occ=%.3f moved=%" PRIu64
              "B\n", on.live_mb, on.mapped_mb, on.occupancy, on.moved_bytes);
  std::printf("  defrag holds live/mapped %.2fx denser\n", gap);
  finish_table(opt, table);
  return 0;
}

}  // namespace
}  // namespace toma::bench

int main(int argc, char** argv) { return toma::bench::main_impl(argc, argv); }
