// Kernel workloads: device threads of a gpu::Device call
// GpuAllocator::malloc/free on a pool created through the C API.
//
//   kernel_small_churn  persistent threads replace a window of small
//                       blocks; one free in eight hands a block to
//                       another SM through an atomic-exchange slot
//   kernel_large_churn  the same shape with TBuddy-sized blocks and four
//                       simulator workers (the contended workload)
//   kernel_fill         the fig7 cold protocol with a size mix: a fresh
//                       elastic pool per rep, one malloc launch, one free
//                       launch
//
// Latency is sampled: each thread times its j-th call when
// (rank + j) % 64 == 0, so the sample is the same on every run. Every
// sampled call counts, including one that waits in the allocator while
// other fibers run.
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "gpusim/gpusim.hpp"
#include "suite.hpp"
#include "toma/toma.h"
#include "trace.hpp"

namespace suite {
namespace {

using toma::alloc::GpuAllocator;
using toma::alloc::Pool;
using toma::gpu::Device;
using toma::gpu::DeviceConfig;
using toma::gpu::ThreadCtx;

std::uint32_t clamp_workers(std::uint32_t want) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min<std::uint32_t>(want, hw == 0 ? 1u : hw));
}

/// The sampled calls of one pass, one slot per (thread, 64 calls).
class Samples {
 public:
  struct Slot {
    std::int64_t start = 0;
    std::uint32_t dur = 0;  // 0 = not taken
    std::uint16_t sm = 0;
    bool is_free = false;
  };

  void reset(std::uint64_t threads, std::uint32_t max_calls) {
    per_thread_ = (max_calls + 63) / 64;
    slots_.assign(threads * per_thread_, Slot{});
  }

  static bool sampled(std::uint64_t rank, std::uint32_t j) {
    return ((rank + j) & 63) == 0;
  }

  Slot& at(std::uint64_t rank, std::uint32_t j) {
    return slots_[rank * per_thread_ + j / 64];
  }

  /// Hand the taken samples of the launch that just finished to the
  /// measure (and the tracer, under the open launch span); clear them.
  void collect(Measure& m, Tracer* tr) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.dur == 0) continue;
      (s.is_free ? m.free_ns : m.malloc_ns).push_back(s.dur);
      if (tr != nullptr) {
        tr->device(s.is_free ? Span::kGpuFree : Span::kGpuMalloc, i,
                   100u + s.sm, s.start, s.start + s.dur);
      }
      s = Slot{};
    }
  }

 private:
  std::uint32_t per_thread_ = 0;
  std::vector<Slot> slots_;
};

/// Per-thread results of one launch; each fiber writes only its own slot.
struct ThreadTally {
  std::uint32_t calls = 0;     // malloc + free calls issued
  std::uint32_t mallocs = 0;   // malloc calls attempted
  std::uint32_t failed = 0;    // ...that returned nullptr
  std::uint32_t torn = 0;      // blocks whose tag did not survive
};

/// Shared device-side plumbing: the timed malloc/free wrappers and the
/// per-pass bookkeeping both kernel workloads use.
class DeviceWorkload : public Workload {
 public:
  DeviceWorkload(const RunConfig& rc, std::uint32_t sms,
                 std::uint32_t threads_per_sm, std::uint32_t workers)
      : rc_(rc),
        tag_key_(stream_key(rc.seed, kTagStream)),
        sms_(sms),
        threads_per_sm_(threads_per_sm),
        workers_(clamp_workers(workers)) {}

  std::uint32_t workers() const override { return workers_; }

 protected:
  void make_device() {
    DeviceConfig dc;
    dc.num_sms = sms_;
    dc.max_threads_per_sm = threads_per_sm_;
    dc.num_workers = workers_;
    dev_ = std::make_unique<Device>(dc);
  }

  /// Create `name` through the C API; the suite keeps the C++ view for
  /// GpuAllocator access and stats().
  void create_pool(const std::string& name, const toma_pool_config_t& cfg) {
    const toma_status_t st = toma_pool_create(name.c_str(), &cfg, &handle_);
    if (st != TOMA_OK) {
      throw std::runtime_error("toma_pool_create(" + name +
                               "): " + toma_status_str(st));
    }
    pool_ = &pool_named(name);
  }

  void destroy_pool() {
    if (handle_ != nullptr) toma_pool_destroy(handle_);
    handle_ = nullptr;
    pool_ = nullptr;
  }

  void begin_pass(std::uint64_t threads, std::uint32_t max_calls) {
    tally_.assign(threads, ThreadTally{});
    samples_.reset(threads, max_calls);
  }

  void* dev_malloc(ThreadCtx& t, std::uint64_t r, std::size_t size) {
    ThreadTally& tt = tally_[r];
    const std::uint32_t j = tt.calls++;
    ++tt.mallocs;
    GpuAllocator& ga = pool_->allocator();
    void* p;
    if (Samples::sampled(r, j)) {
      const std::int64_t t0 = now_ns();
      p = ga.malloc(size);
      const std::int64_t t1 = now_ns();
      samples_.at(r, j) = {t0, clamp_ns(t1 - t0),
                           static_cast<std::uint16_t>(t.sm_id()), false};
    } else {
      p = ga.malloc(size);
    }
    if (p == nullptr) {
      ++tt.failed;
      return nullptr;
    }
    tag_block(p, size, static_cast<std::uint32_t>(r), tag_key_);
    return p;
  }

  void dev_free(ThreadCtx& t, std::uint64_t r, void* p) {
    ThreadTally& tt = tally_[r];
    if (check_block(p, 0, tag_key_) == 0) ++tt.torn;
    const std::uint32_t j = tt.calls++;
    GpuAllocator& ga = pool_->allocator();
    if (Samples::sampled(r, j)) {
      const std::int64_t t0 = now_ns();
      ga.free(p);
      const std::int64_t t1 = now_ns();
      samples_.at(r, j) = {t0, clamp_ns(t1 - t0),
                           static_cast<std::uint16_t>(t.sm_id()), true};
    } else {
      ga.free(p);
    }
  }

  /// One timed launch under a launch span.
  double launch(std::uint64_t threads, std::uint32_t block,
                const toma::gpu::Kernel& k, Measure& m, Tracer* tr) {
    const std::int64_t t0 = now_ns();
    if (tr != nullptr) tr->open(Span::kLaunch, 0, t0);
    dev_->launch_linear(threads, block, k);
    const std::int64_t t1 = now_ns();
    samples_.collect(m, tr);
    if (tr != nullptr) tr->close(t1);
    return static_cast<double>(t1 - t0) / 1e9;
  }

  /// Between the work and drain launches: the peak-live point.
  void note_peak(Measure& m) {
    m.note_mapped(static_cast<double>(pool_->allocator().mapped_bytes()),
                  static_cast<double>(pool_->bytes_in_use()));
  }

  /// Add the tallies to the rep; report torn tags and an unclean
  /// quiescent pool.
  void finish_pass(Measure& m, const char* what) {
    std::uint64_t torn = 0;
    for (const ThreadTally& tt : tally_) {
      m.rep_ops += tt.calls;
      m.attempted += tt.mallocs;
      m.failed += tt.failed;
      torn += tt.torn;
    }
    if (torn != 0) {
      m.violation(std::string(what) + ": " + std::to_string(torn) +
                  " blocks failed their tag check at free");
    }
    if (pool_->bytes_in_use() != 0) {
      m.violation(std::string(what) + ": bytes_in_use " +
                  std::to_string(pool_->bytes_in_use()) + " after drain");
    }
    if (!pool_->check_consistency()) {
      m.violation(std::string(what) + ": check_consistency failed");
    }
  }

  /// Wall time of an empty launch over the grid (the simulator's own
  /// per-launch cost), kept outside the counter window.
  void time_empty_launch(std::uint64_t threads, std::uint32_t block,
                         Measure& m) {
    const std::int64_t t0 = now_ns();
    dev_->launch_linear(threads, block, [](ThreadCtx&) {});
    m.launch_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Counters snapshot() const {
    Counters c = counters_of(pool_->stats());
    c += counters_of(dev_->stats());
    return c;
  }

  RunConfig rc_;
  std::uint64_t tag_key_;
  std::uint32_t sms_, threads_per_sm_, workers_;
  std::unique_ptr<Device> dev_;
  toma_pool_t handle_ = nullptr;
  Pool* pool_ = nullptr;
  std::vector<ThreadTally> tally_;
  Samples samples_;
};

// --- churn -------------------------------------------------------------------

struct ChurnShape {
  const char* pool_name;
  std::uint32_t sms;
  std::uint32_t threads_per_sm;
  std::uint32_t block;
  std::uint64_t threads;
  std::uint32_t window;
  std::uint32_t iters;        // replacements per thread per rep
  std::uint32_t workers;
  std::size_t pool_bytes;
  std::uint32_t handoff_slots;  // 0 = no cross-SM hand-off
  std::size_t (*pick)(Rng&);
};

/// 90% hot classes, 10% uniform sizes off the power-of-two boundaries.
std::size_t pick_small(Rng& rng) {
  static constexpr std::size_t kHot[] = {16, 32, 64, 128, 256};
  if (rng.below(10) != 0) return kHot[rng.below(5)];
  std::size_t s = 9 + rng.below(1015);  // 9..1023
  if ((s & (s - 1)) == 0) ++s;
  return s;
}

/// Log-uniform 4..64 KiB, and one block in 64 of 256 KiB.
std::size_t pick_large(Rng& rng) {
  if (rng.below(64) == 0) return std::size_t{256} << 10;
  const double s = 4096.0 * std::exp2(4.0 * rng.unit());
  return static_cast<std::size_t>(s) & ~std::size_t{7};
}

class KernelChurn final : public DeviceWorkload {
 public:
  KernelChurn(const ChurnShape& sh, const RunConfig& rc)
      : DeviceWorkload(rc, sh.sms, sh.threads_per_sm, sh.workers), sh_(sh) {
    if (rc.smoke) sh_.iters = std::max<std::uint32_t>(sh_.iters / 16, 4);
  }

  void setup(Measure& m) override {
    make_device();
    windows_.assign(sh_.threads * sh_.window, nullptr);
    slots_ = std::make_unique<std::atomic<void*>[]>(
        std::max<std::uint32_t>(sh_.handoff_slots, 1));
    // Fiber-stack warm-up, then the first pool.
    dev_->launch_linear(sh_.threads, sh_.block, [](ThreadCtx&) {});
    warm_pool(0, m);
  }

  void teardown() override {
    destroy_pool();
    dev_.reset();
  }

  /// Every rep but the first (which uses set-up's pool) runs on a fresh,
  /// warmed pool: a churn pool's mapping only grows, so a pool kept across
  /// reps would make the footprint the run's high-water mark, one draw per
  /// run.
  double rep(Measure& m, Tracer* tr) override {
    if (reps_ != 0) warm_pool(reps_, m);
    time_empty_launch(sh_.threads, sh_.block, m);
    return pass(sh_.iters, rep_key(rc_.seed, kRepStream, reps_++), m, tr);
  }

 private:
  /// Create the pool, then run an untimed quarter-length pass that fills
  /// the caches and maps the steady-state footprint.
  void warm_pool(std::uint32_t r, Measure& m) {
    destroy_pool();
    toma_pool_config_t cfg = toma_pool_config_default();
    cfg.pool_bytes = sh_.pool_bytes;
    cfg.num_arenas = sh_.sms;
    cfg.heapsan = 0;
    create_pool(sh_.pool_name, cfg);
    Measure scratch;
    pass(std::max<std::uint32_t>(sh_.iters / 4, 1),
         rep_key(rc_.seed, kWarmupStream, r), scratch, nullptr);
    m.absorb_violations(scratch);
  }

  /// One work launch (fill the windows, then `iters` replacements per
  /// thread) and one drain launch; returns their wall seconds.
  double pass(std::uint32_t iters, std::uint64_t key, Measure& m,
              Tracer* tr) {
    const Counters before = snapshot();
    const std::uint32_t w = sh_.window;
    begin_pass(sh_.threads, 2 * w + 2 * iters + 1);
    const toma::gpu::Kernel work = [this, iters, key, w](ThreadCtx& t) {
      const std::uint64_t r = t.global_rank();
      if (r >= sh_.threads) return;
      Rng rng(stream_key(key, r));
      void** win = &windows_[r * w];
      for (std::uint32_t k = 0; k < w; ++k) {
        win[k] = dev_malloc(t, r, sh_.pick(rng));
      }
      for (std::uint32_t i = 0; i < iters; ++i) {
        void*& b = win[i % w];
        void* victim = b;
        if (sh_.handoff_slots != 0 && rng.below(8) == 0) {
          // Threads with the same index on every SM share one slot, so
          // the block that comes back was (almost always) allocated on
          // another SM.
          victim = slots_[r % sh_.handoff_slots].exchange(
              victim, std::memory_order_acq_rel);
        }
        if (victim != nullptr) dev_free(t, r, victim);
        b = dev_malloc(t, r, sh_.pick(rng));
      }
    };
    const toma::gpu::Kernel drain = [this, w](ThreadCtx& t) {
      const std::uint64_t r = t.global_rank();
      if (r >= sh_.threads) return;
      void** win = &windows_[r * w];
      for (std::uint32_t k = 0; k < w; ++k) {
        if (win[k] != nullptr) dev_free(t, r, win[k]);
        win[k] = nullptr;
      }
      if (r < sh_.handoff_slots) {
        void* q = slots_[r].exchange(nullptr, std::memory_order_acq_rel);
        if (q != nullptr) dev_free(t, r, q);
      }
    };
    double wall = launch(sh_.threads, sh_.block, work, m, tr);
    note_peak(m);
    wall += launch(sh_.threads, sh_.block, drain, m, tr);
    finish_pass(m, sh_.pool_name);
    m.layer += snapshot() - before;
    return wall;
  }

  ChurnShape sh_;
  std::uint32_t reps_ = 0;  // reps run so far, the untimed warm-up included
  std::vector<void*> windows_;
  std::unique_ptr<std::atomic<void*>[]> slots_;
};

// --- cold fill ---------------------------------------------------------------

class KernelFill final : public DeviceWorkload {
 public:
  static constexpr std::uint32_t kSms = 8;
  static constexpr std::uint32_t kThreadsPerSm = 2048;
  static constexpr std::uint32_t kBlock = 256;

  KernelFill(std::uint64_t threads, const RunConfig& rc)
      : DeviceWorkload(rc, kSms, kThreadsPerSm, 1),
        threads_(rc.smoke ? threads / 8 : threads) {
    // Log-uniform 8 B .. 64 KiB; the requests add up to the nominal
    // budget that each rep's pool maps up front.
    Rng rng(stream_key(rc.seed, kRepStream));
    sizes_.resize(threads_);
    for (std::size_t& s : sizes_) {
      s = static_cast<std::size_t>(8.0 * std::exp2(13.0 * rng.unit()));
      nominal_ += s;
    }
  }

  void setup(Measure& m) override {
    make_device();
    ptrs_.assign(threads_, nullptr);
    dev_->launch_linear(kSms * kThreadsPerSm, kBlock, [](ThreadCtx&) {});
    Measure scratch;
    fill(scratch, nullptr);
    m.absorb_violations(scratch);
  }

  void teardown() override {
    destroy_pool();
    dev_.reset();
  }

  double rep(Measure& m, Tracer* tr) override {
    time_empty_launch(threads_, kBlock, m);
    return fill(m, tr);
  }

 private:
  /// Fresh elastic pool: the nominal budget mapped at creation inside a
  /// reservation of twice that (fig7's "ours" arm), so structural
  /// overhead near exhaustion grows the mapping instead of failing.
  /// Returns the wall seconds of the malloc and free launches.
  double fill(Measure& m, Tracer* tr) {
    toma_pool_config_t cfg = toma_pool_config_default();
    cfg.vmm = 1;
    cfg.num_arenas = kSms;
    cfg.heapsan = 0;
    std::size_t reserve = std::size_t{1} << 20;
    while (reserve < 2 * nominal_) reserve <<= 1;
    cfg.pool_bytes = reserve;
    const std::size_t granule = toma::alloc::vmm_chunk_bytes_for(reserve, 0);
    cfg.initial_chunks =
        static_cast<unsigned>((nominal_ + granule - 1) / granule);
    create_pool("suite.fill", cfg);
    const Counters before = snapshot();

    begin_pass(threads_, 2);
    const toma::gpu::Kernel alloc_k = [this](ThreadCtx& t) {
      const std::uint64_t r = t.global_rank();
      if (r < threads_) ptrs_[r] = dev_malloc(t, r, sizes_[r]);
    };
    const toma::gpu::Kernel free_k = [this](ThreadCtx& t) {
      const std::uint64_t r = t.global_rank();
      if (r >= threads_) return;
      if (ptrs_[r] != nullptr) dev_free(t, r, ptrs_[r]);
      ptrs_[r] = nullptr;
    };
    double wall = launch(threads_, kBlock, alloc_k, m, tr);
    note_peak(m);
    wall += launch(threads_, kBlock, free_k, m, tr);
    finish_pass(m, "suite.fill");
    m.layer += snapshot() - before;
    destroy_pool();
    return wall;
  }

  std::uint64_t threads_;
  std::vector<std::size_t> sizes_;
  std::size_t nominal_ = 0;
  std::vector<void*> ptrs_;
};

}  // namespace

// Op counts are frozen here: each rep is sized to about two seconds on the
// 4-core reference host at the commit that introduced the suite (see
// README.md). Changing them redefines the benchmark.

std::unique_ptr<Workload> make_kernel_small_churn(const RunConfig& rc) {
  ChurnShape sh{};
  sh.pool_name = "suite.small";
  sh.sms = 8;
  sh.threads_per_sm = 2048;
  sh.block = 256;
  sh.threads = std::uint64_t{sh.sms} * sh.threads_per_sm;
  sh.window = 4;
  sh.iters = 280;
  sh.workers = 1;
  sh.pool_bytes = std::size_t{64} << 20;
  sh.handoff_slots = sh.threads_per_sm;
  sh.pick = pick_small;
  return std::make_unique<KernelChurn>(sh, rc);
}

std::unique_ptr<Workload> make_kernel_large_churn(const RunConfig& rc) {
  ChurnShape sh{};
  sh.pool_name = "suite.large";
  sh.sms = 8;
  sh.threads_per_sm = 512;
  sh.block = 128;
  sh.threads = std::uint64_t{sh.sms} * sh.threads_per_sm;
  sh.window = 2;
  sh.iters = 1000;
  sh.workers = 4;
  sh.pool_bytes = std::size_t{1} << 30;
  sh.handoff_slots = 0;
  sh.pick = pick_large;
  return std::make_unique<KernelChurn>(sh, rc);
}

std::unique_ptr<Workload> make_kernel_fill(const RunConfig& rc) {
  return std::make_unique<KernelFill>(65536, rc);
}

}  // namespace suite
