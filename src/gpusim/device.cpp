#include "gpusim/device.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "gpusim/sched.hpp"
#include "gpusim/sm.hpp"
#include "obs/telemetry.hpp"
#include "util/assert.hpp"

namespace toma::gpu {

namespace {
std::atomic<std::uint32_t> g_default_workers{0};

std::uint32_t env_workers() {
  static const std::uint32_t v = [] {
    const char* s = std::getenv("TOMA_WORKERS");
    if (s == nullptr || *s == '\0') return 0u;
    const long n = std::strtol(s, nullptr, 10);
    return n > 0 ? static_cast<std::uint32_t>(n) : 0u;
  }();
  return v;
}
}  // namespace

void set_default_num_workers(std::uint32_t n) {
  g_default_workers.store(n, std::memory_order_relaxed);
}

std::uint32_t default_num_workers(std::uint32_t num_sms) {
  std::uint32_t nw = g_default_workers.load(std::memory_order_relaxed);
  if (nw == 0) nw = env_workers();
  if (nw == 0) {
    nw = std::max(1u, std::min(std::thread::hardware_concurrency(),
                               std::max(num_sms, 1u)));
  }
  return nw;
}

void LaunchState::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> g(error_mu);
  if (!first_error) first_error = e;
}

Device::Device(DeviceConfig cfg)
    : cfg_(cfg),
      stack_pool_(cfg.stack_bytes),
      stats_source_([this](obs::CounterTotals& out) {
        const DeviceStats s = stats();
        const std::uint64_t v[] = {s.fiber_resumes, s.sched_rounds,
                                   s.warp_parks,    s.warp_unparks,
                                   s.warp_steals,   s.wait_skips,
                                   s.blocks_executed};
        obs::collect(v, out, kStatNames);
      }) {
  TOMA_ASSERT(cfg_.num_sms > 0);
  TOMA_ASSERT(cfg_.warp_size > 0);
  TOMA_ASSERT(cfg_.max_threads_per_sm >= cfg_.warp_size);
  sms_.reserve(cfg_.num_sms);
  for (std::uint32_t i = 0; i < cfg_.num_sms; ++i) {
    sms_.push_back(std::make_unique<Sm>(*this, i));
  }
}

Device::~Device() = default;

void Device::launch_linear(std::uint64_t total_threads,
                           std::uint32_t block_size, const Kernel& kernel) {
  TOMA_ASSERT(block_size > 0);
  const std::uint64_t blocks =
      (total_threads + block_size - 1) / block_size;
  TOMA_ASSERT_MSG(blocks <= 0xffffffffu, "grid too large for Dim3.x");
  launch(Dim3{static_cast<std::uint32_t>(std::max<std::uint64_t>(blocks, 1))},
         Dim3{block_size}, kernel);
}

void Device::launch(Dim3 grid, Dim3 block, const Kernel& kernel) {
  TOMA_ASSERT(grid.count() > 0 && block.count() > 0);
  TOMA_ASSERT_MSG(block.count() <= cfg_.max_threads_per_sm,
                  "thread block larger than SM residency");

  LaunchState ls;
  ls.kernel = &kernel;
  ls.grid = grid;
  ls.block = block;
  ls.total_blocks = grid.count();
  ls.threads_per_block = static_cast<std::uint32_t>(block.count());

  std::uint32_t nw = cfg_.num_workers;
  if (nw == 0) nw = default_num_workers(cfg_.num_sms);
  nw = std::min(nw, cfg_.num_sms);

  Scheduler sched(*this, ls, nw);
  ls.sched = &sched;
  if (nw == 1) {
    sched.run_worker(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(nw);
    for (std::uint32_t w = 0; w < nw; ++w) {
      workers.emplace_back([&sched, w] { sched.run_worker(w); });
    }
    for (auto& t : workers) t.join();
  }
  LaunchStats launch_stats = sched.totals();
  launch_stats.blocks = ls.total_blocks;
  launch_stats.threads = ls.total_blocks * ls.threads_per_block;
  ls.sched = nullptr;

  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.launches;
    stats_.blocks_executed += launch_stats.blocks;
    stats_.threads_executed += launch_stats.threads;
    stats_.fiber_resumes += launch_stats.fiber_resumes;
    stats_.sched_rounds += launch_stats.sched_rounds;
    stats_.warp_parks += launch_stats.warp_parks;
    stats_.warp_unparks += launch_stats.warp_unparks;
    stats_.warp_steals += launch_stats.warp_steals;
    stats_.wait_skips += launch_stats.wait_skips;
    stats_.last_launch = launch_stats;
  }

  if (ls.first_error) std::rethrow_exception(ls.first_error);
}

DeviceStats Device::stats() const {
  std::lock_guard<std::mutex> g(stats_mu_);
  return stats_;
}

}  // namespace toma::gpu
