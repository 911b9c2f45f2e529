// Shared machinery for the figure-reproduction benchmarks.
//
// Every bench binary:
//   * accepts --quick (shrink sweep for smoke runs), --full (paper-scale
//     sweep), --csv=PATH / --json=PATH (machine-readable copies of the
//     result table), --blocks=N (thread-block
//     size; default sweeps a small set and averages, as the paper
//     averages over block sizes 1..1024);
//   * prints an ASCII table with the same rows/series the paper plots.
//
// Throughput numbers are simulator-absolute (one CPU core driving fibers),
// so EXPERIMENTS.md compares *shapes and ratios* against the paper, never
// absolute rates.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace toma::bench {

struct Options {
  bool quick = false;
  bool full = false;
  std::string csv_path;
  std::string json_path;
  std::string trace_path;
  std::string record_path;  // flight-recorder dump (.tomarec)
  std::string prom_path;    // Prometheus text-format metrics export
  bool metrics = false;
  std::string metrics_path;
  std::vector<std::uint32_t> block_sizes = {64, 256, 1024};
  std::uint32_t num_sms = 8;
  std::uint32_t threads_per_sm = 2048;
  std::uint32_t workers = 1;

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--quick") == 0) {
        o.quick = true;
      } else if (std::strcmp(a, "--full") == 0) {
        o.full = true;
      } else if (std::strncmp(a, "--csv=", 6) == 0) {
        o.csv_path = a + 6;
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        o.json_path = a + 7;
      } else if (std::strncmp(a, "--trace=", 8) == 0) {
        o.trace_path = a + 8;
      } else if (std::strncmp(a, "--record=", 9) == 0) {
        o.record_path = a + 9;
      } else if (std::strncmp(a, "--prom=", 7) == 0) {
        o.prom_path = a + 7;
      } else if (std::strcmp(a, "--metrics") == 0) {
        o.metrics = true;
      } else if (std::strncmp(a, "--metrics=", 10) == 0) {
        o.metrics = true;
        o.metrics_path = a + 10;
      } else if (std::strncmp(a, "--blocks=", 9) == 0) {
        o.block_sizes = {static_cast<std::uint32_t>(std::atoi(a + 9))};
      } else if (std::strncmp(a, "--sms=", 6) == 0) {
        o.num_sms = static_cast<std::uint32_t>(std::atoi(a + 6));
      } else if (std::strncmp(a, "--workers=", 10) == 0) {
        o.workers = static_cast<std::uint32_t>(std::atoi(a + 10));
      } else {
        std::fprintf(stderr,
                     "usage: %s [--quick|--full] [--csv=PATH] "
                     "[--json=PATH] [--trace=PATH] [--record=PATH] "
                     "[--prom=PATH] [--metrics[=PATH]] "
                     "[--blocks=N] [--sms=N] [--workers=N]\n",
                     argv[0]);
        std::exit(2);
      }
    }
#if !TOMA_TELEMETRY
    if (!o.trace_path.empty() || o.metrics || !o.prom_path.empty()) {
      std::fprintf(stderr,
                   "note: built with -DTOMA_TELEMETRY=OFF; --trace/--metrics "
                   "output will be empty\n");
    }
#endif
    if (!o.trace_path.empty()) obs::enable_tracing();
    if (!o.record_path.empty()) {
      obs::Recorder::instance().start();  // dumped by finish_telemetry
    }
    return o;
  }

  gpu::DeviceConfig device_config() const {
    gpu::DeviceConfig cfg;
    cfg.num_sms = num_sms;
    cfg.max_threads_per_sm = threads_per_sm;
    cfg.num_workers = workers;
    return cfg;
  }
};

/// Populate the device's fiber-stack pool (and warm scheduler paths) so a
/// timed launch does not pay one mmap+mprotect per logical thread. Call
/// before the first timed launch at a given residency.
inline void warm_device(gpu::Device& dev, std::uint64_t threads,
                        std::uint32_t block) {
  dev.launch_linear(threads, block, [](gpu::ThreadCtx&) {});
}

/// Wall-clock seconds of one synchronous grid launch (device pre-warmed).
inline double time_launch(gpu::Device& dev, std::uint64_t threads,
                          std::uint32_t block, const gpu::Kernel& k) {
  warm_device(dev, threads, block);
  const auto t0 = std::chrono::steady_clock::now();
  dev.launch_linear(threads, block, k);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Launch once per configured block size and return the mean seconds
/// (the paper averages execution time across block sizes).
template <typename MakeKernel>
double mean_time_over_blocks(gpu::Device& dev, const Options& opt,
                             std::uint64_t threads, MakeKernel&& make) {
  util::RunningStats s;
  for (std::uint32_t b : opt.block_sizes) {
    gpu::Kernel k = make();
    s.add(time_launch(dev, threads, b, k));
  }
  return s.mean();
}

/// Telemetry epilogue: dump the Chrome trace and/or the metrics snapshot
/// requested on the command line. Works (producing empty output) even when
/// the build compiled instrumentation out.
inline void finish_telemetry(const Options& opt) {
  if (!opt.trace_path.empty()) {
    obs::disable_tracing();
    if (obs::dump_chrome_trace(opt.trace_path.c_str())) {
      std::printf("trace written to %s (%llu events, %llu dropped)\n",
                  opt.trace_path.c_str(),
                  static_cast<unsigned long long>(obs::trace_records().size()),
                  static_cast<unsigned long long>(obs::trace_dropped()));
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.trace_path.c_str());
    }
  }
  if (!opt.record_path.empty()) {
    obs::Recorder& rec = obs::Recorder::instance();
    rec.stop();
    if (rec.dump(opt.record_path)) {
      std::printf("flight record written to %s (%zu events, %llu dropped)\n",
                  opt.record_path.c_str(), rec.event_count(),
                  static_cast<unsigned long long>(rec.dropped()));
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.record_path.c_str());
    }
  }
  if (!opt.prom_path.empty()) {
    if (obs::write_prometheus(obs::registry().snapshot(), opt.prom_path)) {
      std::printf("prometheus metrics written to %s\n", opt.prom_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.prom_path.c_str());
    }
  }
  if (opt.metrics) {
    const obs::Snapshot snap = obs::registry().snapshot();
    if (!opt.metrics_path.empty()) {
      if (obs::write_stable_json(snap, opt.metrics_path)) {
        std::printf("metrics written to %s\n", opt.metrics_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n",
                     opt.metrics_path.c_str());
      }
    } else {
      std::fputs("\n-- telemetry snapshot --\n", stdout);
      std::fputs(snap.to_text().c_str(), stdout);
    }
  }
}

/// Stamp the run's provenance into the table so every --json dump carries
/// it (schema_version comes from Table itself).
inline void stamp_run_meta(const Options& opt, util::Table& table) {
  table.set_meta("scale",
                 opt.quick ? "quick" : (opt.full ? "full" : "default"));
  std::string blocks;
  for (std::uint32_t b : opt.block_sizes) {
    if (!blocks.empty()) blocks += ",";
    blocks += std::to_string(b);
  }
  table.set_meta("block_sizes", blocks);
  table.set_meta("sms", std::to_string(opt.num_sms));
  table.set_meta("threads_per_sm", std::to_string(opt.threads_per_sm));
  table.set_meta("workers", std::to_string(opt.workers));
  // The worker count a launch actually resolves to (--workers=0 defers to
  // TOMA_WORKERS / hardware concurrency), plus the host's concurrency, so
  // a result file records whether oversubscription was in play.
  std::uint32_t resolved = opt.workers;
  if (resolved == 0) resolved = gpu::default_num_workers(opt.num_sms);
  if (resolved > opt.num_sms) resolved = opt.num_sms;
  table.set_meta("num_workers", std::to_string(resolved));
  table.set_meta("hardware_concurrency",
                 std::to_string(std::thread::hardware_concurrency()));
  table.set_meta("telemetry", TOMA_TELEMETRY ? "on" : "off");
}

inline void finish_table(const Options& opt, util::Table& table) {
  stamp_run_meta(opt, table);
  table.print();
  if (!opt.csv_path.empty()) {
    if (table.write_csv(opt.csv_path)) {
      std::printf("csv written to %s\n", opt.csv_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.csv_path.c_str());
    }
  }
  if (!opt.json_path.empty()) {
    if (table.write_json(opt.json_path)) {
      std::printf("json written to %s\n", opt.json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
    }
  }
  finish_telemetry(opt);
}

}  // namespace toma::bench
