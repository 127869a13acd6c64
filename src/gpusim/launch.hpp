#pragma once
// Kernel launch engine.
//
// Gpu::run executes a warp-level kernel across a launch grid with an optional
// *schedule seed* that permutes block execution order.  Real GPUs give no
// ordering guarantee between blocks; permuting the order lets tests
// demonstrate the paper's §II-D reproducibility argument concretely: kernels
// whose warps only touch disjoint outputs return bitwise-identical results
// under every schedule, while the atomic-based GPU Baseline does not.
//
// Three engine modes (EngineOptions::mode, see gpusim/trace.hpp):
//
//  * kSerial — the legacy single pass: each warp executes and its memory
//    requests probe the cache inline, block by block in schedule order.
//  * kTraceReplay — two phases.  Phase 1 executes every block functionally
//    (in parallel across blocks when phase1_threads allows) and records each
//    warp's compacted sector trace into the block's private BlockTrace.
//    Phase 2 replays the traces through the cache model in schedule order.
//    Because intra-block request order is preserved by the trace and
//    inter-block order by the schedule-order replay, the traffic counters
//    are bitwise identical to kSerial for every schedule seed, regardless of
//    how phase 1 was parallelized.
//  * kFunctionalOnly — phase 1 only: real kernel results and arithmetic
//    counters, zero traffic simulation.  For callers that never look at the
//    memory counters (optimizer inner loops) this skips the coalescer, the
//    cache and even address generation.
//
// Determinism of the counters: per-block ComputeCounters / SharedCounters
// are summed in ascending block order (unsigned addition is associative and
// commutative, so the phase-1 execution order cannot leak in).  FP atomics
// under a concurrent phase 1 use real atomic RMW — race-free totals with
// nondeterministic addition order, exactly the §II-D behavior of hardware
// atomics (serial modes keep the schedule-order application the tests pin).

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/block.hpp"
#include "gpusim/device.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/pool.hpp"
#include "gpusim/simcheck.hpp"
#include "gpusim/trace.hpp"
#include "gpusim/warp.hpp"

namespace pd::gpusim {

/// Launch geometry plus the per-thread register count the compiler would
/// report (feeds the occupancy calculator; measured per kernel variant).
struct LaunchConfig {
  unsigned threads_per_block = 512;
  std::uint64_t num_blocks = 0;
  unsigned regs_per_thread = 40;

  unsigned warps_per_block() const { return threads_per_block / kWarpSize; }
  std::uint64_t total_warps() const { return num_blocks * warps_per_block(); }

  /// Grid sized so that total threads = kWarpSize * work_items — the paper's
  /// "total number of threads is 32 times the number of rows".
  static LaunchConfig warp_per_item(std::uint64_t work_items,
                                    unsigned threads_per_block,
                                    unsigned regs_per_thread) {
    PD_CHECK_MSG(threads_per_block % kWarpSize == 0,
                 "threads_per_block must be a multiple of the warp size");
    LaunchConfig cfg;
    cfg.threads_per_block = threads_per_block;
    cfg.regs_per_thread = regs_per_thread;
    const unsigned wpb = cfg.warps_per_block();
    cfg.num_blocks = (work_items + wpb - 1) / wpb;
    return cfg;
  }
};

/// Everything the launch measured: traffic, arithmetic, geometry.
struct KernelStats {
  TrafficCounters traffic;
  ComputeCounters compute;
  SharedCounters shared;
  std::uint64_t blocks_launched = 0;
  std::uint64_t warps_launched = 0;

  double flops() const { return static_cast<double>(compute.flops); }
  double dram_bytes() const { return static_cast<double>(traffic.dram_bytes()); }
  /// Measured operational intensity (FLOP per DRAM byte) — the x-axis of the
  /// paper's Figure 3 roofline.
  double operational_intensity() const {
    return traffic.dram_bytes() == 0 ? 0.0
                                     : flops() / dram_bytes();
  }
};

/// How the engine executes launches.  phase1_threads only affects phase 1 of
/// kTraceReplay and kFunctionalOnly execution (0 = all hardware threads);
/// the traffic counters are identical for every value.
struct EngineOptions {
  TraceMode mode = TraceMode::kSerial;
  unsigned phase1_threads = 0;
};

/// A simulated device: spec + memory hierarchy + launch loop.
class Gpu {
 public:
  explicit Gpu(DeviceSpec spec) : spec_(std::move(spec)), mem_(spec_) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Cold-start the cache so back-to-back measurements are independent.
  void invalidate_cache() { mem_.invalidate_cache(); }
  /// Host bytes of the simulated L2's line arrays (0 until a launch that
  /// models traffic has touched the cache).
  std::uint64_t cache_resident_bytes() const {
    return mem_.cache_resident_bytes();
  }

  /// Select the engine mode for subsequent launches.
  void set_engine(const EngineOptions& opts) {
    opts_ = opts;
    pool_.reset();  // rebuilt lazily for the new thread count
  }
  const EngineOptions& engine() const { return opts_; }

  /// Route the serial engine through the seed (reference) coalescer and cache
  /// scan — the differential-testing oracle and bench baseline.
  void set_reference_memory_path(bool on) { mem_.set_reference_path(on); }

  /// Enable the simcheck analyzer for subsequent launches (memcheck /
  /// racecheck / synccheck / initcheck / determinism-lint, narrowable via
  /// `cfg`).  Checked launches execute phase 1 serially — the shadow state
  /// is not thread-safe and serial order keeps findings deterministic —
  /// but every counter and kernel result stays bitwise identical.
  void enable_check(const CheckConfig& cfg = CheckConfig::all()) {
    check_ = std::make_unique<CheckContext>(cfg);
  }
  void disable_check() { check_.reset(); }

  /// The active analyzer, or nullptr when checking is disabled.  Kernel
  /// launchers use this to register their buffer tables.
  CheckContext* check() { return check_.get(); }
  bool check_enabled() const { return check_ != nullptr; }

  /// Findings accumulated across every checked launch since enable_check /
  /// the last clear.  Requires checking to be enabled.
  const CheckReport& check_report() const {
    PD_CHECK_MSG(check_ != nullptr,
                 "check_report: simcheck is not enabled on this Gpu");
    return check_->report();
  }

  /// Execute `warp_fn(WarpCtx&)` for every warp of the grid.  Blocks run in
  /// ascending order when schedule_seed == 0, otherwise in a seeded random
  /// permutation (modeling the hardware's unordered block scheduling).
  ///
  /// The L2 is cold-started for each launch (`cold_cache`): the paper's
  /// matrices are hundreds of times larger than any L2 and self-evict every
  /// iteration, so a launch never benefits from the previous one's matrix
  /// lines; starting cold keeps the scaled-down measurements faithful to
  /// that streaming regime.
  template <typename Fn>
  KernelStats run(const LaunchConfig& cfg, Fn&& warp_fn,
                  std::uint64_t schedule_seed = 0, bool cold_cache = true) {
    PD_CHECK_MSG(cfg.threads_per_block % kWarpSize == 0,
                 "threads_per_block must be a multiple of 32");
    PD_CHECK_MSG(cfg.threads_per_block <= spec_.max_threads_per_block,
                 "threads_per_block exceeds the device limit");
    PD_CHECK_MSG(cfg.num_blocks > 0, "empty grid");

    const unsigned wpb = cfg.warps_per_block();
    auto run_block = [&](MemRoute route, ComputeCounters& compute,
                         std::uint64_t block) {
      for (unsigned w = 0; w < wpb; ++w) {
        WarpCtx ctx(route, compute, block, w, cfg.threads_per_block,
                    cfg.num_blocks);
        warp_fn(ctx);
      }
    };
    return launch(cfg, run_block, schedule_seed, cold_cache);
  }

  /// Execute a block-scope kernel: `block_fn(BlockCtx&)` runs once per
  /// block and coordinates its warps through shared memory and barrier
  /// phases (see gpusim/block.hpp).  Scheduling semantics match run().
  template <typename Fn>
  KernelStats run_blocks(const LaunchConfig& cfg, Fn&& block_fn,
                         std::uint64_t schedule_seed = 0,
                         bool cold_cache = true) {
    PD_CHECK_MSG(cfg.threads_per_block % kWarpSize == 0,
                 "threads_per_block must be a multiple of 32");
    PD_CHECK_MSG(cfg.num_blocks > 0, "empty grid");

    std::vector<SharedCounters> shared(cfg.num_blocks);
    auto run_block = [&](MemRoute route, ComputeCounters& compute,
                         std::uint64_t block) {
      BlockCtx ctx(route, compute, shared[block], block, cfg.threads_per_block,
                   cfg.num_blocks, spec_.shared_bytes_per_block);
      block_fn(ctx);
    };
    KernelStats stats = launch(cfg, run_block, schedule_seed, cold_cache);
    for (const SharedCounters& s : shared) {
      stats.shared += s;
    }
    return stats;
  }

 private:
  /// Blocks in launch order: ascending, or a seeded permutation.
  static std::vector<std::uint64_t> block_order(std::uint64_t num_blocks,
                                                std::uint64_t schedule_seed) {
    std::vector<std::uint64_t> order(num_blocks);
    std::iota(order.begin(), order.end(), 0);
    if (schedule_seed != 0) {
      Rng rng(schedule_seed);
      rng.shuffle(order.data(), order.size());
    }
    return order;
  }

  /// Phase-1 execution contexts for the current options (>= 1).
  unsigned phase1_contexts() const {
    return resolve_phase1_threads(opts_.phase1_threads);
  }

  ThreadPool& pool(unsigned contexts) {
    if (!pool_) {
      pool_ = std::make_unique<ThreadPool>(contexts - 1);
    }
    return *pool_;
  }

  /// Attach the active analyzer (if any) to a route before handing it to a
  /// block — the one place the check pointer enters the execution path.
  MemRoute routed(MemRoute route) {
    route.set_check(check_.get());
    return route;
  }

  /// Mode dispatch shared by run() and run_blocks().  `run_block` executes
  /// one block's warps against a MemRoute, accumulating into the given
  /// ComputeCounters.
  template <typename RunBlock>
  KernelStats launch(const LaunchConfig& cfg, RunBlock&& run_block,
                     std::uint64_t schedule_seed, bool cold_cache) {
    KernelStats stats;
    stats.blocks_launched = cfg.num_blocks;
    stats.warps_launched = cfg.total_warps();

    const std::vector<std::uint64_t> order =
        block_order(cfg.num_blocks, schedule_seed);

    if (check_) {
      check_->begin_launch(cfg.num_blocks, cfg.warps_per_block());
    }

    switch (opts_.mode) {
      case TraceMode::kSerial: {
        if (cold_cache) {
          mem_.invalidate_cache();
        }
        mem_.begin_kernel();
        ComputeCounters compute;
        for (const std::uint64_t block : order) {
          run_block(routed(MemRoute::direct(mem_)), compute, block);
        }
        stats.traffic = mem_.end_kernel();
        stats.compute = compute;
        break;
      }

      case TraceMode::kFunctionalOnly: {
        std::vector<ComputeCounters> compute(cfg.num_blocks);
        // Checked launches run serially: the shadow state is not
        // thread-safe, and serial schedule order keeps findings (and FP
        // atomic application) deterministic.  Counters are mode- and
        // parallelism-invariant, so nothing observable changes.
        const unsigned contexts = check_ ? 1 : phase1_contexts();
        if (contexts > 1 && cfg.num_blocks > 1) {
          MemRoute route = MemRoute::functional();
          route.set_concurrent(true);
          pool(contexts).parallel_for(
              cfg.num_blocks, [&](std::size_t block) {
                run_block(route, compute[block],
                          static_cast<std::uint64_t>(block));
              });
        } else {
          // Serial functional execution follows the schedule order so FP
          // atomics apply exactly as in the serial engine.
          for (const std::uint64_t block : order) {
            run_block(routed(MemRoute::functional()), compute[block], block);
          }
        }
        for (const ComputeCounters& c : compute) {
          stats.compute += c;
        }
        break;
      }

      case TraceMode::kTraceReplay: {
        // Phase 1: functional execution, recording per-block sector traces.
        std::vector<BlockTrace> traces(cfg.num_blocks);
        std::vector<ComputeCounters> compute(cfg.num_blocks);
        const unsigned contexts = check_ ? 1 : phase1_contexts();
        if (contexts > 1 && cfg.num_blocks > 1) {
          pool(contexts).parallel_for(
              cfg.num_blocks, [&](std::size_t block) {
                MemRoute route = MemRoute::record(traces[block]);
                route.set_concurrent(true);
                run_block(route, compute[block],
                          static_cast<std::uint64_t>(block));
              });
        } else {
          for (const std::uint64_t block : order) {
            run_block(routed(MemRoute::record(traces[block])), compute[block],
                      block);
          }
        }
        // Phase 2: replay through the cache in schedule order — the same
        // request sequence the serial engine would have issued.
        if (cold_cache) {
          mem_.invalidate_cache();
        }
        mem_.begin_kernel();
        for (const std::uint64_t block : order) {
          mem_.replay(traces[block]);
        }
        stats.traffic = mem_.end_kernel();
        for (const ComputeCounters& c : compute) {
          stats.compute += c;
        }
        break;
      }
    }

    if (check_) {
      check_->end_launch();
    }
    return stats;
  }

  DeviceSpec spec_;
  MemoryModel mem_;
  EngineOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<CheckContext> check_;
};

}  // namespace pd::gpusim
