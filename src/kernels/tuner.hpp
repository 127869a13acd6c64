#pragma once
// Execution-configuration tuners.
//
// Two layers, both rooted in the paper's §V-A observation that the right
// execution configuration is an empirical question:
//  * tune_block_size — the paper's Figure 4 experiment: sweep
//    threads-per-block, measure each launch on the simulated device, pick
//    the highest modeled GFLOP/s.
//  * autotune_fast_tier — the fast tier's measurement-driven autotuner
//    (fast-tier v2): enumerate candidate compressed containers (rsformat,
//    float SELL-C-σ, quantized SELL-C-σ over C ∈ {8,16,32,64} ×
//    σ ∈ {256,1024,4096,rows}), rank them with a deterministic streamed-bytes
//    model, then micro-benchmark the finalists (plus native thread count and
//    batch width) on the actual matrix and return the winning TunedConfig.
//    With trials == 0 the measurement stage is skipped and the byte-model
//    winner is returned — fully deterministic, which is what the CI
//    tuner-determinism check pins (PROTONDOSE_TUNER_TRIALS=0).  Measured
//    runs keep a hysteresis margin: a candidate must beat a model-preferred
//    rival by >10% wall-clock to override the deterministic order, so quiet
//    machines reproduce the same config run to run.
//    The tuner only reads the engine: it builds and times its candidate
//    containers on its own engine over the widened stored matrix, and
//    apply_tuned is the one writer of an engine's fast configuration —
//    Tier::kBitwise results stay byte-for-byte unchanged whether or not a
//    config was tuned or applied.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "gpusim/perf.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/spmv_common.hpp"

namespace pd::kernels {

struct TunePoint {
  unsigned threads_per_block = 0;
  gpusim::PerfEstimate estimate;
};

struct TuneResult {
  std::vector<TunePoint> points;
  unsigned best_threads_per_block = 0;

  const TunePoint& best() const {
    for (const TunePoint& p : points) {
      if (p.threads_per_block == best_threads_per_block) {
        return p;
      }
    }
    throw pd::Error("TuneResult: empty sweep");
  }
};

/// The paper's sweep: 32..1024 threads per block.
inline std::vector<unsigned> default_block_sizes() {
  return {32, 64, 128, 256, 512, 1024};
}

/// Delta-vs-full breakeven (docs/delta_engine.md).  A bitwise delta update
/// streams roughly the affected fraction of the matrix; the fast delta
/// streams only the changed columns' sidecar entries — ≤8 B value + 4 B row
/// index + a 16 B dose read-modify-write per nnz: 28 B is an upper bound (22 B
/// for half storage).  Both are DRAM-bound like every product here, so the
/// tuner compares streamed bytes: delta wins while changed_frac · cols ·
/// (nnz/cols) · 28 B < full CSR bytes.  Ties go to the full recompute (one
/// pass, no worklist bookkeeping).
struct DeltaThreshold {
  double breakeven_changed_frac = 1.0;  ///< delta wins strictly below this.
  std::uint64_t full_bytes = 0;         ///< CSR bytes one full product streams.
  double delta_bytes_per_col = 0.0;     ///< mean delta bytes per changed column.

  bool prefer_delta(double changed_frac) const {
    return changed_frac < breakeven_changed_frac;
  }
};

inline DeltaThreshold delta_threshold(std::uint64_t csr_bytes,
                                      std::uint64_t nnz, std::uint64_t cols) {
  DeltaThreshold t;
  t.full_bytes = csr_bytes;
  if (cols == 0 || nnz == 0) {
    return t;  // empty matrix: any "update" is free, keep breakeven at 1.
  }
  t.delta_bytes_per_col =
      static_cast<double>(nnz) / static_cast<double>(cols) * 28.0;
  const double all_cols_delta_bytes =
      t.delta_bytes_per_col * static_cast<double>(cols);
  t.breakeven_changed_frac =
      std::min(1.0, static_cast<double>(csr_bytes) / all_cols_delta_bytes);
  return t;
}

/// `run_at(tpb)` must launch the kernel with that block size and return the
/// SpmvRun; `mean_work_per_warp` feeds the perf model (see gpusim::PerfInput).
template <typename RunFn>
TuneResult tune_block_size(const gpusim::DeviceSpec& spec, RunFn&& run_at,
                           double mean_work_per_warp,
                           std::vector<unsigned> candidates = default_block_sizes()) {
  PD_CHECK_MSG(!candidates.empty(), "tune_block_size: no candidates");
  TuneResult result;
  double best_gflops = -1.0;
  for (const unsigned tpb : candidates) {
    const SpmvRun run = run_at(tpb);
    gpusim::PerfInput in;
    in.stats = run.stats;
    in.config = run.config;
    in.precision = run.precision;
    in.mean_work_per_warp = mean_work_per_warp;
    TunePoint point;
    point.threads_per_block = tpb;
    point.estimate = gpusim::estimate_performance(spec, in);
    if (point.estimate.gflops > best_gflops) {
      best_gflops = point.estimate.gflops;
      result.best_threads_per_block = tpb;
    }
    result.points.push_back(point);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fast-tier autotuner (fast-tier v2).
// ---------------------------------------------------------------------------

/// One candidate the autotuner considered (emitted into bench JSON).
struct TuneCandidate {
  DoseEngine::FastFormat format = DoseEngine::FastFormat::kRsFormat;
  std::uint32_t sell_c = 0;       ///< 0 for rsformat.
  std::uint32_t sell_sigma = 0;   ///< resolved σ (rows rounded up); 0 for rsformat.
  std::uint64_t streamed_bytes = 0;  ///< byte-model estimate per product.
  double us_per_product = 0.0;    ///< measured wall-clock; 0 = model-only.
  bool measured = false;
};

/// The winning configuration.  Everything the engine needs to run the fast
/// tier at this matrix's best-known operating point; cached per plan in
/// EngineCache (service) so a hot plan is tuned exactly once.
struct TunedConfig {
  DoseEngine::FastFormat format = DoseEngine::FastFormat::kRsFormat;
  std::uint32_t sell_c = 32;       ///< SELL chunk height (sell formats).
  std::uint32_t sell_sigma = 1024; ///< SELL sort window (resolved, > 0).
  unsigned fast_threads = 1;       ///< native threads for fast-tier computes.
  std::size_t batch_width = 1;     ///< probed batch width (1 = unprobed/no win).
  double batched_speedup = 0.0;    ///< measured K-batch speedup (0 = unprobed).
  std::uint64_t streamed_bytes = 0;
  double us_per_product = 0.0;     ///< winner's measured time (0 = model-only).
  unsigned trials = 0;             ///< measurement reps used (0 = model-only).
  std::vector<TuneCandidate> candidates;  ///< full sweep, model-rank order.
};

/// Decision-field equality (timings excluded) — what the determinism check
/// compares across repeated tunes of the same matrix.
inline bool same_decision(const TunedConfig& a, const TunedConfig& b) {
  return a.format == b.format && a.sell_c == b.sell_c &&
         a.sell_sigma == b.sell_sigma && a.fast_threads == b.fast_threads &&
         a.batch_width == b.batch_width;
}

struct TuneOptions {
  /// SELL-C-σ geometry sweep; σ == 0 means "all rows" (resolved to the row
  /// count rounded up to a multiple of C).
  std::vector<std::uint32_t> chunk_heights = {8, 16, 32, 64};
  std::vector<std::uint32_t> sort_windows = {256, 1024, 4096, 0};
  /// Native thread counts to measure for the winning format (0 = all
  /// hardware threads).  The first entry is the deterministic default.
  std::vector<unsigned> thread_candidates = {1, 0};
  /// Wall-clock reps per measured candidate; 0 = byte-model only, fully
  /// deterministic (the mode the CI determinism check pins).
  unsigned trials = 3;
  /// How many model-ranked finalists get measured (trials > 0).
  std::size_t measure_finalists = 3;
  /// When > 1 and the winner is rsformat, probe compute_batch at this width
  /// against looped single products and record the speedup.
  std::size_t probe_batch = 1;
};

/// TuneOptions with `trials` overridden by the PROTONDOSE_TUNER_TRIALS
/// environment variable when set (the CI determinism pin).
TuneOptions tune_options_from_env();

/// Streamed bytes of a hypothetical SELL-C-σ container with the given
/// geometry, computed from row lengths alone (no build): replicates the
/// builder's σ-window descending sort + per-chunk padding.  `row_nnz` must
/// already be compacted for the quantized container (non-empty rows only).
std::uint64_t sellcs_model_bytes(const std::vector<std::uint32_t>& row_nnz,
                                 std::uint64_t num_cols, std::uint32_t C,
                                 std::uint32_t sigma, bool quantized);

/// Sort candidates into the byte model's rank order — fewest streamed bytes
/// first, ties broken rsformat (no padding, no permutation) before quantized
/// SELL before float SELL, then by C and σ — and drop duplicate
/// (format, C, σ) entries.  The front is the trials == 0 winner.
void rank_candidates(std::vector<TuneCandidate>& candidates);

/// Run the autotuner on the engine's stored matrix.  Reads the engine only:
/// every container it builds or times is its own and is dropped on return,
/// so the engine keeps no fast storage it did not already hold.  rsformat is
/// a candidate only for non-negative matrices, quantized SELL only for
/// non-negative matrices with <= 2^16 columns.  Throws nothing beyond
/// allocation/configuration errors.
TunedConfig autotune_fast_tier(const DoseEngine& engine,
                               const TuneOptions& opts = {});

/// The one writer of an engine's fast configuration: SELL geometry (cached
/// SELL containers of another geometry are dropped), fast-tier thread count,
/// and the format FastFormat::kAuto resolves to.  Does not change the
/// engine's default spec or any bitwise-tier state.
void apply_tuned(DoseEngine& engine, const TunedConfig& config);

}  // namespace pd::kernels
