#pragma once
// DoseEngine — the library's high-level public API.
//
// Wraps everything a treatment-planning optimizer needs: take a dose
// deposition matrix once, choose a precision mode and device, then compute
// dose = D · spot_weights repeatedly (once per optimizer iteration).  The
// default mode is the paper's mixed half/double kernel, which satisfies both
// RayStation requirements from §II-D: double-precision vectors and bitwise
// run-to-run reproducibility.
//
// Two execution backends share the engine's storage and produce bitwise
// identical dose vectors (docs/native_backend.md):
//  * Backend::kGpusim — the simulated GPU, with traffic counters and the
//    performance model (the differential oracle);
//  * Backend::kNative — host-native scalar row kernels replicating the warp
//    kernels' exact accumulation orders, multithreaded over an nnz-balanced
//    row partition.  No counters, but much faster wall-clock — the backend
//    optimizer inner loops run on.
//
// Orthogonal to the backend axis, every compute runs in one of two accuracy
// *tiers*, chosen per call by an ExecSpec (docs/fast_tier.md):
//  * Tier::kBitwise (default) — everything above: bitwise run-to-run and
//    cross-backend reproducible, the differential oracle.
//  * Tier::kFast — SpMV executed directly on compressed storage (fused
//    rsformat decompress-SpMV or a native SELL-C-σ kernel), streaming far
//    fewer bytes than CSR.  Host-native only, verified against the bitwise
//    tier with a derived tolerance bound instead of bit equality.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fp16/half.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/perf.hpp"
#include "kernels/adaptive_csr.hpp"
#include "kernels/delta_spmv.hpp"
#include "kernels/native_backend.hpp"
#include "kernels/rowsplit_csr.hpp"
#include "kernels/spmv_common.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/sellcs.hpp"
#include "sparse/stats.hpp"

namespace pd::kernels {

struct TunedConfig;  // kernels/tuner.hpp

class DoseEngine {
 public:
  enum class Mode {
    kHalfDouble,  ///< 16-bit matrix, 64-bit vectors (the paper's kernel).
    kSingle,      ///< everything binary32.
    kDouble,      ///< everything binary64 (reference-quality).
  };

  enum class Backend {
    kGpusim,  ///< simulated GPU: counters + perf model, slow wall-clock.
    kNative,  ///< host-native, bitwise identical dose, no counters.
  };

  enum class Tier {
    kBitwise,  ///< default: bitwise-reproducible CSR kernels (the oracle).
    kFast,     ///< compute on compressed storage; tolerance-verified.
  };

  enum class FastFormat {
    kRsFormat,  ///< fused decompress-SpMV on the 16-bit delta streams.
    kSellCs,    ///< native SELL-C-σ kernel (float values, SIMD gathers).
    kSellCsQ,   ///< quantized SELL-C-σ (u16 values + per-column scale,
                ///< empty rows compacted out; needs <= 65536 columns).
    kAuto,      ///< the tuned format when a TunedConfig was applied
                ///< (apply_tuned, kernels/tuner.hpp), else kRsFormat.
  };

  /// How one compute runs: the accuracy tier and, for Tier::kFast, the
  /// compressed container.  The engine keeps no tier state between calls
  /// beyond the default spec that set_tier selects.
  struct ExecSpec {
    Tier tier = Tier::kBitwise;
    FastFormat format = FastFormat::kAuto;
  };

  /// Accuracy contract for compute_delta / apply_delta
  /// (docs/delta_engine.md) — the delta analogue of the tier axis.
  enum class DeltaMode {
    kBitwise,  ///< recompute affected rows in the bitwise tier's order;
               ///< result bitwise equal to a full compute of the new weights.
    kFast,     ///< scatter-add D[:,j]·Δw_j; verified by a derived bound.
  };

  /// What one delta update actually touched (apply_delta's result).
  struct DeltaRun {
    DeltaMode mode = DeltaMode::kBitwise;
    std::uint64_t changed_cols = 0;  ///< bitwise-changed weight entries.
    std::uint64_t delta_nnz = 0;     ///< nnz of the changed columns (|Δw| work).
    std::uint64_t touched_rows = 0;  ///< dose rows rewritten (kBitwise).
    std::uint64_t touched_nnz = 0;   ///< stored nnz of those rows.
    /// kBitwise only: replaying the touched rows would have streamed at
    /// least a full product's bytes, so the full compute ran instead and
    /// every row was rewritten.
    bool full_compute = false;
  };

  using Family = SpmvFamily;

  /// Takes ownership of the (double-precision) dose deposition matrix and
  /// prepares the storage for `mode` on a simulated `device`.  `family`
  /// selects the SpMV kernel family (host-side analysis for rowsplit /
  /// adaptive runs here); `backend` selects who executes it.
  DoseEngine(sparse::CsrF64 matrix, gpusim::DeviceSpec device,
             Mode mode = Mode::kHalfDouble,
             unsigned threads_per_block = kDefaultVectorTpb,
             Family family = Family::kVector,
             Backend backend = Backend::kGpusim);

  /// Engine of `row_blocks` stacked row-wise (sparse::vstack_rows: blocks
  /// share one column space), each block's values converted straight into
  /// the mode's storage — no stacked double copy is built.  Same storage,
  /// stats and products as the single-matrix constructor on the stack.
  DoseEngine(std::span<const sparse::CsrF64> row_blocks,
             gpusim::DeviceSpec device, Mode mode = Mode::kHalfDouble,
             unsigned threads_per_block = kDefaultVectorTpb,
             Family family = Family::kVector,
             Backend backend = Backend::kGpusim);

  /// The engine of the transpose of rows [row_begin, row_end) of the stored
  /// matrix — the gradient operator Dᵀ of that row block.  Built by
  /// permuting the stored (half / single / double) values with
  /// sparse::transpose, never by widening and re-converting them: conversion
  /// is per element and a transpose only moves elements, so the result's
  /// storage equals the storage of an engine built from the transposed
  /// double input, entry for entry, and its products are bitwise equal.
  /// Inherits mode, family, backend, threads per block, native threads and
  /// engine options; the transpose runs on this engine's native threads.
  /// The new engine starts in the bitwise tier with no fast or delta state.
  DoseEngine transposed(std::uint64_t row_begin, std::uint64_t row_end);

  DoseEngine(const DoseEngine&) = delete;
  DoseEngine& operator=(const DoseEngine&) = delete;
  DoseEngine(DoseEngine&&) = default;
  ~DoseEngine();

  std::uint64_t num_voxels() const { return stats_.rows; }
  std::uint64_t num_spots() const { return stats_.cols; }
  const sparse::MatrixStats& stats() const { return stats_; }
  Mode mode() const { return mode_; }
  Family family() const { return family_; }

  Backend backend() const { return backend_; }
  /// Switch backends between computes; dose bits do not change.
  void set_backend(Backend backend) { backend_ = backend; }

  /// Thread count for the native backend (default 1; 0 = all hardware
  /// threads).  Bitwise-tier results are bitwise identical for every thread
  /// count; fast-tier results are run-to-run deterministic per thread count
  /// (docs/fast_tier.md).  Fast computes run at the tuned thread count once
  /// apply_tuned ran, on the same thread pool.
  void set_native_threads(unsigned threads) { native_.set_threads(threads); }
  unsigned native_threads() const { return native_.requested_threads(); }

  /// The engine's default spec: what compute(w) and compute_batch(w, k) run.
  /// Tier::kFast builds the container for `format` now (kAuto resolves
  /// now; throws pd::Error for kRsFormat if the stored matrix has negative
  /// values).  Callers that share an engine pass an ExecSpec per call
  /// instead.
  void set_tier(Tier tier, FastFormat format = FastFormat::kRsFormat);

  /// The engine's device (the simulated GPU's spec).
  const gpusim::DeviceSpec& device() const { return gpu_->spec(); }

  /// Fast-tier storage accessors (built by set_tier or the first fast
  /// compute of that format; throw if absent).
  const rsformat::RsMatrix& fast_rs_matrix() const;
  const sparse::SellCsMatrix<float>& fast_sell_matrix() const;
  const sparse::SellCsQMatrix& fast_sellq_matrix() const;

  /// The matrix the selected mode actually computes with, widened to double
  /// (exact: half and float embed in double).  This is what the fast tier
  /// compresses and what the tolerance bound is derived against.
  sparse::CsrF64 stored_matrix_as_double() const;

  /// Compute the dose vector for the given spot weights under the default
  /// spec (set_tier; bitwise unless changed).  `schedule_seed`
  /// permutes GPU block scheduling; the result is independent of it (that is
  /// the reproducibility guarantee — asserted in tests).
  std::vector<double> compute(std::span<const double> spot_weights,
                              std::uint64_t schedule_seed = 0);

  /// compute() under `spec`.  Tier::kFast executes host-native on the
  /// format's compressed container whatever backend() says — there is no
  /// simulated fast kernel, so gpusim counters and simcheck do not apply —
  /// and builds that container on first use (cached thereafter; throws
  /// pd::Error for kRsFormat if the stored matrix has negative values).
  /// A fast compute never perturbs the bitwise tier's bits.
  std::vector<double> compute(std::span<const double> spot_weights,
                              ExecSpec spec, std::uint64_t schedule_seed = 0);

  /// Compute `batch` dose vectors for `batch` weight vectors stored
  /// back-to-back in `weights` (batch × num_spots doubles), traversing the
  /// matrix once for the whole batch where the family supports it (vector
  /// family on both backends; other families fall back to per-vector
  /// launches).  Column j is bitwise identical to compute(weights_j).
  std::vector<std::vector<double>> compute_batch(
      std::span<const double> weights, std::size_t batch,
      std::uint64_t schedule_seed = 0);

  /// compute_batch() under `spec` (see compute(w, spec)).
  std::vector<std::vector<double>> compute_batch(
      std::span<const double> weights, std::size_t batch, ExecSpec spec,
      std::uint64_t schedule_seed = 0);

  /// Update `dose` (a dose vector previously computed for `base_weights` by
  /// the bitwise tier) in place to the dose for `new_weights`, touching only
  /// what the weight change reaches (docs/delta_engine.md).  Takes the full
  /// new weight vector, not Δw: changed columns are detected by *bit*
  /// comparison, which is what makes the kBitwise contract exact.
  ///
  ///  * DeltaMode::kBitwise — recomputes exactly the rows reachable from the
  ///    changed columns, replaying the engine's per-row reduction order; the
  ///    updated dose is bitwise identical to compute(new_weights).  When the
  ///    replay would stream at least a full product's bytes, runs the
  ///    bitwise tier's full compute instead (DeltaRun::full_compute).  Executes
  ///    host-native regardless of backend() (like the fast tier, there is no
  ///    simulated delta kernel); bits are invariant across thread counts.
  ///  * DeltaMode::kFast — dose += Σ_j D[:,j]·Δw_j over the changed columns;
  ///    cost ∝ nnz of the changed columns, verified by a derived per-row
  ///    bound (tests/test_delta_engine.cpp).
  ///
  /// Builds csc_sidecar() on first use.  Returns what the update touched.
  DeltaRun apply_delta(std::span<double> dose,
                       std::span<const double> base_weights,
                       std::span<const double> new_weights,
                       DeltaMode mode = DeltaMode::kBitwise);

  /// Copying form: returns the new dose, `base_dose` untouched.
  std::vector<double> compute_delta(std::span<const double> base_dose,
                                    std::span<const double> base_weights,
                                    std::span<const double> new_weights,
                                    DeltaMode mode = DeltaMode::kBitwise);

  /// The engine of Dᵀ — transposed(0, num_voxels()), built on first access
  /// and kept for the engine's lifetime.  Its CSR is the CSC of D in the
  /// stored precision: delta updates walk its arrays, and gradient products
  /// are its compute().
  DoseEngine& csc_sidecar();

  /// Select how the simulated GPU executes launches (serial, trace-replay,
  /// or functional-only — see gpusim/trace.hpp).  Dose values are identical
  /// in every mode; traffic counters are zero under functional-only.
  void set_engine_options(const gpusim::EngineOptions& opts);
  const gpusim::EngineOptions& engine_options() const;

  /// Run subsequent gpusim computes under the simcheck analyzer
  /// (docs/simcheck.md).  Dose bits and counters are unchanged; findings
  /// accumulate in check_report().  Also enabled automatically when the
  /// PROTONDOSE_SIMCHECK environment variable is set at construction.
  /// Checking never applies to the native backend (no simulation there).
  void enable_check(
      const gpusim::CheckConfig& cfg = gpusim::CheckConfig::all());
  void disable_check();
  bool check_enabled() const;
  const gpusim::CheckReport& check_report() const;

  /// Counters and launch geometry of the most recent gpusim compute().
  /// Native computes record no counters, so this throws until a gpusim
  /// launch has run.
  const SpmvRun& last_run() const;

  /// Modeled performance of the most recent gpusim compute() on this device.
  gpusim::PerfEstimate last_estimate() const;

  /// Host bytes of the simulated L2 — allocated by the first gpusim compute
  /// that models traffic, so 0 for engines that only run natively or
  /// functional-only.
  std::uint64_t sim_cache_bytes() const { return gpu_->cache_resident_bytes(); }

 private:
  /// The only writer of the fast configuration below (kernels/tuner.hpp).
  friend void apply_tuned(DoseEngine& engine, const TunedConfig& config);

  /// Empty engine with the given configuration; the caller fills one
  /// storage matrix and then calls analyze_structure().
  DoseEngine(Mode mode, Family family, Backend backend,
             unsigned threads_per_block, gpusim::DeviceSpec device);
  /// Stats and the family's host-side analysis, from any matrix with the
  /// stored structure (structure is shared by every precision).
  template <typename V>
  void analyze_structure(const sparse::CsrMatrix<V>& matrix);
  template <typename MatV, typename Acc>
  void execute(const sparse::CsrMatrix<MatV>& A, std::span<const Acc> x,
               std::span<Acc> y, std::uint64_t schedule_seed,
               Backend backend);
  /// The bitwise tier's full product on `backend` into zeroed `dose`.
  void compute_bitwise(std::span<const double> spot_weights,
                       std::span<double> dose, std::uint64_t schedule_seed,
                       Backend backend);
  template <typename MatV, typename Acc>
  void execute_batch(const sparse::CsrMatrix<MatV>& A,
                     std::span<const Acc* const> xs, std::span<Acc* const> ys,
                     std::uint64_t schedule_seed);
  /// Resolves kAuto, builds the format's container if absent, and returns
  /// the concrete format.
  FastFormat ensure_fast_storage(FastFormat format);
  /// The native executor at the fast tier's thread count.
  NativeExecutor fast_executor() const;
  void ensure_delta_context();
  /// f(stored matrix) for the selected mode's storage.
  template <typename F>
  decltype(auto) with_stored(F&& f) const;
  template <typename MatV, typename Acc>
  void delta_recompute_rows(const sparse::CsrMatrix<MatV>& A,
                            std::span<const Acc> x,
                            std::span<const std::uint32_t> rows,
                            std::span<double> dose);

  Mode mode_;
  Family family_;
  Backend backend_;
  unsigned threads_per_block_;
  sparse::MatrixStats stats_;
  sparse::CsrMatrix<pd::Half> half_matrix_;  ///< kHalfDouble storage.
  sparse::CsrF32 single_matrix_;             ///< kSingle storage.
  sparse::CsrF64 double_matrix_;             ///< kDouble storage.
  ExecSpec default_spec_;
  /// Fast configuration, written only by apply_tuned: what kAuto resolves
  /// to, the SELL-C-σ geometry of the SELL containers, and the fast thread
  /// count (unset = follow set_native_threads).
  FastFormat auto_fast_format_ = FastFormat::kRsFormat;
  std::uint32_t fast_sell_c_ = 32;
  std::uint32_t fast_sell_sigma_ = 1024;
  std::optional<unsigned> fast_threads_;
  /// Fast-tier containers, built lazily from stored_matrix_as_double() and
  /// cached until the geometry changes (unique_ptr doubles as "built" flag).
  std::unique_ptr<rsformat::RsMatrix> rs_matrix_;
  std::unique_ptr<sparse::SellCsMatrix<float>> sell_matrix_;
  std::unique_ptr<sparse::SellCsQMatrix> sellq_matrix_;
  RowSplitPlan rowsplit_plan_;               ///< kRowSplit analysis.
  std::vector<AdaptiveWorkItem> adaptive_worklist_;  ///< kAdaptive analysis.
  /// Dᵀ (csc_sidecar()) and the delta path's row→work-item maps and
  /// scratch, built lazily on the first apply_delta / csc_sidecar().
  std::unique_ptr<DoseEngine> transpose_;
  std::unique_ptr<DeltaContext> delta_;
  std::unique_ptr<gpusim::Gpu> gpu_;
  NativeExecutor native_;
  SpmvRun last_run_;
  bool has_run_ = false;
};

}  // namespace pd::kernels
