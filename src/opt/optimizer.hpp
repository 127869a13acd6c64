#pragma once
// Spot-weight optimization: projected gradient descent with backtracking
// line search over non-negative spot weights.
//
// This is the downstream consumer that motivates the paper: each iteration
// computes dose = D·x (the paper's kernel) and gradient = D^T (∂f/∂dose)
// (the same kernel on the transposed matrix), so dose-calculation throughput
// directly bounds planning time.  Both products run through DoseEngine on
// the simulated GPU; the run is deterministic, and because the engine's
// kernel is schedule-independent, re-running a plan reproduces it bitwise.

#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "opt/objective.hpp"
#include "sparse/csr.hpp"

namespace pd::opt {

/// Search-direction strategy.  Real treatment-planning systems (RayStation's
/// optimizer included) use quasi-Newton methods; L-BFGS needs far fewer
/// iterations than steepest descent on the ill-conditioned quadratic
/// objectives of planning — each saved iteration is one fewer forward +
/// transposed SpMV pair.
enum class OptimizerMethod {
  kProjectedGradient,
  kLbfgs,  ///< Projected L-BFGS (two-loop recursion + non-negativity projection).
};

struct OptimizerConfig {
  OptimizerMethod method = OptimizerMethod::kProjectedGradient;
  unsigned max_iterations = 50;
  double initial_step = 1.0;
  double step_shrink = 0.5;
  unsigned max_backtracks = 20;
  unsigned lbfgs_history = 8;        ///< Stored (s, y) pairs.
  double gradient_tolerance = 1e-8;  ///< Stop when ||proj grad||_inf is below.
  kernels::DoseEngine::Mode mode = kernels::DoseEngine::Mode::kHalfDouble;
  /// The inner SpMV loop never reads traffic counters, so the engines default
  /// to functional-only execution (no cache simulation) — dose values and the
  /// optimization trajectory are identical to the serial engine's.
  gpusim::EngineOptions engine{gpusim::TraceMode::kFunctionalOnly, 0};
  /// The inner loop defaults to the native backend: bitwise-identical dose
  /// (so the trajectory is unchanged), much faster wall-clock.  Set kGpusim
  /// to route every product through the simulator instead.
  kernels::DoseEngine::Backend backend = kernels::DoseEngine::Backend::kNative;
  /// Native-backend threads (0 = all hardware threads); any value yields the
  /// same bits.
  unsigned native_threads = 0;
  /// Warm-start delta solves (docs/delta_engine.md): the non-negativity
  /// projection pins spots at zero, so the changed-weight fraction between
  /// iterates shrinks as the active set stabilizes.  Once it has stayed
  /// below the breakeven threshold for `delta_stable_iters` consecutive
  /// accepted iterations, forward products switch from full compute to
  /// bitwise compute_delta — bitwise identical to the full compute, so the
  /// optimization trajectory is unchanged and default-on is safe.  Trials
  /// whose changed fraction exceeds the threshold still run full computes.
  bool delta_warm_start = true;
  /// Changed-fraction breakeven; < 0 derives it from streamed-bytes
  /// arithmetic (kernels::delta_threshold on the stored matrix).
  double delta_changed_frac = -1.0;
  unsigned delta_stable_iters = 2;
};

struct OptimizerResult {
  std::vector<double> spot_weights;
  std::vector<double> dose;
  std::vector<double> objective_history;  ///< One value per accepted iterate.
  unsigned iterations = 0;
  bool converged = false;
  /// Forward + transposed products performed.  Batch-aware: a compute_batch
  /// of K vectors counts K products (one per dose), even though it traverses
  /// the matrix once — keeping throughput numbers comparable across
  /// backends and batching strategies.
  std::uint64_t spmv_count = 0;
  /// Wall-clock seconds spent building engines (matrix copies, transposes,
  /// precision conversions) before the first iteration, plus any engines
  /// built lazily during the run.
  double setup_seconds = 0.0;
  /// Forward products requested through bitwise compute_delta after warm
  /// start (a subset of spmv_count; 0 when the warm start never engaged).
  /// This includes the calls where apply_delta found the row replay no
  /// cheaper and ran the full compute instead (DeltaRun::full_compute).
  std::uint64_t delta_spmv_count = 0;
  /// 1-based accepted iteration at which delta solves switched on
  /// (0 = never).
  unsigned warm_start_iteration = 0;
};

class PlanOptimizer {
 public:
  /// D is the dose deposition matrix (rows = voxels, cols = spots); the
  /// optimizer builds the forward engine on `device` and, eagerly, its Dᵀ
  /// (DoseEngine::csc_sidecar), which serves gradients and delta updates.
  PlanOptimizer(const sparse::CsrF64& D, DoseObjective objective,
                gpusim::DeviceSpec device, OptimizerConfig config = {});

  OptimizerResult optimize();

 private:
  DoseObjective objective_;
  OptimizerConfig config_;
  WallTimer setup_timer_;  ///< Declared before the engines to time their
                           ///< construction (members initialize in order).
  kernels::DoseEngine forward_;
  double setup_seconds_ = 0.0;
};

}  // namespace pd::opt
