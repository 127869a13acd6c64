#pragma once
// Scenario-based robust treatment-plan optimization.
//
// The paper motivates fast dose calculation with exactly this workload
// (§I-II): "dose distributions from multiple beams, possibly under various
// realizations of uncertainties, must be computed in each iteration", e.g.
// patient-positioning errors.  Robust optimization materializes one dose
// deposition matrix per uncertainty *scenario* and optimizes the expected or
// worst-case objective over them — multiplying the number of SpMV products
// per iteration by the scenario count, which is why SpMV throughput directly
// bounds what robustness a clinic can afford.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "opt/objective.hpp"
#include "sparse/csr.hpp"

namespace pd::opt {

enum class RobustMode {
  kExpectedValue,  ///< minimize the scenario-probability-weighted mean.
  kWorstCase,      ///< minimize the maximum scenario objective (minimax).
};

struct RobustConfig {
  RobustMode mode = RobustMode::kWorstCase;
  unsigned max_iterations = 40;
  double initial_step = 1.0;
  double step_shrink = 0.5;
  unsigned max_backtracks = 20;
  kernels::DoseEngine::Mode precision = kernels::DoseEngine::Mode::kHalfDouble;
  /// See OptimizerConfig::engine — scenario SpMVs never read traffic, so skip
  /// cache simulation by default.
  gpusim::EngineOptions engine{gpusim::TraceMode::kFunctionalOnly, 0};
  /// See OptimizerConfig::backend — native is bitwise identical and faster.
  kernels::DoseEngine::Backend backend = kernels::DoseEngine::Backend::kNative;
  /// Native-backend threads (0 = all hardware threads).
  unsigned native_threads = 0;
};

struct RobustResult {
  std::vector<double> spot_weights;
  /// Final dose per scenario (scenario 0 is conventionally the nominal one).
  std::vector<std::vector<double>> scenario_doses;
  std::vector<double> objective_history;  ///< Robust objective per iterate.
  std::vector<double> final_scenario_objectives;
  unsigned iterations = 0;
  /// Grows ~2·scenarios per iteration.  Batch-aware: the stacked forward
  /// engine computes all K scenario doses in one traversal and counts K.
  std::uint64_t spmv_count = 0;
  /// Engine-construction seconds: the stacked forward engine up front plus
  /// each transpose engine the moment a scenario first becomes active.
  double setup_seconds = 0.0;
};

/// Optimizer over K scenario matrices sharing one spot-weight vector.
class RobustPlanOptimizer {
 public:
  /// `scenarios` are the per-scenario dose deposition matrices (same
  /// columns/spots, possibly different sparsity); `weights` are scenario
  /// probabilities for kExpectedValue (uniform if empty).
  RobustPlanOptimizer(std::vector<sparse::CsrF64> scenarios,
                      DoseObjective objective, gpusim::DeviceSpec device,
                      RobustConfig config = {},
                      std::vector<double> weights = {});

  std::size_t num_scenarios() const { return num_scenarios_; }

  RobustResult optimize();

 private:
  struct Evaluation {
    std::vector<std::vector<double>> doses;
    std::vector<double> per_scenario;
    double robust_value = 0.0;
  };
  Evaluation evaluate(const std::vector<double>& x, std::uint64_t* spmv_count);
  double combine(const std::vector<double>& per_scenario) const;
  /// Lazily build (and cache) scenario k's transpose engine by transposing
  /// its row block of the forward engine's stored values.  Scenarios the
  /// softmax skip never activates never pay their transpose.
  kernels::DoseEngine& transpose_engine(std::size_t k);

  DoseObjective objective_;
  RobustConfig config_;
  std::vector<double> scenario_weights_;
  std::size_t num_scenarios_ = 0;
  std::uint64_t rows_per_scenario_ = 0;
  /// All K scenario matrices stacked row-wise into ONE engine: a single
  /// (batched) traversal yields every scenario dose, and the warp-per-row
  /// kernel makes each row block bitwise identical to a standalone
  /// per-scenario product.  Falls back to per-scenario engines
  /// (forward_split_) when the stacked nnz would overflow 32-bit offsets.
  std::unique_ptr<kernels::DoseEngine> forward_stacked_;
  std::vector<std::unique_ptr<kernels::DoseEngine>> forward_split_;
  /// Transpose engines, built on first use; slot k is null until then.
  std::vector<std::unique_ptr<kernels::DoseEngine>> transpose_;
  double setup_seconds_ = 0.0;
};

}  // namespace pd::opt
