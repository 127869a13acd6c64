#include "opt/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"

namespace pd::opt {

namespace {

kernels::DoseEngine make_engine(std::span<const sparse::CsrF64> row_blocks,
                                const gpusim::DeviceSpec& device,
                                const RobustConfig& config) {
  kernels::DoseEngine engine(row_blocks, device, config.precision,
                             kernels::kDefaultVectorTpb,
                             kernels::SpmvFamily::kVector, config.backend);
  engine.set_engine_options(config.engine);
  engine.set_native_threads(config.native_threads);
  return engine;
}

}  // namespace

RobustPlanOptimizer::RobustPlanOptimizer(std::vector<sparse::CsrF64> scenarios,
                                         DoseObjective objective,
                                         gpusim::DeviceSpec device,
                                         RobustConfig config,
                                         std::vector<double> weights)
    : objective_(std::move(objective)),
      config_(config),
      scenario_weights_(std::move(weights)) {
  PD_CHECK_MSG(!scenarios.empty(), "robust: need at least one scenario");
  const std::uint64_t cols = scenarios.front().num_cols;
  const std::uint64_t rows = scenarios.front().num_rows;
  std::uint64_t total_nnz = 0;
  for (const auto& s : scenarios) {
    PD_CHECK_MSG(s.num_cols == cols,
                 "robust: scenarios must share the spot set");
    PD_CHECK_MSG(s.num_rows == rows,
                 "robust: scenarios must share the dose grid");
    total_nnz += s.nnz();
  }
  if (scenario_weights_.empty()) {
    scenario_weights_.assign(scenarios.size(),
                             1.0 / static_cast<double>(scenarios.size()));
  }
  PD_CHECK_MSG(scenario_weights_.size() == scenarios.size(),
               "robust: weight count must equal scenario count");
  for (const double w : scenario_weights_) {
    PD_CHECK_MSG(w >= 0.0, "robust: negative scenario weight");
  }
  num_scenarios_ = scenarios.size();
  rows_per_scenario_ = rows;

  WallTimer timer;
  if (total_nnz <= std::numeric_limits<std::uint32_t>::max()) {
    forward_stacked_ = std::make_unique<kernels::DoseEngine>(
        make_engine(scenarios, device, config_));
  } else {
    // Stacked offsets would overflow 32-bit row_ptr: keep one forward
    // engine per scenario and loop them in evaluate().
    for (const auto& s : scenarios) {
      forward_split_.push_back(std::make_unique<kernels::DoseEngine>(
          make_engine(std::span<const sparse::CsrF64>(&s, 1), device,
                      config_)));
    }
  }
  // Transpose engines are built lazily in transpose_engine() from the
  // forward engines' stored values; the double scenarios are not kept.
  transpose_.resize(num_scenarios_);
  setup_seconds_ = timer.seconds();
}

kernels::DoseEngine& RobustPlanOptimizer::transpose_engine(std::size_t k) {
  if (!transpose_[k]) {
    WallTimer timer;
    transpose_[k] = std::make_unique<kernels::DoseEngine>(
        forward_stacked_
            ? forward_stacked_->transposed(k * rows_per_scenario_,
                                           (k + 1) * rows_per_scenario_)
            : forward_split_[k]->transposed(
                  0, forward_split_[k]->num_voxels()));
    setup_seconds_ += timer.seconds();
  }
  return *transpose_[k];
}

double RobustPlanOptimizer::combine(
    const std::vector<double>& per_scenario) const {
  if (config_.mode == RobustMode::kWorstCase) {
    return *std::max_element(per_scenario.begin(), per_scenario.end());
  }
  double acc = 0.0;
  for (std::size_t k = 0; k < per_scenario.size(); ++k) {
    acc += scenario_weights_[k] * per_scenario[k];
  }
  return acc;
}

RobustPlanOptimizer::Evaluation RobustPlanOptimizer::evaluate(
    const std::vector<double>& x, std::uint64_t* spmv_count) {
  Evaluation ev;
  ev.doses.reserve(num_scenarios_);
  if (forward_stacked_) {
    // One traversal of the stacked matrix yields every scenario dose as a
    // row slice; batch-aware accounting still counts K products.
    const std::vector<double> stacked = forward_stacked_->compute(x);
    *spmv_count += num_scenarios_;
    for (std::size_t k = 0; k < num_scenarios_; ++k) {
      const auto begin = stacked.begin() +
                         static_cast<std::ptrdiff_t>(k * rows_per_scenario_);
      ev.doses.emplace_back(begin,
                            begin + static_cast<std::ptrdiff_t>(
                                        rows_per_scenario_));
      ev.per_scenario.push_back(objective_.value(ev.doses.back()));
    }
  } else {
    for (auto& engine : forward_split_) {
      ev.doses.push_back(engine->compute(x));
      ++*spmv_count;
      ev.per_scenario.push_back(objective_.value(ev.doses.back()));
    }
  }
  ev.robust_value = combine(ev.per_scenario);
  return ev;
}

RobustResult RobustPlanOptimizer::optimize() {
  RobustResult result;
  const std::uint64_t num_spots =
      forward_stacked_ ? forward_stacked_->num_spots()
                       : forward_split_.front()->num_spots();
  std::vector<double> x(num_spots, 1.0);

  Evaluation current = evaluate(x, &result.spmv_count);
  result.objective_history.push_back(current.robust_value);

  double step = config_.initial_step;
  for (unsigned it = 0; it < config_.max_iterations; ++it) {
    // Robust (sub)gradient in spot-weight space.
    std::vector<double> gx(num_spots, 0.0);
    if (config_.mode == RobustMode::kWorstCase) {
      // Smoothed minimax: softmax-weighted scenario gradients.  A pure
      // subgradient (gradient of the single argmax scenario) oscillates
      // between active scenarios and converges poorly; the log-sum-exp
      // smoothing is the standard fix and needs the same K transposed
      // SpMVs per iteration.
      const double f_max = *std::max_element(current.per_scenario.begin(),
                                             current.per_scenario.end());
      const double tau = std::max(1e-12, 0.05 * std::fabs(f_max));
      std::vector<double> soft(current.per_scenario.size());
      double norm = 0.0;
      for (std::size_t k = 0; k < soft.size(); ++k) {
        soft[k] = std::exp((current.per_scenario[k] - f_max) / tau);
        norm += soft[k];
      }
      for (std::size_t k = 0; k < soft.size(); ++k) {
        soft[k] /= norm;
        if (soft[k] < 1e-6) {
          continue;  // scenario far from active: skip its transpose product
        }
        const auto gdose = objective_.dose_gradient(current.doses[k]);
        const auto gk = transpose_engine(k).compute(gdose);
        ++result.spmv_count;
        for (std::uint64_t i = 0; i < num_spots; ++i) {
          gx[i] += soft[k] * gk[i];
        }
      }
    } else {
      for (std::size_t k = 0; k < num_scenarios_; ++k) {
        if (scenario_weights_[k] == 0.0) {
          continue;
        }
        const auto gdose = objective_.dose_gradient(current.doses[k]);
        const auto gk = transpose_engine(k).compute(gdose);
        ++result.spmv_count;
        for (std::uint64_t i = 0; i < num_spots; ++i) {
          gx[i] += scenario_weights_[k] * gk[i];
        }
      }
    }

    // Projected backtracking step.
    bool accepted = false;
    for (unsigned bt = 0; bt < config_.max_backtracks; ++bt) {
      std::vector<double> x_new(num_spots);
      for (std::uint64_t i = 0; i < num_spots; ++i) {
        x_new[i] = std::max(0.0, x[i] - step * gx[i]);
      }
      Evaluation trial = evaluate(x_new, &result.spmv_count);
      if (trial.robust_value < current.robust_value) {
        x = std::move(x_new);
        current = std::move(trial);
        accepted = true;
        step *= 1.2;
        break;
      }
      step *= config_.step_shrink;
    }
    ++result.iterations;
    result.objective_history.push_back(current.robust_value);
    if (!accepted) {
      break;
    }
  }

  result.spot_weights = std::move(x);
  result.scenario_doses = std::move(current.doses);
  result.final_scenario_objectives = std::move(current.per_scenario);
  result.setup_seconds = setup_seconds_;
  return result;
}

}  // namespace pd::opt
