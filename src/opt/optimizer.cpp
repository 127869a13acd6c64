#include "opt/optimizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>

#include "common/error.hpp"
#include "kernels/tuner.hpp"

namespace pd::opt {

namespace {

/// One stored curvature pair for L-BFGS.
struct CurvaturePair {
  std::vector<double> s;  ///< x_{k+1} - x_k
  std::vector<double> y;  ///< g_{k+1} - g_k
  double rho = 0.0;       ///< 1 / (y^T s)
};

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

/// Two-loop recursion: d = -H g with the implicit L-BFGS inverse Hessian.
std::vector<double> lbfgs_direction(const std::vector<double>& grad,
                                    const std::deque<CurvaturePair>& history) {
  std::vector<double> q = grad;
  std::vector<double> alpha(history.size());
  for (std::size_t i = history.size(); i-- > 0;) {
    alpha[i] = history[i].rho * dot(history[i].s, q);
    for (std::size_t j = 0; j < q.size(); ++j) {
      q[j] -= alpha[i] * history[i].y[j];
    }
  }
  // Initial Hessian scaling gamma = s^T y / y^T y of the newest pair.
  if (!history.empty()) {
    const auto& last = history.back();
    const double yy = dot(last.y, last.y);
    const double gamma = yy > 0.0 ? dot(last.s, last.y) / yy : 1.0;
    for (double& v : q) {
      v *= gamma;
    }
  }
  for (std::size_t i = 0; i < history.size(); ++i) {
    const double beta = history[i].rho * dot(history[i].y, q);
    for (std::size_t j = 0; j < q.size(); ++j) {
      q[j] += history[i].s[j] * (alpha[i] - beta);
    }
  }
  for (double& v : q) {
    v = -v;
  }
  return q;
}

/// Fraction of weights that changed *bitwise* — what compute_delta will
/// actually treat as changed (diff_weights compares bits too).
double changed_fraction(const std::vector<double>& a,
                        const std::vector<double>& b) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    changed += std::bit_cast<std::uint64_t>(a[i]) !=
               std::bit_cast<std::uint64_t>(b[i]);
  }
  return a.empty() ? 0.0
                   : static_cast<double>(changed) /
                         static_cast<double>(a.size());
}

kernels::DoseEngine make_forward_engine(const sparse::CsrF64& D,
                                        gpusim::DeviceSpec device,
                                        const OptimizerConfig& config) {
  kernels::DoseEngine engine(sparse::CsrF64(D), std::move(device), config.mode,
                             kernels::kDefaultVectorTpb,
                             kernels::SpmvFamily::kVector, config.backend);
  engine.set_engine_options(config.engine);
  engine.set_native_threads(config.native_threads);
  return engine;
}

}  // namespace

PlanOptimizer::PlanOptimizer(const sparse::CsrF64& D, DoseObjective objective,
                             gpusim::DeviceSpec device, OptimizerConfig config)
    : objective_(std::move(objective)),
      config_(config),
      forward_(make_forward_engine(D, std::move(device), config)) {
  forward_.csc_sidecar();  // Dᵀ: built here so setup_seconds covers it
  setup_seconds_ = setup_timer_.seconds();
  PD_CHECK_MSG(config_.max_iterations > 0, "optimizer: need >= 1 iteration");
  PD_CHECK_MSG(config_.lbfgs_history > 0, "optimizer: need >= 1 history pair");
}

OptimizerResult PlanOptimizer::optimize() {
  OptimizerResult result;
  const std::uint64_t num_spots = forward_.num_spots();

  // Start from uniform unit weights (a flat fluence).
  std::vector<double> x(num_spots, 1.0);
  std::vector<double> dose = forward_.compute(x);
  ++result.spmv_count;
  double fx = objective_.value(dose);
  result.objective_history.push_back(fx);

  auto spot_gradient = [&](const std::vector<double>& d) {
    const std::vector<double> gdose = objective_.dose_gradient(d);
    ++result.spmv_count;
    return forward_.csc_sidecar().compute(gdose);
  };
  std::vector<double> gx = spot_gradient(dose);

  // Warm-start state: switch to bitwise delta solves once the changed
  // fraction of accepted steps stays below the breakeven threshold.
  double delta_breakeven = config_.delta_changed_frac;
  if (delta_breakeven < 0.0) {
    const sparse::MatrixStats& st = forward_.stats();
    const std::uint64_t value_bytes =
        config_.mode == kernels::DoseEngine::Mode::kHalfDouble
            ? 2
            : (config_.mode == kernels::DoseEngine::Mode::kSingle ? 4 : 8);
    delta_breakeven =
        kernels::delta_threshold(st.csr_bytes(value_bytes, 4), st.nnz,
                                 st.cols)
            .breakeven_changed_frac;
  }
  bool warm = false;
  unsigned stable = 0;

  std::deque<CurvaturePair> history;
  double step = config_.initial_step;
  for (unsigned it = 0; it < config_.max_iterations; ++it) {
    // Projected-gradient stationarity: for x_i = 0 only negative gradients
    // matter.
    double stationarity = 0.0;
    for (std::uint64_t i = 0; i < num_spots; ++i) {
      const double g = (x[i] > 0.0) ? gx[i] : std::min(gx[i], 0.0);
      stationarity = std::max(stationarity, std::fabs(g));
    }
    if (stationarity < config_.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Search direction.
    std::vector<double> direction;
    double trial_step = step;
    if (config_.method == OptimizerMethod::kLbfgs) {
      direction = lbfgs_direction(gx, history);
      // Quasi-Newton directions are already scaled: start from unit step.
      trial_step = 1.0;
      // Safeguard: fall back to steepest descent if the direction fails to
      // descend (can happen right after the projection kinks the geometry).
      if (dot(direction, gx) >= 0.0) {
        direction.assign(gx.begin(), gx.end());
        for (double& v : direction) {
          v = -v;
        }
        trial_step = step;
      }
    } else {
      direction.resize(num_spots);
      for (std::uint64_t i = 0; i < num_spots; ++i) {
        direction[i] = -gx[i];
      }
    }

    // Backtracking line search on the projected step.
    bool accepted = false;
    for (unsigned bt = 0; bt < config_.max_backtracks; ++bt) {
      std::vector<double> x_new(num_spots);
      for (std::uint64_t i = 0; i < num_spots; ++i) {
        x_new[i] = std::max(0.0, x[i] + trial_step * direction[i]);
      }
      // The delta replay is bitwise equal to forward_.compute(x_new), so
      // which branch runs never changes the trajectory — only its cost.
      const double frac = changed_fraction(x, x_new);
      std::vector<double> dose_new;
      if (config_.delta_warm_start && warm && frac < delta_breakeven) {
        dose_new = forward_.compute_delta(dose, x, x_new);
        ++result.delta_spmv_count;
      } else {
        dose_new = forward_.compute(x_new);
      }
      ++result.spmv_count;
      const double f_new = objective_.value(dose_new);
      if (f_new < fx) {
        if (config_.delta_warm_start && !warm) {
          if (frac < delta_breakeven) {
            if (++stable >= config_.delta_stable_iters) {
              warm = true;
              result.warm_start_iteration = it + 1;
            }
          } else {
            stable = 0;
          }
        }
        std::vector<double> gx_new = spot_gradient(dose_new);
        if (config_.method == OptimizerMethod::kLbfgs) {
          CurvaturePair pair;
          pair.s.resize(num_spots);
          pair.y.resize(num_spots);
          for (std::uint64_t i = 0; i < num_spots; ++i) {
            pair.s[i] = x_new[i] - x[i];
            pair.y[i] = gx_new[i] - gx[i];
          }
          const double sy = dot(pair.s, pair.y);
          if (sy > 1e-12) {  // curvature condition: keep H positive definite
            pair.rho = 1.0 / sy;
            history.push_back(std::move(pair));
            if (history.size() > config_.lbfgs_history) {
              history.pop_front();
            }
          }
        }
        x = std::move(x_new);
        dose = std::move(dose_new);
        gx = std::move(gx_new);
        fx = f_new;
        accepted = true;
        if (config_.method == OptimizerMethod::kProjectedGradient) {
          step = trial_step * 1.2;  // cautious growth after success
        }
        break;
      }
      trial_step *= config_.step_shrink;
    }
    ++result.iterations;
    result.objective_history.push_back(fx);
    if (!accepted) {
      break;  // line search failed: we are at numerical stationarity
    }
  }

  result.spot_weights = std::move(x);
  result.dose = std::move(dose);
  result.setup_seconds = setup_seconds_;
  return result;
}

}  // namespace pd::opt
