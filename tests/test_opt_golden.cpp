// Golden trajectories for the optimizers: the bits of objective_history and
// spot_weights on a small generated case, pinned as FNV-1a hashes of the
// IEEE-754 bit patterns.  Any change to how the forward or gradient engines
// are built (storage, transpose, precision conversion, thread count) that
// moves a single bit of any product changes the trajectory and fails here.
// The values were recorded when the gradient engines were still built from a
// double-precision transpose of the input, so they also pin that building
// them from the forward engine's stored values changed no bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "opt/optimizer.hpp"
#include "opt/robust.hpp"
#include "sparse/random.hpp"

namespace pd::opt {
namespace {

constexpr std::uint64_t kRows = 360;
constexpr std::uint64_t kCols = 48;

std::uint64_t fnv1a_bits(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : v) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (unsigned b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Four scenarios with independent sparsity (many empty rows, like dose
/// matrices), sharing the dose grid and spot set.
std::vector<sparse::CsrF64> golden_scenarios() {
  Rng rng(2024);
  std::vector<sparse::CsrF64> scenarios;
  for (int k = 0; k < 4; ++k) {
    scenarios.push_back(sparse::random_csr(rng, kRows, kCols, 5.0,
                                           sparse::RandomStructure::kManyEmpty));
  }
  return scenarios;
}

DoseObjective golden_objective() {
  DoseObjective obj;
  ObjectiveTerm target;
  target.type = ObjectiveTerm::Type::kUniformDose;
  for (std::uint64_t v = 0; v < kRows / 3; ++v) target.voxels.push_back(v);
  target.dose_level = 2.0;
  target.weight = 10.0;
  obj.add_term(std::move(target));
  ObjectiveTerm oar;
  oar.type = ObjectiveTerm::Type::kMaxDose;
  for (std::uint64_t v = kRows / 3; v < kRows; ++v) oar.voxels.push_back(v);
  oar.dose_level = 0.5;
  oar.weight = 1.0;
  obj.add_term(std::move(oar));
  return obj;
}

RobustResult run_robust(RobustMode mode) {
  RobustConfig cfg;
  cfg.mode = mode;
  cfg.max_iterations = 15;
  cfg.native_threads = 2;
  RobustPlanOptimizer opt(golden_scenarios(), golden_objective(),
                          gpusim::make_a100(), cfg);
  return opt.optimize();
}

OptimizerResult run_plan(OptimizerMethod method) {
  OptimizerConfig cfg;
  cfg.method = method;
  cfg.max_iterations = 15;
  cfg.native_threads = 2;
  PlanOptimizer opt(golden_scenarios().front(), golden_objective(),
                    gpusim::make_a100(), cfg);
  return opt.optimize();
}

TEST(OptimizerGolden, RobustWorstCaseTrajectoryBits) {
  const RobustResult r = run_robust(RobustMode::kWorstCase);
  EXPECT_EQ(r.iterations, 15u);
  EXPECT_EQ(fnv1a_bits(r.objective_history), 0x68df972f55863e3full);
  EXPECT_EQ(fnv1a_bits(r.spot_weights), 0xd2936d7ec7c97c11ull);
}

TEST(OptimizerGolden, RobustExpectedValueTrajectoryBits) {
  const RobustResult r = run_robust(RobustMode::kExpectedValue);
  EXPECT_EQ(r.iterations, 15u);
  EXPECT_EQ(fnv1a_bits(r.objective_history), 0xa8a91c0cfd10b230ull);
  EXPECT_EQ(fnv1a_bits(r.spot_weights), 0xcbfd951915d581d5ull);
}

TEST(OptimizerGolden, PlanProjectedGradientTrajectoryBits) {
  const OptimizerResult r = run_plan(OptimizerMethod::kProjectedGradient);
  EXPECT_EQ(r.iterations, 15u);
  EXPECT_EQ(fnv1a_bits(r.objective_history), 0xa72fb7f20a6bb95bull);
  EXPECT_EQ(fnv1a_bits(r.spot_weights), 0x00fb615f25e89a40ull);
}

TEST(OptimizerGolden, PlanLbfgsTrajectoryBits) {
  const OptimizerResult r = run_plan(OptimizerMethod::kLbfgs);
  EXPECT_EQ(r.iterations, 7u);
  EXPECT_EQ(fnv1a_bits(r.objective_history), 0xf13a38db0b7bd716ull);
  EXPECT_EQ(fnv1a_bits(r.spot_weights), 0x0f23d45e602209adull);
}

}  // namespace
}  // namespace pd::opt
