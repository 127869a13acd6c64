// Native-backend contract tests: DoseEngine with Backend::kNative must be
// *bitwise identical* to the gpusim backend for every kernel family, every
// precision mode, and every native thread count — the native kernels replay
// the simulated warp kernels' exact conversion points and reduction orders
// (docs/native_backend.md), and the nnz-balanced partitioning never changes
// which accumulator an element lands in.  The gpusim engine stays the
// differential oracle; these tests are the contract's enforcement.
//
// Also covered: compute_batch vs looped compute bitwise equality on both
// backends (the gpusim vector path chunks through run_vector_csr_multi, the
// native path does one batched traversal), and the counter-access error when
// only the native backend has run.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/launch.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/multivector_csr.hpp"
#include "kernels/vector_csr.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/random.hpp"

namespace pd::kernels {
namespace {

using Backend = DoseEngine::Backend;
using Mode = DoseEngine::Mode;

constexpr std::uint64_t kSeeds[] = {0, 42, 9001};
constexpr Mode kModes[] = {Mode::kHalfDouble, Mode::kSingle, Mode::kDouble};
constexpr unsigned kThreadCounts[] = {1, 2, 5};
constexpr SpmvFamily kFamilies[] = {SpmvFamily::kVector, SpmvFamily::kClassical,
                                    SpmvFamily::kRowSplit,
                                    SpmvFamily::kAdaptive};

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "dose[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

struct Problem {
  sparse::CsrF64 matrix;
  std::vector<double> x;
};

/// Skewed structure: mixes empty, short (segmented-scan path), and >= 32-nnz
/// rows (vector path), so the adaptive worklist exercises both item kinds.
Problem make_problem(std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.matrix = sparse::random_csr(rng, 300, 90, 12.0,
                                sparse::RandomStructure::kSkewed);
  p.x = sparse::random_vector(rng, 90, 0.0, 2.0);
  return p;
}

/// Matrix with guaranteed > chunk_nnz (512) rows so the row-split plan has
/// split rows and phase 2 (partial-slot fold) actually runs.  Column indices
/// are picked deterministically distinct (7 is coprime to 1500) so nnz is
/// exact, not subject to duplicate merging.
Problem make_rowsplit_problem(std::uint64_t seed) {
  Rng rng(seed);
  sparse::CooMatrix<double> coo;
  coo.num_rows = 40;
  coo.num_cols = 1500;
  for (std::uint32_t r = 0; r < coo.num_rows; ++r) {
    const std::uint64_t len =
        (r % 7 == 0) ? 700 + rng.uniform_index(400) : rng.uniform_index(30);
    for (std::uint64_t k = 0; k < len; ++k) {
      const auto c = static_cast<std::uint32_t>((k * 7 + r) % coo.num_cols);
      coo.entries.push_back({r, c, rng.uniform(0.01, 1.0)});
    }
  }
  Problem p;
  p.matrix = sparse::coo_to_csr(coo);
  p.x = sparse::random_vector(rng, coo.num_cols, 0.0, 2.0);
  return p;
}

Problem make_problem_for(SpmvFamily family, std::uint64_t seed) {
  return family == SpmvFamily::kRowSplit ? make_rowsplit_problem(seed)
                                         : make_problem(seed);
}

DoseEngine make_engine(const Problem& p, SpmvFamily family, Mode mode,
                       Backend backend, unsigned native_threads = 1) {
  DoseEngine engine(sparse::CsrF64(p.matrix), gpusim::make_a100(), mode,
                    kDefaultVectorTpb, family, backend);
  if (backend == Backend::kGpusim) {
    // Functional-only: dose values are identical to the full simulation
    // (pinned by the engine-equivalence tests) and the oracle runs fast.
    engine.set_engine_options({gpusim::TraceMode::kFunctionalOnly, 0});
  } else {
    engine.set_native_threads(native_threads);
  }
  return engine;
}

TEST(NativeBackend, BitwiseMatchesGpusimAcrossFamiliesModesThreads) {
  for (const std::uint64_t seed : kSeeds) {
    for (const SpmvFamily family : kFamilies) {
      const Problem p = make_problem_for(family, seed);
      for (const Mode mode : kModes) {
        DoseEngine oracle = make_engine(p, family, mode, Backend::kGpusim);
        const std::vector<double> expected = oracle.compute(p.x);
        for (const unsigned threads : kThreadCounts) {
          DoseEngine native =
              make_engine(p, family, mode, Backend::kNative, threads);
          expect_bitwise_equal(expected, native.compute(p.x));
        }
      }
    }
  }
}

/// compute_batch must be bitwise equal to looping compute, per column, on
/// both backends.  Batch width 11 crosses kMaxSpmvBatch (8) so the gpusim
/// vector path exercises its chunking loop.
TEST(NativeBackend, ComputeBatchMatchesLoopedCompute) {
  constexpr std::size_t kBatch = 11;
  static_assert(kBatch > kMaxSpmvBatch);
  const Problem p = make_problem(7);
  Rng rng(123);
  const std::vector<double> weights =
      sparse::random_vector(rng, kBatch * p.matrix.num_cols, 0.0, 2.0);
  for (const Backend backend : {Backend::kGpusim, Backend::kNative}) {
    for (const Mode mode : kModes) {
      DoseEngine engine =
          make_engine(p, SpmvFamily::kVector, mode, backend, 2);
      const auto batched = engine.compute_batch(weights, kBatch);
      ASSERT_EQ(batched.size(), kBatch);
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::span<const double> column(
            weights.data() + j * p.matrix.num_cols, p.matrix.num_cols);
        expect_bitwise_equal(engine.compute(column), batched[j]);
      }
    }
  }
}

/// Non-vector families fall back to looped single products inside
/// compute_batch; the equality must still hold (and stay bitwise across
/// backends).
TEST(NativeBackend, ComputeBatchNonVectorFamilyFallsBackBitwise) {
  constexpr std::size_t kBatch = 3;
  const Problem p = make_problem(21);
  Rng rng(456);
  const std::vector<double> weights =
      sparse::random_vector(rng, kBatch * p.matrix.num_cols, 0.0, 2.0);
  DoseEngine gpusim_engine = make_engine(p, SpmvFamily::kClassical,
                                         Mode::kHalfDouble, Backend::kGpusim);
  DoseEngine native_engine = make_engine(p, SpmvFamily::kClassical,
                                         Mode::kHalfDouble, Backend::kNative, 5);
  const auto expected = gpusim_engine.compute_batch(weights, kBatch);
  const auto actual = native_engine.compute_batch(weights, kBatch);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t j = 0; j < kBatch; ++j) {
    expect_bitwise_equal(expected[j], actual[j]);
  }
}

/// The native backend records no simulator counters: last_run()/
/// last_estimate() must keep throwing until a gpusim compute has run, and
/// switching backends on a live engine must not perturb the dose bits.
TEST(NativeBackend, CountersRequireGpusimRunAndBackendSwitchIsBitwise) {
  const Problem p = make_problem(3);
  DoseEngine engine = make_engine(p, SpmvFamily::kVector, Mode::kHalfDouble,
                                  Backend::kNative, 2);
  const std::vector<double> native_dose = engine.compute(p.x);
  EXPECT_THROW(engine.last_run(), pd::Error);
  EXPECT_THROW(engine.last_estimate(), pd::Error);

  engine.set_backend(Backend::kGpusim);
  const std::vector<double> gpusim_dose = engine.compute(p.x);
  EXPECT_NO_THROW(engine.last_run());
  expect_bitwise_equal(gpusim_dose, native_dose);

  engine.set_backend(Backend::kNative);
  expect_bitwise_equal(gpusim_dose, engine.compute(p.x));
}

/// The simulated L2 (~32 MiB of line arrays for the A100's 40 MiB) is
/// allocated by the first launch that models traffic.  Native and
/// functional-only computes never allocate it, and a launch on a cache that
/// was allocated late counts exactly what it counts on a fresh device.
TEST(NativeBackend, NativeOnlyEngineNeverAllocatesTheSimulatedL2) {
  const Problem p = make_problem(4);
  DoseEngine engine = make_engine(p, SpmvFamily::kVector, Mode::kHalfDouble,
                                  Backend::kNative, 2);
  const std::vector<double> native_dose = engine.compute(p.x);
  engine.compute_batch(std::vector<double>(3 * p.x.size(), 0.5), 3);
  EXPECT_EQ(engine.sim_cache_bytes(), 0u);

  engine.set_backend(Backend::kGpusim);
  engine.set_engine_options({gpusim::TraceMode::kFunctionalOnly, 0});
  expect_bitwise_equal(engine.compute(p.x), native_dose);
  EXPECT_EQ(engine.sim_cache_bytes(), 0u);

  engine.set_engine_options({gpusim::TraceMode::kSerial, 0});
  expect_bitwise_equal(engine.compute(p.x), native_dose);
  EXPECT_GT(engine.sim_cache_bytes(), 0u);
  EXPECT_GT(engine.last_run().stats.traffic.dram_read_bytes, 0u);

  // Counters depend on operand addresses, so compare devices on the same
  // buffers: one that ran functional-only launches and cold starts before
  // its first counting launch, and a fresh one.
  const auto half = sparse::convert_values<pd::Half>(p.matrix);
  std::vector<double> y(half.num_rows);
  const std::span<const double> x(p.x);
  gpusim::Gpu fresh(gpusim::make_a100());
  const SpmvRun expected =
      run_vector_csr<pd::Half, double>(fresh, half, x, std::span<double>(y));
  gpusim::Gpu late(gpusim::make_a100());
  late.set_engine({gpusim::TraceMode::kFunctionalOnly, 0});
  run_vector_csr<pd::Half, double>(late, half, x, std::span<double>(y));
  late.invalidate_cache();
  EXPECT_EQ(late.cache_resident_bytes(), 0u);
  late.set_engine({gpusim::TraceMode::kSerial, 0});
  const SpmvRun actual =
      run_vector_csr<pd::Half, double>(late, half, x, std::span<double>(y));
  EXPECT_GT(late.cache_resident_bytes(), 0u);
  const gpusim::TrafficCounters& a = actual.stats.traffic;
  const gpusim::TrafficCounters& e = expected.stats.traffic;
  EXPECT_EQ(a.dram_read_bytes, e.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, e.dram_write_bytes);
  EXPECT_EQ(a.l2_read_sectors, e.l2_read_sectors);
  EXPECT_EQ(a.l2_write_sectors, e.l2_write_sectors);
  EXPECT_EQ(a.l2_read_hits, e.l2_read_hits);
  EXPECT_EQ(a.l2_write_hits, e.l2_write_hits);
  EXPECT_EQ(a.sectors_requested, e.sectors_requested);
}

}  // namespace
}  // namespace pd::kernels
