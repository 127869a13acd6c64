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
// native path does one batched traversal), the counter-access error when
// only the native backend has run, and (NativeRowKernel) the AVX2 row body
// against the scalar row body on chunk-boundary lengths and IEEE specials.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/launch.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/multivector_csr.hpp"
#include "kernels/native_spmv.hpp"
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

// --- SIMD row kernel ---------------------------------------------------------
// native_row_product_avx2 and native_row_product_scalar called directly: the
// two bodies must agree bit for bit on every row length around the 32-lane
// chunk boundaries and on every IEEE special a half matrix or a weight vector
// can hold.  Each row is packed into its own exactly sized arrays, so its
// tail ends at the last element of `values` / `col_idx` and any read past it
// is a heap overflow under the sanitizer build.  Within one row at most one
// NaN payload can arise: which of two NaN operands x86 propagates depends on
// operand order, which the scalar code leaves to the compiler.

struct PackedRow {
  std::vector<pd::Half> values;
  std::vector<std::uint32_t> col_idx;
};

bool have_simd_row_kernel(std::uint64_t num_cols) {
  return native_row_simd<double, pd::Half, std::uint32_t>(num_cols);
}

/// Random row of `len` entries in exactly sized arrays: values drawn from
/// `value_pool`, columns uniform over x.
PackedRow random_row(Rng& rng, std::size_t len,
                     const std::vector<pd::Half>& value_pool,
                     std::size_t num_cols) {
  std::vector<pd::Half> v(len);
  std::vector<std::uint32_t> c(len);
  for (std::size_t k = 0; k < len; ++k) {
    v[k] = value_pool[rng.uniform_index(value_pool.size())];
    c[k] = static_cast<std::uint32_t>(rng.uniform_index(num_cols));
  }
  return {std::move(v), std::move(c)};
}

/// Scalar oracle vs the dispatcher, and (when the CPU has it) vs the AVX2
/// body, on the row's full range.
void expect_row_bodies_agree(const PackedRow& row, const std::vector<double>& x,
                             const std::string& what) {
  const std::uint64_t len = row.values.size();
  const double scalar = native_row_product_scalar(
      row.values.data(), row.col_idx.data(), x.data(), 0, len);
  const double dispatched = native_row_product(
      row.values.data(), row.col_idx.data(), x.data(), 0, len, x.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dispatched),
            std::bit_cast<std::uint64_t>(scalar))
      << what << " len " << len << ": " << dispatched << " vs " << scalar;
#if defined(PD_NATIVE_F16C_DISPATCH)
  if (have_simd_row_kernel(x.size())) {
    const double simd = native_row_product_avx2(
        row.values.data(), row.col_idx.data(), x.data(), 0, len);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(simd),
              std::bit_cast<std::uint64_t>(scalar))
        << what << " len " << len << ": " << simd << " vs " << scalar;
  }
#endif
}

std::vector<std::size_t> chunk_boundary_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 130; ++n) {
    lens.push_back(n);
  }
  for (const std::size_t n : {255, 256, 257, 512, 513}) {
    lens.push_back(n);
  }
  return lens;
}

std::vector<pd::Half> normal_halves(Rng& rng, std::size_t n) {
  std::vector<pd::Half> pool(n);
  for (pd::Half& h : pool) {
    h = pd::Half(rng.uniform(-4.0, 4.0));
  }
  return pool;
}

std::vector<double> doubles_from_bits(std::initializer_list<std::uint64_t> b) {
  std::vector<double> out;
  for (const std::uint64_t bits : b) {
    out.push_back(std::bit_cast<double>(bits));
  }
  return out;
}

constexpr std::size_t kRowKernelCols = 700;

TEST(NativeRowKernel, ReportsTheBodyItRuns) {
  const bool simd = have_simd_row_kernel(kRowKernelCols);
  EXPECT_STREQ(
      (native_row_kernel_name<double, pd::Half, std::uint32_t>(kRowKernelCols)),
      simd ? "avx2" : "scalar");
  // Only the default storage has a SIMD body, and only for column indices
  // that fit a signed 32-bit gather index.
  EXPECT_FALSE((native_row_simd<float, pd::Half, std::uint32_t>(100)));
  EXPECT_FALSE((native_row_simd<double, double, std::uint32_t>(100)));
  EXPECT_FALSE((native_row_simd<double, pd::Half, std::uint32_t>(
      (std::uint64_t{1} << 31) + 1)));
  EXPECT_EQ((native_row_simd<double, pd::Half, std::uint32_t>(
                std::uint64_t{1} << 31)),
            simd);
}

TEST(NativeRowKernel, ChunkBoundaryLengthsMatchScalarBitwise) {
  Rng rng(15);
  const std::vector<double> x =
      sparse::random_vector(rng, kRowKernelCols, -2.0, 2.0);
  const std::vector<pd::Half> pool = normal_halves(rng, 64);
  for (const std::size_t len : chunk_boundary_lengths()) {
    for (int rep = 0; rep < 3; ++rep) {
      expect_row_bodies_agree(random_row(rng, len, pool, kRowKernelCols), x,
                              "normal values");
    }
  }
}

TEST(NativeRowKernel, HalfAndWeightSpecialsMatchScalarBitwise) {
  // ±0, subnormals, max finite and ±Inf on both sides: 0·Inf and Inf−Inf
  // only ever produce the one default NaN.
  Rng rng(16);
  const std::vector<pd::Half> pool{
      pd::Half::zero(),       -pd::Half::zero(),
      pd::Half::denorm_min(), pd::Half::from_bits(0x83ff),  // -subnormal
      pd::Half::max(),        -pd::Half::max(),
      pd::Half::infinity(),   -pd::Half::infinity(),
      pd::Half(1.5),          pd::Half(-0.375)};
  // x[0] = +Inf: a tail lane that read x through its zero-padded index
  // would turn into NaN.
  std::vector<double> x = doubles_from_bits(
      {0x7ff0000000000000ULL, 0x8000000000000000ULL, 0x0000000000000001ULL,
       0x800fffffffffffffULL, 0xfff0000000000000ULL, 0x7fefffffffffffffULL});
  while (x.size() < kRowKernelCols) {
    x.push_back(rng.uniform(-3.0, 3.0));
  }
  for (const std::size_t len : chunk_boundary_lengths()) {
    expect_row_bodies_agree(random_row(rng, len, pool, x.size()), x,
                            "specials");
  }
  // Rows that read only the specials (columns 0..5).
  for (const std::size_t len : chunk_boundary_lengths()) {
    expect_row_bodies_agree(random_row(rng, len, pool, 6), x,
                            "specials only");
  }
}

TEST(NativeRowKernel, HalfNanPayloadsMatchScalarBitwise) {
  Rng rng(17);
  const std::vector<double> x =
      sparse::random_vector(rng, kRowKernelCols, 0.25, 2.0);
  // A signaling NaN (quieted on widening) and a negative quiet NaN, each
  // with a payload; one per row.
  for (const std::uint16_t nan : {std::uint16_t{0x7d23}, std::uint16_t{0xfe11}}) {
    const std::vector<pd::Half> pool{
        pd::Half::from_bits(nan), pd::Half::zero(),      -pd::Half::zero(),
        pd::Half::denorm_min(),   pd::Half::max(),       pd::Half(0.5),
        pd::Half(-1.25),          pd::Half(3.0)};
    for (const std::size_t len : chunk_boundary_lengths()) {
      expect_row_bodies_agree(random_row(rng, len, pool, x.size()), x,
                              "half NaN");
    }
  }
}

TEST(NativeRowKernel, WeightNanPayloadsMatchScalarBitwise) {
  Rng rng(18);
  const std::vector<pd::Half> pool{pd::Half::zero(),       -pd::Half::zero(),
                                   pd::Half::denorm_min(), pd::Half::max(),
                                   pd::Half(0.5),          pd::Half(-2.0)};
  for (const std::uint64_t nan :
       {0x7ff0000000000123ULL, 0xfff8000000000abcULL}) {
    std::vector<double> x = doubles_from_bits(
        {nan, 0x8000000000000000ULL, 0x0000000000000001ULL,
         0x800fffffffffffffULL});
    while (x.size() < 40) {
      x.push_back(rng.uniform(-2.0, 2.0));
    }
    for (const std::size_t len : chunk_boundary_lengths()) {
      expect_row_bodies_agree(random_row(rng, len, pool, x.size()), x,
                              "weight NaN");
    }
  }
}

}  // namespace
}  // namespace pd::kernels
