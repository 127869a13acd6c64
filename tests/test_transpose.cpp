// Transpose tests: sparse::transpose (the two-pass counting sort, serial and
// multithreaded) and DoseEngine::transposed (the gradient engine built by
// permuting the forward engine's stored values).
//
//  * The parallel transpose's arrays are identical for every part count.
//  * The transpose is a pure permutation: duplicate coordinates stay
//    separate entries, values are never combined or converted.
//  * DoseEngine::transposed products are bitwise equal to an engine built
//    from the oracle transpose — the block widened to double and transposed
//    through the COO path — for every mode, backend, family and native
//    thread count, on row blocks of a stacked matrix.
//  * The row-block constructor (the robust optimizer's stacked forward
//    engine) stores exactly what the single-matrix constructor stores for
//    the stacked matrix.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/native_backend.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/partition.hpp"
#include "sparse/random.hpp"

namespace pd {
namespace {

using kernels::DoseEngine;
using kernels::kDefaultVectorTpb;
using kernels::SpmvFamily;
using Backend = DoseEngine::Backend;
using Mode = DoseEngine::Mode;
using sparse::CsrF64;

/// The COO-relabel transpose: swap each entry's coordinates and reassemble.
CsrF64 oracle_transpose(const CsrF64& m) {
  sparse::CooMatrix<double> coo = sparse::csr_to_coo(m);
  std::swap(coo.num_rows, coo.num_cols);
  for (auto& e : coo.entries) {
    std::swap(e.row, e.col);
  }
  return sparse::coo_to_csr(coo);
}

template <typename V>
void expect_same_arrays(const sparse::CsrMatrix<V>& a,
                        const sparse::CsrMatrix<V>& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.num_cols, b.num_cols);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col_idx, b.col_idx);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(a.values[k])),
              std::bit_cast<std::uint64_t>(static_cast<double>(b.values[k])))
        << "entry " << k;
  }
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// Three scenario-like blocks stacked row-wise.  Many empty rows, and the
/// last kEmptyCols columns are never used (empty output rows of the
/// transpose).
constexpr std::uint64_t kBlockRows = 70;
constexpr std::uint64_t kCols = 64;
constexpr std::uint64_t kEmptyCols = 5;

std::vector<CsrF64> scenario_blocks(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CsrF64> blocks;
  for (const auto structure :
       {sparse::RandomStructure::kManyEmpty, sparse::RandomStructure::kSkewed,
        sparse::RandomStructure::kManyEmpty}) {
    CsrF64 b = sparse::random_csr(rng, kBlockRows, kCols - kEmptyCols, 9.0,
                                  structure);
    b.num_cols = kCols;
    blocks.push_back(std::move(b));
  }
  return blocks;
}

CsrF64 stacked_blocks(std::uint64_t seed) {
  const std::vector<CsrF64> blocks = scenario_blocks(seed);
  return sparse::vstack_rows(std::span<const CsrF64>(blocks));
}

// --- sparse::transpose ------------------------------------------------------

TEST(Transpose, MatchesTheCooOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrF64 m = stacked_blocks(seed);
    expect_same_arrays(sparse::transpose(m), oracle_transpose(m));
  }
}

TEST(Transpose, RowBlockIsTheTransposeOfTheExtractedBlock) {
  const CsrF64 m = stacked_blocks(4);
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {0, kBlockRows},                   // first block
      {2 * kBlockRows, 3 * kBlockRows},  // last block
      {kBlockRows + 3, kBlockRows + 4},  // one row
      {17, 17},                          // no rows
  };
  for (const auto& [b, e] : ranges) {
    expect_same_arrays(sparse::transpose(m, b, e),
                       oracle_transpose(sparse::extract_row_block(m, b, e)));
  }
}

TEST(Transpose, ArraysAreIdenticalForEveryPartCount) {
  const CsrF64 m = stacked_blocks(5);
  const auto half = sparse::convert_values<pd::Half>(m);
  const CsrF64 serial = sparse::transpose(m);
  const auto serial_block = sparse::transpose(half, kBlockRows, 2 * kBlockRows);
  for (unsigned parts = 1; parts <= 8; ++parts) {
    kernels::NativeExecutor exec;
    exec.set_threads(parts);
    const auto run = [&exec](std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
      exec.run(n, fn);
    };
    SCOPED_TRACE(parts);
    expect_same_arrays(sparse::transpose(m, 0, m.num_rows, parts, run), serial);
    expect_same_arrays(
        sparse::transpose(half, kBlockRows, 2 * kBlockRows, parts, run),
        serial_block);
  }
}

TEST(Transpose, IsAPurePermutationKeepingDuplicates) {
  // Row 0 holds column 1 twice (non-canonical input).  The transpose keeps
  // both entries, in source order, with their own values: nothing is summed.
  CsrF64 m;
  m.num_rows = 2;
  m.num_cols = 3;
  m.row_ptr = {0, 3, 4};
  m.col_idx = {1, 1, 2, 1};
  m.values = {0.1, 0.2, 0.3, 0.4};
  const CsrF64 t = sparse::transpose(m);
  EXPECT_EQ(t.row_ptr, (std::vector<std::uint32_t>{0, 0, 3, 4}));
  EXPECT_EQ(t.col_idx, (std::vector<std::uint32_t>{0, 0, 1, 0}));
  EXPECT_EQ(t.values, (std::vector<double>{0.1, 0.2, 0.4, 0.3}));

  // Involution on canonical input.
  const CsrF64 c = stacked_blocks(6);
  expect_same_arrays(sparse::transpose(sparse::transpose(c)), c);
}

TEST(Transpose, RejectsBadRanges) {
  const CsrF64 m = stacked_blocks(7);
  EXPECT_THROW(sparse::transpose(m, 5, 4), pd::Error);
  EXPECT_THROW(sparse::transpose(m, 0, m.num_rows + 1), pd::Error);
}

// --- DoseEngine::transposed ---------------------------------------------------

constexpr SpmvFamily kFamilies[] = {SpmvFamily::kVector, SpmvFamily::kClassical,
                                    SpmvFamily::kRowSplit,
                                    SpmvFamily::kAdaptive};

class EngineTranspose
    : public ::testing::TestWithParam<std::tuple<Mode, Backend, unsigned>> {};

TEST_P(EngineTranspose, ProductsMatchTheOracleEngine) {
  const auto [mode, backend, threads] = GetParam();
  const std::vector<CsrF64> scenarios = scenario_blocks(8);
  Rng rng(99);
  const std::pair<std::uint64_t, std::uint64_t> blocks[] = {
      {0, kBlockRows},                     // first block
      {2 * kBlockRows, 3 * kBlockRows},    // last block
      {kBlockRows + 11, kBlockRows + 12},  // one row
  };
  for (const SpmvFamily family : kFamilies) {
    // The robust optimizer's forward engine: scenarios stacked row-wise.
    DoseEngine forward(scenarios, gpusim::make_a100(), mode,
                       kDefaultVectorTpb, family, backend);
    forward.set_native_threads(threads);
    forward.set_engine_options({gpusim::TraceMode::kTraceReplay, 2});
    const CsrF64 stored = forward.stored_matrix_as_double();
    for (const auto& [b, e] : blocks) {
      SCOPED_TRACE(::testing::Message()
                   << "family " << static_cast<int>(family) << " rows [" << b
                   << ", " << e << ")");
      DoseEngine t = forward.transposed(b, e);
      DoseEngine oracle(
          oracle_transpose(sparse::extract_row_block(stored, b, e)),
          gpusim::make_a100(), mode, kDefaultVectorTpb, family, backend);
      EXPECT_EQ(t.mode(), mode);
      EXPECT_EQ(t.family(), family);
      EXPECT_EQ(t.backend(), backend);
      EXPECT_EQ(t.native_threads(), threads);
      EXPECT_EQ(t.engine_options().mode, gpusim::TraceMode::kTraceReplay);
      expect_same_arrays(t.stored_matrix_as_double(),
                         oracle.stored_matrix_as_double());

      const sparse::MatrixStats& ts = t.stats();
      const sparse::MatrixStats& os = oracle.stats();
      EXPECT_EQ(ts.rows, os.rows);
      EXPECT_EQ(ts.cols, os.cols);
      EXPECT_EQ(ts.nnz, os.nnz);
      EXPECT_EQ(ts.empty_rows, os.empty_rows);
      EXPECT_EQ(ts.max_row_nnz, os.max_row_nnz);
      EXPECT_EQ(ts.sorted_nonempty_lengths, os.sorted_nonempty_lengths);
      EXPECT_GT(ts.empty_rows, 0u);

      const std::vector<double> g =
          sparse::random_vector(rng, t.num_spots(), -1.0, 2.0);
      expect_bitwise_equal(t.compute(g), oracle.compute(g));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesBackendsThreads, EngineTranspose,
    ::testing::Combine(::testing::Values(Mode::kHalfDouble, Mode::kSingle,
                                         Mode::kDouble),
                       ::testing::Values(Backend::kGpusim, Backend::kNative),
                       ::testing::Values(1u, 2u, 5u)));

TEST(EngineTranspose, RowBlockConstructorEqualsTheStackedMatrix) {
  const std::vector<CsrF64> scenarios = scenario_blocks(9);
  const CsrF64 stacked = sparse::vstack_rows(std::span<const CsrF64>(scenarios));
  Rng rng(7);
  const std::vector<double> x = sparse::random_vector(rng, kCols, 0.0, 2.0);
  for (const Mode mode : {Mode::kHalfDouble, Mode::kSingle, Mode::kDouble}) {
    DoseEngine from_blocks(scenarios, gpusim::make_a100(), mode,
                           kDefaultVectorTpb, SpmvFamily::kAdaptive,
                           Backend::kNative);
    DoseEngine from_stack(stacked, gpusim::make_a100(), mode,
                          kDefaultVectorTpb, SpmvFamily::kAdaptive,
                          Backend::kNative);
    expect_same_arrays(from_blocks.stored_matrix_as_double(),
                       from_stack.stored_matrix_as_double());
    EXPECT_EQ(from_blocks.stats().sorted_nonempty_lengths,
              from_stack.stats().sorted_nonempty_lengths);
    expect_bitwise_equal(from_blocks.compute(x), from_stack.compute(x));
  }
  std::vector<CsrF64> bad = scenarios;
  bad[1].col_idx.front() = static_cast<std::uint32_t>(kCols);
  EXPECT_THROW(DoseEngine(bad, gpusim::make_a100()), pd::Error);
}

TEST(EngineTranspose, WholeMatrixTransposeRoundTrips) {
  const CsrF64 m = stacked_blocks(10);
  DoseEngine forward(m, gpusim::make_a100(), Mode::kHalfDouble,
                     kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  forward.set_native_threads(3);
  DoseEngine t = forward.transposed(0, forward.num_voxels());
  EXPECT_EQ(t.num_voxels(), m.num_cols);
  EXPECT_EQ(t.num_spots(), m.num_rows);
  DoseEngine tt = t.transposed(0, t.num_voxels());
  expect_same_arrays(tt.stored_matrix_as_double(),
                     forward.stored_matrix_as_double());
}

}  // namespace
}  // namespace pd
