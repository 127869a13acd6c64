// Tests for TreatmentPlan (multi-beam composition, deliverability
// post-processing) and row-block partitioning (multi-device SpMV).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "opt/plan.hpp"
#include "sparse/partition.hpp"
#include "sparse/random.hpp"
#include "sparse/reference.hpp"

namespace pd {
namespace {

sparse::CsrF64 beam_matrix(std::uint64_t seed, std::uint64_t rows = 200,
                           std::uint64_t cols = 40) {
  Rng rng(seed);
  return sparse::random_csr(rng, rows, cols, 6.0,
                            sparse::RandomStructure::kManyEmpty);
}

// --- TreatmentPlan -----------------------------------------------------------

TEST(TreatmentPlan, ComposesBeamsColumnwise) {
  opt::TreatmentPlan plan;
  plan.add_beam("b0", 0.0, beam_matrix(1));
  plan.add_beam("b1", 180.0, beam_matrix(2, 200, 25));
  EXPECT_EQ(plan.num_beams(), 2u);
  EXPECT_EQ(plan.total_spots(), 65u);
  EXPECT_EQ(plan.beam(0).first_spot, 0u);
  EXPECT_EQ(plan.beam(1).first_spot, 40u);
  EXPECT_EQ(plan.beam(1).num_spots, 25u);

  const auto combined = plan.combined_matrix();
  EXPECT_EQ(combined.num_cols, 65u);
  EXPECT_EQ(combined.num_rows, 200u);
  EXPECT_EQ(combined.nnz(), beam_matrix(1).nnz() + beam_matrix(2, 200, 25).nnz());
}

TEST(TreatmentPlan, CombinedSpmvEqualsSumOfBeamDoses) {
  opt::TreatmentPlan plan;
  plan.add_beam("b0", 0.0, beam_matrix(3));
  plan.add_beam("b1", 90.0, beam_matrix(4, 200, 30));
  Rng rng(5);
  const auto x = sparse::random_vector(rng, plan.total_spots());

  const auto combined = plan.combined_matrix();
  std::vector<double> y_combined(combined.num_rows);
  sparse::reference_spmv(combined, x, y_combined);

  const auto per_beam = plan.per_beam_dose(x);
  ASSERT_EQ(per_beam.size(), 2u);
  for (std::uint64_t r = 0; r < combined.num_rows; ++r) {
    EXPECT_NEAR(per_beam[0][r] + per_beam[1][r], y_combined[r],
                1e-12 * (1.0 + std::fabs(y_combined[r])));
  }
}

TEST(TreatmentPlan, LocateAndSliceSpots) {
  opt::TreatmentPlan plan;
  plan.add_beam("b0", 0.0, beam_matrix(6));
  plan.add_beam("b1", 90.0, beam_matrix(7, 200, 30));
  EXPECT_EQ(plan.locate_spot(0), (std::pair<std::size_t, std::uint32_t>{0, 0}));
  EXPECT_EQ(plan.locate_spot(39), (std::pair<std::size_t, std::uint32_t>{0, 39}));
  EXPECT_EQ(plan.locate_spot(40), (std::pair<std::size_t, std::uint32_t>{1, 0}));
  EXPECT_EQ(plan.locate_spot(69), (std::pair<std::size_t, std::uint32_t>{1, 29}));
  EXPECT_THROW(plan.locate_spot(70), Error);

  std::vector<double> global(plan.total_spots());
  for (std::size_t i = 0; i < global.size(); ++i) global[i] = static_cast<double>(i);
  const auto b1 = plan.beam_weights(1, global);
  ASSERT_EQ(b1.size(), 30u);
  EXPECT_DOUBLE_EQ(b1.front(), 40.0);
  EXPECT_DOUBLE_EQ(b1.back(), 69.0);
}

TEST(TreatmentPlan, RejectsMismatchedGridsAndBadInput) {
  opt::TreatmentPlan plan;
  plan.add_beam("b0", 0.0, beam_matrix(8));
  EXPECT_THROW(plan.add_beam("b1", 0.0, beam_matrix(9, 150, 30)), Error);
  EXPECT_THROW(plan.beam(5), Error);
  EXPECT_THROW(plan.beam_weights(0, std::vector<double>(3)), Error);
  opt::TreatmentPlan empty;
  EXPECT_THROW(empty.combined_matrix(), Error);
}

TEST(TreatmentPlan, MinimumSpotWeightRounding) {
  std::vector<double> w{1.0, 0.009, 0.04, 0.0, 0.06, 0.5};
  // min fraction 0.05 -> threshold 0.05: 0.009 -> 0, 0.04 -> 0.05 (closer).
  const std::size_t modified =
      opt::TreatmentPlan::apply_minimum_spot_weight(w, 0.05);
  EXPECT_EQ(modified, 2u);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 0.05);
  EXPECT_DOUBLE_EQ(w[3], 0.0);   // already zero: untouched
  EXPECT_DOUBLE_EQ(w[4], 0.06);  // above threshold: untouched
  EXPECT_THROW(opt::TreatmentPlan::apply_minimum_spot_weight(w, 1.0), Error);
}

// --- row partitioning --------------------------------------------------------

TEST(RowPartition, BoundariesCoverAllRows) {
  const auto m = beam_matrix(10, 500, 60);
  for (const std::size_t parts : {1u, 2u, 4u, 7u}) {
    const auto p = sparse::balanced_row_partition(m, parts);
    ASSERT_EQ(p.parts(), parts);
    EXPECT_EQ(p.boundaries.front(), 0u);
    EXPECT_EQ(p.boundaries.back(), m.num_rows);
    for (std::size_t i = 1; i < p.boundaries.size(); ++i) {
      EXPECT_LT(p.boundaries[i - 1], p.boundaries[i]);  // non-empty parts
    }
  }
  EXPECT_THROW(sparse::balanced_row_partition(m, 0), Error);
  EXPECT_THROW(sparse::balanced_row_partition(m, 501), Error);
}

TEST(RowPartition, BalancedWithinLargestRow) {
  Rng rng(11);
  const auto m = sparse::random_csr(rng, 2000, 100, 20.0,
                                    sparse::RandomStructure::kSkewed);
  const auto p = sparse::balanced_row_partition(m, 4);
  // Imbalance bounded by ideal + the largest single row.
  std::uint64_t max_row = 0;
  for (std::uint64_t r = 0; r < m.num_rows; ++r) {
    max_row = std::max(max_row, m.row_nnz(r));
  }
  const double ideal = static_cast<double>(m.nnz()) / 4.0;
  EXPECT_LE(sparse::partition_imbalance(m, p),
            (ideal + static_cast<double>(max_row)) / ideal + 1e-9);
  EXPECT_LT(sparse::partition_imbalance(m, p), 1.5);  // and practically tight
}

TEST(RowPartition, PropertiesHoldOnRandomMatrices) {
  // Contiguous, no empty parts, and no part holds more than its ideal share
  // plus the largest row — across structures (including mostly-empty rows
  // and an all-empty matrix) and every part count up to the row count.
  Rng rng(14);
  std::vector<sparse::CsrF64> matrices;
  for (const auto structure :
       {sparse::RandomStructure::kUniform, sparse::RandomStructure::kSkewed,
        sparse::RandomStructure::kManyEmpty, sparse::RandomStructure::kBanded}) {
    for (const std::uint64_t rows : {1u, 2u, 7u, 64u, 333u}) {
      matrices.push_back(sparse::random_csr(rng, rows, 50, 6.0, structure));
    }
  }
  sparse::CsrF64 empty;
  empty.num_rows = 12;
  empty.num_cols = 3;
  empty.row_ptr.assign(13, 0);
  matrices.push_back(empty);
  for (const auto& m : matrices) {
    std::uint64_t max_row = 0;
    for (std::uint64_t r = 0; r < m.num_rows; ++r) {
      max_row = std::max(max_row, m.row_nnz(r));
    }
    const std::size_t max_parts =
        std::min<std::size_t>(m.num_rows, 20);
    for (std::size_t parts = 1; parts <= max_parts; ++parts) {
      const auto p = sparse::balanced_row_partition(m, parts);
      ASSERT_EQ(p.parts(), parts);
      EXPECT_EQ(p.boundaries.front(), 0u);
      EXPECT_EQ(p.boundaries.back(), m.num_rows);
      for (std::size_t i = 0; i < parts; ++i) {
        EXPECT_LT(p.boundaries[i], p.boundaries[i + 1]);
        const std::uint64_t nnz =
            m.row_ptr[p.boundaries[i + 1]] - m.row_ptr[p.boundaries[i]];
        // nnz <= nnz_total/parts + max_row, in integers.
        EXPECT_LE(nnz * parts, m.nnz() + max_row * parts)
            << "rows " << m.num_rows << " parts " << parts << " part " << i;
      }
    }
  }
}

TEST(RowPartition, BlockSpmvReassemblesBitwise) {
  Rng rng(12);
  const auto m = sparse::random_csr(rng, 800, 80, 10.0,
                                    sparse::RandomStructure::kSkewed);
  const auto x = sparse::random_vector(rng, m.num_cols);
  std::vector<double> y_full(m.num_rows);
  sparse::reference_spmv(m, x, y_full);

  const auto p = sparse::balanced_row_partition(m, 3);
  std::vector<double> y_blocks;
  for (std::size_t i = 0; i < p.parts(); ++i) {
    const auto block =
        sparse::extract_row_block(m, p.boundaries[i], p.boundaries[i + 1]);
    EXPECT_NO_THROW(block.validate());
    std::vector<double> y(block.num_rows);
    sparse::reference_spmv(block, x, y);
    y_blocks.insert(y_blocks.end(), y.begin(), y.end());
  }
  // Row-block decomposition is exact: no reduction, so bitwise equality.
  ASSERT_EQ(y_blocks.size(), y_full.size());
  EXPECT_EQ(y_blocks, y_full);
}

TEST(RowPartition, ExtractValidatesRange) {
  const auto m = beam_matrix(13);
  EXPECT_THROW(sparse::extract_row_block(m, 5, 3), Error);
  EXPECT_THROW(sparse::extract_row_block(m, 0, m.num_rows + 1), Error);
  const auto empty = sparse::extract_row_block(m, 7, 7);
  EXPECT_EQ(empty.num_rows, 0u);
  EXPECT_EQ(empty.nnz(), 0u);
}

}  // namespace
}  // namespace pd
